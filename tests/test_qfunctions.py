"""Algebra-layer tests: reduction, Hopf structure, coordinates, the
classical orthogonal family, eigenvalue specializations."""

import hashlib
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from qgenus import qfunctions
from qgenus.cli import cli
from qgenus.errors import DomainError
from qgenus.qfunctions import (QElement, QTensor, antipode, classical_q,
                               coproduct, counit, eigen_universe, inner,
                               inner_x, lambda_duality_check, q_in_x,
                               q_reduce, strict_partitions, two_row, x_in_q,
                               x_pair, xpoly_to_q)
from qgenus.rings import CycloRational, SparsePoly, UX
from qgenus.series import TruncatedSeries

F = Fraction

small_partitions = st.lists(st.integers(1, 6), min_size=0, max_size=4)


# --------------------------------------------------------------- reduction

def test_squares_of_first_generators():
    assert q_reduce((1, 1)) == {(2,): 2}
    assert q_reduce((2, 2)) == {(3, 1): 2, (4,): -2}
    assert QElement.gen(1) * QElement.gen(1) == QElement({(2,): 2})


def test_defining_series_relation_holds_after_reduction():
    # [U^n] q(U) q(-U) = 0 for n >= 1; this re-derives the rewriting rule
    # from the defining relation, order by order.
    for n in range(1, 11):
        acc = QElement.zero()
        for j in range(n + 1):
            l = n - j
            term = QElement.one()
            if j:
                term = term * QElement.gen(j)
            if l:
                term = term * QElement.gen(l)
            acc = acc + (-1) ** l * term
        assert acc == QElement.zero(), f"relation fails at degree {n}"


@given(small_partitions)
def test_reduction_lands_in_strict_basis_and_preserves_weight(parts):
    red = q_reduce(parts)
    w = sum(parts)
    for basis, c in red.items():
        assert all(a > b for a, b in zip(basis, basis[1:]))
        assert sum(basis) == w
        assert c.denominator == 1


@given(small_partitions)
def test_reduction_agrees_with_free_coordinate_route(parts):
    # Independent oracle: the x-coordinate image is computed through the
    # exponential of the log-series and never uses the rewriting rule.
    direct = SparsePoly.const(UX, 1)
    for p in parts:
        direct = direct * q_in_x(p)
    via_reduction = QElement.monomial(parts).to_x()
    assert direct == via_reduction


@given(small_partitions)
def test_reduction_coefficients_are_ints(parts):
    assert all(type(c) is int for c in q_reduce(parts).values())
    assert all(type(c) is int for red in qfunctions._REDUCE_MEMO.values()
               for c in red.values())


def test_deep_reduction_terminates():
    red = q_reduce((8, 8, 7))  # weight 23 forces a long rewrite cascade
    assert all(sum(p) == 23 for p in red)
    assert red  # nonzero


# ---------------------------------------------------------------- products
# Oracle: the Fraction product, term by term, of the reduced pairs.

strict_parts = st.lists(st.integers(1, 6), max_size=3, unique=True).map(
    lambda ps: tuple(sorted(ps, reverse=True)))
coefficients = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
elements = st.dictionaries(strict_parts, coefficients, max_size=4).map(QElement)
tensors = st.dictionaries(st.tuples(strict_parts, strict_parts), coefficients,
                          max_size=4).map(QTensor)


def _fraction_product(x: QElement, y: QElement) -> dict:
    out = {}
    for p1, c1 in x.terms.items():
        for p2, c2 in y.terms.items():
            for basis, r in q_reduce(p1 + p2).items():
                out[basis] = out.get(basis, F(0)) + F(c1) * F(c2) * r
    return {b: c for b, c in out.items() if c}


def _fraction_tensor_product(x: QTensor, y: QTensor) -> dict:
    out = {}
    for (l1, r1), c1 in x.terms.items():
        for (l2, r2), c2 in y.terms.items():
            for bl, cl in q_reduce(l1 + l2).items():
                for br, cr in q_reduce(r1 + r2).items():
                    key = (bl, br)
                    out[key] = out.get(key, F(0)) + F(c1) * F(c2) * cl * cr
    return {k: c for k, c in out.items() if c}


@given(elements, elements)
def test_product_matches_fraction_reference(x, y):
    prod = x * y
    assert prod.terms == _fraction_product(x, y)
    assert all(type(c) is Fraction for c in prod.terms.values())


@given(tensors, tensors)
def test_tensor_product_matches_fraction_reference(x, y):
    prod = x * y
    assert prod.terms == _fraction_tensor_product(x, y)
    assert all(type(c) is Fraction for c in prod.terms.values())


def test_products_over_every_denominator_through_twelve():
    x = QElement({(d,): F(1, d) for d in range(1, 13)})
    y = QElement({(d, 1): F(d - 7, d) for d in range(2, 13)} | {(): F(5, 12)})
    assert (x * y).terms == _fraction_product(x, y)
    t = QTensor({((d,), (13 - d,)): F(1, d) for d in range(1, 13)})
    assert (t * t).terms == _fraction_tensor_product(t, t)


def test_product_with_cancelling_terms():
    # (1 + q1 + q2)(1 - q1 + q2) = 1 + q2^2: degrees 1-3 cancel by the
    # defining relation
    x = QElement({(): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)})
    y = QElement({(): F(3, 4), (1,): F(-3, 4), (2,): F(3, 4)})
    assert x * y == QElement({(): F(1, 4), (3, 1): F(1, 2), (4,): F(-1, 2)})
    # (q1 (x) 1 + 1 (x) q1)(q1 (x) 1 - 1 (x) q1) = q1^2 (x) 1 - 1 (x) q1^2
    a = QTensor({((1,), ()): F(1, 6), ((), (1,)): F(1, 6)})
    b = QTensor({((1,), ()): F(3, 4), ((), (1,)): F(-3, 4)})
    assert a * b == QTensor({((2,), ()): F(1, 4), ((), (2,)): F(-1, 4)})


# sha256 of `qgenus -f json kw --cpn 10`, taken before the integer product
KW_CPN10_JSON_SHA256 = (
    "c083f1daf6afdb9ae5bdfa76345fa41b806fb6bfee8a0e8358c997b6531b02da")


def test_kw_cpn_ten_output_is_frozen():
    r = CliRunner().invoke(cli, ["-f", "json", "kw", "--cpn", "10"])
    assert r.exit_code == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == KW_CPN10_JSON_SHA256


# ------------------------------------------------------------------- Hopf

def test_coproduct_on_generators():
    d = coproduct(QElement.gen(2))
    assert d == QTensor({((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1})
    assert counit(QElement.gen(2)) == 0
    assert counit(QElement.one()) == 1


def _coproduct_per_term(e: QElement) -> QTensor:
    """Each basis term as a product of generator images, scaled last."""
    def of(left: QElement, right: QElement) -> QTensor:
        return QTensor({(p1, p2): c1 * c2 for p1, c1 in left.terms.items()
                        for p2, c2 in right.terms.items()})

    out = QTensor()
    for part, c in e.terms.items():
        acc = of(QElement.one(), QElement.one())
        for n in part:
            gen = QTensor()
            for j in range(n + 1):
                left = QElement.one() if j == 0 else QElement.monomial((j,))
                right = QElement.one() if j == n else QElement.monomial((n - j,))
                gen = gen + of(left, right)
            acc = acc * gen
        out = out + QTensor({k: c * v for k, v in acc.terms.items()})
    return out


@given(elements)
def test_coproduct_matches_the_per_term_loop(x):
    d = coproduct(x)
    assert d == _coproduct_per_term(x)
    assert repr(d) == repr(_coproduct_per_term(x))


def test_tensor_scalar_multiple():
    t = QTensor({((2,), (1,)): F(3, 4), ((), ()): 2})
    assert t * F(2, 3) == QTensor({((2,), (1,)): F(1, 2), ((), ()): F(4, 3)})
    assert (t * 0).terms == {}


@given(st.lists(st.integers(1, 5), min_size=0, max_size=2),
       st.lists(st.integers(1, 5), min_size=0, max_size=2))
def test_coproduct_is_an_algebra_map(p1, p2):
    a, b = QElement.monomial(p1), QElement.monomial(p2)
    assert coproduct(a * b) == coproduct(a) * coproduct(b)


@given(st.lists(st.integers(1, 5), min_size=0, max_size=3))
def test_antipode_convolution_gives_counit(parts):
    a = QElement.monomial(parts)
    # m (S (x) id) Delta(a) = counit(a) 1
    acc = QElement.zero()
    for (l, r), c in coproduct(a).terms.items():
        acc = acc + c * (antipode(QElement.monomial(l)) * QElement.monomial(r))
    assert acc == counit(a) * QElement.one()


@given(st.lists(st.integers(1, 4), min_size=0, max_size=2),
       st.lists(st.integers(1, 4), min_size=0, max_size=2),
       st.lists(st.integers(1, 4), min_size=0, max_size=2))
def test_coproduct_is_dual_to_multiplication(pa, pb, pc):
    a = QElement.monomial(pa)
    b, c = QElement.monomial(pb), QElement.monomial(pc)
    lhs = Fraction(0)
    for (l, r), coeff in coproduct(a).terms.items():
        lhs += coeff * inner(QElement.monomial(l), b) * inner(QElement.monomial(r), c)
    assert lhs == inner(a, b * c)


# ------------------------------------------------------------ coordinates

def test_first_odd_coordinates():
    assert 2 * x_in_q(0) == QElement.gen(1)
    assert 2 * x_in_q(1) == 3 * QElement.gen(3) - QElement.gen(1) * QElement.gen(2)


def log_q_coefficient(n: int) -> QElement:
    """[U^n] log q(U), the series route to x_in_q; even n reduce to 0 in
    the algebra."""
    qs = TruncatedSeries.univariate(
        "U",
        {0: QElement.one(), **{m: QElement.gen(m) for m in range(1, n + 1)}},
        n)
    c = qs.log().coefficient(n)
    return c if isinstance(c, QElement) else QElement.zero()


def test_even_log_coefficients_vanish():
    for n in (2, 4, 6, 8):
        assert log_q_coefficient(n) == QElement.zero()


def test_newton_identity():
    # n q_n = 2 sum_{2j < n} x_j q_(n-2j-1); x_in_q solves the odd n, the
    # even n hold only through the relations of the algebra
    for n in range(1, 13):
        rhs = QElement.zero()
        for j in range((n + 1) // 2):
            m = n - 2 * j - 1
            tail = QElement.gen(m) if m else QElement.one()
            rhs = rhs + 2 * x_in_q(j) * tail
        assert n * QElement.gen(n) == rhs


def test_odd_coordinates_match_the_log_series():
    for k in range(11):
        assert x_in_q(k) == F(2 * k + 1, 2) * log_q_coefficient(2 * k + 1)


@given(small_partitions)
def test_x_coordinates_round_trip(parts):
    e = QElement.monomial(parts)
    assert xpoly_to_q(e.to_x()) == e


def test_xpoly_to_q_rejects_laurent():
    with pytest.raises(DomainError):
        xpoly_to_q(SparsePoly.gen(UX, 0, -1))


# ----------------------------------------------------------- inner product

def test_inner_product_basics():
    q1, q2 = QElement.gen(1), QElement.gen(2)
    assert inner(q1, q1) == 2
    assert inner(q2, q2) == 2
    assert inner(q1, q2) == 0
    assert inner(classical_q((2, 1)), classical_q((2, 1))) == 4


def test_inner_product_monomial_norms():
    x0, x1 = SparsePoly.gen(UX, 0), SparsePoly.gen(UX, 1)
    assert inner_x(x0, x0) == F(1, 2)
    assert inner_x(x1, x1) == F(3, 2)
    assert inner_x(x0 ** 2, x0 ** 2) == F(1, 2)  # (1/2)^2 * 2!
    assert inner_x(x0 * x1, x0 * x1) == F(3, 4)
    assert inner_x(x0, x1) == 0


# ------------------------------------------------------- classical family

def test_two_row_member_is_the_known_one():
    assert classical_q((2, 1)) == QElement({(2, 1): 1, (3,): -2})
    assert repr(classical_q((2, 1))) == "q2*q1 - 2*q3"
    assert repr(QElement.zero()) == "0"
    assert repr(coproduct(classical_q((2, 1)))) == (
        "1*(1 (x) q2*q1) + -2*(1 (x) q3) + 1*(q1 (x) q2) + 1*(q2 (x) q1)"
        " + 1*(q2*q1 (x) 1) + -2*(q3 (x) 1)")
    assert classical_q((4,)) == QElement.gen(4) == two_row(4, 0)
    assert classical_q(()) == QElement.one()


def test_strict_partition_enumeration_descending():
    assert list(strict_partitions(6)) == [(6,), (5, 1), (4, 2), (3, 2, 1)]


def gram_schmidt_family(weight):
    """Independent oracle: orthogonalize the monomial basis of one graded
    piece, processing strict partitions in descending lexicographic order."""
    out = {}
    order = []
    for lam in strict_partitions(weight):
        u = QElement.monomial(lam)
        for mu in order:
            w = out[mu]
            u = u - inner(QElement.monomial(lam), w) / inner(w, w) * w
        out[lam] = u
        order.append(lam)
    return out


@pytest.mark.parametrize("weight", range(1, 9))
def test_classical_family_matches_gram_schmidt(weight):
    gs = gram_schmidt_family(weight)
    for lam, u in gs.items():
        assert classical_q(lam) == u, f"mismatch at {lam}"


@pytest.mark.parametrize("weight", range(1, 9))
def test_classical_family_norms_and_orthogonality(weight):
    lams = list(strict_partitions(weight))
    fam = {lam: classical_q(lam) for lam in lams}
    for i, lam in enumerate(lams):
        assert inner(fam[lam], fam[lam]) == 2 ** len(lam)
        for mu in lams[i + 1:]:
            assert inner(fam[lam], fam[mu]) == 0


def test_classical_family_in_x_is_the_image_of_the_q_side():
    # QElement.to_x is the oracle of the family formed in the x_k directly
    for weight in range(15):
        for lam in strict_partitions(weight):
            assert classical_q(lam, x_pair) == classical_q(lam).to_x(), lam


def test_classical_family_is_integral_and_unitriangular():
    for weight in range(1, 9):
        for lam in strict_partitions(weight):
            e = classical_q(lam)
            assert e.is_integral()
            assert e.coefficient(lam) == 1


# ------------------------------------------------ eigenvalue specialization

def hl_q_series(n_eigs: int, t, order: int) -> TruncatedSeries:
    """Generating series prod_i (1 - a_i^-1 t U) / (1 - a_i^-1 U) as a
    truncated series in U with Laurent-polynomial coefficients in the a_i.

    ``t`` may be any exact scalar (Fraction, int, CycloRational)."""
    U, names = eigen_universe(n_eigs)
    num = TruncatedSeries.one(("U",), order)
    den = TruncatedSeries.one(("U",), order)
    for name in names:
        ai = SparsePoly.gen(U, name, -1)
        num = num * TruncatedSeries.univariate("U", {0: 1, 1: -(ai * t)}, order)
        den = den * TruncatedSeries.univariate("U", {0: 1, 1: -ai}, order)
    return num * den.inverse()


def hl_odd_power_sums(n_eigs: int, kmax: int) -> dict[int, SparsePoly]:
    """The specialization of the odd coordinates at t = -1:
    x_k -> sum_i a_i^-(2k+1)."""
    U, names = eigen_universe(n_eigs)
    out = {}
    for k in range(kmax + 1):
        s = SparsePoly.zero(U)
        for name in names:
            s = s + SparsePoly.gen(U, name, -(2 * k + 1))
        out[k] = s
    return out


def test_hl_series_at_minus_one_matches_odd_power_sums():
    n_eigs, order = 3, 5
    series = hl_q_series(n_eigs, -1, order)
    sums = hl_odd_power_sums(n_eigs, order // 2)
    for n in range(1, order + 1):
        expected = q_in_x(n).substitute(sums, universe=eigen_universe(n_eigs)[0])
        got = series.coefficient(n)
        if not isinstance(got, SparsePoly):
            got = SparsePoly.const(expected.universe, got)
        assert got == expected, f"coefficient U^{n} disagrees"


def test_hl_series_at_t_one_is_trivial():
    series = hl_q_series(2, 1, 4)
    assert series.coefficient(0) == 1
    for n in range(1, 5):
        assert not series.coefficient(n)


def test_lambda_duality_rational():
    even = lambda_duality_check(2, -1)
    assert even["holds"] and even["strict"]
    odd = lambda_duality_check(3, -1)
    assert odd["holds"] and not odd["strict"]
    assert odd["factor"] == -1


def test_lambda_duality_cyclotomic():
    t = CycloRational.root(3)
    divisible = lambda_duality_check(3, t)
    assert divisible["holds"] and divisible["strict"]
    off = lambda_duality_check(2, t)
    assert off["holds"] and not off["strict"]


def test_duality_rejects_zero_t():
    with pytest.raises(DomainError):
        lambda_duality_check(2, 0)


# ------------------------------------------------------------------- JSON

def qelement_to_obj(e: QElement) -> dict[str, str]:
    return {",".join(str(p) for p in part): str(c)
            for part, c in sorted(e.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))}


def qelement_from_obj(obj) -> QElement:
    terms = {}
    for key, val in obj.items():
        part = tuple(int(p) for p in key.split(",")) if key else ()
        terms[part] = Fraction(val)
    return QElement(terms)


@given(small_partitions)
def test_json_round_trip(parts):
    e = QElement.monomial(parts, F(3, 2))
    assert qelement_from_obj(qelement_to_obj(e)) == e
