"""Kernel tests: exact scalars, sparse polynomials, truncated series."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgenus.errors import DomainError
from qgenus.grouplaw import (GroupLaw, genus_exponential, scalar_exponential,
                             universal_exponential)
from qgenus.qfunctions import QElement
from qgenus.rings import (CycloRational, SparsePoly, Sqrt2, UPS, UQ, UT, UX,
                          coeff_inv, dfact_odd, double_factorial,
                          indexed_universe, power, ring_map, row_reduce,
                          symbol_universe)
from qgenus.series import TruncatedSeries, lagrange_reversion_coefficient
from qgenus.witt import SD, hl_q_gen, lattice_universe

F = Fraction


def ts(coeffs, order, low=0):
    return TruncatedSeries.univariate("T", coeffs, order, low)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def series_strategy(order=6, low=0):
    return st.dictionaries(st.integers(low, order), rationals, max_size=6).map(
        lambda d: ts(d, order, low))


# ---------------------------------------------------------------- scalars

def _leibniz_det(m):
    """Determinant by the permutation expansion, as an oracle."""
    n, total = len(m), F(0)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        total += sign * math.prod(m[i][perm[i]] for i in range(n))
    return total


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
             min_size=n + 1, max_size=n + 1), min_size=n, max_size=n)))
def test_row_reduce_determinant_and_solution(rows):
    n = len(rows)
    det, m = row_reduce(rows)
    assert det == _leibniz_det([r[:n] for r in rows])
    if det:
        x = [r[n] for r in m]
        assert all(sum(r[j] * x[j] for j in range(n)) == r[n] for r in rows)


def test_row_reduce_singular_and_swapped():
    assert row_reduce([[1, 2], [2, 4]])[0] == 0
    assert row_reduce([[0, 1], [1, 0]])[0] == -1
    assert row_reduce([[0, 0], [0, 0]])[0] == 0
    det, m = row_reduce([[2, 1, 3], [1, 3, 5]])
    assert det == 5 and m == [[1, 0, F(4, 5)], [0, 1, F(7, 5)]]


class _Counted(int):
    """An int that counts the products it takes part in."""
    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(int(self) * int(other))


@pytest.mark.parametrize("e", range(0, 18))
def test_power_multiplies_without_the_last_squaring(e):
    _Counted.products = 0
    assert power(_Counted(3), e, "one") == (3 ** e if e else "one")
    # one product per bit below the top (a squaring) and per set bit
    # beyond the first (a multiply)
    expect = e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0
    assert _Counted.products == expect
    for x in (SparsePoly.gen(UPS, 2) - 3, CycloRational.root(5),
              ts({0: 1, 1: F(1, 2)}, 5), QElement.gen(2) + 1):
        if e <= 5:
            assert x ** e == math.prod([x] * e, start=x ** 0)


def test_ring_map_forms_each_power_once():
    calls = []

    def image(key, e):
        calls.append((key, e))
        return SparsePoly.gen(UPS, key) ** e + 1

    p = SparsePoly(UPS, {((1, 2),): 3, ((1, 2), (2, 1)): F(1, 2), (): 5})
    out = ring_map(p.monomials().items(), image, SparsePoly.const(UPS, 1))
    p1, p2 = SparsePoly.gen(UPS, 1), SparsePoly.gen(UPS, 2)
    assert out == 3 * (p1 ** 2 + 1) + F(1, 2) * (p1 ** 2 + 1) * (p2 + 1) + 5
    assert sorted(calls) == [(1, 2), (2, 1)]
    assert ring_map((), image, SparsePoly.const(UPS, 1)) == 0


def test_double_factorials():
    assert [double_factorial(m) for m in (-1, 0, 1, 2, 3, 5, 7)] == \
        [1, 1, 1, 2, 3, 15, 105]
    assert [dfact_odd(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]
    with pytest.raises(DomainError):
        double_factorial(-3)


def test_sqrt2_field():
    r = Sqrt2(F(1, 2), F(3, 4))
    assert r * r == Sqrt2(F(1, 4) + 2 * F(9, 16), F(3, 4))
    assert r * r.inv() == 1
    assert (Sqrt2(0, 1) * Sqrt2(0, 1)).rational() == 2
    assert 1 + Sqrt2(0, 1) - Sqrt2(0, 1) == 1
    with pytest.raises(DomainError):
        Sqrt2(0, 0).inv()
    with pytest.raises(DomainError):
        Sqrt2(1, 1).rational()


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9))
def test_sqrt2_mul_matches_float(a, b, c, d):
    x, y = Sqrt2(a, b), Sqrt2(c, d)
    z = x * y
    import math
    fx = a + b * math.sqrt(2)
    fy = c + d * math.sqrt(2)
    fz = float(z.a) + float(z.b) * math.sqrt(2)
    assert abs(fz - fx * fy) < 1e-6 * (1 + abs(fx * fy))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclotomic_root_relations(p):
    t = CycloRational.root(p)
    assert t ** p == 1
    assert sum((t ** i for i in range(p)), CycloRational.from_scalar(p, 0)) == 0
    x = 1 + t - (t ** 2) / 3
    assert x * x.inv() == 1


def test_cyclotomic_is_exact_field():
    t = CycloRational.root(5)
    # 1 - t is invertible even though t is a root of unity
    y = (1 - t).inv()
    assert (1 - t) * y == 1
    with pytest.raises(DomainError):
        CycloRational.from_scalar(5, 0).inv()
    with pytest.raises(DomainError):
        CycloRational.root(4)


def test_cyclotomic_equality_across_orders():
    """== never raises, whatever the orders: values of different orders are
    equal exactly when both are the same rational, and equal values hash
    equal."""
    def value(x):  # a rational, or (order, coordinates) when irrational
        if not isinstance(x, CycloRational):
            return F(x)
        return x.coeffs[0] if not any(x.coeffs[1:]) else (x.p, x.coeffs)

    xs = [0, 1, F(-1, 2)]
    for p in (2, 3, 5, 7):
        t = CycloRational.root(p)
        xs += [CycloRational.from_scalar(p, c) for c in (0, 1, F(-1, 2))]
        xs += [t, t + 1, t * t - F(1, 3)]
    for a, b in itertools.product(xs, repeat=2):
        assert (a == b) == (b == a) == (value(a) == value(b)), (a, b)
        assert (a != b) == (not a == b)
        if a == b:
            assert hash(a) == hash(b), (a, b)
    assert CycloRational.from_scalar(3, 1) == CycloRational.from_scalar(5, 1)
    assert CycloRational.root(3) != CycloRational.root(5)
    assert CycloRational.root(2) == CycloRational.from_scalar(7, -1)


small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def exact_scalars(p):
    """int, Fraction, Sqrt2 and Q(zeta_p) values, a third of the extension
    values irrational, over few enough values that equal pairs are common."""
    irr = st.sampled_from([0, 0, 1])
    return st.one_of(
        small_rationals.map(lambda r: int(r) if r.denominator == 1 else r),
        small_rationals,
        st.builds(Sqrt2, small_rationals, irr),
        st.builds(lambda a, b: CycloRational.from_scalar(p, a)
                  + b * CycloRational.root(p), small_rationals, irr))


@given(st.data())
def test_equal_scalars_hash_equal(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    x, y = data.draw(exact_scalars(p)), data.draw(exact_scalars(p))
    if x == y:
        assert hash(x) == hash(y)
    r = data.draw(small_rationals)
    for v in (Sqrt2(r), CycloRational.from_scalar(p, r)):
        assert v == r and hash(v) == hash(r)
    assert len({Sqrt2(1), 1, F(1)}) == 1
    assert len({CycloRational.from_scalar(p, 1), 1, F(1)}) == 1


# ---------------------------------------------------------- sparse polys

def test_sparse_poly_basics():
    x0 = SparsePoly.gen(UX, 0)
    x1 = SparsePoly.gen(UX, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p == x0 * x0 - x1 * x1
    assert p.coefficient({0: 2}) == 1
    assert p.coefficient({1: 2}) == -1
    assert (x0 ** 2).max_weight() == 2
    assert (x1 ** 2).max_weight() == 6
    assert p.weight_truncate(2) == x0 * x0


def test_sparse_poly_inverse_and_negative_powers():
    x0 = SparsePoly.gen(UX, 0)
    x1 = SparsePoly.gen(UX, 1)
    u = (2 * x0) ** 3
    assert u * u.inv() == 1
    with pytest.raises(DomainError):
        (x0 + x1).inv()
    with pytest.raises(DomainError):
        SparsePoly.gen(UX, 1, -1)  # only x0 is invertible
    q1 = SparsePoly.gen(UQ, 1)
    assert (q1 ** -2) * q1 ** 2 == 1


def test_sparse_poly_substitute_and_diff():
    x0, x1 = SparsePoly.gen(UX, 0), SparsePoly.gen(UX, 1)
    p = x0 ** 2 * x1 + 3 * x1
    assert p.differentiate(0) == 2 * x0 * x1
    assert p.differentiate(1) == x0 ** 2 + 3
    q1, q2 = SparsePoly.gen(UQ, 1), SparsePoly.gen(UQ, 2)
    img = p.substitute({0: q1, 1: q2})
    assert img == q1 ** 2 * q2 + 3 * q2
    num = p.substitute({0: F(1, 2), 1: 3})
    assert num.as_scalar() == F(1, 4) * 3 + 9


def test_nilpotent_universe_truncates():
    U = symbol_universe("nil2", ["s", "u"], nilpotent_order=2)
    s, u = SparsePoly.gen(U, "s"), SparsePoly.gen(U, "u")
    assert (1 + s) * (1 + s) == 1 + 2 * s
    assert s * u != 0
    assert s * s == 0
    assert ((1 + s + u) ** 3).coefficient({"s": 1, "u": 1}) == 6


def test_poly_repr_is_weight_sorted():
    x0, x1 = SparsePoly.gen(UX, 0), SparsePoly.gen(UX, 1)
    assert repr(-2 * x0.inv() * x1) == "-2*x0^-1*x1"
    assert repr(x1 + x0 ** 2 - 1) == "-1 + x0^2 + x1"


def test_poly_repr_of_every_scalar_type():
    # only int and Fraction coefficients of +-1 are elided; every other
    # scalar is parenthesized, the cyclotomic constant 1 included
    one = CycloRational.from_scalar(3, 1)
    p = SparsePoly(UPS, {(): Sqrt2(1, -2), ((1, 1),): one, ((2, 2),): -1})
    assert repr(p) == "(1 - 2*sqrt2) + (1)*p1 - p2^2"
    zeta = CycloRational.root(3)
    p = SparsePoly(UPS, {(): -1, ((1, 1),): zeta * zeta,
                         ((2, 1),): Sqrt2(0, F(1, 2)), ((1, 2),): F(-3, 4),
                         ((1, 1), (2, 1)): F(1)})
    assert repr(p) == \
        "-1 + (-1 - 1*t)*p1 - 3/4*p1^2 + (1/2*sqrt2)*p2 + p1*p2"
    assert repr(SparsePoly.zero(UPS)) == "0"


def test_outside_input_is_still_validated():
    with pytest.raises(DomainError):
        SparsePoly(UX, {((1, -1),): 1})  # x1 is not invertible
    with pytest.raises(DomainError):
        SparsePoly(UX, {(("a", 1),): 1})  # not an x-generator
    U = symbol_universe("nil3", ["s"], nilpotent_order=3)
    assert SparsePoly(U, {(("s", 3),): 1}) == 0
    assert U.has_nilpotents
    assert not any(u.has_nilpotents for u in (UX, UQ, UT, UPS, SD))


def test_universes_that_share_a_name_share_their_keys():
    """Two lattice universes of one rank, and nil_s at two nilpotent
    orders, multiply and compare as one object does; a product takes the
    nilpotency of its left operand."""
    u, v = lattice_universe(2), lattice_universe(2)
    assert u is not v and u == v

    def poly(uni):
        return (SparsePoly.gen(uni, (0, 1)) + 2 * SparsePoly.gen(uni, (1, 3))
                * SparsePoly.gen(uni, (0, 2)) ** 2)

    a, b = poly(u), SparsePoly.gen(v, (1, 2)) - poly(v) ** 2
    one = poly(u) * (SparsePoly.gen(u, (1, 2)) - poly(u) ** 2)
    assert a == poly(v) and a * b == b * a == poly(v) * b == one
    assert repr(a * b) == repr(b * a) == repr(one)
    n7, n5 = (symbol_universe("nil_s", ["s"], nilpotent_order=k)
              for k in (7, 5))
    s7, s5 = SparsePoly.gen(n7, "s"), SparsePoly.gen(n5, "s")
    assert s7 * s5 == s5 * s7 == s7 ** 2 == s5 ** 2
    assert s7 ** 3 * s5 ** 3 == s7 ** 6 and repr(s7 ** 6) == "s^6"
    assert not s5 ** 3 * s7 ** 3 and not s5 ** 5


def test_product_on_nilpotent_universe_drops_dead_terms():
    U = symbol_universe("nil3su", ["s", "u"], nilpotent_order=3)
    s, u = SparsePoly.gen(U, "s"), SparsePoly.gen(U, "u")
    p = (s ** 2 + u) * (s + u ** 2)
    assert p == s * u + s ** 2 * u ** 2
    assert set(p.monomials()) == {(("s", 1), ("u", 1)), (("s", 2), ("u", 2))}


def test_unit_times_inverse_is_constant_one():
    x0 = SparsePoly.gen(UX, 0)
    one = x0.inv() * x0
    assert one.monomials() == {(): 1} and repr(one) == "1"
    assert type(coeff_inv(1)) is int and coeff_inv(F(-1)) == -1
    assert type(coeff_inv(F(-1))) is int and coeff_inv(2) == F(1, 2)


def test_integer_valued_fraction_product_matches_validated_result():
    x1, x2 = SparsePoly.gen(UX, 1), SparsePoly.gen(UX, 2)
    got = (F(1, 2) * x1) * (F(4, 3) * x2 + F(3, 2) * x1)
    want = SparsePoly(UX, {((1, 1), (2, 1)): F(2, 3), ((1, 2),): F(3, 4)})
    assert got == want and repr(got) == repr(want)
    got = (F(3, 2) * x1) * (F(2, 3) * x2)
    want = SparsePoly(UX, {((1, 1), (2, 1)): F(1)})
    assert got == want and repr(got) == repr(want) == "x1*x2"
    assert type(got.monomials()[((1, 1), (2, 1))]) is int


def _reference_product(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Every pair of terms through the validating constructor: concatenated
    monomials, re-merged and re-checked, with no trusted shortcut."""
    out = SparsePoly.zero(p.universe)
    for m1, c1 in p.monomials().items():
        for m2, c2 in q.monomials().items():
            out = out + SparsePoly(p.universe, {m1 + m2: c1 * c2})
    return out


def x_polys():
    """Polynomials in x0^±1, x1, x2, x3 with small rational coefficients."""
    mono = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, 1)).map(
        lambda es: tuple((k, e) for k, e in enumerate(es) if e))
    return st.dictionaries(mono, small_rationals, max_size=5).map(
        lambda d: SparsePoly(UX, d))


@given(x_polys(), x_polys(), st.sampled_from([None, 2, 3]))
def test_merge_product_matches_reference(p, q, nil):
    assert p * q == _reference_product(p, q)
    assert p + q - q == p and -(-p) == p
    if nil is not None:
        U = symbol_universe(f"nilx{nil}", [0, 1, 2, 3], nilpotent_order=nil)
        pn, qn = (SparsePoly(U, {m: c for m, c in r.monomials().items()
                                  if all(e > 0 for _, e in m)})
                  for r in (p, q))
        assert pn * qn == _reference_product(pn, qn)


# ------------------------------------------------------------- series core

def test_mul_window_and_known_product():
    a = ts({0: 1, 1: 1, 2: 1}, 3)
    b = ts({0: 1, 1: -1}, 3)
    p = a * b
    assert p.order == 3
    assert p.coeffs == {(0,): 1, (3,): -1}  # (1+T+T^2)(1-T) = 1 - T^3


def _reference_series_product(a: TruncatedSeries,
                              b: TruncatedSeries) -> TruncatedSeries:
    """The series product as one coefficient product and one running sum
    per pair of terms, with no scaling and no key packing."""
    va, vb = a.valuation(), b.valuation()
    order = min(a.order + vb, b.order + va)
    out = TruncatedSeries.zero(a.vars, order, min(a.low + b.low, 0))
    for k1, c1 in a.coeffs.items():
        d1 = sum(k1)
        for k2, c2 in b.coeffs.items():
            if d1 + sum(k2) > order:
                continue
            key = tuple(x + y for x, y in zip(k1, k2))
            c = c1 * c2
            if c:
                acc = out.coeffs.get(key)
                tot = c if acc is None else acc + c
                if tot:
                    out.coeffs[key] = tot
                elif key in out.coeffs:
                    del out.coeffs[key]
    return out


rational_coeffs = st.one_of(st.integers(-3, 3), small_rationals)
poly_coeffs = st.one_of(rational_coeffs, x_polys().filter(bool))
cyclo_coeffs = st.one_of(rational_coeffs, st.lists(
    small_rationals, min_size=4, max_size=4).map(
        lambda v: CycloRational(5, v)).filter(bool))
q_coeffs = st.one_of(rational_coeffs, st.dictionaries(
    st.sampled_from([(), (1,), (2,), (2, 1), (3,), (3, 1)]), small_rationals,
    min_size=1, max_size=3).map(QElement).filter(bool))


@st.composite
def series_pairs(draw, nvars, coeffs):
    """Two series over one variable tuple: univariate ones may be Laurent,
    and the second gets rational or ring coefficients on its own."""
    names = ("X", "Y", "Z")[:nvars]
    out = []
    for c in (coeffs, draw(st.sampled_from([rational_coeffs, coeffs]))):
        low = draw(st.integers(-3, 0)) if nvars == 1 else 0
        order = draw(st.integers(low - 1, 7))
        if nvars == 1:
            keys = st.tuples(st.integers(low, order + 2))
        else:  # a key is the variables of a monomial of degree <= order
            keys = st.lists(st.integers(0, nvars - 1),
                            max_size=max(order, 0)).map(
                lambda vs: tuple(vs.count(i) for i in range(nvars)))
        terms = draw(st.dictionaries(keys, c, max_size=6))
        out.append(TruncatedSeries(names, terms, order, low))
    return out


@pytest.mark.parametrize("nvars", [1, 3])
@pytest.mark.parametrize("coeffs", [rational_coeffs, poly_coeffs,
                                    cyclo_coeffs, q_coeffs],
                         ids=["rational", "poly", "cyclo", "qelement"])
@given(data=st.data())
def test_product_matches_reference(nvars, coeffs, data):
    a, b = data.draw(series_pairs(nvars, coeffs))
    got = a * b
    assert got == _reference_series_product(a, b)
    assert b * a == _reference_series_product(b, a)
    if all(isinstance(c, (int, Fraction))
           for c in [*a.coeffs.values(), *b.coeffs.values()]):
        # an integral rational coefficient is stored as int
        assert all(type(c) is int or c.denominator != 1
                   for c in got.coeffs.values())


@given(series_strategy(order=7), st.integers(1, 4))
def test_product_cancelling_to_zero(a, shift):
    """A unit times its inverse cancels to 1, and a nilpotent coefficient
    squares to a series whose every pair product is 0."""
    unit = a + (2 if a.coefficient(0) == -1 else 1)
    one = unit * unit.inverse()
    assert one == _reference_series_product(unit, unit.inverse())
    assert one.coeffs == {(0,): 1} and type(one.coeffs[(0,)]) is int
    U = symbol_universe("nil2", ["e"], nilpotent_order=2)
    e = SparsePoly.gen(U, "e")
    f = ts({shift: e, shift + 1: F(1, 3) * e}, 8)
    assert (f * f).is_zero() and _reference_series_product(f, f).is_zero()


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_law_digests_frozen():
    """reprs of three product-heavy results, frozen before the
    scaled-integer product."""
    assert _digest(scalar_exponential(32).logarithm()) == \
        "e7182ef0740d1a70e4e541d44178259a6ec6d8e118063a57ecb829ea9d0f8747"
    assert _digest(genus_exponential(7).law()) == \
        "72414845b7e9d56e6956817a6d87fcd3a39b3f5fe84718577efdcc0944873c4d"
    law = GroupLaw(ts({1: 1, 2: F(1, 2), 3: F(-2, 3), 4: 3, 5: -1, 6: F(2, 3),
                       8: F(-3, 2)}, 8))
    assert _digest(law.law()) == \
        "a4273fabde45c301557ad74122c915a22aaa770195055952b2feb7db1875f53d"


def _assert_same(got: TruncatedSeries, want: TruncatedSeries) -> None:
    """Equal series whose coefficients have equal types (an integral
    rational may be stored as ``int``)."""
    def kinds(t):
        return {k: Fraction if type(c) is int else type(c)
                for k, c in t.coeffs.items()}

    assert got == want and kinds(got) == kinds(want)


# Exponents on both sides of powers of two, far below the bound of a key's
# 64-bit signed fields.
wide_exponents = st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 63, 64,
                                  2 ** 20 - 1, 2 ** 20])


@st.composite
def wide_polys(draw, universe):
    """Polynomials in w0^(+-k), w1, w2 with exponents from wide_exponents."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        es = [draw(st.sampled_from([-1, 0, 1])) * draw(wide_exponents)]
        es += [draw(st.sampled_from([0, 1])) * draw(wide_exponents)
               for _ in range(2)]
        terms[tuple((k, e) for k, e in enumerate(es) if e)] = draw(
            small_rationals)
    return SparsePoly(universe, terms)


@pytest.mark.parametrize("nvars", [1, 3])
@given(data=st.data())
def test_spread_product_at_wide_fields(nvars, data):
    """Products spread over monomials whose exponents range from 1 to
    2**20, in a universe whose slots other tests have not touched; both
    operand orders."""
    uni = indexed_universe("wide", "w", lambda k: 2 * k + 1, invertible={0})
    polys = wide_polys(uni)
    a, b = data.draw(series_pairs(nvars, polys))
    _assert_same(a * b, _reference_series_product(a, b))
    _assert_same(b * a, _reference_series_product(b, a))


#: The largest |exponent| a key's 64-bit signed field holds.
TOP = 2 ** 63 - 1


def test_exponents_at_the_field_bound():
    """The largest exponent a key's field holds comes out exact and the
    first past it raises DomainError, before any term is formed: in
    polynomial products and powers, and in the spread series product, in
    both operand orders.  A product's bound is the sum of its operands'
    bounds, so the operands are built whole."""
    uni = indexed_universe("top", "g", lambda k: k + 1, invertible={0})
    g0, g2 = SparsePoly.gen(uni, 0), SparsePoly.gen(uni, 2)

    def mono(e0, e2=0):
        return SparsePoly.monomial(uni, {0: e0, 2: e2})

    half = 2 ** 62
    for sign in (1, -1):
        a, b = mono(sign * half), mono(sign * (half - 1), 1)
        for x, y in ((a, b), (b, a)):
            assert (x * y).monomials() == {((0, sign * TOP), (2, 1)): 1}
            with pytest.raises(DomainError):
                x * (y * g0 ** sign)
        assert (g0 ** (sign * TOP)).monomials() == {((0, sign * TOP),): 1}
        with pytest.raises(DomainError):
            g0 ** (sign * (TOP + 1))
        with pytest.raises(DomainError):
            SparsePoly.gen(uni, 0, sign * (TOP + 1))
    x = ts({1: mono(-half, 1), 2: mono(0, half) + 1}, 4)
    y = ts({0: mono(1 - half), 1: mono(0, half - 1) - g0}, 4)
    over = ts({0: mono(-half), 2: g2}, 4)
    for a, b in ((x, y), (y, x)):
        got = a * b
        _assert_same(got, _reference_series_product(a, b))
        assert ((0, -TOP), (2, 1)) in got.coefficient(1).monomials()
        assert ((2, TOP),) in got.coefficient(3).monomials()
    for a, b in ((x, over), (over, x)):
        with pytest.raises(DomainError):
            a * b


@pytest.mark.parametrize("cut", [1, 3, 6])
def test_cut_product_keeps_its_cut_when_the_packing_widens(cut):
    """A product cut below its honest window whose second operand holds
    far larger exponents than the first keeps that cut."""
    uni = indexed_universe("cut", "c", lambda k: k + 1)
    x = SparsePoly.gen(uni, 1)
    a, b = ts({1: x, 2: x + 1}, 6), ts({1: x ** 40, 3: x ** 40 - 1}, 8)
    out = a.__mul__(b, cut)
    assert out.order == cut
    _assert_same(out, (a * b).truncate(cut))


# ------------------------------------------------ products cut at a window

@pytest.mark.parametrize("nvars", [1, 3])
@pytest.mark.parametrize("coeffs", [rational_coeffs, poly_coeffs],
                         ids=["rational", "poly"])
@given(data=st.data())
def test_cut_series_product_is_the_product_truncated(nvars, coeffs, data):
    """A product cut at any window, Laurent or multivariate, equals the
    whole product truncated there, down to the order of its terms."""
    a, b = data.draw(series_pairs(nvars, coeffs))
    whole = a * b
    cut = data.draw(st.integers(whole.low - 1, whole.order + 2))
    got, want = a.__mul__(b, cut), whole.truncate(min(cut, whole.order))
    _assert_same(got, want)
    assert list(got.coeffs) == list(want.coeffs)


def _assert_same_poly(got: SparsePoly, want: SparsePoly) -> None:
    assert got == want and repr(got) == repr(want)
    assert ({m: type(c) for m, c in got.terms.items()}
            == {m: type(c) for m, c in want.terms.items()})


NIL = symbol_universe("nil3x", [0, 1, 2, 3], nilpotent_order=3)


@given(x_polys(), x_polys(), st.integers(-6, 52), st.booleans())
def test_cut_poly_product_is_the_product_truncated(p, q, wmax, nilpotent):
    """A product cut at weight wmax equals the whole product truncated
    there: over x0^-1, whose weight is negative, and over a nilpotent
    symbol universe; a cut below every pair is 0 and one at the heaviest
    pair is the whole product."""
    if nilpotent:
        p, q = (SparsePoly(NIL, {m: c for m, c in r.monomials().items()
                                 if all(e > 0 for _, e in m)})
                for r in (p, q))
    whole = p * q
    _assert_same_poly(p.__mul__(q, wmax), whole.weight_truncate(wmax))
    weights = [p.monomial_weight(m1) + q.monomial_weight(m2)
               for m1 in p.monomials() for m2 in q.monomials()]
    if weights:
        assert not p.__mul__(q, min(weights) - 1)
        _assert_same_poly(p.__mul__(q, max(weights)), whole)


def _substitute_then_truncate(f: TruncatedSeries,
                              images: dict) -> TruncatedSeries:
    """``TruncatedSeries.substitute`` before the cut, kept as a reference:
    each image power and each term product formed whole, then truncated."""
    tvars = next(iter(images.values())).vars
    order = min([f.order] + [im.order for im in images.values()])

    def image(name, e):
        got = images[name] ** e
        return got.truncate(order) if got.order > order else got

    terms = ((((name, e) for name, e in zip(f.vars, key) if e), c)
             for key, c in f.coeffs.items())
    out = ring_map(terms, image, TruncatedSeries.one(tvars, order))
    return out.truncate(order) if out.order > order else out


def _compose_then_truncate(f: TruncatedSeries,
                           g: TruncatedSeries) -> TruncatedSeries:
    """``TruncatedSeries.compose`` before the cut, kept as a reference."""
    order = min(f.order, g.order)
    g = g if g.order == order else g.truncate(order)
    acc = TruncatedSeries.zero(g.vars, order)
    for n in range(order, -1, -1):
        acc = acc * g
        c = f.coeffs.get((n,))
        if c is not None:
            acc = acc + TruncatedSeries.constant(g.vars, c, order)
        if acc.order > order:
            acc = acc.truncate(order)
    return acc


def _assert_identical(got: TruncatedSeries, want: TruncatedSeries) -> None:
    _assert_same(got, want)
    assert list(got.coeffs) == list(want.coeffs) and repr(got) == repr(want)


@st.composite
def images_over(draw, tvars, coeffs):
    """A series over ``tvars`` with valuation >= 1, at its own order."""
    order = draw(st.integers(1, 7))
    keys = st.lists(st.integers(0, len(tvars) - 1), min_size=1,
                    max_size=order).map(
        lambda vs: tuple(vs.count(i) for i in range(len(tvars))))
    return TruncatedSeries(tvars, draw(st.dictionaries(keys, coeffs,
                                                       max_size=4)), order)


@pytest.mark.parametrize("coeffs", [rational_coeffs, poly_coeffs],
                         ids=["rational", "poly"])
@given(data=st.data())
def test_cut_substitute_matches_the_old_substitute(coeffs, data):
    XY, XYZ = ("X", "Y"), ("X", "Y", "Z")
    f, _ = data.draw(series_pairs(2, coeffs))
    images = {v: data.draw(images_over(XYZ, coeffs)) for v in XY}
    _assert_identical(f.substitute(images),
                      _substitute_then_truncate(f, images))


@pytest.mark.parametrize("coeffs", [rational_coeffs, poly_coeffs],
                         ids=["rational", "poly"])
@given(data=st.data())
def test_cut_compose_matches_the_old_compose(coeffs, data):
    f = ts(data.draw(st.dictionaries(st.integers(0, 8), coeffs, max_size=6)),
           data.draw(st.integers(0, 8)))
    for tvars in (("T",), ("X", "Y")):
        g = data.draw(images_over(tvars, coeffs))
        _assert_identical(f.compose(g), _compose_then_truncate(f, g))


@pytest.mark.parametrize("n", [5, 7])
def test_law_residuals_match_the_old_substitute_and_compose(n):
    """The law and its associativity substitutions, on the genus's own
    exponential, as the old substitute and compose formed them."""
    law = genus_exponential(n)
    e, log = law.exponential, law.logarithm()
    XY, XYZ = ("X", "Y"), ("X", "Y", "Z")
    lx = _substitute_then_truncate(
        log, {"T": TruncatedSeries.variable(XY, "X", n)})
    ly = _substitute_then_truncate(
        log, {"T": TruncatedSeries.variable(XY, "Y", n)})
    F = law.law()
    _assert_identical(F, _compose_then_truncate(e, lx + ly))
    x, y, z = (TruncatedSeries.variable(XYZ, v, n) for v in XYZ)
    for images in ({"X": x, "Y": y}, {"X": y, "Y": z}):
        inner = F.substitute(images)
        _assert_identical(inner, _substitute_then_truncate(F, images))
        outer = {"X": inner, "Y": z}
        _assert_identical(F.substitute(outer),
                          _substitute_then_truncate(F, outer))


UNSCALED = {
    # rationals and polynomials side by side in one operand
    "mixed": poly_coeffs,
    "nilpotent": x_polys().map(lambda p: SparsePoly(NIL, {
        m: c for m, c in p.monomials().items() if all(e > 0 for _, e in m)})
    ).filter(bool),
    "sqrt2": x_polys().map(lambda p: SparsePoly(UX, {
        m: Sqrt2(c, 1) for m, c in p.monomials().items()})).filter(bool),
    "cyclo": x_polys().map(lambda p: SparsePoly(UX, {
        m: c + CycloRational.root(5) for m, c in p.monomials().items()})
    ).filter(bool),
}


@pytest.mark.parametrize("nvars", [1, 3])
@pytest.mark.parametrize("kind", sorted(UNSCALED))
@given(data=st.data())
def test_unscaled_products_match_reference(nvars, kind, data):
    """Operands the product cannot scale to integers, or cannot spread
    over monomials, give the reference's values and coefficient types."""
    a, b = data.draw(series_pairs(nvars, UNSCALED[kind]))
    _assert_same(a * b, _reference_series_product(a, b))
    _assert_same(b * a, _reference_series_product(b, a))


def _reference_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp by the Fraction-per-step recurrence b_m = (1/m) sum k a_k b_(m-k)."""
    n = s.order
    b = [1] + [0] * n
    a = [s.coeffs.get((k,), 0) for k in range(n + 1)]
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            if a[k]:
                acc = acc + (k * a[k]) * b[m - k]
        b[m] = Fraction(1, m) * acc if acc else 0
    return TruncatedSeries(s.vars, {(k,): c for k, c in enumerate(b)}, n)


def _reference_log(s: TruncatedSeries) -> TruncatedSeries:
    """log by b_m = a_m - (1/m) sum_(k<m) k b_k a_(m-k), Fraction per step."""
    n = s.order
    a = [s.coeffs.get((k,), 0) for k in range(n + 1)]
    b = [0] * (n + 1)
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m):
            if b[k] and a[m - k]:
                acc = acc + (k * b[k]) * a[m - k]
        b[m] = a[m] - Fraction(1, m) * acc if acc else a[m]
    return TruncatedSeries(s.vars, {(k,): c for k, c in enumerate(b) if c}, n)


LAT = lattice_universe(2)
EXP_COEFFS = {
    "rational": (rational_coeffs, 30),
    "ux": (st.one_of(rational_coeffs, x_polys().filter(bool)), 7),
    "lattice": (st.builds(
        lambda d, n, c: SparsePoly(LAT, {(((d, n), 1),): c}),
        st.integers(0, 1), st.integers(1, 3), small_rationals.filter(bool)),
        8),
    "cyclo": (cyclo_coeffs, 8),
}


@pytest.mark.parametrize("kind", sorted(EXP_COEFFS))
@given(data=st.data())
def test_exp_log_match_the_fraction_recurrences(kind, data):
    """The scaled-integer exp and log against the Fraction-per-step loops:
    equal series with identical reprs."""
    coeffs, top = EXP_COEFFS[kind]
    order = data.draw(st.integers(1, top))
    terms = data.draw(st.dictionaries(st.integers(1, order), coeffs,
                                      max_size=6))
    s = ts(terms, order)
    for got, want in ((s.exp(), _reference_exp(s)),
                      ((s + 1).log(), _reference_log(s + 1))):
        assert got == want and repr(got) == repr(want)


def test_exp_log_digests_frozen():
    """reprs of three results built by series products, exp and log,
    frozen before the spread product and the scaled exp/log."""
    assert _digest(genus_exponential(8).law()) == \
        "f2d24ffaa8892feb7a3d1626ea8402bca494a6088b3588c3ed4d20a69539e5ae"
    assert _digest(universal_exponential(10).logarithm()) == \
        "9af2ca9f82d9d4fcba7a4d024830b2e4ec53234f62e4488e274863856bf6361c"
    assert _digest(hl_q_gen(F(1, 2), 12)) == \
        "ac835854ec75d04476152b35eccbd0b97dd4a1a8dd250af66334054fbb53704b"


def test_inverse_of_unit_series():
    a = ts({0: 1, 1: 1, 2: F(1, 2)}, 3)
    inv = a.inverse()
    assert inv.order == 3
    assert [inv.coefficient(k) for k in range(4)] == [1, -1, F(1, 2), 0]
    assert (a * inv).coeffs == {(0,): 1}


def test_reversion_known_values():
    f = ts({1: 1, 2: 1}, 4)  # T + T^2
    g = f.reversion()
    assert [g.coefficient(k) for k in range(1, 5)] == [1, -1, 2, -5]
    assert f.compose(g).agrees_with(ts({1: 1}, 4))
    assert g.compose(f).agrees_with(ts({1: 1}, 4))


@given(series_strategy())
def test_add_commutes_and_zero(a):
    z = ts({}, a.order)
    assert (a + z).coeffs == a.coeffs
    assert (a + (-a)).is_zero()


@given(series_strategy(order=5), series_strategy(order=5),
       series_strategy(order=5))
def test_mul_associative_on_common_window(a, b, c):
    left, right = (a * b) * c, a * (b * c)
    assert left.agrees_with(right)


@given(series_strategy(order=5), series_strategy(order=5))
def test_mul_commutative(a, b):
    assert (a * b).agrees_with(b * a)


@given(st.dictionaries(st.integers(1, 5), rationals, max_size=4),
       st.sampled_from([1, -1, 2, F(3, 2)]))
def test_two_sided_inverse(tail, unit):
    a = ts({0: unit, **{k: v for k, v in tail.items()}}, 6)
    inv = a.inverse()
    assert (a * inv).coeffs == {(0,): 1}
    assert (inv * a).coeffs == {(0,): 1}


@given(st.dictionaries(st.integers(1, 6), rationals, max_size=5))
def test_exp_log_roundtrip(d):
    a = ts(d, 6)
    assert a.exp().log().agrees_with(a)
    e = a.exp()
    assert e.coefficient(0) == 1
    assert (a + a).exp().agrees_with(e * e)


@given(st.integers(1, 20), st.dictionaries(st.integers(2, 20), rationals, max_size=6),
       st.sampled_from([1, -1, F(1, 2), 3]))
def test_reversion_vs_lagrange_oracle(order, tail, lead):
    f = ts({1: lead, **tail}, order)
    g = f.reversion()
    assert g.order == order
    for n in range(1, order + 1):
        assert g.coefficient(n) == lagrange_reversion_coefficient(f, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_universal_reversion_vs_lagrange_oracle(n):
    e = universal_exponential(n).exponential
    g = e.reversion()
    assert g.order == n
    for k in range(1, n + 1):
        assert g.coefficient(k) == lagrange_reversion_coefficient(e, k)


def _compose_full_horner(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g) by Horner's rule over every coefficient of f, window min(f, g)."""
    order = min(f.order, g.order)
    acc = TruncatedSeries.zero(g.vars, order)
    for n in range(f.order, -1, -1):
        acc = (acc * g).truncate(order) + TruncatedSeries.constant(
            g.vars, f.coeffs.get((n,), 0), order)
    return acc


@given(st.integers(2, 12), st.data())
def test_compose_above_inner_window_matches_full_horner(outer_order, data):
    inner_order = data.draw(st.integers(1, outer_order - 1))
    f = ts(data.draw(st.dictionaries(st.integers(0, outer_order), rationals,
                                     max_size=6)), outer_order)
    g = ts(data.draw(st.dictionaries(st.integers(1, inner_order), rationals,
                                     min_size=1, max_size=4)), inner_order)
    assert f.compose(g) == _compose_full_horner(f, g)
    XY = ("X", "Y")
    gxy = (TruncatedSeries.variable(XY, "X", inner_order) * g.coefficient(1)
           + TruncatedSeries.variable(XY, "Y", inner_order) ** 2)
    assert f.compose(gxy) == _compose_full_horner(f, gxy)


def test_laurent_inverse_window():
    # T^2 * unit: inverse must expose exponents from -2 with a shrunk window
    a = ts({2: 1, 3: 1}, 5)
    inv = a.inverse()
    assert inv.low == -2
    assert inv.order == 5 - 4
    assert inv.coefficient(-2) == 1
    assert inv.coefficient(-1) == -1
    prod = a * inv
    assert prod.coefficient(0) == 1


def test_laurent_arithmetic_and_guards():
    a = ts({-1: 1, 0: F(1, 3)}, 2, low=-1)
    b = a * a
    assert b.low == -2 and b.coefficient(-2) == 1
    with pytest.raises(DomainError):
        a.exp()
    with pytest.raises(DomainError):
        TruncatedSeries(("X", "Y"), {}, 3, low=-1)


def test_window_tracking_is_honest():
    a = ts({0: 1, 1: 1}, 2)
    # an exactly-known monomial factor shifts the trusted window up...
    t_exact = ts({1: 1}, 9)
    assert (a * t_exact).order == 3
    # ...but a factor only trusted to degree 2 caps the product at 2
    t_short = ts({1: 1}, 2)
    assert (a * t_short).order == 2
    with pytest.raises(DomainError):
        (a * t_exact).coefficient(4)
    with pytest.raises(DomainError):
        a.truncate(5)


def test_compose_window():
    f = ts({0: 1, 1: 1, 2: 1, 3: 1}, 3)
    g = ts({1: 2, 2: 1}, 5)
    h = f.compose(g)
    assert h.order == 3
    assert h.coefficient(0) == 1
    assert h.coefficient(1) == 2


def test_multivariate_mul_and_inverse():
    XY = ("X", "Y")
    x = TruncatedSeries.variable(XY, "X", 4)
    y = TruncatedSeries.variable(XY, "Y", 4)
    s = 1 + x + y
    inv = s.inverse()
    assert (s * inv).coeffs == {(0, 0): 1}
    assert inv.coefficient((1, 1)) == 2


def test_substitute_trivariate():
    XY = ("X", "Y")
    XYZ = ("X", "Y", "Z")
    x = TruncatedSeries.variable(XY, "X", 4)
    y = TruncatedSeries.variable(XY, "Y", 4)
    f = x + y + x * y
    xz = TruncatedSeries.variable(XYZ, "X", 4)
    yz = TruncatedSeries.variable(XYZ, "Y", 4)
    zz = TruncatedSeries.variable(XYZ, "Z", 4)
    inner = f.substitute({"X": xz, "Y": yz})
    outer = f.rename(XYZ[:2]).substitute({"X": inner, "Y": zz})
    # associativity of x+y+xy (the multiplicative law shifted by 1)
    alt = f.substitute({"X": xz, "Y": f.substitute({"X": yz, "Y": zz})})
    assert outer.agrees_with(alt)


def test_series_with_poly_coefficients():
    x0 = SparsePoly.gen(UX, 0)
    x1 = SparsePoly.gen(UX, 1)
    f = ts({1: x0, 2: x1}, 4)
    g = f * f
    assert g.coefficient(2) == x0 * x0
    assert g.coefficient(3) == 2 * x0 * x1
    inv = ts({0: 2 * x0, 1: x1}, 3).inverse()
    assert inv.coefficient(0) == F(1, 2) * x0.inv()


def test_repr_mentions_window():
    assert repr(ts({0: 1, 3: -1}, 3)) == "1 - T^3 + O(T^4)"
    assert repr(TruncatedSeries.zero(("T",), 3)) == "0 + O(T^4)"


def test_repr_of_laurent_and_bivariate_series():
    x0, x1 = SparsePoly.gen(UX, 0), SparsePoly.gen(UX, 1)
    f = ts({-2: x0.inv() * x1, -1: -x0, 0: 1, 1: x0 * x0 - x1,
            3: F(2, 3) * x1}, 3, low=-2)
    assert repr(f) == ("(x0^-1*x1)*T^-2 + (-x0)*T^-1 + 1 + (x0^2 - x1)*T"
                       " + (2/3*x1)*T^3 + O(T^4)")
    g = TruncatedSeries(("X", "Y"), {(0, 0): 1, (1, 0): -1, (1, 1): F(1, 2),
                                     (0, 2): -1, (2, 1): 3}, 3)
    assert repr(g) == "1 - X - Y^2 + 1/2*X*Y + 3*X^2*Y + O(deg^4)"
