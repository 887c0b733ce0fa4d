"""Kernel tests: exact scalars, sparse polynomials, truncated series."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgenus.errors import DomainError
from qgenus.grouplaw import universal_exponential
from qgenus.rings import (CycloRational, SparsePoly, Sqrt2, UPS, UQ, UT, UX,
                          coeff_inv, dfact_odd, double_factorial,
                          symbol_universe)
from qgenus.series import TruncatedSeries, lagrange_reversion_coefficient
from qgenus.witt import SD

F = Fraction


def ts(coeffs, order, low=0):
    return TruncatedSeries.univariate("T", coeffs, order, low)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def series_strategy(order=6, low=0):
    return st.dictionaries(st.integers(low, order), rationals, max_size=6).map(
        lambda d: ts(d, order, low))


# ---------------------------------------------------------------- scalars

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


def test_outside_input_is_still_validated():
    with pytest.raises(DomainError):
        SparsePoly(UX, {((1, -1),): 1})  # x1 is not invertible
    with pytest.raises(DomainError):
        SparsePoly(UX, {(("a", 1),): 1})  # not an x-generator
    U = symbol_universe("nil3", ["s"], nilpotent_order=3)
    assert SparsePoly(U, {(("s", 3),): 1}) == 0
    assert U.has_nilpotents
    assert not any(u.has_nilpotents for u in (UX, UQ, UT, UPS, SD))


def test_product_on_nilpotent_universe_drops_dead_terms():
    U = symbol_universe("nil3su", ["s", "u"], nilpotent_order=3)
    s, u = SparsePoly.gen(U, "s"), SparsePoly.gen(U, "u")
    p = (s ** 2 + u) * (s + u ** 2)
    assert p == s * u + s ** 2 * u ** 2
    assert set(p.terms) == {(("s", 1), ("u", 1)), (("s", 2), ("u", 2))}


def test_unit_times_inverse_is_constant_one():
    x0 = SparsePoly.gen(UX, 0)
    one = x0.inv() * x0
    assert one.terms == {(): 1} and repr(one) == "1"
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
    assert type(got.terms[((1, 1), (2, 1))]) is int


def _reference_product(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Every pair of terms through the validating constructor: concatenated
    monomials, re-merged and re-checked, with no trusted shortcut."""
    out = SparsePoly.zero(p.universe)
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
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
        pn, qn = (SparsePoly(U, {m: c for m, c in r.terms.items()
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
        a.integrate()
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
