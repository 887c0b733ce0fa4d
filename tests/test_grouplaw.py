"""Formal-group-law tests: the main, universal, and scalar laws, their
compatibility, and the integrality / mod-p structure of the genus images."""

from fractions import Fraction

import pytest

from qgenus.errors import DomainError
from qgenus.grouplaw import (XY, GroupLaw, genus_exponential,
                             projective_image, scalar_exponential,
                             specialize_ones, to_q_over_q1,
                             universal_exponential)
from qgenus.qfunctions import QElement
from qgenus.rings import SparsePoly, UX, dfact_odd
from qgenus.series import TruncatedSeries
from test_virasoro import t_to_x

F = Fraction


def x(k, e=1):
    return SparsePoly.gen(UX, k, e)


# ---------------------------------------------------------------- main law

def test_main_exponential_shape():
    e = genus_exponential(4).exponential
    assert e.coefficient(1) == 1  # x_0^-1 x_0
    assert e.coefficient(2) == x(0, -1) * x(1)
    assert e.coefficient(3) == 3 * x(0, -1) * x(2)
    assert e.coefficient(4) == 15 * x(0, -1) * x(3)


def test_projective_line_image():
    assert projective_image(1) == -2 * x(0, -1) * x(1)
    assert projective_image(0) == 1


def test_main_law_axioms_through_order_7():
    law = genus_exponential(7)
    assert law.associativity_residual().is_zero()
    assert law.commutativity_residual().is_zero()
    assert law.unit_residuals().is_zero()
    assert law.inverse_residual().is_zero()


def test_log_exp_are_mutually_inverse():
    law = genus_exponential(6)
    e, l = law.exponential, law.logarithm()
    t = TruncatedSeries.variable(("T",), "T", 6)
    assert e.compose(l).agrees_with(t)
    assert l.compose(e).agrees_with(t)


# ----------------------------------------------------------- integrality

def test_clearing_the_inverted_generator():
    a, e = to_q_over_q1(projective_image(1))
    assert a == 1
    # -2 x_0^-1 x_1 = (2 q_1 q_2 - 6 q_3) / q_1
    assert e == QElement({(2, 1): 2, (3,): -6})
    assert e.is_integral()
    with pytest.raises(DomainError):
        to_q_over_q1(SparsePoly.gen(UX, 1, 1) * x(0) ** -1 * x(1, -1))


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_images_are_integral_over_q1(n):
    a, e = to_q_over_q1(projective_image(n))
    assert e.is_integral(), f"degree {n} image not integral: {e}"
    assert a >= 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exponential_coefficients_vanish_mod_p(p):
    # the cleared coefficient of T^(k+1) is (2k-1)!! * (an integral element
    # of content 1), so it dies mod p exactly from k = (p+1)/2 on
    for k in range(1, 7):
        _, e = to_q_over_q1(dfact_odd(k) * x(0, -1) * x(k))
        assert e.is_integral()
        divisible = all(c.numerator % p == 0 for c in e.terms.values())
        assert divisible == (k >= (p + 1) // 2), (p, k)


# ----------------------------------------------------------- universal law

def test_universal_law_axioms():
    law = universal_exponential(6)
    assert law.associativity_residual().is_zero()
    assert law.commutativity_residual().is_zero()


def universal_normalization_residual(order: int) -> TruncatedSeries:
    """Difference between the coordinate-changed universal law and the
    renormalized main law -x_0 F(-x_0^-1 X, -x_0^-1 Y); zero when the
    conventions table is consistent."""
    Fu = universal_exponential(order).law()
    Fu = TruncatedSeries(XY, {k: t_to_x(c) if isinstance(c, SparsePoly) else c
                              for k, c in Fu.coeffs.items()}, Fu.order)
    Fm = genus_exponential(order).law()
    neg_x0 = SparsePoly.gen(UX, 0) * Fraction(-1)
    inv = neg_x0.inv()

    def renorm(key_coeff):
        (i, j), c = key_coeff
        return (i, j), neg_x0 * (inv ** (i + j)) * c

    rescaled = TruncatedSeries(
        XY, dict(renorm(kc) for kc in Fm.coeffs.items()), Fm.order)
    return Fu - rescaled


def test_universal_law_is_renormalized_main_law():
    assert universal_normalization_residual(6).is_zero()


# -------------------------------------------------------------- scalar law

def test_scalar_exponential_is_main_at_ones():
    e_main = genus_exponential(7).exponential
    e_scal = scalar_exponential(7).exponential
    for n in range(1, 8):
        assert specialize_ones(e_main.coefficient(n)) == e_scal.coefficient(n)


def test_scalar_law_low_terms():
    # computed via series reversion and frozen (independently re-derived
    # with the residue-formula oracle in the kernel tests)
    law = scalar_exponential(5).law()
    assert law.coefficient((1, 0)) == 1
    assert law.coefficient((0, 1)) == 1
    assert law.coefficient((1, 1)) == 2
    assert law.coefficient((2, 1)) == 7
    assert law.coefficient((1, 2)) == 7


def test_scalar_law_matches_specialized_main_law():
    Fm = genus_exponential(6).law()
    Fs = scalar_exponential(6).law()
    for key, c in Fm.coeffs.items():
        assert specialize_ones(c) == Fs.coeffs.get(key, 0)
    for key, c in Fs.coeffs.items():
        if key not in Fm.coeffs:
            assert c == 0


def test_scalar_inverse_series():
    # first coefficients hand-checked through T^4 (l = T - T^2 - T^3 - 5T^4,
    # then e(-l)); F(T, [-1](T)) = 0 is checked independently below
    inv = scalar_exponential(6).inverse_series()
    assert [inv.coefficient(n) for n in range(1, 5)] == [-1, 2, -4, 28]


def test_scalar_law_axioms():
    law = scalar_exponential(8)
    assert law.associativity_residual().is_zero()
    assert law.commutativity_residual().is_zero()
    assert law.inverse_residual().is_zero()


# ---------------------------------------------------- characteristic series

def characteristic_series(order: int) -> TruncatedSeries:
    """sum_n (-u)^n / (2n+1)!! = 1 - u/3 + u^2/15 - u^3/105 + ... ."""
    return TruncatedSeries.univariate(
        "u", {n: Fraction((-1) ** n, dfact_odd(n + 1)) for n in range(order + 1)},
        order)


def characteristic_reciprocal(order: int) -> TruncatedSeries:
    """Laurent inverse of u * (characteristic series):
    u^-1 + 1/3 + 2u/45 + ... ."""
    shifted = TruncatedSeries.univariate(
        "u", {n + 1: Fraction((-1) ** n, dfact_odd(n + 1))
              for n in range(order + 2)},
        order + 2)
    return shifted.inverse()


def test_characteristic_series_low_terms():
    s = characteristic_series(3)
    assert [s.coefficient(n) for n in range(4)] == \
        [1, -F(1, 3), F(1, 15), -F(1, 105)]


def test_characteristic_reciprocal_low_terms():
    r = characteristic_reciprocal(2)
    assert r.low == -1
    assert r.coefficient(-1) == 1
    assert r.coefficient(0) == F(1, 3)
    assert r.coefficient(1) == F(2, 45)


def test_group_law_constructor_guards():
    with pytest.raises(DomainError):
        GroupLaw(TruncatedSeries.univariate("T", {0: 1, 1: 1}, 3))
    with pytest.raises(DomainError):
        GroupLaw(TruncatedSeries.univariate("T", {2: 1}, 3))
