"""One-dimensional formal group laws attached to the genus.

A law is described by its exponential e(T) (a univariate series with unit
linear coefficient over an exact coefficient ring); the law itself is
F(X, Y) = e(l(X) + l(Y)) with l the compositional inverse of e.

Three exponentials matter here:

* the main one, e(T) = sum_k (2k-1)!! x_0^-1 x_k T^(k+1) over the odd
  coordinates (x_0 inverted);
* the universal odd one, t(T) = sum_k t_k T^(k+1) over Q[t_0^±1, t_1, ...];
  composing with the coordinate change t_k = -(2k-1)!! x_k gives exactly
  -x_0 * e(T), so the universal law is the main law renormalized:
  F_univ(X, Y) = -x_0 * F(-x_0^-1 X, -x_0^-1 Y)  (conventions table);
* the scalar one, <e>(u) = sum_n (2n-1)!! u^(n+1), which is the main
  exponential specialized at every x_k -> 1.

The complex-projective-space images of the corresponding genus are read
off the logarithm: the degree-n image is (n+1) times the T^(n+1)
coefficient.  Clearing the single inverted generator against the
square-free algebra (x_0 = q_1 / 2) exposes the integrality of those
images and the mod-p vanishing of the exponential coefficients for
k >= (p+1)/2 (the double factorial (2k-1)!! then contains the factor p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Any

from .errors import DomainError
from .qfunctions import QElement, xpoly_to_q
from .rings import SparsePoly, UT, UX, dfact_odd
from .series import TruncatedSeries
from .virasoro import t_to_x

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")


@dataclass(frozen=True)
class GroupLaw:
    """A one-dimensional formal group law presented by its exponential."""

    exponential: TruncatedSeries

    def __post_init__(self):
        e = self.exponential
        if len(e.vars) != 1 or e.low < 0:
            raise DomainError("exponential must be a univariate power series")
        if e.coeffs.get((0,)):
            raise DomainError("exponential must vanish at 0")
        if not e.coeffs.get((1,)):
            raise DomainError("exponential needs a unit linear coefficient")

    @property
    def order(self) -> int:
        return self.exponential.order

    @cached_property
    def _logarithm(self) -> TruncatedSeries:
        return self.exponential.reversion()

    @cached_property
    def _law(self) -> TruncatedSeries:
        return self.law()

    def logarithm(self) -> TruncatedSeries:
        """l = e^{-1}, reverted once per law and shared by every caller."""
        return self._logarithm

    def law(self) -> TruncatedSeries:
        """F(X, Y) = e(l(X) + l(Y)) through the exponential's order.

        Builds F on each call; the axiom residuals share one build."""
        n = self.order
        l = self.logarithm()
        lx = l.substitute({l.vars[0]: TruncatedSeries.variable(XY, "X", n)})
        ly = l.substitute({l.vars[0]: TruncatedSeries.variable(XY, "Y", n)})
        return self.exponential.compose(lx + ly)

    def inverse_series(self) -> TruncatedSeries:
        """[-1](T) = e(-l(T)), the formal inverse of the law."""
        return self.exponential.compose(-self.logarithm())

    def associativity_residual(self) -> TruncatedSeries:
        """F(F(X,Y),Z) - F(X,F(Y,Z)); identically 0 through the window for
        a genuine law (the check is symbolic, not numeric)."""
        F = self._law
        x = TruncatedSeries.variable(XYZ, "X", F.order)
        y = TruncatedSeries.variable(XYZ, "Y", F.order)
        z = TruncatedSeries.variable(XYZ, "Z", F.order)
        inner_xy = F.substitute({"X": x, "Y": y})
        inner_yz = F.substitute({"X": y, "Y": z})
        left = F.substitute({"X": inner_xy, "Y": z})
        right = F.substitute({"X": x, "Y": inner_yz})
        return left - right

    def commutativity_residual(self) -> TruncatedSeries:
        F = self._law
        x = TruncatedSeries.variable(XY, "X", F.order)
        y = TruncatedSeries.variable(XY, "Y", F.order)
        return F - F.substitute({"X": y, "Y": x})

    def unit_residuals(self) -> TruncatedSeries:
        """F(X, 0) - X pulled back to one variable."""
        F = self._law
        t = TruncatedSeries.variable(("T",), "T", F.order)
        return F.substitute({"X": t, "Y": TruncatedSeries.zero(("T",), F.order)}) - t

    def inverse_residual(self) -> TruncatedSeries:
        """F(T, [-1](T)), which must vanish."""
        F = self._law
        t = TruncatedSeries.variable(("T",), "T", F.order)
        return F.substitute({"X": t, "Y": self.inverse_series()})


# ------------------------------------------------------------- main law

def genus_exponential(order: int) -> GroupLaw:
    """e(T) = sum_k (2k-1)!! x_0^-1 x_k T^(k+1) over the odd coordinates."""
    x0_inv = SparsePoly.gen(UX, 0, -1)
    coeffs: dict[int, Any] = {}
    for k in range(order):
        coeffs[k + 1] = dfact_odd(k) * x0_inv * SparsePoly.gen(UX, k)
    return GroupLaw(TruncatedSeries.univariate("T", coeffs, order))


def projective_image(n: int, law: GroupLaw | None = None) -> SparsePoly:
    """Genus image of the degree-n complex projective space:
    (n+1) * [T^(n+1)] logarithm."""
    if n < 0:
        raise DomainError("projective spaces have degree >= 0")
    if law is None or law.order < n + 1:
        law = genus_exponential(n + 1)
    c = law.logarithm().coefficient(n + 1)
    c = c if isinstance(c, SparsePoly) else SparsePoly.const(UX, c)
    return (n + 1) * c


def to_q_over_q1(p: SparsePoly) -> tuple[int, QElement]:
    """Clear the inverted generator: returns (a, E) with the exact identity
    p = E * q_1^(-a) after the x -> q change of coordinates (x_0 = q_1/2)."""
    if p.universe != UX:
        raise DomainError("expected the x-universe")
    a = 0
    for mono in p.terms:
        for k, e in mono:
            if e < 0:
                if k != 0:
                    raise DomainError("only x_0 may be inverted here")
                a = max(a, -e)
    cleared = p * SparsePoly.gen(UX, 0, a) if a else p
    return a, Fraction(2) ** a * xpoly_to_q(cleared)


def specialize_ones(p) -> Fraction:
    """Evaluate a polynomial in the odd coordinates at x_k = 1 for all k."""
    if isinstance(p, SparsePoly):
        return p.substitute({k: Fraction(1) for k in p.gens()}).as_scalar()
    return Fraction(p)


# --------------------------------------------------------- universal law

def universal_exponential(order: int) -> GroupLaw:
    """The generic odd exponential t(T) = sum_k t_k T^(k+1) over
    Q[t_0^±1, t_1, ...]."""
    coeffs = {k + 1: SparsePoly.gen(UT, k) for k in range(order)}
    return GroupLaw(TruncatedSeries.univariate("T", coeffs, order))


def universal_normalization_residual(order: int) -> TruncatedSeries:
    """Difference between the coordinate-changed universal law and the
    renormalized main law -x_0 F(-x_0^-1 X, -x_0^-1 Y); zero when the
    conventions table is consistent."""
    Fu = universal_exponential(order).law().map_coeffs(
        lambda c: t_to_x(c) if isinstance(c, SparsePoly) else c)
    Fm = genus_exponential(order).law()
    neg_x0 = SparsePoly.gen(UX, 0) * Fraction(-1)
    inv = neg_x0.inv()

    def renorm(key_coeff):
        (i, j), c = key_coeff
        return (i, j), neg_x0 * (inv ** (i + j)) * c

    rescaled = TruncatedSeries(
        XY, dict(renorm(kc) for kc in Fm.coeffs.items()), Fm.order)
    return Fu - rescaled


# ------------------------------------------------------------ scalar law

def scalar_exponential(order: int) -> GroupLaw:
    """<e>(u) = sum_n (2n-1)!! u^(n+1): the main exponential at x_k = 1."""
    return GroupLaw(TruncatedSeries.univariate(
        "T", {n + 1: Fraction(dfact_odd(n)) for n in range(order)}, order))


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
