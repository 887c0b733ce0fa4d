"""Truncated big Witt vectors, ghost coordinates, and vertex operators.

The additive group here is the multiplicative group of power series with
constant term 1, truncated at a fixed order N.  Ghost coordinates make the
second (multiplicative) operation componentwise:

    T h'(T)/h(T) = sum_{n>=1} (-1)^{n-1} g_n T^n,   ghost(1 + aT)_n = a^n,

so (1+aT) * (1+bT) = 1+abT holds on the nose and the *-unit is 1+T (the
all-ones ghost vector).  Power sums are p_n = n [T^n] log h = (-1)^{n-1} g_n.

Over a test ring whose higher generators are nilpotent, evaluation at T = 1
is a finite sum; ``trace`` implements it and ``pairing(h, g) = trace(h*g)``
is the resulting duality pairing, checked nondegenerate on the truncation.

The second half of the module realizes operators attached to reduced power
sums p~_n = p_n/n on the tensor square of the symmetric-function ring: one
tensor factor acts by multiplication (keys ("s", m)), the other is the
graded dual presented through the Hall pairing, where the dual reduced
power sum acts as (1/m) d/dp~_m (keys ("d", m)).  Negative modes carry the
sign p~_{-m} = (-1)^m (dual p~_m), which is exactly what makes the operator
table equal to [w^n] log(h(z+w) (x) h-dual(-(z+w)^{-1})) with the expansion
(z+w)^{-1} = sum_{i>=0} (-w)^i z^{-i-1}; ``gamma_log_check`` verifies that
equality by an independent route.  A lattice version dresses the same
exponentials with a Gram matrix, a z^{<lam,mu>} shift, and a component
translation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .errors import DomainError, IncompatibleOperands, InvariantError
from .rings import (
    CycloRational,
    SparsePoly,
    Universe,
    UPS,
    coeff_is_integral,
    collect,
    power,
    ring_map,
    row_reduce,
    symbol_universe,
)
from .series import TruncatedSeries

__all__ = [
    "WittVector",
    "GhostVector",
    "witt_add",
    "witt_neg",
    "witt_zero",
    "witt_unit",
    "ghost",
    "ghost_inverse",
    "power_sums",
    "witt_mul",
    "trace",
    "pairing",
    "NondegeneracyWitness",
    "nondegeneracy_witness",
    "SubfunctorWitness",
    "q_subfunctor_check",
    "RootOfUnityWitness",
    "root_of_unity_check",
    "hl_q_gen",
    "SD",
    "gbinom",
    "VertexOperator",
    "vertex_Y_powersum",
    "vertex_Y_element",
    "vertex_apply",
    "GammaLogWitness",
    "gamma_log_check",
    "MultiplicativityWitness",
    "Y_multiplicativity_check",
    "ClosureReport",
    "closure_report",
    "LatticeData",
    "lattice_from_json",
    "LatticeFockElement",
    "lattice_universe",
    "LatticeVertexOperator",
    "vertex_Y_lattice",
    "lattice_apply",
    "lattice_grading_audit",
    "lattice_action_obj",
    "vertex_table_obj",
]


# ---------------------------------------------------------------------------
# Witt vectors and ghost coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WittVector:
    """A series 1 + sum_{i>=1} h_i T^i trusted through its truncation order."""

    series: TruncatedSeries

    def __post_init__(self):
        s = self.series
        if s.vars != ("T",) or s.low != 0:
            raise DomainError("Witt vectors live in ordinary T-series")
        if s.coefficient(0) != 1:
            raise DomainError("constant term must be 1")

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, Any] | Sequence[Any],
                    order: int) -> "WittVector":
        """Build from {i: h_i} (i >= 1) or a sequence (h_1, h_2, ...)."""
        if not isinstance(coeffs, Mapping):
            coeffs = {i + 1: c for i, c in enumerate(coeffs)}
        data = {0: 1}
        for i, c in coeffs.items():
            if i < 1:
                raise DomainError(f"coefficient index {i} must be >= 1")
            data[i] = c
        return cls(TruncatedSeries.univariate("T", data, order))

    @property
    def order(self) -> int:
        return self.series.order

    def coefficient(self, i: int):
        return self.series.coefficient(i)

    def is_integral(self) -> bool:
        return all(_entry_is_integral(c) for c in self.series.coeffs.values())

    def __repr__(self):
        return f"WittVector({self.series!r})"


@dataclass(frozen=True)
class GhostVector:
    """Components g_1..g_N; addition of Witt vectors is componentwise here."""

    components: tuple

    def __len__(self):
        return len(self.components)

    def __getitem__(self, n: int):
        """1-indexed access: ghost component g_n."""
        if not 1 <= n <= len(self.components):
            raise DomainError(f"ghost index {n} outside 1..{len(self.components)}")
        return self.components[n - 1]


def _entry_is_integral(c) -> bool:
    if isinstance(c, SparsePoly):
        return c.is_integral()
    return coeff_is_integral(c)


def _same_order(a: WittVector, b: WittVector) -> int:
    if a.order != b.order:
        raise IncompatibleOperands(
            f"truncation orders differ: {a.order} vs {b.order}")
    return a.order


def witt_zero(order: int) -> WittVector:
    """Additive identity: the constant series 1."""
    return WittVector(TruncatedSeries.univariate("T", {0: 1}, order))


def witt_unit(order: int) -> WittVector:
    """Multiplicative unit 1 + T (its ghost vector is all ones)."""
    return WittVector(TruncatedSeries.univariate("T", {0: 1, 1: 1}, order))


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    """Group law: multiply the series."""
    _same_order(a, b)
    return WittVector(a.series * b.series)


def witt_neg(a: WittVector) -> WittVector:
    """Group inverse: invert the series."""
    return WittVector(a.series.inverse())


def ghost(h: WittVector, upto: int | None = None) -> GhostVector:
    """Ghost coordinates via T h'/h = sum (-1)^{n-1} g_n T^n.

    The numerator T h' is assembled directly from the stored coefficients
    (coefficient n is n*h_n), so the full truncation order stays trusted.
    """
    n_max = h.order if upto is None else upto
    if n_max > h.order:
        raise DomainError(f"only {h.order} coefficients are trusted")
    th = TruncatedSeries.univariate(
        "T", {k: k * c for (k,), c in h.series.coeffs.items() if k},
        h.order)
    ratio = th * h.series.inverse()
    comps = []
    for n in range(1, n_max + 1):
        g = ratio.coefficient(n)
        comps.append(-g if n % 2 == 0 else g)
    return GhostVector(tuple(comps))


def ghost_inverse(g: GhostVector | Sequence[Any],
                  order: int | None = None) -> WittVector:
    """Reconstruct h = exp(sum (-1)^{n-1} g_n T^n / n).

    Needs division by n, so the coefficient ring must contain the
    rationals (exact Fractions, or polynomials over them).
    """
    comps = g.components if isinstance(g, GhostVector) else tuple(g)
    n_max = len(comps) if order is None else order
    if n_max > len(comps):
        raise DomainError("fewer ghost components than the requested order")
    data = {}
    for n in range(1, n_max + 1):
        c = comps[n - 1]
        sign = Fraction(1, n) if n % 2 == 1 else Fraction(-1, n)
        val = sign * c
        if val:
            data[n] = val
    return WittVector(TruncatedSeries.univariate("T", data, n_max).exp()
                      if data else TruncatedSeries.univariate("T", {0: 1}, n_max))


def power_sums(h: WittVector, upto: int | None = None) -> list:
    """p_n = n [T^n] log h = (-1)^{n-1} g_n."""
    g = ghost(h, upto)
    return [(-c if n % 2 == 0 else c)
            for n, c in enumerate(g.components, start=1)]


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    """The second operation: componentwise on ghosts, pulled back.

    When both inputs have integral coefficients, the output must be
    integral too (the operation is defined over the integers even though
    the pullback passes through denominators); InvariantError otherwise.
    """
    order = _same_order(a, b)
    ga = ghost(a)
    gb = ghost(b)
    prod = GhostVector(tuple(x * y for x, y in zip(ga.components, gb.components)))
    out = ghost_inverse(prod, order)
    if a.is_integral() and b.is_integral():
        if not out.is_integral():
            raise InvariantError("product of integral vectors went fractional")
    return out


# ---------------------------------------------------------------------------
# trace and the duality pairing over nilpotent test rings
# ---------------------------------------------------------------------------

def _require_nilpotent(c, where: str) -> None:
    if isinstance(c, SparsePoly):
        if c.constant_term():
            raise DomainError(
                f"trace needs nilpotent coefficients; {where} has a "
                f"constant part")
        for k in c.gens():
            if c.universe.nilpotency(k) is None:
                raise DomainError(
                    f"trace needs nilpotent coefficients; generator "
                    f"{c.universe.fmt(k)} in {where} never vanishes")
    elif c:
        raise DomainError(
            f"trace needs nilpotent coefficients; {where} is a nonzero "
            f"scalar")


def trace(h: WittVector):
    """Evaluate h at T = 1 (finite by nilpotence plus truncation).

    Every coefficient h_i with i >= 1 must be nilpotent in its test ring;
    otherwise the evaluation has no meaning on the honest (untruncated)
    object and a DomainError is raised.
    """
    total = None
    for i in range(h.order + 1):
        c = h.series.coefficient(i)
        if i >= 1:
            _require_nilpotent(c, f"h_{i}")
        total = c if total is None else total + c
    return total


def pairing(a: WittVector, b: WittVector):
    """(a, b) -> (a * b)(1), a unit of the test ring."""
    return trace(witt_mul(a, b))


class NondegeneracyWitness(NamedTuple):
    """Gram data for the pairing on a truncation.

    ``gram[i][j]`` is the lowest-order (degree-2) coefficient of
    pairing(1 + sT^{i+1}, 1 + sT^{j+1}) - 1; nondegeneracy on the
    truncation is the invertibility of that matrix, and the diagonal
    entries witness a dual partner for every ghost direction.
    """

    order: int
    gram: tuple
    determinant: Fraction

    @property
    def ok(self) -> bool:
        return self.determinant != 0

    @property
    def directions_paired(self) -> bool:
        return all(self.gram[i][i] != 0 for i in range(self.order))


def nondegeneracy_witness(order: int = 6,
                          nilpotent_order: int = 7) -> NondegeneracyWitness:
    """Pair the spanning family 1 + sT^i against itself over Q[s]/(s^k).

    The entries of the pairing are units 1 + (nilpotent); their s^2 parts
    form an honest scalar matrix whose invertibility is the nondegeneracy
    statement on this truncation.
    """
    uni = symbol_universe("nil_s", ["s"], nilpotent_order=nilpotent_order)
    s = SparsePoly.gen(uni, "s")
    family = [WittVector.from_coeffs({i: s}, order)
              for i in range(1, order + 1)]
    gram = []
    for a in family:
        row = []
        for b in family:
            p = pairing(a, b)
            # ghost-disjoint pairs collapse to the bare scalar 1
            c = p.coefficient({"s": 2}) if isinstance(p, SparsePoly) else 0
            row.append(Fraction(c))
        gram.append(row)
    return NondegeneracyWitness(order, tuple(tuple(r) for r in gram),
                                row_reduce(gram)[0])


# ---------------------------------------------------------------------------
# subfunctor criteria
# ---------------------------------------------------------------------------

class SubfunctorWitness(NamedTuple):
    ok: bool
    residual: TruncatedSeries   # h(-T) h(T) - 1


def q_subfunctor_check(h: WittVector) -> SubfunctorWitness:
    """Does h satisfy h(-T) = h(T)^{-1}?  Checked as h(-T)h(T) - 1 = 0.

    Pure ring arithmetic (no division), so it runs over any coefficient
    ring — including the quotient ring of the strict-partition generators,
    whose defining relation is exactly this identity.
    """
    flipped = TruncatedSeries.univariate(
        "T", {k: (c if k % 2 == 0 else -c)
              for (k,), c in h.series.coeffs.items()},
        h.order)
    residual = flipped * h.series - TruncatedSeries.univariate(
        "T", {0: 1}, h.order)
    return SubfunctorWitness(residual.is_zero(), residual)


class RootOfUnityWitness(NamedTuple):
    p: int
    ok: bool
    offending: tuple   # pairs (n, p_n) with p | n and p_n != 0


def root_of_unity_check(h: WittVector, p: int) -> RootOfUnityWitness:
    """Power-sum criterion for the order-p quotient: p_n = 0 whenever p | n.

    Equivalent to prod_k h(w^k T) = 1 over a primitive p-th root w, but
    evaluated entirely through ghost components so no root is ever
    adjoined.
    """
    if p < 2:
        raise DomainError(f"root order must be at least 2, got {p}")
    ps = power_sums(h)
    bad = tuple((n, v) for n, v in enumerate(ps, start=1)
                if n % p == 0 and v)
    return RootOfUnityWitness(p, not bad, bad)


def hl_q_gen(t, order: int) -> WittVector:
    """Deformed generating series exp(sum_n (1 - t^n) p_n T^n / n).

    Coefficients are polynomials in the formal power sums p_n.  At t = 0
    this is the complete-homogeneous generating series; at t = 1 it
    collapses to 1; at t = -1 only odd power sums survive, each doubled —
    the square-free generator series of the strict-partition ring under
    p_{2k+1} -> 2 x_k.
    """
    tf = Fraction(t)
    data = {}
    for n in range(1, order + 1):
        factor = (1 - tf ** n) / n
        if factor:
            data[n] = SparsePoly.gen(UPS, n) * factor
    if not data:
        return witt_zero(order)
    return WittVector(TruncatedSeries.univariate("T", data, order).exp())


# ---------------------------------------------------------------------------
# the tensor-square universe and generalized binomials
# ---------------------------------------------------------------------------

#: The one key for the Laurent variable z: invertible, of weight 0.
Z = ("z", 0)


def _sd_fmt(key) -> str:
    side, m = key
    return "z" if key == Z else f"p{m}" if side == "s" else f"pd{m}"


def _sd_weight(key) -> int:
    if key == Z:
        return 0
    side, m = key
    if side not in ("s", "d") or not isinstance(m, int) or m < 1:
        raise DomainError(f"bad tensor-square key {key!r}")
    return m


#: Tensor square of the symmetric-function ring: keys ("s", m) multiply by
#: the reduced power sum p~_m, keys ("d", m) are the Hall-dual copies
#: (acting as (1/m) d/dp~_m).  Both carry weight m > 0, so weight caps are
#: honest truncations.  ``Z`` extends it by the Laurent variable z.
SD = Universe(name="sd", fmt=_sd_fmt, weight=_sd_weight,
              is_invertible=lambda k: k == Z)


def gbinom(m: int, n: int) -> int:
    """Binomial coefficient extended to negative upper entry.

    Falling-factorial definition: binom(m, n) = m(m-1)...(m-n+1)/n!, an
    integer for every integer m and n >= 0.
    """
    if n < 0:
        raise DomainError("lower binomial entry must be >= 0")
    if m >= 0:
        return math.comb(m, n)
    return (-1) ** n * math.comb(-m + n - 1, n)


def _unit_ratio(t, n: int) -> Callable[[int], Any]:
    """The factor (1 - t^{|m|})/(1 - t^n) as a function of |m|.

    ``t`` may be an exact rational or a cyclotomic scalar (a primitive
    root of unity); either way the denominator must not vanish.
    """
    if isinstance(t, CycloRational):
        den = 1 - t ** n
        if not den:
            raise DomainError(
                f"1 - t^{n} = 0 at this root of unity; the operator for "
                f"index {n} does not exist on the quotient")
        inv_den = den.inv()
        return lambda m: (1 - t ** m) * inv_den
    tf = Fraction(t)
    den = 1 - tf ** n
    if den == 0:
        raise DomainError(f"1 - t^{n} = 0 at t = {t}; no such operator")
    return lambda m: (1 - tf ** m) / den


# ---------------------------------------------------------------------------
# vertex operators on the tensor square
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexOperator:
    """An operator as one series in the tensor weight g: the g^w
    coefficient is the weight-w part of sum_e table[e] z^e, a SparsePoly
    over ``SD`` (the constant 1 included) with z as the key ``Z``.

    The series order is the weight cap: monomials of weight <= weight_cap
    are exactly right, heavier ones are dropped.  Weights are additive and
    strictly positive on modes, so the cap is a genuine filtration
    truncation.
    """

    series: TruncatedSeries
    label: str = ""

    @property
    def weight_cap(self) -> int:
        return self.series.order

    @property
    def table(self) -> dict[int, SparsePoly]:
        """Laurent table, z-exponent -> element of S (x) S-dual: the series
        regrouped by the exponent of z, which no entry shows."""
        return collect(self.series.coeffs.values(), Z)

    def __add__(self, other: "VertexOperator") -> "VertexOperator":
        return VertexOperator(self.series + other.series)

    def __mul__(self, other) -> "VertexOperator":
        """Product in (S (x) S-dual)[z, z^{-1}] through the smaller cap (no
        pair of terms beyond it is formed), or a scalar multiple."""
        if not isinstance(other, VertexOperator):
            return VertexOperator(self.series * other)
        cap = min(self.weight_cap, other.weight_cap)
        return VertexOperator(self.series.__mul__(other.series, cap),
                              f"{self.label or '?'}*{other.label or '?'}")


def vertex_Y_powersum(n: int, t=0, *, weight_cap: int) -> VertexOperator:
    """Operator attached to the reduced power sum p~_n (n >= 1).

    Y(p~_n) = sum_{m != 0} (1-t^{|m|})/(1-t^n) binom(m, n) p~_m z^{m-n},
    where the negative modes are the Hall duals with the alternating sign
    p~_{-m} = (-1)^m (dual p~_m).
    """
    if n < 1:
        raise DomainError(f"power-sum index must be >= 1, got {n}")
    ratio = _unit_ratio(t, n)
    modes = {}
    for m in range(1, weight_cap + 1):
        r = ratio(m)
        modes[m] = SparsePoly(SD, {
            ((("s", m), 1), (Z, m - n)): r * gbinom(m, n),
            ((("d", m), 1), (Z, -m - n)): r * gbinom(-m, n) * (-1) ** m})
    return VertexOperator(TruncatedSeries.univariate("g", modes, weight_cap),
                          f"Y(p{n})")


def vertex_Y_element(b: SparsePoly, t=0, *, weight_cap: int) -> VertexOperator:
    """Multiplicative extension of the power-sum operators.

    ``b`` is a polynomial in the formal power sums (universe ``UPS``,
    generator k standing for p~_k); monomials map to products of the
    generator operators and sums stay sums.
    """
    if b.universe != UPS:
        raise IncompatibleOperands(
            "vertex elements are polynomials in the power-sum universe")
    one = VertexOperator(TruncatedSeries.univariate(
        "g", {0: SparsePoly.const(SD, 1)}, weight_cap), "1")
    # higher power sums first: their operators lack the s-modes below the
    # index, so the partial products stay smaller
    gen = cache(lambda k: vertex_Y_powersum(k, t, weight_cap=weight_cap))
    op = ring_map(((reversed(m), c) for m, c in b.monomials().items()),
                  lambda k, e: power(gen(k), e, one), one)
    return VertexOperator(op.series, f"Y({b!r})")


# ---------------------------------------------------------------------------
# action on states
# ---------------------------------------------------------------------------

def vertex_apply(op: VertexOperator, state: SparsePoly) -> dict[int, SparsePoly]:
    """Apply the operator to a polynomial state in the power sums.

    Returns {z-exponent: resulting state}; entries are sound wherever the
    weight cap covers the modes that can act (the cap bounds the s-side
    weight added and the d-side weight removed).  Each distinct dual part
    of the table, across all z-exponents, is one annihilation part of
    ``_normal_ordered``; its multiplication parts are the creation parts.
    """
    if state.universe != UPS:
        raise IncompatibleOperands("states are power-sum polynomials")
    by_dual: dict[tuple, dict[int, dict]] = {}
    for ez, poly in op.table.items():
        for mono, c in poly.monomials().items():
            dual = tuple((m, e) for (side, m), e in mono if side == "d")
            mult = tuple((m, e) for (side, m), e in mono if side == "s")
            by_dual.setdefault(dual, {}).setdefault(ez, {})[mult] = c
    return _normal_ordered(
        ((SparsePoly(UPS, {dual: 1}),
          [(ez, SparsePoly(UPS, mult)) for ez, mult in by_ez.items()])
         for dual, by_ez in by_dual.items()), state)


def _normal_ordered(pairs, state: SparsePoly) -> dict[int, SparsePoly]:
    """The normal-ordered action (Frenkel-Lepowsky-Meurman 1988): each
    (annihilation part, [(z-exponent, creation part), ...]) pair in
    ``pairs`` acts on the state once through ``_annihilate``, then each
    creation part multiplies the result; products are summed by z-exponent.
    """
    out: dict[int, SparsePoly] = {}
    for ann, creations in pairs:
        lowered = _annihilate(ann, state)
        if not lowered:
            continue
        for ez, cre in creations:
            piece = cre * lowered
            if piece:
                out[ez] = out[ez] + piece if ez in out else piece
    return {ez: p for ez, p in sorted(out.items()) if p}


def _annihilate(ann: SparsePoly, state: SparsePoly) -> SparsePoly:
    """Apply a polynomial in the dual modes: a state generator of weight n
    (p~_n, or p~_n^(d) on a lattice) acts as (1/n) d/dp~_n."""
    out = SparsePoly.zero(state.universe)
    for mono, c in ann.monomials().items():
        term = state
        scale = c
        for key, e in mono:
            for _ in range(e):
                term = term.differentiate(key)
            if not term:
                break
            scale = scale * Fraction(1, state.universe.weight(key) ** e)
        if term:
            out = out + term * scale
    return out


# ---------------------------------------------------------------------------
# the generating-function route: Gamma(z, w) and its logarithm
# ---------------------------------------------------------------------------

def _homogeneous_series(side: str, weight_cap: int) -> TruncatedSeries:
    """sum_i h_i T^i = exp(sum_n p~_n T^n) on one tensor factor."""
    data = {n: SparsePoly.gen(SD, (side, n)) for n in range(1, weight_cap + 1)}
    return TruncatedSeries.univariate("T", data, weight_cap).exp()


Bitable = dict[tuple[int, int], SparsePoly]   # (w-exponent, z-exponent) -> coeff


def _bitable_mul(a: Bitable, b: Bitable, w_order: int, cap: int) -> Bitable:
    out: Bitable = {}
    for (wa, za), pa in a.items():
        for (wb, zb), pb in b.items():
            w = wa + wb
            if w > w_order:
                continue
            prod = pa.__mul__(pb, cap)
            if not prod:
                continue
            key = (w, za + zb)
            cur = out.get(key)
            out[key] = prod if cur is None else cur + prod
    return {k: v for k, v in out.items() if v}


def _gamma_table(weight_cap: int, w_order: int) -> Bitable:
    """Coefficients of h(z+w) (x) h-dual(-(z+w)^{-1}).

    The s-side expands (z+w)^i by ordinary binomials; the dual side uses
    (z+w)^{-j} = sum_a binom(-j, a) w^a z^{-j-a} (the expansion in
    ascending powers of w) together with the sign (-1)^j from -(z+w)^{-1}.
    """
    hs = _homogeneous_series("s", weight_cap)
    hd = _homogeneous_series("d", weight_cap)
    table: Bitable = {}
    for i in range(0, weight_cap + 1):
        ci = hs.coefficient(i) if i else SparsePoly.const(SD, 1)
        if not ci:
            continue
        for j in range(0, weight_cap + 1 - i):
            cj = hd.coefficient(j) if j else SparsePoly.const(SD, 1)
            if not cj:
                continue
            pair = ci.__mul__(cj, weight_cap)
            if not pair:
                continue
            sign = (-1) ** j
            for a1 in range(0, min(i, w_order) + 1):
                b1 = gbinom(i, a1)
                if not b1:
                    continue
                for a2 in range(0, w_order - a1 + 1):
                    if j == 0 and a2 > 0:
                        continue
                    b2 = gbinom(-j, a2) if j else 1
                    if not b2:
                        continue
                    coeff = sign * b1 * b2
                    key = (a1 + a2, (i - a1) + (-j - a2))
                    add = pair * coeff
                    cur = table.get(key)
                    table[key] = add if cur is None else cur + add
    return {k: v for k, v in table.items() if v}


def _bitable_log(g: Bitable, w_order: int, cap: int) -> Bitable:
    """log of a table with constant part 1 (at key (0,0)).

    The non-constant part has strictly positive tensor weight, so the
    alternating series terminates once powers exceed the cap.
    """
    x: Bitable = {}
    for key, p in g.items():
        q = p - 1 if key == (0, 0) else p
        if q:
            x[key] = q
    out: Bitable = {}
    power: Bitable = {(0, 0): SparsePoly.const(SD, 1)}
    for j in range(1, cap + 1):
        power = _bitable_mul(power, x, w_order, cap)
        if not power:
            break
        c = Fraction((-1) ** (j + 1), j)
        for key, p in power.items():
            add = p * c
            cur = out.get(key)
            out[key] = add if cur is None else cur + add
    return {k: v for k, v in out.items() if v}


class GammaLogWitness(NamedTuple):
    n: int
    ok: bool
    mismatches: tuple   # (z-exponent, table entry, gamma entry)


def gamma_log_check(n: int, *, weight_cap: int) -> GammaLogWitness:
    """Independent derivation of the power-sum operator table.

    Route one is the explicit mode formula (``vertex_Y_powersum`` at
    t = 0).  Route two computes Gamma(z, w) coefficientwise from the
    complete-homogeneous expansions and extracts [w^n] log Gamma.  The two
    tables must agree entry by entry through the weight cap.
    """
    direct = vertex_Y_powersum(n, 0, weight_cap=weight_cap).table
    gamma = _gamma_table(weight_cap, n)
    logg = _bitable_log(gamma, n, weight_cap)
    from_gamma: dict[int, SparsePoly] = {}
    for (wexp, zexp), p in logg.items():
        if wexp == n and p:
            from_gamma[zexp] = p
    mism = []
    zero = SparsePoly.zero(SD)
    for e in sorted(set(direct) | set(from_gamma)):
        lhs, rhs = direct.get(e, zero), from_gamma.get(e, zero)
        if lhs != rhs:
            mism.append((e, lhs, rhs))
    return GammaLogWitness(n, not mism, tuple(mism))


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------

class MultiplicativityWitness(NamedTuple):
    status: str            # "pass" | "fail" | "inconclusive"
    window: tuple[int, int]
    compared: int          # z-exponents with content seen in the window
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def Y_multiplicativity_check(b: SparsePoly, bprime: SparsePoly, *,
                             weight_cap: int,
                             window: tuple[int, int],
                             t=0) -> MultiplicativityWitness:
    """Is Y(b) Y(b') = Y(b b') coefficient by coefficient?

    Both sides are computed exactly through the weight cap and compared on
    every z-exponent inside the window.  If the window shows no content at
    all the comparison proves nothing and the witness says "inconclusive"
    rather than "pass".
    """
    lo, hi = window
    if lo > hi:
        raise DomainError("empty z-window")
    lhs = (vertex_Y_element(b, t, weight_cap=weight_cap)
           * vertex_Y_element(bprime, t, weight_cap=weight_cap)).table
    rhs = vertex_Y_element(b * bprime, t, weight_cap=weight_cap).table
    mism = []
    content = 0
    zero = SparsePoly.zero(SD)
    for e in range(lo, hi + 1):
        le, re = lhs.get(e, zero), rhs.get(e, zero)
        if le or re:
            content += 1
        if le != re:
            mism.append((e, le, re))
    if mism:
        return MultiplicativityWitness("fail", window, content, tuple(mism))
    if content == 0:
        return MultiplicativityWitness("inconclusive", window, 0, ())
    return MultiplicativityWitness("pass", window, content, ())


# ---------------------------------------------------------------------------
# root-of-unity closure bookkeeping
# ---------------------------------------------------------------------------

class ClosureReport(NamedTuple):
    """Does Y(p~_n) stay inside the quotient killing p~_m for order | m?

    The mode coefficient carries the factor 1 - t^{|m|}, which vanishes at
    a primitive root of unity of the given order exactly when order
    divides |m|.  For prime orders the report is computed from the actual
    cyclotomic operator table; for composite orders (where no exact scalar
    type is on hand) the same divisibility criterion is evaluated
    directly, and the method field says which route ran.
    """

    n: int
    order: int
    weight_cap: int
    method: str             # "cyclotomic" | "divisibility"
    killed_modes: tuple     # the |m| <= cap whose coefficients all vanish
    leaking_modes: tuple    # quotient-killed modes that still appear

    @property
    def ok(self) -> bool:
        return not self.leaking_modes


def closure_report(n: int, order: int, *, weight_cap: int) -> ClosureReport:
    if order < 2:
        raise DomainError(f"root order must be at least 2, got {order}")
    if n % order == 0:
        raise DomainError(
            f"order {order} divides {n}: the denominator 1 - t^{n} "
            f"vanishes and the operator is excluded")
    must_die = tuple(m for m in range(1, weight_cap + 1) if m % order == 0)
    try:
        t = CycloRational.root(order)
    except DomainError:
        # composite order: no cyclotomic scalar available; the coefficient
        # factor 1 - t^m vanishes exactly when order | m, which is what
        # must_die already encodes
        return ClosureReport(n, order, weight_cap, "divisibility",
                             must_die, ())
    op = vertex_Y_powersum(n, t, weight_cap=weight_cap)
    present = set()
    for poly in op.table.values():
        for key in poly.gens():
            present.add(key[1])
    killed = tuple(m for m in must_die if m not in present)
    leaking = tuple(m for m in must_die if m in present)
    return ClosureReport(n, order, weight_cap, "cyclotomic", killed, leaking)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def _integer(x, what: str) -> int:
    """``x`` itself if it is an int (not a bool): nothing is rounded."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class LatticeData:
    """A finite-rank free abelian group with an integer symmetric form."""

    gram: tuple

    def __post_init__(self):
        g = tuple(tuple(_integer(x, "Gram entry") for x in row)
                  for row in self.gram)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise DomainError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise DomainError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def check_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        vv = tuple(_integer(x, "lattice coordinate") for x in v)
        if len(vv) != self.rank:
            raise DomainError(
                f"vector length {len(vv)} does not match rank {self.rank}")
        return vv

    def inner(self, a: Sequence[int], b: Sequence[int]) -> int:
        aa, bb = self.check_vector(a), self.check_vector(b)
        return sum(aa[i] * self.gram[i][j] * bb[j]
                   for i in range(self.rank) for j in range(self.rank))

    def pairing_vector(self, a: Sequence[int]) -> tuple[int, ...]:
        """The functional <a, .> expressed in coordinates (Gram * a)."""
        aa = self.check_vector(a)
        return tuple(sum(self.gram[i][j] * aa[j] for j in range(self.rank))
                     for i in range(self.rank))


def lattice_from_json(text: str | bytes) -> LatticeData:
    """Accept either a bare matrix [[...]] or {"gram": [[...]]}."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, too deep
        raise DomainError(f"Gram file is not JSON: {e}") from None
    if isinstance(obj, Mapping):
        obj = obj.get("gram")
    if not (isinstance(obj, list) and all(isinstance(r, list) for r in obj)):
        raise DomainError("expected a JSON Gram matrix")
    return LatticeData(tuple(tuple(row) for row in obj))


def lattice_universe(rank: int) -> Universe:
    """State-side symbols: key (direction, n) is p~_n in that direction."""
    def weight(key):
        d, n = key
        if not (isinstance(d, int) and 0 <= d < rank) or n < 1:
            raise DomainError(f"bad lattice symbol {key!r}")
        return n

    return Universe(name=f"lat{rank}",
                    fmt=lambda k: f"p{k[1]}[{k[0]}]",
                    weight=weight)


@dataclass(frozen=True)
class LatticeFockElement:
    """Finite combination of (lattice point; power-sum polynomial) pairs.

    The grade of a term is <point, point> plus the symmetric weight of its
    monomial.
    """

    lattice: LatticeData
    components: Mapping[tuple, SparsePoly]

    def __post_init__(self):
        uni = lattice_universe(self.lattice.rank)
        comps = {}
        for pt, poly in self.components.items():
            key = self.lattice.check_vector(pt)
            if poly.universe != uni:
                raise IncompatibleOperands(
                    "component polynomial in the wrong universe")
            if poly:
                comps[key] = poly
        object.__setattr__(self, "components", comps)

    def grades(self) -> set[int]:
        out = set()
        for pt, poly in self.components.items():
            base = self.lattice.inner(pt, pt)
            for mono in poly.monomials():
                out.add(base + poly.monomial_weight(mono))
        return out


class LatticeVertexOperator(NamedTuple):
    """Normally ordered operator attached to a lattice point.

    ``creation[c]`` is the z^c coefficient of
    exp(sum_n sum_d point_d p~_n^(d) z^n) and acts by multiplication;
    ``annihilation[a]`` is the z^-a coefficient of
    exp(sum_n (-1)^n sum_d (Gram point)_d p~_n^(d) z^-n), where each symbol
    p~_n^(d) acts as (1/n) d/dp~_n^(d).  Both halves are state-universe
    polynomials, homogeneous of weight equal to their z-degree, so the
    truncation "total weight <= weight_cap" keeps exactly the pairs
    c + a <= weight_cap.  Applying to a component at mu additionally
    shifts z by <point, mu> and translates the component to mu + point.
    """

    lattice: LatticeData
    point: tuple
    creation: tuple[SparsePoly, ...]
    annihilation: tuple[SparsePoly, ...]
    weight_cap: int


def _mode_exponential(uni: Universe, coords: Sequence[int], sign: int,
                      weight_cap: int) -> tuple[SparsePoly, ...]:
    """[u^0], ..., [u^weight_cap] of exp(sum_n sign^n sum_d coords_d
    p~_n^(d) u^n)."""
    modes = {n: SparsePoly(uni, {(((d, n), 1),): sign ** n * x
                                 for d, x in enumerate(coords) if x})
             for n in range(1, weight_cap + 1)}
    series = TruncatedSeries.univariate("u", modes, weight_cap).exp()
    out = []
    for n in range(weight_cap + 1):
        c = series.coefficient(n)
        out.append(c if isinstance(c, SparsePoly) else SparsePoly.const(uni, c))
    return tuple(out)


def vertex_Y_lattice(point: Sequence[int], lattice: LatticeData, *,
                     weight_cap: int) -> LatticeVertexOperator:
    """Operator for a lattice point, normally ordered as
    exp(multiplication modes) * exp(dual modes).

    Multiplication modes carry z^n with coefficient sum_d point_d p~_n^(d);
    dual modes carry (-1)^n z^{-n} acting through <point, .>, i.e. with the
    Gram-transformed coordinates.
    """
    pt = lattice.check_vector(point)
    uni = lattice_universe(lattice.rank)
    return LatticeVertexOperator(
        lattice, pt,
        _mode_exponential(uni, pt, 1, weight_cap),
        _mode_exponential(uni, lattice.pairing_vector(pt), -1, weight_cap),
        weight_cap)


def lattice_apply(op: LatticeVertexOperator,
                  state: LatticeFockElement) -> dict[int, LatticeFockElement]:
    """Apply to a state: {z-exponent: resulting element}.

    Each source component at mu goes through ``_normal_ordered`` with the
    pairs (annihilation[a], creation[c] at z^(c - a + <point, mu>)) for
    c + a <= weight_cap, and lands in the component mu + point.
    annihilation[a] kills every component of weight below a, so only
    a <= its top weight is formed.
    """
    if state.lattice.gram != op.lattice.gram:
        raise IncompatibleOperands("state and operator use different lattices")
    raw: dict[int, dict[tuple, SparsePoly]] = {}
    for mu, poly in state.components.items():
        shift = op.lattice.inner(op.point, mu)
        target = tuple(a + b for a, b in zip(mu, op.point))
        pairs = ((ann, [(c - a + shift, op.creation[c])
                        for c in range(op.weight_cap - a + 1)])
                 for a, ann in enumerate(op.annihilation[:poly.max_weight() + 1]))
        for ez, piece in _normal_ordered(pairs, poly).items():
            raw.setdefault(ez, {})[target] = piece
    return {ez: LatticeFockElement(op.lattice, comps)
            for ez, comps in sorted(raw.items())}


def lattice_grading_audit(op: LatticeVertexOperator,
                          state: LatticeFockElement, *,
                          applied: Mapping[int, LatticeFockElement] | None = None
                          ) -> tuple:
    """Exact grade bookkeeping for every output term.

    For a source component at mu and output z-exponent e, every produced
    term must satisfy grade(out) - grade(in) - e = <point, point> +
    <point, mu> (independently of which modes fired).  ``applied`` may
    pass in ``lattice_apply(op, state)`` when the caller already has it.
    Returns the tuple of violations (empty when the audit passes).
    """
    if applied is None:
        applied = lattice_apply(op, state)
    violations = []
    lam = op.point
    L = op.lattice
    for mu, poly in state.components.items():
        expect = L.inner(lam, lam) + L.inner(lam, mu)
        grades_in = LatticeFockElement(L, {mu: poly}).grades()
        if len(grades_in) != 1:
            raise DomainError("grading audit needs homogeneous components")
        g_in = grades_in.pop()
        target = tuple(a + b for a, b in zip(mu, lam))
        for e, elem in applied.items():
            out = elem.components.get(target)
            if out is None:
                continue
            for g_out in LatticeFockElement(L, {target: out}).grades():
                if g_out - g_in - e != expect:
                    violations.append((mu, e, g_out, g_in, expect))
    return tuple(violations)


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------

def vertex_table_obj(op: VertexOperator) -> dict:
    """JSON-ready Laurent-coefficient table of a tensor-square operator."""
    coeffs = {f"z^{e}": {poly.monomial_str(mono) or "1": str(c)
                         for mono, c in sorted(poly.monomials().items())}
              for e, poly in sorted(op.table.items())}
    return {"weight_cap": op.weight_cap, "label": op.label,
            "coefficients": coeffs}


def lattice_action_obj(op: LatticeVertexOperator,
                       state: LatticeFockElement, *,
                       applied: Mapping[int, LatticeFockElement] | None = None
                       ) -> dict:
    """JSON-ready Laurent table of the lattice action on a state
    (``applied``: ``lattice_apply(op, state)``, if already computed)."""
    if applied is None:
        applied = lattice_apply(op, state)
    entries = []
    for e, elem in applied.items():
        for pt, poly in sorted(elem.components.items()):
            terms = {poly.monomial_str(mono) or "1": str(c)
                     for mono, c in sorted(poly.monomials().items())}
            entries.append({"z": e, "component": list(pt), "terms": terms})
    return {
        "point": list(op.point),
        "gram": [list(r) for r in op.lattice.gram],
        "weight_cap": op.weight_cap,
        "entries": entries,
    }
