"""Exact scalar types and sparse multivariate polynomials.

Everything here is exact arithmetic: rationals, the quadratic extension
Q(sqrt(2)), cyclotomic fields Q[t]/Phi_p(t) for prime p, and sparse
polynomials over those scalars in an arbitrary family of generators.
Floats never enter this module; the numeric lane lives in
``qgenus.analytic``.

A :class:`Universe` names a family of generators and fixes, per generator,
a display name, an integer weight (used for graded truncation), whether
negative exponents are allowed, and an optional nilpotency order.  A
:class:`SparsePoly` is a finite sum of monomials over one universe.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterable, Mapping

from .errors import DomainError, IncompatibleOperands

Key = Any  # generator label inside a universe; must be hashable and orderable
Monomial = tuple[tuple[Key, int], ...]  # sorted ((key, exp), ...), exp != 0


def double_factorial(m: int) -> int:
    """m!! with the usual empty-product conventions (-1)!! = 0!! = 1."""
    if m < -1:
        raise DomainError(f"double factorial undefined for {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def dfact_odd(n: int) -> int:
    """(2n-1)!! for n >= 0; equals 1, 1, 3, 15, 105, ... ."""
    return double_factorial(2 * n - 1)


def as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise DomainError(f"not a rational scalar: {c!r}")


def coeff_is_integral(c) -> bool:
    """True when a scalar lies in the integer form of its ring."""
    if isinstance(c, int):
        return True
    if isinstance(c, Fraction):
        return c.denominator == 1
    if isinstance(c, Sqrt2):
        return c.a.denominator == 1 and c.b.denominator == 1
    if isinstance(c, CycloRational):
        return all(x.denominator == 1 for x in c.coeffs)
    raise DomainError(f"unknown scalar type: {type(c).__name__}")


def over_common_denominator(terms: Mapping) -> tuple[list, int]:
    """([(key, n), ...], d) with terms[key] == n / d.

    When every value is rational (``int`` or ``Fraction``), each n is an
    integer and d is the LCM of the denominators, so products and sums of
    the n run on plain integers (the content/primitive-part method of
    Knuth, *TAOCP* Vol. 2, 4.6.1).  Any other value passes every term
    through unchanged with d = 1."""
    d = 1
    for c in terms.values():
        t = type(c)
        if t is Fraction:
            d = lcm(d, c.denominator)
        elif t is not int:
            return list(terms.items()), 1
    return [(k, c.numerator * (d // c.denominator))
            for k, c in terms.items()], d


def coeff_inv(c):
    """Multiplicative inverse of a scalar or unit monomial, in its ring."""
    if isinstance(c, SparsePoly):
        return c.inv()
    if isinstance(c, (int, Fraction)):
        if c == 0:
            raise DomainError("division by zero")
        return int(c) if c in (1, -1) else 1 / Fraction(c)
    if isinstance(c, (Sqrt2, CycloRational)):
        return c.inv()
    raise DomainError(f"cannot invert scalar of type {type(c).__name__}")


def row_reduce(rows: list[list]) -> tuple[Fraction, list[list]]:
    """Gauss-Jordan elimination over Q of the n leading columns of an n-row
    rational matrix: (their determinant, the reduced rows).  With a nonzero
    determinant those columns end as the identity, so any further column
    holds the solution of the square system with it as right-hand side; a
    zero determinant stops the reduction early."""
    n, det, m = len(rows), Fraction(1), [list(r) for r in rows]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0), m
        if piv != col:
            m[col], m[piv], det = m[piv], m[col], -det
        pv = Fraction(m[col][col])
        det *= pv
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det, m


class Sqrt2:
    """Element a + b*sqrt(2) of Q(sqrt(2)), exact."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = as_fraction(a) if not isinstance(a, Fraction) else a
        self.b = as_fraction(b) if not isinstance(b, Fraction) else b

    # -- ring structure -------------------------------------------------
    def __add__(self, other):
        o = _to_sqrt2(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __sub__(self, other):
        o = _to_sqrt2(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _to_sqrt2(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = _to_sqrt2(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _to_sqrt2(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def inv(self) -> "Sqrt2":
        n = self.a * self.a - 2 * self.b * self.b
        if n == 0:
            raise DomainError("inverting 0 in Q(sqrt2)")
        return Sqrt2(self.a / n, -self.b / n)

    # -- structure queries ----------------------------------------------
    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = _to_sqrt2(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # equal to a rational exactly when b == 0: hash like that rational
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, "sqrt2"))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def rational(self) -> Fraction:
        if not self.is_rational:
            raise DomainError(f"{self} is irrational")
        return self.a

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt2"


def _to_sqrt2(x):
    if isinstance(x, Sqrt2):
        return x
    if isinstance(x, (int, Fraction)):
        return Sqrt2(x, 0)
    return NotImplemented


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CycloRational:
    """Element of Q[t]/Phi_p(t), p prime: exact arithmetic at a primitive
    p-th root of unity.

    Internally a coefficient vector of length p-1 on the basis
    1, t, ..., t^(p-2); since Phi_p is irreducible for prime p this is a
    field, so every nonzero element is invertible.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[Fraction]):
        if not _is_prime(p):
            raise DomainError(f"cyclotomic scalar needs prime order, got {p}")
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) != p - 1:
            raise DomainError("coefficient vector has wrong length")
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def from_scalar(cls, p: int, c) -> "CycloRational":
        return cls(p, [as_fraction(c)] + [Fraction(0)] * (p - 2))

    @classmethod
    def root(cls, p: int) -> "CycloRational":
        """The class of t itself: a primitive p-th root of unity."""
        if p == 2:
            # Phi_2(t) = t + 1, so the basis is {1} and t is the scalar -1.
            return cls(2, [Fraction(-1)])
        v = [Fraction(0)] * (p - 1)
        v[1] = Fraction(1)
        return cls(p, v)

    @classmethod
    def _from_power_list(cls, p: int, dense: list[Fraction]) -> "CycloRational":
        # dense[i] multiplies t^i, any length; reduce by t^p = 1 then by
        # t^(p-1) = -(1 + t + ... + t^(p-2)).
        folded = [Fraction(0)] * p
        for i, c in enumerate(dense):
            folded[i % p] += c
        top = folded[p - 1]
        out = [folded[i] - top for i in range(p - 1)]
        return cls(p, out)

    def _check(self, other) -> "CycloRational":
        if isinstance(other, CycloRational):
            if other.p != self.p:
                raise IncompatibleOperands("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloRational.from_scalar(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloRational(self.p, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloRational(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        n = self.p - 1
        dense = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    dense[i + j] += a * b
        return CycloRational._from_power_list(self.p, dense)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return power(self, e, CycloRational.from_scalar(self.p, 1))

    def inv(self) -> "CycloRational":
        if not self:
            raise DomainError("inverting 0 in cyclotomic field")
        # solve (multiplication-by-self matrix) x = e_0: column j of the
        # matrix is self * t^j
        n = self.p - 1
        cols = [(self * CycloRational(self.p, [int(i == j) for i in range(n)])
                 ).coeffs for j in range(n)]
        det, m = row_reduce([[c[i] for c in cols] + [int(i == 0)]
                             for i in range(n)])
        if not det:
            raise DomainError("singular multiplication matrix")
        return CycloRational(self.p, [r[n] for r in m])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # 1, t, ..., t^(p-2) is a basis over Q, so the value is rational
        # exactly when only the first coordinate is nonzero
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.p, self.coeffs))

    def __repr__(self):
        if not self:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                mon = "t" if i == 1 else f"t^{i}"
                bits.append(mon if c == 1 else f"{c}*{mon}")
        return " + ".join(bits).replace("+ -", "- ")


def _never_nilpotent(key: Key) -> None:
    return None


class MonomialPacking(dict):
    """A universe's packed exponent vectors (Monagan and Pearce, CASC 2007):
    factor (key, e) -> e << (offset of the key's field), summed over a
    monomial.  A key takes the next ``width``-bit field on first use; the
    width grows to keep each |e| < 2**(width - 2), so two packed monomials
    plus ``bias`` have every field in [0, 2**width)."""

    __slots__ = ("width", "slots", "order", "bias")

    def __init__(self):
        super().__init__()
        self.width, self.slots, self.order, self.bias = 2, {}, [], 0

    def __missing__(self, factor: tuple[Key, int]) -> int:
        key, e = factor
        if key not in self.slots or abs(e) >> self.width - 2:
            self.slots.setdefault(key, len(self.slots))
            if abs(e) >> self.width - 2:
                self.width = abs(e).bit_length() + 2
                self.clear()
            w = self.width
            self.order = sorted((k, w * i) for k, i in self.slots.items())
            self.bias = sum(1 << w - 1 + off for _, off in self.order)
        self[factor] = e << self.width * self.slots[key]
        return self[factor]

    def unpack(self, bits: int) -> Monomial:
        """The monomial of ``bits`` = a packed monomial + ``bias``."""
        half, mask, out = 1 << self.width - 1, (1 << self.width) - 1, []
        for k, off in self.order:
            e = (bits >> off & mask) - half
            if e:
                out.append((k, e))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class Universe:
    """A named family of polynomial generators.

    ``fmt`` renders a generator key for display, ``weight`` gives its
    integer grading weight, ``is_invertible`` marks keys that may carry
    negative exponents, and ``nilpotency`` returns n when the key's n-th
    power is 0 (None for generic generators).
    """

    name: str
    fmt: Callable[[Key], str]
    weight: Callable[[Key], int]
    is_invertible: Callable[[Key], bool] = field(default=lambda k: False)
    nilpotency: Callable[[Key], int | None] = field(default=_never_nilpotent)
    packing: MonomialPacking = field(default_factory=MonomialPacking,
                                     init=False, repr=False)

    @property
    def has_nilpotents(self) -> bool:
        """False when no generator can be nilpotent, so products need no
        nilpotency test; any ``nilpotency`` other than the default counts."""
        return self.nilpotency is not _never_nilpotent

    def __eq__(self, other):
        return isinstance(other, Universe) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Universe({self.name!r})"


def indexed_universe(name: str, prefix: str, weight_fn: Callable[[int], int],
                     invertible: frozenset[int] | set[int] = frozenset(),
                     min_index: int = 0) -> Universe:
    inv = frozenset(invertible)

    def check_weight(k):
        if not isinstance(k, int) or k < min_index:
            raise DomainError(f"bad {name}-generator index {k!r}")
        return weight_fn(k)

    return Universe(
        name=name,
        fmt=lambda k: f"{prefix}{k}",
        weight=check_weight,
        is_invertible=lambda k: k in inv,
    )


# The standard universes used across the package.
UX = indexed_universe("x", "x", lambda k: 2 * k + 1, invertible={0})
UQ = indexed_universe("q", "q", lambda k: k, invertible={1}, min_index=1)
UT = indexed_universe("t", "t", lambda k: 2 * k + 1, invertible={0})
UPS = indexed_universe("ps", "p", lambda k: k, min_index=1)


def symbol_universe(name: str, gens: Iterable[str], *, weight: int = 1,
                    nilpotent_order: int | None = None,
                    invertible: Iterable[str] = ()) -> Universe:
    """A universe of named symbols, optionally nilpotent of one order."""
    allowed = frozenset(gens)
    inv = frozenset(invertible)

    def check_weight(k):
        if k not in allowed:
            raise DomainError(f"unknown symbol {k!r} in universe {name}")
        return weight

    return Universe(
        name=name,
        fmt=lambda k: str(k),
        weight=check_weight,
        is_invertible=lambda k: k in inv,
        nilpotency=(_never_nilpotent if nilpotent_order is None
                    else lambda k: nilpotent_order),
    )


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two canonical monomials, itself canonical."""
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        k1, e1 = m1[i]
        k2, e2 = m2[j]
        if k1 < k2:
            out.append(m1[i])
            i += 1
        elif k2 < k1:
            out.append(m2[j])
            j += 1
        else:
            if e1 + e2:
                out.append((k1, e1 + e2))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def power(x, e: int, one, mul: Callable[[Any, Any], Any] = operator.mul):
    """x**e for e >= 0 by square-and-multiply, skipping the unused last
    squaring; ``one`` when e == 0.  Every product is ``mul``."""
    out = None
    while e:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if out is None else out


def ring_map(terms: Iterable[tuple[Iterable[tuple[Key, int]], Any]],
             power: Callable[[Key, int], Any], one,
             mul: Callable[[Any, Any], Any] = operator.mul):
    """The multiplicative extension of a map on powers: the sum over the
    (monomial, c) ``terms`` of (one * c) * prod power(key, e), each
    (key, e) power formed once per call and each product by ``mul``."""
    powers: dict[tuple[Key, int], Any] = {}
    total = one * 0
    for mono, c in terms:
        term = one * c
        for factor in mono:
            p = powers.get(factor)
            if p is None:
                p = powers[factor] = power(*factor)
            term = mul(term, p)
        total = total + term
    return total


def render_terms(pairs: Iterable[tuple[str, Any]]) -> str:
    """One line for a sum of (monomial text, coefficient) pairs, given in
    display order.  An empty monomial is the constant term; an int or
    Fraction coefficient of +-1 is elided, any other scalar is written
    ``({c!r})``; later terms are joined by ' - ' when they start with '-'
    and by ' + ' otherwise.  No terms at all render as '0'."""
    out = []
    for mono, c in pairs:
        if not isinstance(c, (int, Fraction)):
            body = f"({c!r})*{mono}" if mono else f"({c!r})"
        elif not mono:
            body = str(c)
        else:
            body = mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}"
        if not out:
            out.append(body)
        else:
            out.append(f" - {body[1:]}" if body[0] == "-" else f" + {body}")
    return "".join(out) or "0"


class SparsePoly:
    """Finite sum of monomials c * prod(gen^exp) over one universe.

    Coefficients are duck-typed exact scalars (int, Fraction, Sqrt2,
    CycloRational).  Negative exponents are legal only on generators the
    universe marks invertible; powers at or above a generator's nilpotency
    order vanish during canonicalization.
    """

    __slots__ = ("universe", "terms")

    def __init__(self, universe: Universe, terms: Mapping[Monomial, Any] | None = None):
        self.universe = universe
        self.terms: dict[Monomial, Any] = {}
        if terms:
            for mono, c in terms.items():
                self._accumulate(mono, c)

    # -- construction ----------------------------------------------------
    @classmethod
    def _canonical(cls, universe: Universe,
                   terms: dict[Monomial, Any]) -> "SparsePoly":
        """Adopt ``terms`` without checks.  Only for terms built from other
        polynomials of ``universe``: canonical monomials with valid keys,
        legal exponents and no dead powers, and nonzero coefficients."""
        out = cls.__new__(cls)
        out.universe = universe
        out.terms = terms
        return out

    @classmethod
    def zero(cls, universe: Universe) -> "SparsePoly":
        return cls(universe)

    @classmethod
    def const(cls, universe: Universe, c) -> "SparsePoly":
        return cls(universe, {(): c})

    @classmethod
    def gen(cls, universe: Universe, key: Key, exp: int = 1) -> "SparsePoly":
        return cls(universe, {((key, exp),): 1})

    @classmethod
    def monomial(cls, universe: Universe, powers: Mapping[Key, int], coeff=1) -> "SparsePoly":
        mono = tuple((k, e) for k, e in powers.items())
        return cls(universe, {mono: coeff})

    def _accumulate(self, mono: Monomial, c) -> None:
        if not c:
            return
        merged: dict[Key, int] = {}
        for key, exp in mono:
            merged[key] = merged.get(key, 0) + exp
        clean = []
        for key, exp in merged.items():
            if exp == 0:
                continue
            self.universe.weight(key)  # validates the key
            if exp < 0 and not self.universe.is_invertible(key):
                raise DomainError(
                    f"negative power of non-invertible generator "
                    f"{self.universe.fmt(key)}")
            nil = self.universe.nilpotency(key)
            if nil is not None and exp >= nil:
                return  # whole term dies
            clean.append((key, exp))
        canon = tuple(sorted(clean))
        acc = self.terms.get(canon)
        total = c if acc is None else acc + c
        if total:
            self.terms[canon] = total
        elif canon in self.terms:
            del self.terms[canon]

    # -- ring operations --------------------------------------------------
    def _coerce(self, other) -> "SparsePoly | None":
        if isinstance(other, SparsePoly):
            if other.universe != self.universe:
                raise IncompatibleOperands(
                    f"universes {self.universe.name} vs {other.universe.name}")
            return other
        if isinstance(other, (int, Fraction, Sqrt2, CycloRational)):
            return SparsePoly.const(self.universe, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in o.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = c
            else:
                total = acc + c
                if total:
                    terms[mono] = total
                else:
                    del terms[mono]
        return SparsePoly._canonical(self.universe, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._canonical(
            self.universe, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other, wmax: int | None = None):
        """Product; with ``wmax``, only its terms of weight <= wmax: the
        partner terms run by weight, and each term of ``self`` stops at the
        first partner that would pass wmax, so no heavier pair is formed."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        uni = self.universe
        nil = uni.nilpotency if uni.has_nilpotents else None
        terms: dict[Monomial, Any] = {}
        part = o.terms.items()
        if wmax is not None:
            weight = self.monomial_weight
            part = sorted(part, key=lambda mc: weight(mc[0]))
            weights = [weight(m) for m, _ in part]
        for m1, c1 in self.terms.items():
            for m2, c2 in (part if wmax is None else
                           part[:bisect_right(weights, wmax - weight(m1))]):
                mono = _merge_monomials(m1, m2)
                if nil is not None and any(
                        (n := nil(k)) is not None and e >= n for k, e in mono):
                    continue  # a dead power kills the term
                c = c1 * c2
                acc = terms.get(mono)
                if acc is None:
                    terms[mono] = c
                else:
                    total = acc + c
                    if total:
                        terms[mono] = total
                    else:
                        del terms[mono]
        for mono, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[mono] = c.numerator
        return SparsePoly._canonical(uni, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Sqrt2, CycloRational)):
            return self * coeff_inv(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        return power(self, e, SparsePoly.const(self.universe, 1))

    # -- structure --------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, SparsePoly) else other
        if o is None:
            return NotImplemented
        if isinstance(o, SparsePoly) and o.universe != self.universe:
            return False
        return self.terms == o.terms

    __hash__ = None  # mutable dict inside

    def gens(self) -> set[Key]:
        return {k for mono in self.terms for k, _ in mono}

    def monomial_weight(self, mono: Monomial) -> int:
        return sum(e * self.universe.weight(k) for k, e in mono)

    def max_weight(self) -> int | None:
        if not self.terms:
            return None
        return max(self.monomial_weight(m) for m in self.terms)

    def weight_truncate(self, wmax: int) -> "SparsePoly":
        """Drop every term of weight strictly above wmax."""
        return SparsePoly._canonical(self.universe, {
            m: c for m, c in self.terms.items() if self.monomial_weight(m) <= wmax})

    def constant_term(self):
        return self.terms.get((), 0)

    def coefficient(self, powers: Mapping[Key, int]):
        mono = tuple(sorted((k, e) for k, e in powers.items() if e != 0))
        return self.terms.get(mono, 0)

    def as_scalar(self):
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {()}:
            return self.terms[()]
        raise DomainError(f"not a scalar: {self}")

    def is_integral(self) -> bool:
        return all(coeff_is_integral(c) for c in self.terms.values())

    # -- calculus / substitution ------------------------------------------
    def differentiate(self, key: Key) -> "SparsePoly":
        out = SparsePoly(self.universe)
        for mono, c in self.terms.items():
            for i, (k, e) in enumerate(mono):
                if k == key:
                    rest = mono[:i] + mono[i + 1:] + ((k, e - 1),)
                    out._accumulate(rest, c * e)
                    break
        return out

    def inv(self) -> "SparsePoly":
        """Inverse of a unit monomial (single term, invertible content)."""
        if len(self.terms) != 1:
            raise DomainError("only single-term polynomials are invertible")
        (mono, c), = self.terms.items()
        for k, _ in mono:
            if not self.universe.is_invertible(k):
                raise DomainError(
                    f"generator {self.universe.fmt(k)} is not invertible")
        inv_mono = tuple((k, -e) for k, e in mono)
        return SparsePoly(self.universe, {inv_mono: coeff_inv(c)})

    def substitute(self, mapping: Mapping[Key, Any],
                   universe: Universe | None = None) -> "SparsePoly":
        """Replace generators by polynomials/scalars.

        All polynomial values must share a single target universe; keys not
        in the mapping are carried over as generators of the target (which
        must therefore recognize them).
        """
        target = universe
        for v in mapping.values():
            if isinstance(v, SparsePoly):
                if target is None:
                    target = v.universe
                elif target != v.universe:
                    raise IncompatibleOperands("substitution images disagree")
        if target is None:
            target = self.universe
        one = SparsePoly.const(target, 1)

        def image(key: Key, e: int) -> SparsePoly:
            return (one * mapping[key] if key in mapping
                    else SparsePoly.gen(target, key)) ** e

        return ring_map(self.terms.items(), image, one)

    # -- display -----------------------------------------------------------
    def sorted_terms(self) -> list[tuple[Monomial, Any]]:
        return sorted(self.terms.items(),
                      key=lambda mc: (self.monomial_weight(mc[0]), mc[0]))

    def monomial_str(self, mono: Monomial) -> str:
        """Display text of a monomial ('' for the constant monomial)."""
        fmt = self.universe.fmt
        return "*".join(fmt(k) + (f"^{e}" if e != 1 else "") for k, e in mono)

    def __repr__(self):
        return render_terms((self.monomial_str(m), c)
                            for m, c in self.sorted_terms())
