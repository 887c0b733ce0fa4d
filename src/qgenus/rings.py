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
        if isinstance(other, CycloRational) and other.p != self.p:
            # fields of different orders meet only in Q
            return (not any(self.coeffs[1:]) and not any(other.coeffs[1:])
                    and self.coeffs[0] == other.coeffs[0])
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


# A monomial's key is one int, the sum of e * 2**(_W * i) over its factors
# g^e, where i is g's slot, so a product of monomials adds their keys
# (Monagan and Pearce, CASC 2007).  A universe's name hands out slots in
# order of first use, so a new slot never changes a key; as that order
# depends on what the process ran before, displayed orders decode first.
_W = 64
_HALF = 1 << _W - 1      # every |exponent| stays below this
_FIELD = (1 << _W) - 1
_SLOTS: dict[str, dict[Key, int]] = {}


def _encode(slots: dict[Key, int], factors: Iterable[tuple[Key, int]]) -> int:
    return sum(e << _W * slots.setdefault(k, len(slots))
               for k, e in factors if e)


def _factors(slots: dict[Key, int], key: int) -> list[tuple[Key, int]]:
    """The (generator, exponent) factors of a packed key, in slot order."""
    out = []
    for k in slots:
        if not key:
            break
        e = ((key + _HALF) & _FIELD) - _HALF
        if e:
            out.append((k, e))
        key = (key - e) >> _W
    return out


def _exponent(key: int, slot: int) -> int:
    """The exponent in one slot of a packed key: adding half of the slot's
    unit absorbs the borrows of the signed fields below it."""
    shift = _W * slot
    high = (key + (1 << shift >> 1)) >> shift
    return ((high + _HALF) & _FIELD) - _HALF


def exponent_bound(*bounds: int) -> int:
    """The exponent bound of a product of factors whose exponents are
    within ``bounds``; DomainError when it passes a key's fields."""
    if sum(bounds) >= _HALF:
        raise DomainError(f"exponents up to {sum(bounds)} pass the {_W}-bit "
                          f"field of a monomial")
    return sum(bounds)


class Universe:
    """A named family of polynomial generators.

    ``fmt`` renders a generator key for display, ``weight`` gives its
    integer grading weight, ``is_invertible`` marks keys that may carry
    negative exponents, and ``nilpotency`` returns n when the key's n-th
    power is 0 (None for generic generators).  ``slots`` is the name's
    shared key-slot table.
    """

    __slots__ = ("name", "fmt", "weight", "is_invertible", "nilpotency",
                 "slots")

    def __init__(self, name: str, fmt: Callable[[Key], str],
                 weight: Callable[[Key], int],
                 is_invertible: Callable[[Key], bool] = lambda k: False,
                 nilpotency: Callable[[Key], int | None] = _never_nilpotent):
        self.name = name
        self.fmt = fmt
        self.weight = weight
        self.is_invertible = is_invertible
        self.nilpotency = nilpotency
        self.slots: dict[Key, int] = _SLOTS.setdefault(name, {})

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
    order vanish during canonicalization.  ``terms`` maps each monomial's
    packed key to its coefficient, and ``bound`` is at least every
    |exponent|, so a product refuses exponents past a key's fields before
    it forms one.
    """

    __slots__ = ("universe", "terms", "bound")

    def __init__(self, universe: Universe, terms: Mapping[Monomial, Any] | None = None):
        self.universe = universe
        self.terms: dict[int, Any] = {}
        self.bound = 0
        for mono, c in (terms or {}).items():
            self._accumulate(mono, c)

    # -- construction ----------------------------------------------------
    @classmethod
    def _canonical(cls, universe: Universe, terms: dict[int, Any],
                   bound: int) -> "SparsePoly":
        """Adopt ``terms`` without checks.  Only for terms built from other
        polynomials of ``universe``: keys of legal exponents, all at most
        ``bound`` in size, with no dead powers, and nonzero coefficients."""
        out = cls.__new__(cls)
        out.universe, out.terms, out.bound = universe, terms, bound
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
        return cls(universe, {tuple(powers.items()): coeff})

    def _accumulate(self, mono: Monomial, c) -> None:
        if not c:
            return
        merged: dict[Key, int] = {}
        for key, exp in mono:
            merged[key] = merged.get(key, 0) + exp
        uni, clean = self.universe, []
        for key, exp in merged.items():
            if exp == 0:
                continue
            uni.weight(key)  # validates the key
            if exp < 0 and not uni.is_invertible(key):
                raise DomainError(
                    f"negative power of non-invertible generator "
                    f"{uni.fmt(key)}")
            nil = uni.nilpotency(key)
            if nil is not None and exp >= nil:
                return  # whole term dies
            clean.append((key, exp))
            self.bound = max(self.bound, exponent_bound(abs(exp)))
        canon = _encode(uni.slots, clean)
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
        return SparsePoly._canonical(self.universe, terms,
                                     max(self.bound, o.bound))

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._canonical(
            self.universe, {m: -c for m, c in self.terms.items()}, self.bound)

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
        bound = exponent_bound(self.bound, o.bound)
        dead = ([(i, n) for i, k in enumerate(uni.slots)
                 if (n := uni.nilpotency(k)) is not None]
                if uni.has_nilpotents else None)
        terms: dict[int, Any] = {}
        part = o.terms.items()
        if wmax is not None:
            weight = self._key_weight
            part = sorted(part, key=lambda mc: weight(mc[0]))
            weights = [weight(m) for m, _ in part]
        for m1, c1 in self.terms.items():
            for m2, c2 in (part if wmax is None else
                           part[:bisect_right(weights, wmax - weight(m1))]):
                mono = m1 + m2
                if dead and any(_exponent(mono, i) >= n for i, n in dead):
                    continue  # a dead power kills the term
                acc = terms.get(mono)
                terms[mono] = c1 * c2 if acc is None else acc + c1 * c2
        return SparsePoly._canonical(uni, {
            m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for m, c in terms.items() if c}, bound)

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
        if isinstance(other, SparsePoly):
            return other.universe == self.universe and self.terms == other.terms
        o = self._coerce(other)
        return NotImplemented if o is None else self.terms == o.terms

    __hash__ = None  # mutable dict inside

    def monomials(self) -> dict[Monomial, Any]:
        """The terms keyed by canonical monomials, in no set order."""
        slots = self.universe.slots
        return {tuple(sorted(_factors(slots, m))): c
                for m, c in self.terms.items()}

    def gens(self) -> set[Key]:
        slots = self.universe.slots
        return {k for m in self.terms for k, _ in _factors(slots, m)}

    def monomial_weight(self, mono: Iterable[tuple[Key, int]]) -> int:
        return sum(e * self.universe.weight(k) for k, e in mono)

    def _key_weight(self, mono: int) -> int:
        return self.monomial_weight(_factors(self.universe.slots, mono))

    def max_weight(self) -> int | None:
        return max(map(self._key_weight, self.terms), default=None)

    def weight_truncate(self, wmax: int) -> "SparsePoly":
        """Drop every term of weight strictly above wmax."""
        return SparsePoly._canonical(self.universe, {
            m: c for m, c in self.terms.items() if self._key_weight(m) <= wmax},
            self.bound)

    def constant_term(self):
        return self.terms.get(0, 0)

    def coefficient(self, powers: Mapping[Key, int]):
        return self.terms.get(_encode(self.universe.slots, powers.items()), 0)

    def as_scalar(self):
        if not self.terms:
            return Fraction(0)
        if self.terms.keys() == {0}:
            return self.terms[0]
        raise DomainError(f"not a scalar: {self}")

    def is_integral(self) -> bool:
        return all(coeff_is_integral(c) for c in self.terms.values())

    # -- calculus / substitution ------------------------------------------
    def differentiate(self, key: Key) -> "SparsePoly":
        uni, terms = self.universe, {}
        slot = uni.slots.get(key)
        if slot is not None:
            unit = 1 << _W * slot
            for mono, c in self.terms.items():
                e = _exponent(mono, slot)
                if e:
                    terms[mono - unit] = c * e
        # only an invertible key can reach below -bound
        return SparsePoly._canonical(uni, terms,
                                     self.bound + uni.is_invertible(key))

    def inv(self) -> "SparsePoly":
        """Inverse of a unit monomial (single term, invertible content)."""
        if len(self.terms) != 1:
            raise DomainError("only single-term polynomials are invertible")
        (key, c), = self.terms.items()
        for k, _ in sorted(_factors(self.universe.slots, key)):
            if not self.universe.is_invertible(k):
                raise DomainError(
                    f"generator {self.universe.fmt(k)} is not invertible")
        return SparsePoly._canonical(self.universe, {-key: coeff_inv(c)},
                                     self.bound)

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

        return ring_map(self.monomials().items(), image, one)

    # -- display -----------------------------------------------------------
    def monomial_str(self, mono: Monomial) -> str:
        """Display text of a monomial ('' for the constant monomial)."""
        fmt = self.universe.fmt
        return "*".join(fmt(k) + (f"^{e}" if e != 1 else "") for k, e in mono)

    def __repr__(self):
        """The terms by weight, then by monomial."""
        return render_terms((self.monomial_str(m), c) for m, c in sorted(
            self.monomials().items(),
            key=lambda mc: (self.monomial_weight(mc[0]), mc[0])))


def collect(polys: Iterable[SparsePoly], key: Key) -> dict[int, SparsePoly]:
    """The sum of ``polys``, over one universe and with no monomial in
    common, by powers of the generator ``key``: {e: c_e} in increasing e,
    where the sum is that of c_e * key^e and no c_e holds ``key``."""
    out: dict[int, dict[int, Any]] = {}
    uni, bound = None, 0
    for p in polys:
        uni, bound = p.universe, max(bound, p.bound)
        slot = uni.slots.get(key)
        for mono, c in p.terms.items():
            e = 0 if slot is None else _exponent(mono, slot)
            out.setdefault(e, {})[mono - (e << _W * slot) if e else mono] = c
    return {e: SparsePoly._canonical(uni, terms, bound)
            for e, terms in sorted(out.items())}
