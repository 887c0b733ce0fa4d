"""Truncated formal power/Laurent series with honest precision windows.

A :class:`TruncatedSeries` stores coefficients up to a *trusted* total
degree ``order``: every monomial of total degree <= order is exact, and
nothing is claimed beyond it.  All operations propagate the trusted window
pessimistically (e.g. multiplying series trusted to N_a and N_b with
valuations v_a, v_b yields trust min(N_a + v_b, N_b + v_a)), so a result's
window is always a true statement about its coefficients.

Univariate series may be Laurent: ``low`` is the smallest exponent the
window admits (multivariate series require low == 0 and non-negative
exponents).  Coefficients are duck-typed exact scalars or
:class:`~qgenus.rings.SparsePoly` values; floats are never used here.
Products spread SparsePoly coefficients into one packed ``int`` key per
(exponent, monomial) pair, and rational values run as integers over a
common denominator, in products and in the exp/log recurrences alike.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul
from typing import Any, Iterable, Mapping

from .errors import DomainError, IncompatibleOperands
from .rings import (SparsePoly, Universe, coeff_inv, exponent_bound,
                    over_common_denominator, power, render_terms, ring_map)

ExpVec = tuple[int, ...]
_RATIONAL = {int, Fraction}


class TruncatedSeries:
    __slots__ = ("vars", "coeffs", "order", "low")

    def __init__(self, vars: tuple[str, ...],
                 coeffs: Mapping[ExpVec, Any] | Iterable[tuple[ExpVec, Any]],
                 order: int, low: int = 0):
        if isinstance(vars, str):
            raise DomainError("vars must be a tuple of names, not a string")
        if len(vars) != 1 and low != 0:
            raise DomainError("Laurent windows are univariate only")
        if order < low - 1:
            raise DomainError(f"empty window: order {order} < low {low} - 1")
        self.vars = tuple(vars)
        self.order = order
        self.low = low
        self.coeffs: dict[ExpVec, Any] = {}
        for key, c in coeffs.items() if hasattr(coeffs, "items") else coeffs:
            if len(key) != len(self.vars):
                raise DomainError("exponent vector has wrong arity")
            if sum(key) > order:
                continue  # beyond the trusted window
            if len(self.vars) == 1:
                if key[0] < low:
                    raise DomainError(f"exponent {key[0]} below window low {low}")
            elif any(e < 0 for e in key):
                raise DomainError("negative exponents need a univariate window")
            if c:
                acc = self.coeffs.get(key)
                tot = c if acc is None else acc + c
                if tot:
                    self.coeffs[key] = tot
                elif key in self.coeffs:
                    del self.coeffs[key]

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, vars, order, low: int = 0):
        return cls(tuple(vars), {}, order, low)

    @classmethod
    def constant(cls, vars, c, order):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c}, order)

    @classmethod
    def one(cls, vars, order):
        return cls.constant(vars, 1, order)

    @classmethod
    def variable(cls, vars, name, order):
        vars = tuple(vars)
        if name not in vars:
            raise DomainError(f"{name!r} not in {vars}")
        key = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {key: 1}, order)

    @classmethod
    def univariate(cls, var: str, coeffs: Mapping[int, Any], order: int,
                   low: int = 0):
        return cls((var,), {(k,): c for k, c in coeffs.items()}, order, low)

    # -- inspection ----------------------------------------------------------
    def valuation(self) -> int:
        """Smallest trusted total degree with a nonzero coefficient (or
        order + 1 when the series is zero on its window)."""
        if not self.coeffs:
            return self.order + 1
        return min(map(sum, self.coeffs))

    def coefficient(self, key) -> Any:
        if isinstance(key, int):
            key = (key,)
        key = tuple(key)
        if sum(key) > self.order or (len(self.vars) == 1 and key[0] < self.low):
            raise DomainError(f"coefficient {key} outside trusted window")
        return self.coeffs.get(key, 0)

    def __getitem__(self, key):
        return self.coefficient(key)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.vars == other.vars and self.order == other.order
                and self.low == other.low and self.coeffs == other.coeffs)

    __hash__ = None

    def agrees_with(self, other: "TruncatedSeries", through: int | None = None) -> bool:
        """Equality of coefficients on the common trusted window."""
        if self.vars != other.vars:
            raise IncompatibleOperands(f"{self.vars} vs {other.vars}")
        n = min(self.order, other.order)
        if through is not None:
            if through > n:
                raise DomainError(
                    f"comparison through degree {through} exceeds common window {n}")
            n = through
        lo = min(self.low, other.low)
        for k in set(self.coeffs) | set(other.coeffs):
            if lo <= sum(k) <= n and self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
                return False
        return True

    # -- linear structure ------------------------------------------------------
    def _align(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.vars != self.vars:
                raise IncompatibleOperands(f"{self.vars} vs {other.vars}")
            return other
        return TruncatedSeries.constant(self.vars, other, self.order)

    def __add__(self, other):
        o = self._align(other)
        return TruncatedSeries(self.vars,
                               chain(self.coeffs.items(), o.coeffs.items()),
                               min(self.order, o.order), min(self.low, o.low))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.vars, {k: -c for k, c in self.coeffs.items()},
                               self.order, self.low)

    def __sub__(self, other):
        return self + (-self._align(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self.vars, {k: c * v for k, v in self.coeffs.items()},
                               self.order, self.low)

    def __mul__(self, other, order: int | None = None):
        """Series product: one accumulation loop over packed ``int`` keys.

        If each operand's coefficients are all rational, or all SparsePoly
        over one universe without nilpotents, a term is an (exponent,
        monomial) pair whose key is the monomial's key shifted above the
        exponent, else a whole coefficient.  Rational values are integers
        over a common denominator, at one ``Fraction`` per output term
        (``int`` when integral).  ``order`` below the honest window cuts the
        product there: no pair of terms beyond it is formed."""
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        o = self._align(other)
        va, vb = self.valuation(), o.valuation()
        honest = min(self.order + vb, o.order + va)
        order = honest if order is None else min(order, honest)
        out = TruncatedSeries.zero(self.vars, order, min(self.low + o.low, 0))
        if not (self.coeffs and o.coeffs):
            return out
        nvars, width = len(self.vars), max(order, 1).bit_length()
        sbits = (width * nvars if nvars > 1
                 else (order - self.low - o.low).bit_length())
        uni, bound = _flat_universe(self.coeffs, o.coeffs)
        ka, da, ca, den_a = _flat_terms(self, width, sbits, uni, False)
        kb, db, cb, den_b = _flat_terms(o, width, sbits, uni, True)
        last, part, acc = None, (), {}
        get = acc.get
        for k1, d1, c1 in zip(ka, da, ca):
            if d1 != last:  # the terms of b inside the window
                last, part = d1, kb[:bisect_right(db, order - d1)]
            for k2, c2 in zip(part, cb):
                k = k1 + k2
                c = c1 * c2
                prev = get(k)
                acc[k] = c if prev is None else prev + c
        del ka, da, ca, kb, db, cb, part  # the terms' memory, before regrouping
        den, smask, polys = den_a * den_b, (1 << sbits) - 1, {}
        for k, v in acc.items():
            if not v:
                continue
            if den != 1:
                v = (Fraction(v, den) if type(v) is int
                     else v * Fraction(1, den))
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            # without uni, every key is an exponent alone: monomial key 0
            polys.setdefault(k & smask, {})[k >> sbits] = v
        low, mask = self.low + o.low, (1 << width) - 1
        for k, v in polys.items():
            out.coeffs[(k + low,) if nvars == 1 else tuple(
                k >> width * i & mask for i in range(nvars))] = (
                SparsePoly._canonical(uni, v, bound) if uni else v[0])
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, TruncatedSeries.one(self.vars, self.order))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise DomainError(
                f"cannot extend trusted window ({self.order} -> {order})")
        return TruncatedSeries(self.vars, self.coeffs, order, self.low)

    # -- multiplicative structure -------------------------------------------
    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse on the largest honest window.

        Univariate: factors out the valuation (Laurent allowed); the unit
        part's constant term must be invertible.  Multivariate: needs an
        invertible constant term.
        """
        if len(self.vars) == 1:
            v = self.valuation()
            if v > self.order:
                raise DomainError("inverting a series that is 0 on its window")
            unit = TruncatedSeries(
                self.vars, {(k[0] - v,): c for k, c in self.coeffs.items()},
                self.order - v, 0)
            w = unit._inverse_unit()
            return TruncatedSeries(
                self.vars, {(k[0] - v,): c for k, c in w.coeffs.items()},
                w.order - v, min(-v, 0))
        return self._inverse_unit()

    def _inverse_unit(self) -> "TruncatedSeries":
        one = (0,) * len(self.vars)
        if not self.coeffs.get(one):
            raise DomainError("inverse needs a unit constant term")
        c0i = coeff_inv(self.coeffs[one])
        terms = sorted((sum(k), k, c) for k, c in self.coeffs.items() if any(k))
        levels = {0: [(one, c0i)]}  # the inverse's terms by degree
        for d in range(1, self.order + 1):
            acc: dict[ExpVec, Any] = {}
            for da, ka, ca in terms:
                if da > d:
                    break
                for kb, cb in levels[d - da]:
                    key = tuple(map(add, ka, kb))
                    c = ca * cb
                    if c:
                        acc[key] = acc.get(key, 0) + c
            levels[d] = [(k, c) for k, v in acc.items()
                         if (c := (-1) * (c0i * v))]
        return TruncatedSeries(self.vars, chain(*levels.values()), self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner) for univariate self, inner with valuation >= 1.

        Horner's rule on the result window ``min(self.order, inner.order)``,
        every product cut there: since inner has valuation >= 1, a term T^n
        of self above that window lands beyond it.
        """
        if len(self.vars) != 1:
            raise DomainError("compose: outer series must be univariate")
        if self.low < 0:
            raise DomainError("compose: outer series must not be Laurent")
        if inner.valuation() < 1:
            raise DomainError("compose: inner series needs valuation >= 1")
        order = min(self.order, inner.order)
        acc = TruncatedSeries.zero(inner.vars, order)
        for n in range(order, -1, -1):
            acc = acc.__mul__(inner, order)
            c = self.coeffs.get((n,))
            if c is not None:
                acc = acc + TruncatedSeries.constant(inner.vars, c, order)
        return acc

    def substitute(self, images: Mapping[str, "TruncatedSeries"]) -> "TruncatedSeries":
        """Simultaneous substitution var -> series (all images over one
        common variable tuple, each with valuation >= 1)."""
        if not images:
            raise DomainError("substitute: empty mapping")
        some = next(iter(images.values()))
        tvars = some.vars
        order = self.order
        for name in self.vars:
            if name not in images:
                if name not in tvars:
                    raise DomainError(f"no image for variable {name!r}")
                images = dict(images)
                images[name] = TruncatedSeries.variable(tvars, name, self.order)
        for im in images.values():
            if im.vars != tvars:
                raise IncompatibleOperands("substitution images disagree")
            if im.valuation() < 1:
                raise DomainError("substitute: images need valuation >= 1")
            order = min(order, im.order)

        def cut(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
            return a.__mul__(b, order)

        one = TruncatedSeries.one(tvars, order)
        terms = ((((name, e) for name, e in zip(self.vars, key) if e), c)
                 for key, c in self.coeffs.items())
        return ring_map(terms, lambda name, e: power(images[name], e, one, cut),
                        one, cut)

    def rename(self, vars: tuple[str, ...]) -> "TruncatedSeries":
        """Reinterpret this series over a different variable tuple.

        Existing variables keep their exponents (matched by name); new
        variables get exponent 0.  Purely a relabelling, no arithmetic.
        """
        vars = tuple(vars)
        pos = {}
        for name in self.vars:
            if name not in vars:
                raise DomainError(f"variable {name!r} dropped in rename")
            pos[name] = vars.index(name)
        if len(vars) > 1 and self.low < 0:
            raise DomainError("cannot widen a Laurent series to many variables")
        out: dict[ExpVec, Any] = {}
        for key, c in self.coeffs.items():
            nk = [0] * len(vars)
            for name, e in zip(self.vars, key):
                nk[pos[name]] = e
            out[tuple(nk)] = c
        return TruncatedSeries(vars, out, self.order, self.low)

    # -- univariate calculus ---------------------------------------------------
    def derivative(self) -> "TruncatedSeries":
        if len(self.vars) != 1:
            raise DomainError("derivative: univariate only")
        out = {}
        for (k,), c in self.coeffs.items():
            if k != 0:
                out[(k - 1,)] = k * c
        return TruncatedSeries(self.vars, out, self.order - 1,
                               min(self.low - 1, 0) if self.low < 0 else 0)

    def _scaled(self) -> tuple[list, int]:
        """([A_k D^(k-1)], D) for a_k = A_k / D: D clears every denominator
        if all a_k are rational, so exp and log run on integers; else 1."""
        terms, d = over_common_denominator(self.coeffs)
        q = [0] * (self.order + 1)
        for (k,), c in terms:
            q[k] = c * d ** (k - 1) if k and d != 1 else c
        return q, d

    def exp(self) -> "TruncatedSeries":
        """exp of a univariate series with zero constant term, on B_m =
        m! D^m b_m = sum_k k A_k D^(k-1) (m-1)!/(m-k)! B_(m-k)."""
        if len(self.vars) != 1:
            raise DomainError("exp: univariate only")
        if self.low < 0 or self.coeffs.get((0,)):
            raise DomainError("exp needs valuation >= 1")
        q, d = self._scaled()
        n, den = self.order, 1
        big, out = [1] + [0] * n, {(0,): 1}
        for m in range(1, n + 1):
            s, f = 0, 1  # f = (m-1)!/(m-k)!
            for k in range(1, m + 1):
                if q[k]:
                    s = s + k * f * q[k] * big[m - k]
                f *= m - k
            big[m], den = s or 0, den * m * d
            if s:
                out[(m,)] = Fraction(1, den) * s
        return TruncatedSeries(self.vars, out, n)

    def log(self) -> "TruncatedSeries":
        """log of a univariate series with constant term 1, on B_m =
        m D^m b_m = m A_m D^(m-1) - sum_(k<m) B_k A_(m-k) D^(m-k-1)."""
        if len(self.vars) != 1:
            raise DomainError("log: univariate only")
        if self.low < 0 or self.coeffs.get((0,)) != 1:
            raise DomainError("log needs constant term exactly 1")
        q, d = self._scaled()
        n, dm = self.order, 1
        big, out = [0] * (n + 1), {}
        for m in range(1, n + 1):
            s = 0
            for k in range(1, m):
                if big[k] and q[m - k]:
                    s = s + big[k] * q[m - k]
            big[m], dm = m * q[m] - s, dm * d
            if not s:  # b_m = a_m
                out[(m,)] = self.coeffs.get((m,), 0)
            elif big[m]:
                out[(m,)] = Fraction(1, m * dm) * big[m]
        return TruncatedSeries(self.vars, out, n)

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse of a univariate series T*(unit).

        Newton iteration g <- g - (f(g) - T) / f'(g), starting from
        g = T / a1: a g exact through degree m comes out exact through
        2m + 1, so order n takes about log2(n) steps of two composes each.
        f(g) - T vanishes through degree m, so f'(g) is composed only
        through degree m' - m - 1 of the new window m'.
        """
        if len(self.vars) != 1:
            raise DomainError("reversion: univariate only")
        if self.low < 0 or self.coeffs.get((0,)) or not self.coeffs.get((1,)):
            raise DomainError("reversion needs form a1*T + ..., a1 a unit")
        n = self.order
        g = {(1,): coeff_inv(self.coeffs[(1,)])}
        df = self.derivative()
        m = 1
        while m < n:
            prev, m = m, min(2 * m + 1, n)
            gm = TruncatedSeries(self.vars, g, m)
            t = TruncatedSeries.variable(self.vars, self.vars[0], m)
            slope = df.compose(gm.truncate(m - prev - 1))
            step = (self.compose(gm) - t) * slope.inverse()
            g = (gm - step).coeffs
        return TruncatedSeries(self.vars, g, n)

    # -- display ------------------------------------------------------------
    def __repr__(self):
        head = render_terms(
            ("*".join(v if e == 1 else f"{v}^{e}"
                      for v, e in zip(self.vars, key) if e), self.coeffs[key])
            for key in sorted(self.coeffs, key=lambda k: (sum(k), k)))
        ovar = self.vars[0] if len(self.vars) == 1 else "deg"
        return f"{head} + O({ovar}^{self.order + 1})"


def _flat_universe(*operands: Mapping) -> tuple[Universe | None, int]:
    """The universe whose monomials a product spreads over (see
    ``__mul__``) and the exponent bound of the product, or (None, 0)."""
    unis, bounds = set(), []
    for coeffs in operands:
        kinds = set(map(type, coeffs.values()))
        if kinds == {SparsePoly}:
            unis |= {c.universe for c in coeffs.values()}  # equal by name
            bounds.append(max(c.bound for c in coeffs.values()))
        elif not kinds <= _RATIONAL:
            return None, 0
    if len(unis) != 1 or (uni := unis.pop()).has_nilpotents:
        return None, 0
    return uni, exponent_bound(*bounds)


def _flat_terms(t: TruncatedSeries, width: int, sbits: int,
                uni: Universe | None, ordered: bool):
    """(keys, degrees, values, d): t's terms as parallel lists (by degree
    if ``ordered``), values over d.  A key's low ``sbits`` hold the
    exponent less t.low, or the exponents in ``width``-bit fields, so keys
    add without carries; with ``uni``, a SparsePoly value is one term per
    monomial, whose key sits above them.  Rational values become
    integers over their LCM denominator d."""
    items, uv = t.coeffs.items(), len(t.vars) == 1
    if ordered:
        items = sorted(items, key=None if uv else lambda kc: sum(kc[0]))
    mults = [1 << width * i for i in range(len(t.vars))]
    keys, degs, vals = [], [], []
    for key, c in items:
        d = key[0] if uv else sum(key)
        k = d - t.low if uv else sum(map(mul, key, mults))
        for m, x in (c.terms.items() if uni and type(c) is SparsePoly
                     else ((0, c),)):
            keys.append((m << sbits) + k)
            degs.append(d)
            vals.append(x)
    kinds, den = set(map(type, vals)), 1
    if Fraction in kinds and kinds <= _RATIONAL:
        den = lcm(*[x.denominator for x in vals])
        vals = [x.numerator * (den // x.denominator) for x in vals]
    return keys, degs, vals, den


def lagrange_reversion_coefficient(f: TruncatedSeries, n: int):
    """n-th coefficient of the compositional inverse of f via the residue
    formula  b_n = (1/n) [T^(n-1)] (T/f)^n.

    Independent of :meth:`TruncatedSeries.reversion`; used as a test oracle.
    """
    if len(f.vars) != 1 or f.coeffs.get((0,)) or not f.coeffs.get((1,)):
        raise DomainError("needs a univariate series with valuation exactly 1")
    t_over_f = (TruncatedSeries.variable(f.vars, f.vars[0], f.order) * f.inverse())
    p = t_over_f ** n
    return Fraction(1, n) * p.coefficient(n - 1)
