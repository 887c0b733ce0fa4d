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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Mapping

from .errors import DomainError, IncompatibleOperands
from .rings import SparsePoly, coeff_inv

ExpVec = tuple[int, ...]


def _deg(key: ExpVec) -> int:
    return sum(key)


class TruncatedSeries:
    __slots__ = ("vars", "coeffs", "order", "low")

    def __init__(self, vars: tuple[str, ...], coeffs: Mapping[ExpVec, Any],
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
        for key, c in coeffs.items():
            if len(key) != len(self.vars):
                raise DomainError("exponent vector has wrong arity")
            if _deg(key) > order:
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
        return min(_deg(k) for k in self.coeffs)

    def coefficient(self, key) -> Any:
        if isinstance(key, int):
            key = (key,)
        key = tuple(key)
        if _deg(key) > self.order or (len(self.vars) == 1 and key[0] < self.low):
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
            if lo <= _deg(k) <= n and self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
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
        out = dict(self.coeffs)
        merged = TruncatedSeries(self.vars, out, min(self.order, o.order),
                                 min(self.low, o.low))
        for k, c in o.coeffs.items():
            if _deg(k) <= merged.order:
                acc = merged.coeffs.get(k)
                tot = c if acc is None else acc + c
                if tot:
                    merged.coeffs[k] = tot
                elif k in merged.coeffs:
                    del merged.coeffs[k]
        return merged

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

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        o = self._align(other)
        va, vb = self.valuation(), o.valuation()
        order = min(self.order + vb, o.order + va)
        low = self.low + o.low
        out = TruncatedSeries.zero(self.vars, order, min(low, 0))
        for k1, c1 in self.coeffs.items():
            d1 = _deg(k1)
            for k2, c2 in o.coeffs.items():
                if d1 + _deg(k2) > order:
                    continue
                key = tuple(a + b for a, b in zip(k1, k2))
                c = c1 * c2
                if c:
                    acc = out.coeffs.get(key)
                    tot = c if acc is None else acc + c
                    if tot:
                        out.coeffs[key] = tot
                    elif key in out.coeffs:
                        del out.coeffs[key]
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = TruncatedSeries.one(self.vars, self.order + (self.valuation() - 1) * 0)
        # keep full window; multiplication tightens as needed
        base = self
        first = True
        while e:
            if e & 1:
                out = base if first else out * base
                first = False
            e >>= 1
            if e:
                base = base * base
        if first:
            return TruncatedSeries.one(self.vars, self.order)
        return out

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise DomainError(
                f"cannot extend trusted window ({self.order} -> {order})")
        return TruncatedSeries(self.vars, self.coeffs, order, self.low)

    # -- multiplicative structure -------------------------------------------
    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse on the largest honest window.

        Univariate: factors out the valuation (Laurent allowed); the unit
        part's constant term must be invertible.  Multivariate: inverts by
        graded recursion, requiring an invertible constant term.
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
        zero_key = (0,) * len(self.vars)
        c0 = self.coeffs.get(zero_key)
        if not c0:
            raise DomainError("inverse needs a unit constant term")
        c0i = _invert_coeff(c0)
        n = self.order
        by_deg: dict[int, list[tuple[ExpVec, Any]]] = {}
        for k, c in self.coeffs.items():
            by_deg.setdefault(_deg(k), []).append((k, c))
        out: dict[ExpVec, Any] = {zero_key: c0i}
        out_by_deg: dict[int, list[tuple[ExpVec, Any]]] = {0: [(zero_key, c0i)]}
        for d in range(1, n + 1):
            acc: dict[ExpVec, Any] = {}
            for da in range(1, d + 1):
                for ka, ca in by_deg.get(da, []):
                    for kb, cb in out_by_deg.get(d - da, []):
                        key = tuple(a + b for a, b in zip(ka, kb))
                        c = ca * cb
                        if c:
                            acc[key] = acc.get(key, 0) + c
            level = []
            for key, c in acc.items():
                c = (-1) * (c0i * c)
                if c:
                    out[key] = c
                    level.append((key, c))
            out_by_deg[d] = level
        return TruncatedSeries(self.vars, out, n, 0)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner) for univariate self, inner with valuation >= 1.

        Horner's rule, started at the result window
        ``min(self.order, inner.order)``: since inner has valuation >= 1,
        a term T^n of self above that window lands beyond it.
        """
        if len(self.vars) != 1:
            raise DomainError("compose: outer series must be univariate")
        if self.low < 0:
            raise DomainError("compose: outer series must not be Laurent")
        if inner.valuation() < 1:
            raise DomainError("compose: inner series needs valuation >= 1")
        order = min(self.order, inner.order)
        g = inner if inner.order == order else inner.truncate(order)
        acc = TruncatedSeries.zero(g.vars, order)
        for n in range(order, -1, -1):
            acc = acc * g
            c = self.coeffs.get((n,))
            if c is not None:
                acc = acc + TruncatedSeries.constant(g.vars, c, order)
            if acc.order > order:
                acc = acc.truncate(order)
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
        pow_cache: dict[tuple[str, int], TruncatedSeries] = {}

        def power(name: str, e: int) -> TruncatedSeries:
            got = pow_cache.get((name, e))
            if got is None:
                got = images[name] ** e
                if got.order > order:
                    got = got.truncate(order)
                pow_cache[(name, e)] = got
            return got

        out = TruncatedSeries.zero(tvars, order)
        for key, c in self.coeffs.items():
            term = TruncatedSeries.constant(tvars, c, order)
            for name, e in zip(self.vars, key):
                if e:
                    term = term * power(name, e)
            out = out + term
        if out.order > order:
            out = out.truncate(order)
        return out

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

    def integrate(self) -> "TruncatedSeries":
        if len(self.vars) != 1:
            raise DomainError("integrate: univariate only")
        out = {}
        for (k,), c in self.coeffs.items():
            if k == -1:
                raise DomainError("integrate: 1/T term has no series integral")
            out[(k + 1,)] = Fraction(1, k + 1) * c if k + 1 > 0 else c * Fraction(1, k + 1)
        return TruncatedSeries(self.vars, out, self.order + 1,
                               min(self.low + 1, 0))

    def exp(self) -> "TruncatedSeries":
        """exp of a univariate series with zero constant term."""
        if len(self.vars) != 1:
            raise DomainError("exp: univariate only")
        if self.low < 0 or self.coeffs.get((0,)):
            raise DomainError("exp needs valuation >= 1")
        n = self.order
        b: list[Any] = [1] + [0] * n
        a = [self.coeffs.get((k,), 0) for k in range(n + 1)]
        for m in range(1, n + 1):
            s = 0
            for k in range(1, m + 1):
                if a[k]:
                    s = s + (k * a[k]) * b[m - k]
            b[m] = Fraction(1, m) * s if s else 0
        return TruncatedSeries(self.vars, {(k,): c for k, c in enumerate(b)}, n)

    def log(self) -> "TruncatedSeries":
        """log of a univariate series with constant term 1."""
        if len(self.vars) != 1:
            raise DomainError("log: univariate only")
        if self.low < 0 or self.coeffs.get((0,)) != 1:
            raise DomainError("log needs constant term exactly 1")
        n = self.order
        a = [self.coeffs.get((k,), 0) for k in range(n + 1)]
        b: list[Any] = [0] * (n + 1)
        for m in range(1, n + 1):
            s = 0
            for k in range(1, m):
                if b[k] and a[m - k]:
                    s = s + (k * b[k]) * a[m - k]
            b[m] = a[m] - Fraction(1, m) * s if s else a[m]
        return TruncatedSeries(self.vars, {(k,): c for k, c in enumerate(b) if c}, n)

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
        g = {(1,): _invert_coeff(self.coeffs[(1,)])}
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
    def map_coeffs(self, f: Callable[[Any], Any]) -> "TruncatedSeries":
        return TruncatedSeries(self.vars, {k: f(c) for k, c in self.coeffs.items()},
                               self.order, self.low)

    def __repr__(self):
        def mono(key: ExpVec) -> str:
            bits = []
            for name, e in zip(self.vars, key):
                if e == 1:
                    bits.append(name)
                elif e:
                    bits.append(f"{name}^{e}")
            return "*".join(bits)

        parts = []
        for key in sorted(self.coeffs, key=lambda k: (_deg(k), k)):
            c = self.coeffs[key]
            m = mono(key)
            if isinstance(c, (int, Fraction)):
                if not m:
                    body = str(c)
                elif c == 1:
                    body = m
                elif c == -1:
                    body = f"-{m}"
                else:
                    body = f"{c}*{m}"
            else:
                body = f"({c!r})*{m}" if m else f"({c!r})"
            parts.append(body)
        if not parts:
            head = "0"
        else:
            head = parts[0]
            for p in parts[1:]:
                head += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        ovar = self.vars[0] if len(self.vars) == 1 else "deg"
        return f"{head} + O({ovar}^{self.order + 1})"


def _invert_coeff(c):
    if isinstance(c, SparsePoly):
        return c.inv()
    return coeff_inv(c)


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
