"""The square-free generator algebra: reduction to the strict-partition
basis, coproduct, odd-power-sum coordinates, the classical orthogonal
family, and eigenvalue specializations of the generating series.

The algebra is generated by q_1, q_2, ... subject to the single relation
family encoded by q(U) q(-U) = 1, where q(U) = 1 + q_1 U + q_2 U^2 + ... .
Extracting the coefficient of U^(2i) gives the rewriting rule

    q_i^2 = 2 * sum_{a=0}^{i-1} (-1)^(i+a+1) q_a q_(2i-a)      (q_0 = 1),

so monomials q_(lam) over *strict* partitions lam form a basis.  The odd
coordinates x_k (k >= 0) are defined through

    log q(U) = sum_k (2 x_k / (2k+1)) U^(2k+1),

and the inner product makes the x-monomials orthogonal with
<x_k, x_k> = (2k+1)/2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import DomainError, IncompatibleOperands
from .rings import (SparsePoly, UX, as_fraction, over_common_denominator,
                    power, render_terms, ring_map, symbol_universe)
from .series import TruncatedSeries

Partition = tuple[int, ...]  # strictly decreasing, entries >= 1


def _as_multiset(parts: Iterable[int]) -> Partition:
    ms = tuple(sorted((p for p in parts if p != 0), reverse=True))
    if any(p < 1 for p in ms):
        raise DomainError(f"bad generator indices {ms}")
    return ms


def is_strict(parts: Partition) -> bool:
    return all(a > b for a, b in zip(parts, parts[1:]))


@lru_cache(maxsize=None)
def square_expansion(i: int) -> tuple[tuple[Partition, int], ...]:
    """The rewriting of the pair q_i q_i as square-free pairs:
    ((multiset, coefficient), ...)."""
    return tuple(((2 * i - a, a) if a else (2 * i,), 2 * (-1) ** (i + a + 1))
                 for a in range(i))


_REDUCE_MEMO: dict[Partition, dict[Partition, int]] = {}


def q_reduce(parts: Iterable[int]) -> dict[Partition, int]:
    """Rewrite a monomial q_(m1) q_(m2) ... (any multiset of indices) in the
    strict-partition basis.  The rewriting rule has integer coefficients,
    so every value is an ``int``.  Iterative with explicit stack so deep
    rewrites never hit the recursion limit; results are memoized across
    calls (the returned dicts are shared — treat them as read-only)."""
    target = _as_multiset(parts)
    memo = _REDUCE_MEMO
    stack = [target]
    while stack:
        ms = stack[-1]
        if ms in memo:
            stack.pop()
            continue
        for i in range(len(ms) - 1):
            if ms[i] == ms[i + 1]:
                break
        else:
            memo[ms] = {ms: 1}
            stack.pop()
            continue
        rest = ms[:i] + ms[i + 2:]
        children = [(tuple(sorted(rest + child, reverse=True)), coeff)
                    for child, coeff in square_expansion(ms[i])]
        pending = [c for c, _ in children if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        acc: dict[Partition, int] = {}
        for child, coeff in children:
            for basis, c in memo[child].items():
                val = acc.get(basis, 0) + coeff * c
                if val:
                    acc[basis] = val
                elif basis in acc:
                    del acc[basis]
        memo[ms] = acc
        stack.pop()
    return memo[target]


class QElement:
    """Element of the square-free algebra in the strict-partition basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, Fraction] | None = None):
        self.terms: dict[Partition, Fraction] = {}
        if terms:
            for part, c in terms.items():
                part = tuple(part)
                if not is_strict(part):
                    raise DomainError(f"{part} is not strict; reduce first")
                c = as_fraction(c)
                if c:
                    self.terms[part] = self.terms.get(part, Fraction(0)) + c
                    if not self.terms[part]:
                        del self.terms[part]

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "QElement":
        return cls()

    @classmethod
    def one(cls) -> "QElement":
        return cls({(): Fraction(1)})

    @classmethod
    def gen(cls, n: int) -> "QElement":
        if n < 1:
            raise DomainError("generators are q_1, q_2, ...")
        return cls({(n,): Fraction(1)})

    @classmethod
    def monomial(cls, parts: Iterable[int], coeff=1) -> "QElement":
        out = cls()
        for basis, c in q_reduce(parts).items():
            out.terms[basis] = as_fraction(coeff) * c
            if not out.terms[basis]:
                del out.terms[basis]
        return out

    # -- ring structure ----------------------------------------------------
    def _coerce(self, other) -> "QElement | None":
        if isinstance(other, QElement):
            return other
        if isinstance(other, (int, Fraction)):
            return QElement({(): as_fraction(other)})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for p, c in o.terms.items():
            acc = terms.get(p)
            if acc is None:
                terms[p] = c
            elif v := acc + c:
                terms[p] = v
            else:
                del terms[p]
        out = QElement()
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        return QElement({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # integer products over the two common denominators; one Fraction
        # per output term
        a, da = over_common_denominator(self.terms)
        b, db = over_common_denominator(o.terms)
        acc: dict[Partition, int] = {}
        for p1, c1 in a:
            for p2, c2 in b:
                c = c1 * c2
                for basis, r in q_reduce(p1 + p2).items():
                    acc[basis] = acc.get(basis, 0) + c * r
        den = da * db
        out = QElement()
        out.terms = {p: Fraction(v, den) for p, v in acc.items() if v}
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / as_fraction(other))
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return power(self, e, QElement.one())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None

    # -- structure -----------------------------------------------------------
    def max_weight(self) -> int:
        return max((sum(p) for p in self.terms), default=0)

    def coefficient(self, parts: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(parts), Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def to_x(self) -> SparsePoly:
        """Exact image in the odd coordinates x_k."""
        return ring_map(((((p, 1) for p in part), c)
                         for part, c in self.terms.items()),
                        lambda p, e: q_in_x(p) ** e, SparsePoly.const(UX, 1))

    def __repr__(self):
        return render_terms(("*".join(f"q{p}" for p in part), self.terms[part])
                            for part in sorted(self.terms,
                                               key=lambda p: (sum(p), p)))


# ----------------------------------------------------------------- coproduct

class QTensor:
    """Element of the tensor square, used for coproduct checks."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Partition, Partition], Fraction] | None = None):
        self.terms: dict[tuple[Partition, Partition], Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = as_fraction(c)
                if c:
                    self.terms[k] = self.terms.get(k, Fraction(0)) + c
                    if not self.terms[k]:
                        del self.terms[k]

    def __add__(self, other: "QTensor") -> "QTensor":
        out = QTensor(self.terms)
        for k, c in other.terms.items():
            v = out.terms.get(k, Fraction(0)) + c
            if v:
                out.terms[k] = v
            elif k in out.terms:
                del out.terms[k]
        return out

    def __mul__(self, other: "QTensor | int | Fraction") -> "QTensor":
        if isinstance(other, (int, Fraction)):
            return QTensor({k: other * v for k, v in self.terms.items()})
        a, da = over_common_denominator(self.terms)
        b, db = over_common_denominator(other.terms)
        acc: dict[tuple[Partition, Partition], int] = {}
        for (l1, r1), c1 in a:
            for (l2, r2), c2 in b:
                c = c1 * c2
                right = q_reduce(r1 + r2).items()
                for bl, cl in q_reduce(l1 + l2).items():
                    cl *= c
                    for br, cr in right:
                        k = (bl, br)
                        acc[k] = acc.get(k, 0) + cl * cr
        den = da * db
        out = QTensor()
        out.terms = {k: Fraction(v, den) for k, v in acc.items() if v}
        return out

    def __eq__(self, other):
        return isinstance(other, QTensor) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        bits = [f"{c}*({QElement({l: 1})!r} (x) {QElement({r: 1})!r})"
                for (l, r), c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def coproduct(e: QElement) -> QTensor:
    """The coalgebra map determined by q_n -> sum_{j+l=n} q_j (x) q_l,
    extended multiplicatively."""
    one = QTensor({((), ()): 1})

    def image(n: int, k: int) -> QTensor:
        return power(QTensor({((j,) if j else (), (n - j,) if j < n else ()): 1
                              for j in range(n + 1)}), k, one)

    return ring_map(((((n, 1) for n in part), c)
                     for part, c in e.terms.items()), image, one)


def counit(e: QElement) -> Fraction:
    return e.terms.get((), Fraction(0))


def antipode(e: QElement) -> QElement:
    """q_n -> (-1)^n q_n extended multiplicatively (the inverse series
    coefficientwise, since q(U)q(-U) = 1)."""
    out = QElement()
    out.terms = {p: -c if sum(p) % 2 else c for p, c in e.terms.items()}
    return out


# ------------------------------------------------- x-coordinate conversion

@lru_cache(maxsize=None)
def q_in_x(n: int) -> SparsePoly:
    """q_n written exactly in the odd coordinates x_k."""
    if n < 0:
        raise DomainError("negative generating-series index")
    logq = TruncatedSeries.univariate(
        "U",
        {2 * k + 1: Fraction(2, 2 * k + 1) * SparsePoly.gen(UX, k)
         for k in range((n + 1) // 2)},
        n)
    q_series = logq.exp()
    c = q_series.coefficient(n)
    return c if isinstance(c, SparsePoly) else SparsePoly.const(UX, c)


@lru_cache(maxsize=None)
def x_in_q(k: int) -> QElement:
    """x_k as an element of the algebra, by Newton's identity
    n q_n = sum_j 2 x_j q_(n-2j-1) (Macdonald, III.8) at n = 2k+1:

        2 x_k = (2k+1) q_(2k+1) - sum_(j<k) 2 x_j q_(2k-2j)."""
    if k < 0:
        raise DomainError("x-index must be >= 0")
    twice = (2 * k + 1) * QElement.gen(2 * k + 1)
    for j in range(k):
        twice = twice - 2 * x_in_q(j) * QElement.gen(2 * k - 2 * j)
    return twice / 2


def xpoly_to_q(p: SparsePoly) -> QElement:
    """Exact preimage of a polynomial in the x_k (no negative powers)."""
    if p.universe != UX:
        raise IncompatibleOperands("expected a polynomial in the x-universe")

    def image(k: int, e: int) -> QElement:
        if e < 0:
            raise DomainError("negative x-powers have no polynomial preimage")
        return x_in_q(k) ** e

    return ring_map(p.monomials().items(), image, QElement.one())


# ------------------------------------------------------------ inner product

def inner_x(p1: SparsePoly, p2: SparsePoly) -> Fraction:
    """Inner product in x-coordinates: monomials are orthogonal with
    <x^alpha, x^alpha> = prod_k ((2k+1)/2)^(alpha_k) alpha_k!."""
    if p1.universe != UX or p2.universe != UX:
        raise IncompatibleOperands("inner product lives in the x-universe")
    total, m2 = Fraction(0), p2.monomials()
    for mono, c1 in p1.monomials().items():
        c2 = m2.get(mono)
        if not c2:
            continue
        norm = Fraction(1)
        for k, e in mono:
            if e < 0:
                raise DomainError("inner product undefined on Laurent part")
            for j in range(1, e + 1):
                norm *= Fraction(2 * k + 1, 2) * j
        total += as_fraction(c1) * as_fraction(c2) * norm
    return total


def inner(a: QElement, b: QElement) -> Fraction:
    return inner_x(a.to_x(), b.to_x())


# -------------------------------------------------------- classical family

def q_pair(a: int, b: int, c=1) -> QElement:
    """c*q_a*q_b in the strict-partition basis (q_0 = 1)."""
    return QElement.monomial((a, b), c)


def x_pair(a: int, b: int, c=1) -> SparsePoly:
    """c*q_a*q_b in the odd coordinates x_k (q_0 = 1)."""
    return q_in_x(a) * q_in_x(b) * c


def two_row(r: int, s: int, pair=q_pair):
    """The orthogonal family member for a two-row strict partition (r, s),
    in the ring of ``pair`` (s = 0 gives q_r):
    q_r q_s + 2 sum_{i=1}^{s} (-1)^i q_(r+i) q_(s-i)."""
    if not (r > s >= 0):
        raise DomainError(f"need r > s >= 0, got ({r}, {s})")
    out = pair(r, s)
    for i in range(1, s + 1):
        out = out + pair(r + i, s - i, 2 * (-1) ** i)
    return out


def _pfaffian(entry, items: tuple[int, ...], pair):
    if len(items) <= 2:
        return entry(*items) if items else pair(0, 0)
    head, rest = items[0], items[1:]
    return sum(((-1) ** pos * entry(head, j)
                * _pfaffian(entry, rest[:pos] + rest[pos + 1:], pair)
                for pos, j in enumerate(rest)), pair(0, 0, 0))


def classical_q(lam: Iterable[int], pair=q_pair):
    """The classical orthogonal basis element for a strict partition,
    assembled from two-row members by a Pfaffian (odd lengths are padded
    with a zero part, contributing plain generators), in the ring of
    ``pair``: ``q_pair`` (the default) or ``x_pair``."""
    lam = tuple(lam)
    if not is_strict(lam) or any(p < 1 for p in lam):
        raise DomainError(f"{lam} is not a strict partition")
    padded = lam + ((0,) if len(lam) % 2 else ())
    return _pfaffian(lambda i, j: two_row(padded[i], padded[j], pair),
                     tuple(range(len(padded))), pair)


def strict_partitions(weight: int, max_part: int | None = None):
    """Strict partitions of a given weight, lexicographically descending."""
    if max_part is None:
        max_part = weight

    def rec(w: int, cap: int):
        if w == 0:
            yield ()
            return
        for head in range(min(w, cap), 0, -1):
            for tail in rec(w - head, head - 1):
                yield (head,) + tail

    yield from rec(weight, max_part)


# ----------------------------------------- eigenvalue specialization lane

def eigen_universe(n: int):
    names = [f"a{i}" for i in range(1, n + 1)]
    return symbol_universe(f"eig{n}", names, invertible=names), names


def lambda_duality_check(n_eigs: int, t) -> dict:
    """Check the inversion symmetry of the generating series: with
    N1/D1 = series at (eigenvalues, t) and N2/D2 the same at
    (inverse eigenvalues, 1/t) evaluated at 1/U, verify the exact Laurent
    identity N1 * D2 == t^n * N2 * D1.  The symmetry is strict (factor 1)
    exactly when t^n == 1."""
    if isinstance(t, (int, Fraction)):
        t = as_fraction(t)
        if t == 0:
            raise DomainError("t must be invertible")
        t_inv = 1 / t
    else:
        t_inv = t.inv()
    U, names = eigen_universe(n_eigs)
    # Every factor is an exact Laurent polynomial; declare windows wide
    # enough that the pessimistic product rule still covers degree n_eigs.
    order, low = 3 * n_eigs + 2, -(n_eigs + 1)

    def before(vals):
        out = TruncatedSeries.one(("U",), order)
        for v in vals:
            out = out * TruncatedSeries.univariate("U", {0: 1, 1: -v}, order)
        return out

    def after(vals):
        out = TruncatedSeries.univariate("U", {0: 1}, order, low)
        for v in vals:
            out = out * TruncatedSeries.univariate("U", {0: 1, -1: -v}, order, low)
        return out

    inv_eigs = [SparsePoly.gen(U, n, -1) for n in names]
    eigs = [SparsePoly.gen(U, n) for n in names]
    n1 = before([ai * t for ai in inv_eigs])
    d1 = before(inv_eigs)
    n2 = after([a * t_inv for a in eigs])
    d2 = after(eigs)
    factor = t ** n_eigs
    lhs = n1 * d2
    rhs = (n2 * d1).scale(factor)
    return {
        "holds": lhs.agrees_with(rhs),
        "strict": factor == 1,
        "factor": factor,
    }
