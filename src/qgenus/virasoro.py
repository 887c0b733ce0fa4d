"""Half-integer oscillator modes on the odd-coordinate Fock space, the
induced degree operators, and the intersection-number generating function
they annihilate.

The Fock space is the polynomial ring in the odd coordinates x_0, x_1, ...
(x_k has weight 2k+1).  The oscillator modes indexed by half-integers act
as

    alpha_(-(k+1/2)) = -2^(-1/2) * (multiplication by x_k),     k >= 0,
    alpha_(k+1/2)    = -(2k+1) * 2^(-1/2) * d/dx_k,             k >= 0,

so [alpha_r, alpha_s] = r * delta_(r+s,0).  Normal-ordering the quadratic
sums gives the degree operators (n > 0, p > 0):

    L_n    = 1/4 sum_(j+j'=n-1) (2j+1)(2j'+1) d_j d_j'
             + 1/2 sum_(m>=0) (2(m+n)+1) x_m d_(m+n)
    L_0    = sum_(m>=0) ((2m+1)/2) x_m d_m + 1/16
    L_(-p) = 1/4 sum_(j+j'=p-1) x_j x_j' + 1/2 sum_(m>=0) (2m+1) x_(p+m) d_m

with bracket [L_m, L_n] = (m-n) L_(m+n) + ((m^3-m)/12) delta_(m+n,0).

Conventions table (the one sign choice that matters):  the annihilators of
the intersection generating function are the *shifted* operators

    Ltilde_n = L_n + (1/2)(2n+3) d_(n+1),        n >= -1,

i.e. the function is rewritten in the variable x_1 - 1 (equivalently,
conjugate L_n by the translation x_1 -> x_1 + 1).  Substituting x_1 - 1
into the operator instead leaves a nonzero string residual (1/2) x_0^2 and
is wrong; the choice here reproduces the standard string and dilaton
equations in the t-coordinates t_k = -(2k-1)!! x_k.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, IncompatibleOperands, TruncationError
from .rings import SparsePoly, Sqrt2, UX, dfact_odd, double_factorial

MultiIndex = tuple[int, ...]  # counts (K_0, K_1, ...), trailing zeros stripped


@dataclass(frozen=True)
class FockPoly:
    """A polynomial in the x_k together with the weight through which its
    coefficients are exact."""

    poly: SparsePoly
    trusted: int

    def __post_init__(self):
        if self.poly.universe != UX:
            raise IncompatibleOperands("Fock elements live in the x-universe")

    @classmethod
    def exact(cls, poly: SparsePoly, headroom: int = 0) -> "FockPoly":
        w = poly.max_weight()
        return cls(poly, (0 if w is None else w) + headroom)

    def __add__(self, other: "FockPoly") -> "FockPoly":
        t = min(self.trusted, other.trusted)
        return FockPoly((self.poly + other.poly).weight_truncate(t), t)

    def __sub__(self, other: "FockPoly") -> "FockPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "FockPoly":
        return FockPoly(self.poly * c, self.trusted)

    def through(self, w: int) -> SparsePoly:
        if w > self.trusted:
            raise DomainError(
                f"weight {w} beyond trusted window {self.trusted}")
        return self.poly.weight_truncate(w)

    def is_zero_through(self, w: int) -> bool:
        return not self.through(w)


def alpha_apply(half: int, fock: FockPoly) -> FockPoly:
    """Apply one oscillator mode; ``half`` is twice the half-integer index
    (so it must be odd; -3 means the mode indexed -3/2)."""
    if half % 2 == 0:
        raise DomainError("oscillator modes carry half-integer indices")
    k = (abs(half) - 1) // 2
    if half < 0:
        out = SparsePoly.gen(UX, k) * fock.poly * Sqrt2(0, Fraction(-1, 2))
        return FockPoly(out, fock.trusted + 2 * k + 1)
    out = fock.poly.differentiate(k) * Sqrt2(0, -Fraction(2 * k + 1, 2))
    return FockPoly(out, fock.trusted - (2 * k + 1))


def l_apply(n: int, fock: FockPoly, shifted: bool = False) -> FockPoly:
    """Apply the degree operator L_n (or its shifted version, n >= -1)."""
    p = fock.poly
    out = SparsePoly.zero(UX)
    ks = sorted(p.gens())
    if n > 0:
        for j in range(n):
            jp = n - 1 - j
            d2 = p.differentiate(j).differentiate(jp)
            if d2:
                out = out + Fraction((2 * j + 1) * (2 * jp + 1), 4) * d2
        for k in ks:
            if k >= n:
                out = out + (Fraction(2 * k + 1, 2)
                             * SparsePoly.gen(UX, k - n) * p.differentiate(k))
    elif n == 0:
        for k in ks:
            out = out + Fraction(2 * k + 1, 2) * SparsePoly.gen(UX, k) * p.differentiate(k)
        out = out + Fraction(1, 16) * p
    else:
        pp = -n
        quad = SparsePoly.zero(UX)
        for j in range(pp):
            quad = quad + SparsePoly.gen(UX, j) * SparsePoly.gen(UX, pp - 1 - j)
        out = out + Fraction(1, 4) * quad * p
        for k in ks:
            out = out + (Fraction(2 * k + 1, 2)
                         * SparsePoly.gen(UX, pp + k) * p.differentiate(k))
    trusted = fock.trusted - 2 * n
    if shifted:
        if n < -1:
            raise DomainError("shifted operators exist only for n >= -1")
        out = out + Fraction(2 * n + 3, 2) * p.differentiate(n + 1)
        trusted -= 3
    return FockPoly(out.weight_truncate(trusted), trusted)


def l_bracket_residual(m: int, n: int, fock: FockPoly,
                       shifted: bool = False) -> FockPoly:
    """[L_m, L_n] f - ((m-n) L_(m+n) + ((m^3-m)/12) delta_(m+n,0)) f,
    compared on the common trusted window (zero iff the bracket holds)."""
    ab = l_apply(m, l_apply(n, fock, shifted), shifted)
    ba = l_apply(n, l_apply(m, fock, shifted), shifted)
    rhs = l_apply(m + n, fock, shifted).scale(m - n)
    if m + n == 0:
        rhs = rhs + fock.scale(Fraction(m ** 3 - m, 12))
    return (ab - ba) - rhs


# ------------------------------------------------------ intersection table

def index_stats(K: MultiIndex) -> tuple[int, int]:
    """(number of insertions n, total degree s)."""
    return sum(K), sum(d * c for d, c in enumerate(K))


def canon_index(K: Iterable[int]) -> MultiIndex:
    K = tuple(K)
    if any(c < 0 for c in K):
        raise DomainError(f"negative multiplicity in {K}")
    while K and K[-1] == 0:
        K = K[:-1]
    return K


def genus_of(K: Iterable[int]) -> int | None:
    """The genus forced by the dimension constraint, or None when no
    non-negative integer genus fits (such indices are not entries)."""
    K = canon_index(K)
    n, s = index_stats(K)
    if n < 1:
        return None
    g3 = s - n + 3
    if g3 < 0 or g3 % 3:
        return None
    return g3 // 3


def counts_from_degrees(ds: Iterable[int]) -> MultiIndex:
    ds = list(ds)
    if any(d < 0 for d in ds):
        raise DomainError("insertion degrees must be >= 0")
    K = [0] * (max(ds) + 1 if ds else 0)
    for d in ds:
        K[d] += 1
    return canon_index(K)


def _bump(K: MultiIndex, d: int, by: int = 1) -> MultiIndex:
    lst = list(K) + [0] * max(0, d + 1 - len(K))
    lst[d] += by
    return canon_index(lst)


class IntersectionTable:
    """Closed intersection-number table, built degree by degree from the
    annihilation constraints of the shifted degree operators.

    The constraint indexed nc >= -1 expresses the entry for K + e_(nc+1) in
    terms of entries whose total degree is strictly smaller, so filling the
    table in order of total degree needs no seed beyond the two boundary
    contributions the nc = -1 and nc = 0 constraints carry themselves.
    The recursion runs on the integers N(K) = 2^(4g+n-2) prod (2d_i+1)!!
    <K> (see :func:`_constraint`); ``values`` holds the numbers <K>.
    """

    def __init__(self):
        self.values: dict[MultiIndex, Fraction] = {}
        self.complete_through = -1

    # -- lookups -----------------------------------------------------------
    def _v(self, K: Iterable[int]) -> Fraction:
        K = canon_index(K)
        if genus_of(K) is None:
            return Fraction(0)
        try:
            return self.values[K]
        except KeyError:
            raise TruncationError(
                f"table incomplete: entry {K} not built yet") from None

    def value(self, K: Iterable[int]) -> Fraction:
        K = canon_index(K)
        if genus_of(K) is None:
            raise DomainError(
                f"{K} violates the dimension constraint (no valid genus)")
        _, s = index_stats(K)
        if s > self.complete_through:
            raise TruncationError(
                f"table built through degree {self.complete_through}, "
                f"entry {K} has degree {s}")
        return self.values[K]

    def correlator(self, degrees: Iterable[int]) -> Fraction:
        return self.value(counts_from_degrees(degrees))

    def entries(self):
        return self.values.items()

    # -- construction --------------------------------------------------------
    def build_through(self, s_max: int) -> "IntersectionTable":
        if s_max + 3 > _FIELD_MASK:
            raise DomainError(
                f"degree {s_max} needs insertion counts up to {s_max + 3}, "
                f"beyond the {_FIELD_BITS}-bit fields of a table key")
        scaled = _ScaledEntries(self.values)
        for s in range(self.complete_through + 1, s_max + 1):
            # a degree joins the table whole, or not at all if it raises
            built = []
            for K, key, g3, f in _valid_indices_of_degree(s):
                scaled[key] = v = _constraint(K, key, g3, scaled)
                built.append((K, Fraction(v, f)))
            self.values.update(built)
            self.complete_through = s
        return self

    def _constraint_value(self, T: MultiIndex) -> Fraction:
        """The entry for T re-derived from its constraint, with every input
        read from ``values``."""
        return Fraction(_constraint(T, _pack(T), 3 * genus_of(T),
                                    _ScaledEntries(self.values)), _scale(T))

    # -- serialization -------------------------------------------------------
    def to_obj(self) -> dict:
        return {
            "format": "intersection-table/1",
            "complete_through": self.complete_through,
            "entries": {
                ",".join(str(c) for c in K): str(v)
                for K, v in sorted(self.values.items())
            },
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "IntersectionTable":
        if obj.get("format") != "intersection-table/1":
            raise DomainError("unrecognized table format")
        out = cls()
        out.complete_through = int(obj["complete_through"])
        for key, val in obj["entries"].items():
            K = canon_index(int(c) for c in key.split(",")) if key else ()
            out.values[K] = Fraction(val)
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "IntersectionTable":
        return cls.from_obj(json.loads(text))


def _valid_indices_of_degree(s: int):
    """All multi-indices satisfying the dimension constraint with total
    degree s, in a deterministic order, as (K, packed key, 3 * genus,
    :func:`_scale` of K)."""
    # per partition of s: (K_1, K_2, ...), its length, its packed key and
    # prod (2p+1)!! over its parts p; a genus then fixes K_0
    shapes = []
    for parts in _partitions(s, s):
        K = [0] * (parts[0] + 1 if parts else 1)
        f = 1
        for p in parts:
            K[p] += 1
            f *= double_factorial(2 * p + 1)
        shapes.append((tuple(K[1:]), len(parts), _pack(K), f))
    out = []
    g = 0
    while (n := s - 3 * g + 3) >= 1:
        out += [((n - k,) + tail, key + n - k, 3 * g, f << (4 * g + n - 2))
                for tail, k, key, f in shapes if k <= n]
        g += 1
    return out


def _partitions(rem: int, cap: int):
    """Partitions of rem into parts <= cap, largest part first, in
    decreasing lexicographic order."""
    if rem == 0:
        yield ()
    for head in range(min(rem, cap), 0, -1):
        for tail in _partitions(rem - head, head):
            yield (head,) + tail


# The recursion runs on packed keys and scaled integer values.  A key holds
# the count K_d in bits [8d, 8d + 8) of one int, so K + e_d is one addition;
# a count above 255 would spill into the next field, so it raises instead.
_FIELD_BITS = 8
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_UNIT = tuple(1 << (_FIELD_BITS * d) for d in range(_FIELD_MASK + 1))


def _pack(K: Iterable[int]) -> int:
    key = 0
    for d, c in enumerate(K):
        if not 0 <= c <= _FIELD_MASK:
            raise DomainError(
                f"count {c} of tau_{d} does not fit a {_FIELD_BITS}-bit "
                f"table-key field")
        key += c * _UNIT[d]
    return key


def _unpack(key: int) -> MultiIndex:
    K = []
    while key:
        K.append(key & _FIELD_MASK)
        key >>= _FIELD_BITS
    return tuple(K)


def _scale(K: MultiIndex) -> int:
    """2^(4g+n-2) * prod_i (2d_i+1)!! for a valid entry K.  Scaled by it,
    every intersection number is an integer, and the constraints of
    :func:`_constraint` have integer coefficients."""
    n, s = index_stats(K)
    f = 1 << (4 * ((s - n + 3) // 3) + n - 2)
    for d, c in enumerate(K):
        if c and d:
            f *= double_factorial(2 * d + 1) ** c
    return f


def _scaled(K: MultiIndex, v: Fraction) -> int:
    """The scaled integer of a stored value; a value that does not scale to
    an integer is not an intersection number and is never truncated."""
    N, rem = divmod(v.numerator * _scale(K), v.denominator)
    if rem:
        raise DomainError(
            f"{K} = {v} is not an intersection number: scaled by "
            f"2^(4g+n-2)*prod (2d+1)!! it is not an integer")
    return N


class _ScaledEntries(dict):
    """Scaled entries by packed key.  An entry not set in this pass is
    scaled from the table's ``values`` on first use, so a build continues
    a loaded or partial table and an audit reads what the table holds."""

    def __init__(self, values: Mapping[MultiIndex, Fraction]):
        super().__init__()
        self.values = values

    def __missing__(self, key: int) -> int:
        K = _unpack(key)
        try:
            v = self.values[K]
        except KeyError:
            raise TruncationError(
                f"table incomplete: entry {K} not built yet") from None
        self[key] = N = _scaled(K, v)
        return N


def _constraint(T: MultiIndex, key: int, g3: int,
                N: Mapping[int, int]) -> int:
    """The scaled entry N(T), g3 = 3 * genus, from the constraint indexed
    nc = d - 1 that removes the lowest positive degree d of T (0 only for
    <tau_0^3>): the dilaton relation when T_1 > 0, else the fewest j-terms.
    With base = T - e_d, h_j = 1 for j < jp and 2 for j = jp:

        N(T) = 2 sum_m base_m (2m+1) N(base - e_m + e_(m+nc))
             + sum_(j+jp=nc-1, j<=jp) (2/h_j) [4 N(base + e_j + e_jp)
                 + sum_(A+B=base) mult N(A + e_j) N(B + e_jp)]
             + 2 for <tau_0^3>, 1 for <tau_1>.

    Every key looked up is a valid entry of lower degree (the dimension
    filter on the splittings guarantees it)."""
    d = next((i for i in range(1, len(T)) if T[i]), 0)
    nc = d - 1 if d else -1
    base = list(T)
    base[d] -= 1
    key -= _UNIT[d]
    # transport sum: one insertion moves up by nc
    total = 0
    for m, cnt in enumerate(base):
        if cnt and m + nc >= 0:
            total += cnt * (2 * m + 1) * N[key - _UNIT[m] + _UNIT[m + nc]]
    total *= 2
    # quadratic part: connected + all disconnected splittings.  The summand
    # is symmetric under (A, j) <-> (B, jp), so each j < jp pair is summed
    # once, doubled.
    if nc > 0:
        j_top = (nc - 1) // 2
        splits = _splittings(base, key, -j_top, g3)
        for j in range(j_top + 1):
            jp = nc - 1 - j
            uj, ujp = _UNIT[j], _UNIT[jp]
            part = 4 * N[key + uj + ujp] if g3 else 0
            # A + e_j is an entry iff t_A + j is a non-negative multiple of
            # 3, and then B + e_jp is one iff t_A + j <= 3g
            for A, B, mult, t in splits[-j % 3]:
                if 0 <= t + j <= g3:
                    part += mult * N[A + uj] * N[B + ujp]
            total += 2 * part if j < jp else part
    # boundary contributions carried by the lowest two constraints
    if nc == -1 and base == [2]:
        total += 2
    elif nc == 0 and not key:
        total += 1
    return total


def _splittings(base: list[int], key: int, lo: int, hi: int):
    """The componentwise splittings A + B = base (``key`` packs base) with
    lo <= t <= hi, as (A, B, mult, t): A and B packed, mult = prod
    C(base_i, A_i) and t = s_A - n_A + 2, grouped by t mod 3."""
    # Positions >= 1 only raise t and position 0 lowers it by at most
    # base_0, so build from the top down, drop a partial splitting once t
    # passes hi + base_0, and pick A_0 last from the range that lands t in
    # [lo, hi].
    c0 = base[0]
    parts = [(0, 1, 2)]
    for i in range(len(base) - 1, 0, -1):
        c = base[i]
        if c:
            u = _UNIT[i]
            parts = [(A + a * u, mult * comb(c, a), t + (i - 1) * a)
                     for A, mult, t in parts for a in range(c + 1)
                     if t + (i - 1) * a <= hi + c0]
    groups = ([], [], [])
    row = [comb(c0, a) for a in range(c0 + 1)]
    for A, mult, t in parts:
        for a in range(max(t - hi, 0), min(t - lo, c0) + 1):
            groups[(t - a) % 3].append(
                (A + a, key - A - a, mult * row[a], t - a))
    return groups


def string_oracle(table: IntersectionTable, K: Iterable[int]) -> Fraction:
    """Independent route to an entry with K_0 >= 1 (other than the
    3-point base): remove one degree-0 insertion and lower one other
    insertion by one, summing over choices."""
    K = canon_index(K)
    if not K or K[0] < 1:
        raise DomainError("needs a degree-0 insertion")
    if K == (3,):
        raise DomainError("the 3-point base is not reachable this way")
    base = _bump(K, 0, -1)
    total = Fraction(0)
    for k, cnt in enumerate(base):
        if k >= 1 and cnt:
            total += cnt * table._v(_bump(_bump(base, k, -1), k - 1))
    return total


def genus_zero_closed_form(K: Iterable[int]) -> Fraction:
    """(n-3)! / prod(d!) for genus-0 entries."""
    K = canon_index(K)
    if genus_of(K) != 0:
        raise DomainError(f"{K} is not a genus-0 entry")
    n, _ = index_stats(K)
    denom = 1
    for d, c in enumerate(K):
        denom *= factorial(d) ** c
    return Fraction(factorial(n - 3), denom)


# ------------------------------------------------------------ table cache

def default_cache_path() -> Path:
    """$QGENUS_CACHE_DIR/intersection.json, else under ~/.cache/qgenus."""
    root = os.environ.get("QGENUS_CACHE_DIR")
    base = Path(root).expanduser() if root else Path.home() / ".cache" / "qgenus"
    return base / "intersection.json"


def table_audit(table: IntersectionTable) -> list[str]:
    """Check a table, typically one read back from a cache, and return its
    faults (empty when clean).  It must hold exactly the valid indices
    through its degree.  Genus-0 entries must match the closed form,
    entries with K_0 >= 1 the string equation and entries with K_1 >= 1
    the dilaton relation; an entry none of these reaches is re-derived
    from its constraint.  Each check reads only entries of lower degree,
    so by induction a clean audit means every entry is right."""
    values = table.values
    count = 0
    for s in range(table.complete_through + 1):
        for K, *_ in _valid_indices_of_degree(s):
            if K not in values:
                return [f"entry {K} is missing"]
            count += 1
    if len(values) != count:
        return [f"{len(values) - count} entries are not valid indices of "
                f"degree <= {table.complete_through}"]
    # a value that does not scale to an integer is wrong on its face, and
    # the constraint route below could not read it
    faults = []
    for K, v in sorted(values.items()):
        try:
            _scaled(K, v)
        except DomainError as e:
            faults.append(str(e))
    if faults:
        return faults
    for K, v in sorted(values.items()):
        n, s = index_stats(K)
        g = (s - n + 3) // 3
        want = []
        if g == 0:
            want.append(("genus-0 closed form", genus_zero_closed_form(K)))
        if K[0] and K != (3,):
            want.append(("string equation", string_oracle(table, K)))
        if len(K) > 1 and K[1] and n > 1 and 2 * g - 3 + n > 0:
            X = list(K)
            X[1] -= 1
            want.append(("dilaton relation",
                         (2 * g - 3 + n) * values[canon_index(X)]))
        if not want:
            want.append(("constraint", table._constraint_value(K)))
        faults += [f"{K} = {v}, {route} gives {w}"
                   for route, w in want if v != w]
    return faults


def load_table(path: Path) -> IntersectionTable:
    """The audited table cached at ``path``.  A missing file gives an empty
    table; an unreadable or unrecognized file, or one that fails
    :func:`table_audit`, is reported on stderr and gives an empty table
    too, so the caller regenerates it."""
    if not path.exists():
        return IntersectionTable()
    try:
        table = IntersectionTable.loads(path.read_text())
    except (ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError, DomainError, RecursionError) as e:
        problem = f"is unusable ({e})"
    else:
        faults = table_audit(table)
        if not faults:
            return table
        problem = f"fails its audit ({faults[0]})"
    print(f"warning: cache {path} {problem}; regenerating", file=sys.stderr)
    return IntersectionTable()


def save_table(path: Path, table: IntersectionTable) -> None:
    """Write the table to ``path`` atomically (temp file, then rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(table.dumps())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -------------------------------------------------- generating function

def correlator_weight(K: MultiIndex) -> int:
    """x-weight of the monomial an entry contributes: sum K_d (2d+1)."""
    return sum(c * (2 * d + 1) for d, c in enumerate(K))


def required_degree(weight: int) -> int:
    """Table degree needed so every entry of x-weight <= weight exists."""
    return max((weight - 1) // 2, 0)


def free_energy(weight: int, table: IntersectionTable | None = None) -> FockPoly:
    """The generating function of the table in the odd coordinates,
    complete through the given x-weight: each entry K contributes
    value(K) * prod_d (-(2d-1)!! x_d)^(K_d) / K_d!."""
    need = required_degree(weight)
    if table is None:
        table = IntersectionTable().build_through(need)
    elif table.complete_through < need:
        raise TruncationError(
            f"need table degree {need}, have {table.complete_through}")
    F = SparsePoly.zero(UX)
    for K, v in table.entries():
        if correlator_weight(K) > weight:
            continue
        coeff = v
        powers = {}
        for d, c in enumerate(K):
            if c:
                coeff *= Fraction((-dfact_odd(d)) ** c, factorial(c))
                powers[d] = c
        F = F + SparsePoly.monomial(UX, powers, coeff)
    return FockPoly(F, weight)


def tau_series(weight: int, table: IntersectionTable | None = None) -> FockPoly:
    """exp of the generating function, truncated at the given x-weight."""
    F = free_energy(weight, table).poly
    acc = SparsePoly.const(UX, 1)
    power = SparsePoly.const(UX, 1)
    k = 1
    while True:
        power = power.__mul__(F, weight)
        if not power:
            break
        acc = acc + power * Fraction(1, factorial(k))
        k += 1
    return FockPoly(acc, weight)


class AnnihilationReport(NamedTuple):
    n: int
    weight: int
    ok: bool
    residual: SparsePoly

    def __repr__(self):
        status = "annihilated" if self.ok else f"RESIDUAL {self.residual}"
        return (f"shifted operator n={self.n} on tau through weight "
                f"{self.weight}: {status}")


def annihilation_check(n: int, weight: int,
                       table: IntersectionTable | None = None) -> AnnihilationReport:
    """Verify that the shifted operator kills the exponential of the
    generating function through the requested x-weight.  The tau series is
    materialized with exactly the extra headroom the operator consumes."""
    if n < -1:
        raise DomainError("shifted operators exist only for n >= -1")
    tau = tau_series(weight + 2 * n + 3, table)
    res = l_apply(n, tau, shifted=True)
    if res.trusted < weight:
        raise TruncationError("window bookkeeping error")  # pragma: no cover
    return AnnihilationReport(n, weight, res.is_zero_through(weight),
                              res.through(weight))
