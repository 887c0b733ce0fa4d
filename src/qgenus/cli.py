"""Command-line surface over the whole package.

Every computation the library exposes is reachable here, with output in
three renderings (``pretty`` text, sorted-key JSON, CSV where the data is
tabular).  Output on stdout is a pure function of the invocation: no
timestamps, no environment echoes — status notes and warnings go to
stderr.  Exact rationals are serialized as ``p/q`` strings in JSON; CSV
adds decimal approximations next to them.

Each function imports the library names it uses in its own body, so a
command loads only the layers it runs.  Arguments are read by the standard
``argparse``, one parser for the command that runs (``COMMANDS`` lists
them all).

Exit codes: 0 success, 1 a requested check failed, 2 usage error
(including unparseable expressions and domain violations), 3 internal
error.

Expression mini-grammar (``qreduce``, ``inner``, ``voa y-check``)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := unary ('^' integer)?
    unary  := '-' unary | '(' expr ')' | rational | symbol

Rational literals are ``7`` or ``7/3``; symbols are ``q1, q2, ...`` and
``x0, x1, ...`` for the square-free commands, ``p1, p2, ...`` (power
sums) and ``h1, h2, ...`` (complete homogeneous) for the vertex-operator
commands.  Multiplication is always explicit.  Partitions are
comma-separated part lists like ``"3,2,1"``.  Weights are capped at 28
(``q_k``, ``p_k`` and ``h_k`` weigh k, ``x_k`` weighs 2k+1): a symbol,
product, power or partition above that is a usage error, and so is
nesting parentheses and minus signs more than 100 deep.  The ``x-basis``
of ``qreduce``, ``qfunction`` and ``inner`` is evaluated in the x_k
directly: q -> x is a weight-preserving algebra isomorphism, so both
sides print one element and the ceiling refuses the same inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, IncompatibleOperands, TruncationError

# Desk-scale ceilings: everything below finishes in seconds on a laptop;
# anything above deserves a batch job, not a CLI call.
_MAX_ORDER = 32          # Witt truncations, integrality windows
_MAX_LAW_ORDER = 10      # trivariate associativity grows fast
_MAX_TABLE_WEIGHT = 13   # intersection generating-function weight
_MAX_FOCK_WEIGHT = 10    # virasoro-check monomial weight
_MAX_MODE = 6            # virasoro mode indices
_MAX_VOA_CAP = 12        # vertex-operator weight caps
_MAX_VOA_WINDOW = 64     # voa y-check z-exponent window
_MAX_VOA_MONOMIALS = 800  # voa y-check monomials mapped to operators
_MAX_ROOT_ORDER = 64     # voa closure root-of-unity order
_MAX_CPN = 12            # kw --cpn degree; memory grows ~5x per two degrees
_MAX_POINTS = 10_000     # epsilon-table rows
_MAX_EXPR_WEIGHT = 28    # expression and qfunction partition weight
_MAX_EXPR_DEPTH = 100    # nesting, well inside Python's recursion limit


class UsageError(Exception):
    """Bad input: the command exits 2 with the message on stderr."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


# ---------------------------------------------------------------------------
# expression mini-grammar
# ---------------------------------------------------------------------------

class ExprError(Exception):
    def __init__(self, pos: int, msg: str):
        super().__init__(msg)
        self.pos = pos
        self.msg = msg


_TOKEN = re.compile(r"(?P<op>[-+*^()])|(?P<num>\d+(?:/\d+)?)"
                    r"|(?P<name>[A-Za-z]+\d*)")


def _tokenize(src: str):
    toks = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(src, i)
        if not m:
            raise ExprError(i, f"unexpected character {src[i]!r}")
        toks.append((m.lastgroup, m.group(), i))
        i = m.end()
    toks.append(("end", "", len(src)))
    return toks


def _bound_weight(weight: int, pos: int) -> None:
    if weight > _MAX_EXPR_WEIGHT:
        raise ExprError(pos, f"weight {weight} is beyond the expression "
                             f"ceiling {_MAX_EXPR_WEIGHT}")


class _Parser:
    """Recursive descent over the grammar in the module docstring; the
    element type is fixed by the two callbacks.  A symbol, product or power
    whose weight would pass ``_MAX_EXPR_WEIGHT`` is refused before it is
    formed, and so is nesting deeper than ``_MAX_EXPR_DEPTH``."""

    def __init__(self, src: str, const, symbol):
        self.toks = _tokenize(src)
        self.k = 0
        self.depth = 0  # parentheses and unary minus signs now open
        self.const = const
        self.symbol = symbol

    def _peek(self):
        return self.toks[self.k]

    def _take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def parse(self):
        e = self._expr()
        kind, txt, pos = self._peek()
        if kind != "end":
            raise ExprError(pos, f"unexpected {txt!r} after the expression")
        return e

    def _expr(self):
        t = self._term()
        while self._peek()[:2] in (("op", "+"), ("op", "-")):
            op = self._take()[1]
            u = self._term()
            t = t + u if op == "+" else t - u
        return t

    def _term(self):
        f = self._factor()
        while self._peek()[:2] == ("op", "*"):
            pos = self._take()[2]
            g = self._factor()
            _bound_weight((f.max_weight() or 0) + (g.max_weight() or 0), pos)
            f = f * g
        return f

    def _factor(self):
        base = self._unary()
        if self._peek()[:2] == ("op", "^"):
            self._take()
            kind, txt, pos = self._take()
            if kind != "num" or "/" in txt:
                raise ExprError(pos, "exponent must be a nonnegative integer")
            _bound_weight((base.max_weight() or 0) * int(txt), pos)
            base = base ** int(txt)
        return base

    def _unary(self):
        kind, txt, pos = self._peek()
        if (kind, txt) in (("op", "-"), ("op", "(")):
            self._take()
            self.depth += 1
            if self.depth > _MAX_EXPR_DEPTH:
                raise ExprError(pos, f"more than {_MAX_EXPR_DEPTH} nested "
                                     "parentheses and minus signs")
            if txt == "-":
                e = -self._unary()
            else:
                e = self._expr()
                kind, txt, pos = self._take()
                if (kind, txt) != ("op", ")"):
                    raise ExprError(pos, "expected ')'")
            self.depth -= 1
            return e
        if kind == "num":
            self._take()
            try:
                return self.const(Fraction(txt))
            except ZeroDivisionError:
                raise ExprError(pos, "zero denominator") from None
        if kind == "name":
            self._take()
            return self.symbol(txt, pos)
        raise ExprError(pos, f"expected a value, found {txt!r}"
                        if txt else "unexpected end of expression")


def _q_symbol(q, x):
    """The square-free symbol callback: ``q<k>`` maps to q(k) and ``x<k>``
    to x(k), once the symbol's weight is checked."""
    def symbol(name: str, pos: int):
        m = re.fullmatch(r"([qx])(\d+)", name)
        if not m:
            raise ExprError(pos, f"unknown symbol {name!r} "
                                 "(expected q<k> or x<k>)")
        k = int(m[2])
        _bound_weight(k if m[1] == "q" else 2 * k + 1, pos)  # x_k weighs 2k+1
        return (q if m[1] == "q" else x)(k)
    return symbol


def _square_free(in_x: bool):
    """(const, symbol) callbacks for the square-free grammar: the
    strict-partition basis, or with ``in_x`` the odd coordinates x_k."""
    from .qfunctions import QElement, q_in_x, x_in_q
    from .rings import SparsePoly, UX
    if in_x:
        return (lambda c: SparsePoly.const(UX, c),
                _q_symbol(q_in_x, lambda k: SparsePoly.gen(UX, k)))
    return (lambda c: QElement.monomial((), c),
            _q_symbol(lambda k: QElement.monomial((k,)), x_in_q))


def _p_symbol(name: str, pos: int) -> SparsePoly:
    from .rings import SparsePoly, UPS
    from .witt import hl_q_gen
    m = re.fullmatch(r"p([1-9]\d*)", name)
    if m:
        k = int(m.group(1))
        if k > _MAX_VOA_CAP:
            raise ExprError(pos, f"power-sum index {k} beyond desk scale")
        return SparsePoly.gen(UPS, k)
    m = re.fullmatch(r"h([1-9]\d*)", name)
    if m:
        k = int(m.group(1))
        if k > _MAX_VOA_CAP:
            raise ExprError(pos, f"homogeneous index {k} beyond desk scale")
        c = hl_q_gen(0, k).series.coefficient(k)
        return c if isinstance(c, SparsePoly) else SparsePoly.const(UPS, c)
    raise ExprError(pos, f"unknown symbol {name!r} (expected p<k> or h<k>)")


def _parse_expr(src: str, const, symbol, what: str):
    try:
        return _Parser(src, const, symbol).parse()
    except ExprError as e:
        raise UsageError(
            f"parse error in {what} at position {e.pos}: {e.msg}") from e


def parse_q_expr(src: str, what: str = "expression", in_x: bool = False):
    """EXPR in the strict-partition basis, or ``in_x`` in the x_k."""
    return _parse_expr(src, *_square_free(in_x), what)


def parse_p_expr(src: str, what: str = "expression") -> SparsePoly:
    from .rings import SparsePoly, UPS
    return _parse_expr(src, lambda c: SparsePoly.const(UPS, c),
                       _p_symbol, what)


def _parse_partition(src: str) -> tuple[int, ...]:
    from .qfunctions import is_strict
    try:
        parts = tuple(int(p.strip()) for p in src.split(","))
    except ValueError:
        raise UsageError(
            f"partition {src!r} is not a comma-separated integer list"
        ) from None
    if not parts or any(p < 1 for p in parts):
        raise UsageError("partition parts must be positive integers")
    parts = tuple(sorted(parts, reverse=True))
    _require(sum(parts) <= _MAX_EXPR_WEIGHT, f"partition weight {sum(parts)} "
             f"is beyond the ceiling {_MAX_EXPR_WEIGHT}")
    if not is_strict(parts):
        raise UsageError(
            f"partition {src!r} is not strict (parts must be distinct)")
    return parts


def _parse_list(src: str, what: str, kind=int) -> tuple:
    """A comma-separated list of ``kind`` (int or Fraction)."""
    try:
        return tuple(kind(p.strip()) for p in src.split(","))
    except (ValueError, ZeroDivisionError):
        noun = "integer list" if kind is int else "list of rationals"
        raise UsageError(f"{what} must be a comma-separated {noun} "
                         f"(got {src!r})") from None


def _parse_scalar(src: str, what: str):
    """A rational ('1/2') or decimal ('0.5') scalar."""
    try:
        return Fraction(src)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(src)
    except ValueError:
        raise UsageError(f"{what} must be a number, got {src!r}") from None


def _parse_complex(src: str):
    """A real or complex number; the imaginary unit is written ``i``
    (``10i``, ``1+2i``) or ``j``."""
    text = src.strip().replace(" ", "").replace("i", "j")
    try:
        z = complex(text)
    except ValueError:
        raise UsageError(f"cannot parse {src!r} as a number") from None
    if z != z or abs(z.real) == float("inf") or abs(z.imag) == float("inf"):
        raise UsageError("z must be finite")
    return z.real if z.imag == 0.0 else z


# ---------------------------------------------------------------------------
# renderers and emission
# ---------------------------------------------------------------------------

def _named_terms(terms: dict[str, str]) -> str:
    """One line for a {monomial name: coefficient text} table entry, as
    ``voa table`` and ``voa lattice`` print it."""
    return " + ".join(name if c == "1" else f"{c}*{name}"
                      for name, c in terms.items()) or "0"


def _jsonify_value(v):
    """Floats stay numbers; complex values become repr strings."""
    return v if isinstance(v, float) else repr(v)


def _emit_csv(header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    print(buf.getvalue(), end="")


def _emit(fmt: str, subcommand: str, *, pretty, obj, rows=None) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    elif fmt == "csv":
        if rows is None:
            raise UsageError(
                f"'{subcommand}' has no CSV rendering; "
                "use --format pretty or json")
        _emit_csv(*rows)
    else:
        for line in pretty:
            print(line)


# ---------------------------------------------------------------------------
# square-free algebra commands
# ---------------------------------------------------------------------------

def _qreduce_args(add):
    add("expr", metavar="EXPR")


def qreduce(obj, expr):
    """Normal form of EXPR in the square-free basis.

    Example: qreduce "q1^2" prints 2*q2.
    """
    e = parse_q_expr(expr)
    x = repr(parse_q_expr(expr, in_x=True))
    _emit(obj["fmt"], "qreduce", pretty=[repr(e), f"x-basis: {x}"],
          obj={"q_basis": repr(e), "x_basis": x})


def _qfunction_args(add):
    add("partition", metavar="PARTITION")


def qfunction(obj, partition):
    """The orthogonal basis element indexed by a strict PARTITION
    ("3,2,1"), expanded in the square-free generators."""
    from .qfunctions import classical_q, x_pair
    lam = _parse_partition(partition)
    e = classical_q(lam)
    x = repr(classical_q(lam, x_pair))
    _emit(obj["fmt"], "qfunction", pretty=[repr(e), f"x-basis: {x}"],
          obj={"partition": list(lam), "q_basis": repr(e), "x_basis": x})


def _inner_args(add):
    add("left", metavar="LEFT")
    add("right", metavar="RIGHT")


def inner_cmd(obj, left, right):
    """The canonical inner product of two expressions.

    Example: inner "q1" "q1" prints 2.
    """
    from .qfunctions import inner_x
    ax = parse_q_expr(left, "LEFT", in_x=True)
    bx = parse_q_expr(right, "RIGHT", in_x=True)
    v = inner_x(ax, bx)
    if obj["verbosity"]:
        print(f"x-basis: left = {ax!r}, right = {bx!r}", file=sys.stderr)
    _emit(obj["fmt"], "inner", pretty=[str(v)],
          obj={"value": str(v), "left_x": repr(ax), "right_x": repr(bx)})


# ---------------------------------------------------------------------------
# intersection table and Virasoro bracket
# ---------------------------------------------------------------------------

# The cache lives in virasoro; these names are the CLI's timing points for
# cache reads and writes (perfbench/spans.py wraps them).
def _load_table(path: Path) -> IntersectionTable:
    from .virasoro import load_table
    return load_table(path)


def _save_table(path: Path, table: IntersectionTable) -> None:
    from .virasoro import save_table
    save_table(path, table)


def _tau_label(K: tuple[int, ...]) -> str:
    bits = [f"tau_{d}" + (f"^{c}" if c > 1 else "")
            for d, c in enumerate(K) if c]
    return "<" + " ".join(bits) + ">"


def _intersection_args(add):
    add("--max-weight", type=int, required=True,
        help="Emit every entry whose generating-function weight is at most "
             "this.")
    add("--no-cache", action="store_true",
        help="Compute fresh; do not read or write the cache file.")
    add("--audit", action="store_true",
        help="Audit every entry of the final table; faults go to stderr and "
             "exit 1.")


def intersection(obj, max_weight, no_cache, audit):
    """Closed intersection-number table, built by the annihilation
    recursion and persisted to a versioned JSON cache (atomic writes; a
    corrupt, mismatched or wrong-valued cache is regenerated with a
    warning)."""
    from .virasoro import (IntersectionTable, correlator_weight,
                           default_cache_path, genus_of, index_stats,
                           required_degree, table_audit)
    _require(0 <= max_weight <= _MAX_TABLE_WEIGHT,
             f"--max-weight is capped at {_MAX_TABLE_WEIGHT} (desk scale)")
    need = required_degree(max_weight)
    path = obj["cache_path"] or default_cache_path()
    table = IntersectionTable() if no_cache else _load_table(path)
    if table.complete_through < need:
        table.build_through(need)
        if not no_cache:
            _save_table(path, table)
    if obj["verbosity"] and not no_cache:
        print(f"cache: {path} (complete through degree "
              f"{table.complete_through})", file=sys.stderr)
    chosen = [(K, v) for K, v in sorted(table.entries())
              if correlator_weight(K) <= max_weight]
    _emit(
        obj["fmt"], "intersection",
        pretty=[f"{_tau_label(K)} = {v}" for K, v in chosen],
        obj={"format": "intersection-table/1", "max_weight": max_weight,
             "entries": {",".join(str(c) for c in K): str(v)
                         for K, v in chosen}},
        rows=(["index", "n", "genus", "degree", "weight", "value", "decimal"],
              [[",".join(str(c) for c in K), index_stats(K)[0], genus_of(K),
                index_stats(K)[1], correlator_weight(K), str(v),
                repr(float(v))] for K, v in chosen]))
    if audit:
        faults = table_audit(table)
        for fault in faults:
            print(f"audit fault: {fault}", file=sys.stderr)
        print(f"audit: {len(faults) or 'no'} faults in "
              f"{len(table.values)} entries through degree "
              f"{table.complete_through}", file=sys.stderr)
        if faults:
            sys.exit(1)


def _x_monomials(bound: int, k: int = 0):
    """Every monomial in x_k, x_(k+1), ... of weight <= bound, the
    constant included, keyed by smallest generator (no repeats)."""
    yield {}
    for j in range(k, (bound + 1) // 2):
        for e in range(1, bound // (2 * j + 1) + 1):
            for rest in _x_monomials(bound - e * (2 * j + 1), j + 1):
                yield {j: e, **rest}


def _virasoro_check_args(add):
    add("--m", type=int, required=True)
    add("--n", type=int, required=True)
    add("--max-weight", type=int, default=6,
        help="Check the bracket on every monomial up to this weight "
             "(default: 6).")


def virasoro_check(obj, m, n, max_weight):
    """Verify one bracket relation of the degree operators on the
    oscillator representation; prints the central term and exits
    nonzero if any monomial witnesses a failure."""
    from .rings import SparsePoly, UX
    from .virasoro import FockPoly, l_bracket_residual
    _require(abs(m) <= _MAX_MODE and abs(n) <= _MAX_MODE,
             f"mode indices are capped at |m|, |n| <= {_MAX_MODE}")
    _require(0 <= max_weight <= _MAX_FOCK_WEIGHT,
             f"--max-weight is capped at {_MAX_FOCK_WEIGHT} (desk scale)")
    central = Fraction(m ** 3 - m, 12) if m + n == 0 else Fraction(0)
    checked = 0
    failures = []
    for powers in _x_monomials(max_weight):
        fock = FockPoly(SparsePoly.monomial(UX, powers), 99)
        res = l_bracket_residual(m, n, fock)
        checked += 1
        if not res.is_zero_through(res.trusted):
            failures.append(powers)
    ok = not failures
    _emit(obj["fmt"], "virasoro-check",
          pretty=[f"central term: {central}",
                  f"monomials checked: {checked} (weight <= {max_weight})",
                  f"bracket [L_{m}, L_{n}]: {'pass' if ok else 'FAIL'}"],
          obj={"m": m, "n": n, "central_term": str(central),
               "monomials_checked": checked, "max_weight": max_weight,
               "ok": ok})
    if not ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# genus / formal group law commands
# ---------------------------------------------------------------------------

def _cleared_coefficient(k: int):
    """The T^(k+1) exponential coefficient with the inverted generator
    cleared against the square-free basis."""
    from .grouplaw import to_q_over_q1
    from .rings import SparsePoly, UX, dfact_odd
    return to_q_over_q1(dfact_odd(k) * SparsePoly.gen(UX, 0, -1)
                        * SparsePoly.gen(UX, k))


def _kw_args(add):
    add("--cpn", type=int, help="Genus image of the degree-n projective "
                                "space.")
    add("--integrality", type=int, metavar="N",
        help="Check integrality of the cleared exponential coefficients "
             "through T^N.")
    add("--modp", type=int, metavar="P",
        help="Check the mod-P vanishing cutoff of the cleared exponential "
             "coefficients.")


def kw(obj, cpn, integrality, modp):
    """The genus attached to the square-free algebra: projective-space
    images, integrality, and mod-p vanishing of its exponential."""
    from .grouplaw import projective_image, to_q_over_q1
    given = [x for x in (cpn, integrality, modp) if x is not None]
    _require(len(given) == 1,
             "pass exactly one of --cpn, --integrality, --modp")

    if cpn is not None:
        _require(0 <= cpn <= _MAX_CPN,
                 f"--cpn is capped at {_MAX_CPN} (desk scale)")
        p = projective_image(cpn)
        a, e = to_q_over_q1(p)
        qform = f"({e}) / q1^{a}" if a > 1 else (f"({e}) / q1" if a else str(e))
        _emit(obj["fmt"], "kw",
              pretty=[repr(p), f"q-basis: {qform}"],
              obj={"cpn": cpn, "x_basis": repr(p), "q_numerator": repr(e),
                   "q1_power": a})
        return

    if integrality is not None:
        _require(2 <= integrality <= _MAX_ORDER,
                 f"--integrality is capped at {_MAX_ORDER}")
        bad = []
        for k in range(1, integrality):
            _, e = _cleared_coefficient(k)
            if not e.is_integral():
                bad.append(k + 1)
        ok = not bad
        _emit(obj["fmt"], "kw",
              pretty=[f"exponential coefficients through T^{integrality}: "
                      + ("all integral in the square-free basis" if ok else
                         f"NOT integral at T^{bad}")],
              obj={"through_order": integrality, "ok": ok,
                   "non_integral_orders": bad})
        if not ok:
            sys.exit(1)
        return

    _require(modp in (3, 5, 7, 11, 13),
             "--modp expects an odd prime up to 13")
    cutoff = (modp + 1) // 2
    lines = [f"mod-{modp} vanishing predicted from k >= {cutoff}"]
    mismatches = []
    rows = []
    for k in range(1, cutoff + 4):
        _, e = _cleared_coefficient(k)
        divisible = all(c.numerator % modp == 0 for c in e.terms.values())
        expected = k >= cutoff
        rows.append({"k": k, "divisible": divisible, "expected": expected})
        status = "vanishes" if divisible else "nonzero"
        lines.append(f"k = {k}: {status} mod {modp}")
        if divisible != expected:
            mismatches.append(k)
    ok = not mismatches
    lines.append(f"prediction: {'pass' if ok else 'FAIL'}")
    _emit(obj["fmt"], "kw", pretty=lines,
          obj={"p": modp, "cutoff": cutoff, "rows": rows, "ok": ok})
    if not ok:
        sys.exit(1)


def _fgl_args(add):
    add("--exp", dest="exp_file", required=True, type=_file, metavar="FILE",
        help='JSON file {"order": N, "coefficients": {"1": "1", ...}} giving '
             "the exponential's T-coefficients.")


def fgl(obj, exp_file):
    """Check the formal-group-law axioms of a user-supplied exponential
    and print its logarithm; exits nonzero if any axiom fails."""
    from .grouplaw import GroupLaw
    from .series import TruncatedSeries
    try:
        data = json.loads(exp_file.read_text())
        order, raw = data["order"], data["coefficients"]
        # int() and Fraction() would take a float or a bool as some other
        # number, so only JSON integers and rational strings pass
        if type(order) is not int or any(type(v) not in (int, str)
                                         for v in raw.values()):
            raise TypeError("the order must be a JSON integer and each "
                            "coefficient an integer or a rational string")
        coeffs = {int(k): Fraction(v) for k, v in raw.items()}
    except (ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError, RecursionError) as e:
        raise UsageError(f"invalid exponential file: {e}") from e
    _require(1 <= order <= _MAX_LAW_ORDER,
             f"law order is capped at {_MAX_LAW_ORDER} (desk scale)")
    _require(all(1 <= k <= order for k in coeffs),
             "coefficient keys must be T-exponents in [1, order]")
    law = GroupLaw(TruncatedSeries.univariate("T", coeffs, order))
    axioms = {
        "unit": law.unit_residuals().is_zero(),
        "commutativity": law.commutativity_residual().is_zero(),
        "associativity": law.associativity_residual().is_zero(),
        "inverse": law.inverse_residual().is_zero(),
    }
    log = law.logarithm()
    ok = all(axioms.values())
    _emit(obj["fmt"], "fgl",
          pretty=[f"order: {order}"]
          + [f"{name}: {'pass' if good else 'FAIL'}"
             for name, good in axioms.items()]
          + [f"logarithm: {log!r}"],
          obj={"order": order, "axioms": axioms,
               "logarithm": {str(k): str(log.coefficient(k))
                             for k in range(1, order + 1)
                             if log.coefficient(k)}})
    if not ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# analytic commands
# ---------------------------------------------------------------------------

def _ml_args(add):
    add("--alpha", required=True, help="Index in (0, 2), e.g. 0.5.")
    add("--z", dest="z_str", required=True, metavar="Z",
        help="Evaluation point; imaginary unit written i (e.g. 10i).")
    add("--compare-asymptotic", action="store_true",
        help="Also evaluate the divergent tail and check agreement within "
             "the two reported error budgets.")
    add("--n-terms", type=int,
        help="Fixed tail length (default: optimal truncation).")


def ml(obj, alpha, z_str, compare_asymptotic, n_terms):
    """Evaluate the interpolating exponential at one point, optionally
    cross-checked against its asymptotic expansion."""
    from .analytic import ml_asymptotic, ml_exp
    a = _parse_scalar(alpha, "--alpha")
    z = _parse_complex(z_str)
    s = ml_exp(a, z)
    pretty = [f"series    : value={s.value!r} error={s.error!r} "
              f"terms={s.terms} method={s.method}"]
    obj_out = {"alpha": str(a), "z": repr(z),
               "series": {"value": _jsonify_value(s.value), "error": s.error,
                          "terms": s.terms, "method": s.method}}
    header = ["alpha", "z", "value", "error", "method", "terms"]
    row = [str(a), repr(z), repr(s.value), repr(s.error), s.method, s.terms]
    ok = True
    if compare_asymptotic:
        t = ml_asymptotic(a, z, n_terms)
        diff = abs(s.value - t.value)
        bound = s.error + t.error
        ok = diff <= bound
        pretty += [f"asymptotic: value={t.value!r} error={t.error!r} "
                   f"terms={t.terms} method={t.method}",
                   f"difference: {diff!r} bound: {bound!r} "
                   f"within bound: {'yes' if ok else 'NO'}"]
        obj_out["asymptotic"] = {"value": _jsonify_value(t.value),
                                 "error": t.error, "terms": t.terms,
                                 "method": t.method}
        obj_out["difference"] = diff
        obj_out["bound"] = bound
        obj_out["within_bound"] = ok
        header = ["alpha", "z", "series", "series_error", "asymptotic",
                  "asymptotic_error", "difference", "bound", "within"]
        row = [str(a), repr(z), repr(s.value), repr(s.error),
               repr(t.value), repr(t.error), repr(diff), repr(bound),
               "yes" if ok else "no"]
    _emit(obj["fmt"], "ml", pretty=pretty, obj=obj_out,
          rows=(header, [row]))
    if not ok:
        sys.exit(1)


def _epsilon_table_args(add):
    add("--x-min", type=float, default=1.0, help="(default: 1.0)")
    add("--x-max", type=float, default=1e6, help="(default: 1e6)")
    add("--points", type=int, default=25, help="(default: 25)")
    add("--log", dest="log_spacing", action="store_true", default=True,
        help="Geometric grid spacing (the default).")
    add("--linear", dest="log_spacing", action="store_false",
        help="Arithmetic grid spacing.")
    add("--output", type=_file, metavar="FILE",
        help="Write to a file instead of stdout.")


def epsilon_table(obj, x_min, x_max, points, log_spacing, output):
    """CSV table of the scaled-window integral: both evaluation lanes and
    the honest error bound at each grid point (for external plotters).
    This command always emits CSV, whatever --format says."""
    from .analytic import write_epsilon_csv
    _require(2 <= points <= _MAX_POINTS,
             f"--points must be in [2, {_MAX_POINTS}]")
    _require(math.isfinite(x_min), "--x-min must be finite")
    _require(math.isfinite(x_max), "--x-max must be finite")
    _require(x_min < x_max, "--x-min must be below --x-max")
    if log_spacing:
        _require(x_min > 0, "log spacing needs --x-min > 0")
        ratio = x_max / x_min
        xs = [x_min * ratio ** (i / (points - 1)) for i in range(points)]
    else:
        # in units of s = 2 only when the span overflows, so every other
        # grid keeps its points x_min + i*step
        s = 1.0 if math.isfinite(x_max - x_min) else 2.0
        step = (x_max / s - x_min / s) / (points - 1)
        xs = [(x_min / s + i * step) * s for i in range(points)]
        if s == 2.0:  # the top point can round past the largest double
            xs[-1] = x_max
    if output is None:
        buf = io.StringIO()
        write_epsilon_csv(buf, xs)
        print(buf.getvalue(), end="")
    else:
        with open(output, "w") as fh:
            write_epsilon_csv(fh, xs)
        if obj["verbosity"]:
            print(f"wrote {points} rows to {output}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Witt-vector commands
# ---------------------------------------------------------------------------

def _witt_from(coeffs: str, order: int | None, what: str) -> WittVector:
    from .witt import WittVector
    cs = _parse_list(coeffs, what, Fraction)
    n = order if order is not None else len(cs)
    _require(1 <= n <= _MAX_ORDER,
             f"truncation order must be in [1, {_MAX_ORDER}]")
    _require(len(cs) <= n, f"{what} has more coefficients than the order")
    return WittVector.from_coeffs({i + 1: c for i, c in enumerate(cs)}, n)


def _witt_vector_args(add):
    add("coeffs", metavar="COEFFS",
        help='The vector as its coefficient list "h1,h2,...".')
    add("--order", type=int,
        help="Truncation order (default: the list length).")


def witt_ghost(obj, coeffs, order):
    """Ghost coordinates of the vector COEFFS."""
    from .witt import ghost
    h = _witt_from(coeffs, order, "COEFFS")
    g = ghost(h)
    _emit(obj["fmt"], "witt ghost",
          pretty=[f"g{n} = {g[n]}" for n in range(1, h.order + 1)],
          obj={"order": h.order,
               "coefficients": [str(h.coefficient(i))
                                for i in range(1, h.order + 1)],
               "ghosts": [str(g[n]) for n in range(1, h.order + 1)]},
          rows=(["n", "ghost"],
                [[n, str(g[n])] for n in range(1, h.order + 1)]))


def _witt_mul_args(add):
    add("left", metavar="LEFT")
    add("right", metavar="RIGHT")


def witt_mul_cmd(obj, left, right):
    """Product of two vectors in the diagonalized ring structure."""
    from .witt import witt_mul
    a = _witt_from(left, None, "LEFT")
    b = _witt_from(right, None, "RIGHT")
    _require(a.order == b.order,
             "LEFT and RIGHT must have the same number of coefficients")
    prod = witt_mul(a, b)
    cs = [prod.coefficient(i) for i in range(1, prod.order + 1)]
    _emit(obj["fmt"], "witt mul",
          pretty=[f"h{i} = {c}" for i, c in enumerate(cs, start=1)]
          + [f"integral: {'yes' if prod.is_integral() else 'no'}"],
          obj={"order": prod.order, "coefficients": [str(c) for c in cs],
               "integral": prod.is_integral()},
          rows=(["i", "coefficient"],
                [[i, str(c)] for i, c in enumerate(cs, start=1)]))


def witt_qcheck(obj, coeffs, order):
    """Square-free parity criterion h(-T) = h(T)^(-1); exits nonzero
    with the residual when it fails."""
    from .witt import q_subfunctor_check
    h = _witt_from(coeffs, order, "COEFFS")
    w = q_subfunctor_check(h)
    pretty = [f"square-free parity: {'pass' if w.ok else 'FAIL'}"]
    if not w.ok:
        pretty.append(f"residual: {w.residual!r}")
    _emit(obj["fmt"], "witt qcheck", pretty=pretty,
          obj={"ok": w.ok, "residual": None if w.ok else repr(w.residual)})
    if not w.ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# vertex-operator commands
# ---------------------------------------------------------------------------

def _voa_y_check_args(add):
    add("--b", dest="b_str", required=True, metavar="B",
        help="First element (p/h mini-grammar).")
    add("--bprime", dest="bp_str", required=True, metavar="BPRIME",
        help="Second element (p/h mini-grammar).")
    add("--window", type=int, default=6,
        help="Compare mode entries for |z-exponent| up to this (default: 6).")
    add("--weight-cap", type=int, default=6, help="(default: 6)")
    add("--t", dest="t_str", default="0", metavar="T",
        help="Deformation parameter (rational; default: 0).")


def voa_y_check(obj, b_str, bp_str, window, weight_cap, t_str):
    """Multiplicativity of the operator assignment on a product of two
    elements, compared entry by entry inside the window.  Exits nonzero
    on failure and on an inconclusive (contentless) window."""
    from .witt import Y_multiplicativity_check
    _require(1 <= weight_cap <= _MAX_VOA_CAP,
             f"--weight-cap must be in [1, {_MAX_VOA_CAP}]")
    _require(window >= 0, "--window must be nonnegative")
    _require(window <= _MAX_VOA_WINDOW,
             f"--window is capped at {_MAX_VOA_WINDOW}")
    b = parse_p_expr(b_str, "--b")
    bp = parse_p_expr(bp_str, "--bprime")
    t = _parse_scalar(t_str, "--t")
    _require(isinstance(t, Fraction), "--t must be an exact rational")
    n = _mapped_monomials(b, bp, weight_cap)
    _require(n <= _MAX_VOA_MONOMIALS,
             f"--b, --bprime and their product have {n} monomials of degree "
             f"<= --weight-cap; the ceiling is {_MAX_VOA_MONOMIALS}")
    w = Y_multiplicativity_check(b, bp, weight_cap=weight_cap,
                                 window=(-window, window), t=t)
    pretty = [f"status: {w.status}", f"modes compared: {w.compared}"]
    if w.status == "inconclusive":
        pretty.append("window carries no content; widen it or raise the cap")
    for miss in w.mismatches[:3]:
        pretty.append(f"mismatch: {miss}")
    _emit(obj["fmt"], "voa y-check", pretty=pretty,
          obj={"status": w.status, "window": [-window, window],
               "weight_cap": weight_cap, "t": str(t),
               "modes_compared": w.compared,
               "mismatches": [str(m) for m in w.mismatches[:5]]})
    if not w.ok:
        sys.exit(1)


def _mapped_monomials(b: SparsePoly, bp: SparsePoly, cap: int) -> int:
    """The monomials of degree <= cap in b, b' and b*b', the ones whose
    operators the check forms (a product of more than cap operators
    vanishes through the cap).  b*b' is counted without cancellation, on
    coefficient-1 copies, and formed only if b and b' fit the ceiling."""
    from .rings import SparsePoly, UPS
    low = [SparsePoly(UPS, {m: 1 for m in p.monomials()
                            if sum(e for _, e in m) <= cap}) for p in (b, bp)]
    n = len(low[0].terms) + len(low[1].terms)
    prod = low[0] * low[1] if n <= _MAX_VOA_MONOMIALS else low[0] * 0
    return n + sum(sum(e for _, e in m) <= cap for m in prod.monomials())


def _voa_table_args(add):
    add("--n", type=int, required=True,
        help="Power-sum index of the operator.")
    add("--t", dest="t_str", default="0", metavar="T",
        help="(default: 0)")
    add("--weight-cap", type=int, default=6, help="(default: 6)")


def voa_table(obj, n, t_str, weight_cap):
    """Laurent-coefficient table of one power-sum operator."""
    from .witt import vertex_Y_powersum, vertex_table_obj
    _require(1 <= weight_cap <= _MAX_VOA_CAP,
             f"--weight-cap must be in [1, {_MAX_VOA_CAP}]")
    t = _parse_scalar(t_str, "--t")
    _require(isinstance(t, Fraction), "--t must be an exact rational")
    op = vertex_Y_powersum(n, t, weight_cap=weight_cap)
    table = vertex_table_obj(op)
    _emit(obj["fmt"], "voa table",
          pretty=[f"{z}: {_named_terms(entry)}"
                  for z, entry in table["coefficients"].items()],
          obj=table)


def _voa_closure_args(add):
    add("--n", type=int, required=True)
    add("--order", type=int, required=True,
        help="Root-of-unity order for the deformation parameter.")
    add("--weight-cap", type=int, default=8, help="(default: 8)")


def voa_closure(obj, n, order, weight_cap):
    """Does the operator stay inside the root-of-unity quotient?  Prime
    orders are computed on an exact cyclotomic table; composite orders
    use the divisibility criterion directly."""
    from .witt import closure_report
    _require(1 <= weight_cap <= _MAX_VOA_CAP,
             f"--weight-cap must be in [1, {_MAX_VOA_CAP}]")
    _require(order <= _MAX_ROOT_ORDER,
             f"--order is capped at {_MAX_ROOT_ORDER}")
    r = closure_report(n, order, weight_cap=weight_cap)
    _emit(obj["fmt"], "voa closure",
          pretty=[f"method: {r.method}",
                  "killed modes: " + (", ".join(str(m) for m in r.killed_modes)
                                      or "none"),
                  "leaking modes: " + (", ".join(str(m)
                                                 for m in r.leaking_modes)
                                       or "none"),
                  f"closure: {'pass' if r.ok else 'FAIL'}"],
          obj={"n": r.n, "order": r.order, "weight_cap": r.weight_cap,
               "method": r.method, "killed_modes": list(r.killed_modes),
               "leaking_modes": list(r.leaking_modes), "ok": r.ok})
    if not r.ok:
        sys.exit(1)


def _voa_lattice_args(add):
    add("--gram", dest="gram_file", required=True, type=_file, metavar="FILE",
        help='JSON Gram matrix ([[2]] or {"gram": [[2]]}).')
    add("--point", dest="point_str", required=True, metavar="POINT",
        help='Lattice point, e.g. "1,0".')
    add("--target", dest="target_str", metavar="TARGET",
        help="Sector of the vacuum state acted on (default: origin).")
    add("--weight-cap", type=int, default=4, help="(default: 4)")


def voa_lattice(obj, gram_file, point_str, target_str, weight_cap):
    """Action of a lattice vertex operator on a sector vacuum: emits the
    Laurent table and runs the grading audit (exit nonzero on
    violations)."""
    from .rings import SparsePoly
    from .witt import (LatticeFockElement, lattice_action_obj, lattice_apply,
                       lattice_from_json, lattice_grading_audit,
                       lattice_universe, vertex_Y_lattice)
    _require(1 <= weight_cap <= _MAX_VOA_CAP,
             f"--weight-cap must be in [1, {_MAX_VOA_CAP}]")
    lattice = lattice_from_json(gram_file.read_bytes())
    point = _parse_list(point_str, "--point")
    _require(len(point) == lattice.rank,
             f"--point needs {lattice.rank} coordinates")
    target = (_parse_list(target_str, "--target") if target_str
              else (0,) * lattice.rank)
    _require(len(target) == lattice.rank,
             f"--target needs {lattice.rank} coordinates")
    uni = lattice_universe(lattice.rank)
    state = LatticeFockElement(lattice,
                               {target: SparsePoly.const(uni, 1)})
    op = vertex_Y_lattice(point, lattice, weight_cap=weight_cap)
    applied = lattice_apply(op, state)
    violations = lattice_grading_audit(op, state, applied=applied)
    table = lattice_action_obj(op, state, applied=applied)
    audit = "clean" if not violations else f"{len(violations)} violations"
    pretty = [f"point: {point_str}", f"grading audit: {audit}"]
    pretty += [f"z^{e['z']} @ {tuple(e['component'])}: "
               f"{_named_terms(e['terms'])}" for e in table["entries"]]
    table["grading_audit"] = audit
    _emit(obj["fmt"], "voa lattice", pretty=pretty, obj=table)
    if violations:
        sys.exit(1)


# ---------------------------------------------------------------------------
# the command table and the entry point
# ---------------------------------------------------------------------------

# name -> (one-line summary, argument builder, run function); a name with a
# space is a subcommand of the group its first word names
COMMANDS = {
    "qreduce": ("Normal form of EXPR in the square-free basis.",
                _qreduce_args, qreduce),
    "qfunction": ("The orthogonal basis element of a strict PARTITION.",
                  _qfunction_args, qfunction),
    "inner": ("The canonical inner product of two expressions.",
              _inner_args, inner_cmd),
    "intersection": ("Closed intersection-number table, cached on disk.",
                     _intersection_args, intersection),
    "virasoro-check": ("Verify one bracket relation of the degree operators.",
                       _virasoro_check_args, virasoro_check),
    "kw": ("The genus attached to the square-free algebra.", _kw_args, kw),
    "fgl": ("Check the formal-group-law axioms of an exponential.",
            _fgl_args, fgl),
    "ml": ("Evaluate the interpolating exponential at one point.",
           _ml_args, ml),
    "epsilon-table": ("CSV table of the scaled-window integral.",
                      _epsilon_table_args, epsilon_table),
    "witt ghost": ("Ghost coordinates of the vector COEFFS.",
                   _witt_vector_args, witt_ghost),
    "witt mul": ("Product of two vectors in the diagonalized ring structure.",
                 _witt_mul_args, witt_mul_cmd),
    "witt qcheck": ("Square-free parity criterion h(-T) = h(T)^(-1).",
                    _witt_vector_args, witt_qcheck),
    "voa y-check": ("Multiplicativity of the operator assignment.",
                    _voa_y_check_args, voa_y_check),
    "voa table": ("Laurent-coefficient table of one power-sum operator.",
                  _voa_table_args, voa_table),
    "voa closure": ("Does the operator stay inside the root-of-unity "
                    "quotient?", _voa_closure_args, voa_closure),
    "voa lattice": ("Action of a lattice vertex operator on a sector vacuum.",
                    _voa_lattice_args, voa_lattice),
}
_GROUPS = {
    "": "Exact computations in the square-free symmetric-function algebra "
        "and its\nfriends: Virasoro constraints, intersection-number tables, "
        "the odd formal\ngroup law, special-function evaluations, Witt "
        "vectors, and vertex-operator\nchecks.",
    "witt": "Big-Witt vectors: ghost coordinates, product, parity check.",
    "voa": "Vertex operators: mode tables, products, closure, lattices.",
}


def _file(text: str) -> Path:
    """A file's path; a directory is refused."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return Path(text)


def _group_args(add):
    add("-f", "--format", dest="fmt", choices=("pretty", "json", "csv"),
        default="pretty", metavar="{pretty,json,csv}",
        help="Output rendering for stdout (default: pretty).")
    add("-v", "--verbose", dest="verbosity", action="count", default=0,
        help="Add diagnostic notes on stderr.")
    add("--cache-path", type=_file, metavar="FILE",
        help="Intersection-table cache file (default: "
             "$QGENUS_CACHE_DIR/intersection.json or "
             "~/.cache/qgenus/intersection.json).")


def _listing(group: str) -> str:
    """The help text of the group options (``group`` empty) or of a command
    group: its summary and the commands under it."""
    rows = {}
    for name, (summary, _, _) in COMMANDS.items():
        first, _, sub = name.partition(" ")
        if not group:
            rows[first] = _GROUPS[first] if sub else summary
        elif first == group:
            rows[sub] = summary
    width = max(map(len, rows))
    return "\n".join([_GROUPS[group], "", "commands:"] + [
        f"  {w:<{width}}  {text}" for w, text in rows.items()])


class _Command(argparse.ArgumentParser):
    """The parser of one command, or with ``listing`` of the group options
    or a command group.  ``read`` takes argv as the documented grammar
    does, where argparse alone would differ: an option that takes a value
    takes the next word, whatever it is (``--z -3i``); before ``--`` no
    other word that starts with '-' is a value (``witt ghost -3`` is
    refused, not read as a negative number); and of an option given twice
    only the last value is converted and checked."""

    def __init__(self, prog: str, description: str | None, build=None,
                 listing: bool = False):
        super().__init__(
            prog=prog, description=description, allow_abbrev=False,
            usage="%(prog)s [OPTIONS] COMMAND [ARGS]..." if listing else None,
            formatter_class=(argparse.RawDescriptionHelpFormatter if listing
                             else argparse.HelpFormatter))
        self.valued = set()  # option strings that take a value
        self.checks = []     # (action, type, choices) applied after parsing
        if build:
            build(self.add)

    def add(self, *names, type=None, choices=None, **kw):
        action = self.add_argument(*names, **kw)
        if action.nargs != 0:
            self.valued.update(action.option_strings)
        if type or choices:
            self.checks.append((action, type, choices))

    def read(self, words: list[str]) -> dict:
        joined, rest = [], iter(words)
        for word in rest:
            if word == "--":
                joined += [word, *rest]
            elif word in self.valued:
                value = next(rest, None)
                joined.append(word if value is None else f"{word}={value}")
            elif re.match(r"-[\d.]|-.* ", word):
                raise UsageError(f"no such option: {word}")
            else:
                joined.append(word)
        args = vars(self.parse_args(joined))
        for action, type_, choices in self.checks:
            value = args[action.dest]
            if not isinstance(value, str):  # a default, converted already
                continue
            name = "/".join(action.option_strings)
            try:
                args[action.dest] = value = type_(value) if type_ else value
            except (ValueError, argparse.ArgumentTypeError) as e:
                raise UsageError(f"argument {name}: invalid value "
                                 f"{value!r}: {e}") from None
            if choices and value not in choices:
                raise UsageError(f"argument {name}: invalid choice: {value!r} "
                                 f"(choose from {', '.join(choices)})")
        return args


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Run one command; raises SystemExit with its exit code (0 success,
    1 a check failed, 2 usage error, 3 internal error)."""
    words = list(sys.argv[1:] if args is None else args)
    prog = prog_name or "qgenus"
    parser = _Command(prog, _listing(""), _group_args, listing=True)
    head = []  # the group options and their values
    while words and words[0][:1] == "-" and words[0] not in ("-", "--"):
        head.append(words.pop(0))
        if words and (head[-1] in parser.valued
                      or re.fullmatch(r"-v+f", head[-1])):
            head.append(words.pop(0))  # "-f json", or "-vf json"
    words = words[words[:1] == ["--"]:]
    try:
        obj = parser.read(head)
        name = ""
        while name not in COMMANDS:
            if not words or words[0] in ("-h", "--help"):
                parser.print_help(None if words else sys.stderr)
                raise SystemExit(0 if words else 2)
            name = f"{name} {words.pop(0)}".lstrip()
            if name not in _GROUPS and name not in COMMANDS:
                raise UsageError(f"no such command: {name!r}")
            if name in _GROUPS:
                parser = _Command(f"{prog} {name}", _listing(name),
                                  listing=True)
        _, build, run = COMMANDS[name]
        parser = _Command(f"{prog} {name}", run.__doc__, build)
        run(obj, **parser.read(words))
    except (UsageError, DomainError, TruncationError, IncompatibleOperands,
            OSError, OverflowError) as e:  # a file; a float past range
        parser.error(str(e))
    except Exception as e:  # anything else is a bug, not bad input
        parser.exit(3, f"{parser.prog}: internal error: "
                       f"{type(e).__name__}: {e}\n")
    raise SystemExit(0)


if __name__ == "__main__":
    main()
