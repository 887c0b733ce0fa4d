"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of each qgenus layer.  A
span carries a name (``layer.part``), start, end, parent span and job id.
Spans are kept in memory and written out once, when the run ends; per-name
call counts, total time and self time (a span minus the time its direct
child spans cover) are accumulated as spans close, so the aggregate does
not depend on how many span records are kept.

Nothing here is imported by an untraced run, so an untraced run carries no
wrapper at all.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# (module, attribute path, span name).  A method is named "Class.method";
# every attribute of the class bound to the same function (``__rmul__ =
# __mul__``) gets the wrapper too.  A function is rebound in every module
# that holds it under any name.
TARGETS = [
    ("qgenus.rings", "SparsePoly.__mul__", "rings.mul"),
    ("qgenus.rings", "SparsePoly.__add__", "rings.add"),
    ("qgenus.rings", "SparsePoly.__sub__", "rings.add"),
    ("qgenus.rings", "SparsePoly.__rsub__", "rings.add"),
    ("qgenus.rings", "SparsePoly.__neg__", "rings.other"),
    ("qgenus.rings", "SparsePoly.__pow__", "rings.other"),
    ("qgenus.rings", "SparsePoly.__truediv__", "rings.other"),
    ("qgenus.rings", "SparsePoly.inv", "rings.other"),
    ("qgenus.rings", "SparsePoly.substitute", "rings.other"),
    ("qgenus.rings", "SparsePoly.differentiate", "rings.other"),
    ("qgenus.rings", "SparsePoly.weight_truncate", "rings.other"),
    ("qgenus.series", "TruncatedSeries.compose", "series.compose"),
    ("qgenus.series", "TruncatedSeries.substitute", "series.substitute"),
    ("qgenus.series", "TruncatedSeries.reversion", "series.reversion"),
    ("qgenus.series", "TruncatedSeries.exp", "series.exp_log"),
    ("qgenus.series", "TruncatedSeries.log", "series.exp_log"),
    ("qgenus.series", "TruncatedSeries.__mul__", "series.arith"),
    ("qgenus.series", "TruncatedSeries.__rmul__", "series.arith"),
    ("qgenus.series", "TruncatedSeries.__add__", "series.arith"),
    ("qgenus.series", "TruncatedSeries.__sub__", "series.arith"),
    ("qgenus.series", "TruncatedSeries.__pow__", "series.arith"),
    ("qgenus.series", "TruncatedSeries.inverse", "series.arith"),
    ("qgenus.grouplaw", "GroupLaw.law", "grouplaw.law"),
    ("qgenus.grouplaw", "GroupLaw.logarithm", "grouplaw.other"),
    ("qgenus.grouplaw", "GroupLaw.inverse_series", "grouplaw.other"),
    ("qgenus.grouplaw", "GroupLaw.associativity_residual", "grouplaw.residual"),
    ("qgenus.grouplaw", "GroupLaw.commutativity_residual", "grouplaw.residual"),
    ("qgenus.grouplaw", "GroupLaw.unit_residuals", "grouplaw.residual"),
    ("qgenus.grouplaw", "GroupLaw.inverse_residual", "grouplaw.residual"),
    ("qgenus.grouplaw", "genus_exponential", "grouplaw.other"),
    ("qgenus.grouplaw", "scalar_exponential", "grouplaw.other"),
    ("qgenus.grouplaw", "universal_exponential", "grouplaw.other"),
    ("qgenus.grouplaw", "projective_image", "grouplaw.other"),
    ("qgenus.grouplaw", "to_q_over_q1", "grouplaw.other"),
    ("qgenus.qfunctions", "q_reduce", "qfunctions.reduce"),
    ("qgenus.qfunctions", "QElement.__mul__", "qfunctions.qmul"),
    ("qgenus.qfunctions", "QElement.to_x", "qfunctions.to_q"),
    ("qgenus.qfunctions", "xpoly_to_q", "qfunctions.to_q"),
    ("qgenus.qfunctions", "x_in_q", "qfunctions.to_q"),
    ("qgenus.qfunctions", "q_in_x", "qfunctions.to_q"),
    ("qgenus.qfunctions", "coproduct", "qfunctions.hopf"),
    ("qgenus.qfunctions", "antipode", "qfunctions.hopf"),
    ("qgenus.qfunctions", "counit", "qfunctions.hopf"),
    ("qgenus.qfunctions", "QTensor.__mul__", "qfunctions.hopf"),
    ("qgenus.qfunctions", "classical_q", "qfunctions.other"),
    ("qgenus.qfunctions", "inner", "qfunctions.other"),
    ("qgenus.virasoro", "IntersectionTable.build_through", "virasoro.build"),
    ("qgenus.virasoro", "free_energy", "virasoro.tau"),
    ("qgenus.virasoro", "tau_series", "virasoro.tau"),
    ("qgenus.virasoro", "l_apply", "virasoro.l_apply"),
    ("qgenus.virasoro", "annihilation_check", "virasoro.other"),
    ("qgenus.witt", "vertex_Y_lattice", "witt.lattice"),
    ("qgenus.witt", "lattice_apply", "witt.lattice"),
    ("qgenus.witt", "lattice_grading_audit", "witt.lattice"),
    ("qgenus.witt", "vertex_Y_powersum", "witt.vertex"),
    ("qgenus.witt", "vertex_Y_element", "witt.vertex"),
    ("qgenus.witt", "vertex_apply", "witt.vertex"),
    ("qgenus.witt", "Y_multiplicativity_check", "witt.vertex"),
    ("qgenus.witt", "ghost", "witt.ghost"),
    ("qgenus.witt", "ghost_inverse", "witt.ghost"),
    ("qgenus.witt", "witt_mul", "witt.ghost"),
    ("qgenus.witt", "closure_report", "witt.closure"),
    ("qgenus.witt", "hl_q_gen", "witt.other"),
    ("qgenus.analytic", "epsilon_num", "analytic.eps_num"),
    ("qgenus.analytic", "epsilon_inverse", "analytic.eps_inverse"),
    ("qgenus.analytic", "ml_exp", "analytic.ml"),
    ("qgenus.analytic", "ml_asymptotic", "analytic.ml"),
    ("qgenus.analytic", "psi_hom_check", "analytic.other"),
    ("qgenus.analytic", "epsilon_rows", "analytic.other"),
    ("qgenus.cli", "_load_table", "cli.cache_read"),
    ("qgenus.cli", "_save_table", "cli.cache_write"),
]


class Recorder:
    """Collects spans while ``job`` is set; passes calls straight through
    while it is None (between jobs and while the oracle checks a result)."""

    def __init__(self, max_spans: int = 100_000):
        self.job = None
        self.max_spans = max_spans
        self.spans: list[tuple] = []     # (id, parent id, name, start, end, job)
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.under: Counter = Counter()   # (parent name, name) -> calls
        self.counts: Counter = Counter()  # layer-specific counts
        self.originals: dict[str, object] = {}
        self.top_level: Counter = Counter()  # layer -> s in spans with no parent
        self._stack: list[list] = []      # [id, name, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn, before=None, after=None):
        rec = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer = name.split(".")[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.job is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(rec, args)
            stack = rec._stack
            parent = stack[-1] if stack else None
            sid = rec._next_id
            rec._next_id = sid + 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    rec.under[(parent[1], name)] += 1
                else:
                    rec.top_level[layer] += dur
                if len(rec.spans) < rec.max_spans:
                    rec.spans.append((sid, parent[0] if parent else None,
                                      name, start, end, rec.job))
                else:
                    rec.dropped += 1
            if after is not None:
                after(rec, args, out)
            return out

        return wrapper

    def summary(self) -> dict:
        return {"stats": self.stats,
                "under": {f"{p}>{c}": n for (p, c), n in self.under.items()},
                "counts": {k: v for k, v in self.counts.items()
                           if not k.startswith("_")},
                "top_level": dict(self.top_level),
                "spans_kept": len(self.spans), "spans_dropped": self.dropped}

    def write(self, path) -> None:
        """Write every kept span, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- layer-specific counts -------------------------------------------------

def _count_terms(rec, args, out):
    terms = getattr(out, "terms", None)
    if isinstance(terms, dict):
        rec.counts["rings.terms_out"] += len(terms)


def _reduce_hit(rec, args):
    parts = args[0] if args else None
    if not isinstance(parts, (tuple, list)):   # never consume an iterator
        return
    memo = getattr(sys.modules["qgenus.qfunctions"], "_REDUCE_MEMO", {})
    target = tuple(sorted((p for p in parts if p != 0), reverse=True))
    rec.counts["qfunctions.reduce_lookups"] += 1
    if target in memo:
        rec.counts["qfunctions.reduce_hits"] += 1


def _table_size_before(rec, args):
    rec.counts["_table_before"] = len(args[0].values)


def _table_size_after(rec, args, out):
    rec.counts["virasoro.entries_built"] += (len(args[0].values)
                                             - rec.counts.pop("_table_before"))


def _inverse_steps(rec, args, out):
    rec.counts["analytic.eps_inverse_steps"] += out.terms


def _q_in_x_before(rec, args):
    rec.counts["_q_in_x_hits"] = rec.originals["q_in_x"].cache_info().hits


def _q_in_x_after(rec, args, out):
    hit = rec.originals["q_in_x"].cache_info().hits > rec.counts.pop("_q_in_x_hits")
    rec.counts["qfunctions.q_in_x_hits" if hit else "qfunctions.q_in_x_misses"] += 1


# (module, attribute path) -> (before, after): counts taken at the boundary
HOOKS = {
    ("qgenus.rings", "SparsePoly.__mul__"): (None, _count_terms),
    ("qgenus.rings", "SparsePoly.__add__"): (None, _count_terms),
    ("qgenus.rings", "SparsePoly.__sub__"): (None, _count_terms),
    ("qgenus.rings", "SparsePoly.__rsub__"): (None, _count_terms),
    ("qgenus.qfunctions", "q_reduce"): (_reduce_hit, None),
    ("qgenus.qfunctions", "q_in_x"): (_q_in_x_before, _q_in_x_after),
    ("qgenus.virasoro", "IntersectionTable.build_through"):
        (_table_size_before, _table_size_after),
    ("qgenus.analytic", "epsilon_inverse"): (None, _inverse_steps),
}


def install(rec: Recorder, extra_modules=()) -> None:
    """Wrap every target, patching each module binding of each function."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qgenus" or name.startswith("qgenus."))]
    modules += list(extra_modules)
    for modname, path, span in TARGETS:
        module = sys.modules.get(modname)
        if module is None:
            continue
        before, after = HOOKS.get((modname, path), (None, None))
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapper = rec.wrap(span, original, before, after)
            for name, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, name, wrapper)
        else:
            original = getattr(module, path)
            if not callable(original) or inspect.isclass(original):
                raise TypeError(f"{modname}.{path} is not a function")
            rec.originals[path] = original
            wrapper = rec.wrap(span, original, before, after)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
