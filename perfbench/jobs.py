"""Seeded job lists for the four workloads, and the oracle for every job.

A run is a sequence of rounds.  Every round of a workload holds the same
multiset of job kinds; the seed draws each job's parameters and the order
of the jobs inside the round.  Whole rounds are run, so every run measures
the same mix whatever its length, and a second seed changes the inputs
but not the mix.

Each job kind has three parts: ``prepare`` (untimed: files and cache state
the job needs), ``run`` (timed: the computation a user waits for) and
``check`` (untimed: an oracle that returns None, or a message naming what
is wrong).  Oracles are independent routes that already exist in the
library (Lagrange reversion, the genus-0 closed form, the string equation,
ghost coordinates, 50-digit mpmath) or fixed copies of expected CLI output.

Known defects of the library are not job checks but audits (``audit``):
probed once per run after the timed jobs and reported beside the result.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from qgenus import analytic, grouplaw, qfunctions, virasoro, witt
from qgenus.rings import SparsePoly, UPS, UX
from qgenus.series import TruncatedSeries, lagrange_reversion_coefficient

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Job:
    kind: str
    params: tuple

    def spec(self) -> list:
        return [self.kind, list(self.params)]


def _frac(rng: random.Random, height: int = 3) -> str:
    return str(Fraction(rng.randint(-height, height), rng.randint(1, height)))


# ---------------------------------------------------------------------------
# the mix of each workload: one round, drawn from the round's own generator
# ---------------------------------------------------------------------------

def _laws_round(rng: random.Random) -> list[Job]:
    jobs = [Job("genus_assoc", (n,)) for n in (4, 5, 6, 7, 7, 7)]
    jobs += [Job("genus_axiom8", (axiom,))
             for axiom in ("commutativity", "unit", "inverse")]
    jobs += [Job("rational_law", tuple(_frac(rng) for _ in range(7)))
             for _ in range(3)]
    jobs += [Job("scalar_reversion", (order, rng.randint(2, order)))
             for order in (24, 28, 32)]
    jobs += [Job("universal_reversion", (order, rng.randint(2, 6)))
             for order in (8, 10)]
    # many cheap round trips, so that the median job falls inside one dense
    # cluster rather than between sparse job kinds
    jobs += [Job("exp_log", tuple(_frac(rng) for _ in range(order)))
             for order in (20, 24, 28) for _ in range(10)]
    return jobs


# Strict partitions fed to the q-algebra jobs, most popular first.  The
# order is fixed, not seeded, so that every seed draws from the same skewed
# distribution and a run's cost does not hinge on which inputs are common.
_Q_POOL = [lam for w in range(4, 10)
           for lam in qfunctions.strict_partitions(w) if len(lam) >= 2]
random.Random(0).shuffle(_Q_POOL)
_Q_WEIGHTS = [1.0 / (rank + 1) ** 1.2 for rank in range(len(_Q_POOL))]


# Points of the rank-2 lattice whose operators cost about the same to build,
# so that the seed does not change a run's cost.
_LATTICE_POINTS = ((2, -1), (1, 0), (0, 1))


def _closure_params(rng: random.Random, cap: int) -> tuple:
    n = rng.randint(1, 4)
    order = rng.choice([p for p in (2, 3, 5, 7) if n % p])
    return n, order, cap


def _tables_round(rng: random.Random) -> list[Job]:
    jobs = [Job("table", (d, rng.randrange(1 << 30))) for d in (10, 11, 12, 13)]
    jobs += [Job("annihilation", (n, rng.randint(6, 10))) for n in (-1, 0, 1, 2)]
    jobs += [Job("projective", (n,)) for n in (4, 5, 6, 7, 8)]
    # the skew makes a share of the q-algebra inputs repeat
    jobs += [Job("qfamily", tuple(lam)) for lam in rng.choices(_Q_POOL, _Q_WEIGHTS, k=24)]
    jobs += [Job("lattice", (cap, rng.choice(_LATTICE_POINTS))) for cap in (4, 5, 6, 7, 8)]
    jobs += [Job("hl", (rng.choice((-1, 2, 3, "1/2")), rng.randint(8, 12)))
             for _ in range(2)]
    jobs += [Job("closure", _closure_params(rng, 8)) for _ in range(2)]
    # Cheap Witt products of like cost make up half the jobs, so the median
    # job falls inside their cluster; the q-algebra jobs above cost from 1 to
    # 20 ms depending on which inputs repeat, too uneven to hold a median.
    jobs += [Job("witt_mul", (tuple(rng.randint(-3, 3) for _ in range(12)),
                              tuple(rng.randint(-3, 3) for _ in range(12))))
             for _ in range(48)]
    return jobs


# ml_asymptotic(1/2, iy) raises ZeroDivisionError for |y| > 12.115 (z**-n
# underflows to zero before the optimal truncation point); the timed jobs
# stay below that and the float audit keeps probing beyond it.
ML_AXIS_MAX = 12.0


def _float_round(rng: random.Random) -> list[Job]:
    # every grid mixes y < 1, y near 1 (x near 0) and y > 1
    jobs = [Job("eps_inverse", tuple(
        [rng.uniform(0.02, 0.98) for _ in range(4)]
        + [1.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-9, -2) for _ in range(4)]
        + [rng.uniform(1.02, 4.0) for _ in range(4)])) for _ in range(3)]
    jobs += [Job("eps_overlap", tuple(rng.uniform(20.0, 40.0) for _ in range(40)))
             for _ in range(2)]
    jobs += [Job("ml_axis", tuple(rng.choice((-1, 1)) * rng.uniform(8.0, ML_AXIS_MAX)
                                  for _ in range(40)))]
    jobs += [Job("psi_hom", tuple((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
                                  for _ in range(6)))]
    lo = rng.uniform(0.5, 2.0)
    jobs += [Job("eps_rows", (lo, lo * 10 ** rng.uniform(4.0, 6.0), 400))]
    return jobs


_README = json.loads((DATA / "readme_examples.json").read_text())
_CLI_EXPECTED = json.loads((DATA / "cli_expected.json").read_text())
_YCHECK = ("p1", "p2", "p3", "h2", "p1*p2")


def _cli_round(rng: random.Random) -> list[Job]:
    jobs = [Job("readme", (i,)) for i in range(len(_README))]
    jobs += [Job("cli_fixed", ("kw", "--cpn", str(n))) for n in (6, 7, 8)]
    # cap 7 runs three times per format: the tail percentile then falls
    # among many samples of one command instead of between single jobs
    jobs += [Job("cli_fixed", ("-f", fmt, "voa", "lattice", "--gram", "@gram",
                               "--point", "1,1", "--weight-cap", str(cap)))
             for cap in (6, 7, 7, 7, 8) for fmt in ("pretty", "json")]
    jobs += [Job("cli_integrality", (24,)),
             Job("cli_epsilon_table", (round(rng.uniform(0.5, 2.0), 3), 2000))]
    for _ in range(2):
        jobs += [Job("cli_modp", (rng.choice((3, 5, 7, 11, 13)),)),
                 Job("cli_fgl", tuple(_frac(rng) for _ in range(7))),
                 Job("cli_closure", _closure_params(rng, rng.randint(6, 8))),
                 Job("cli_ycheck", (rng.choice(_YCHECK), rng.choice(_YCHECK))),
                 Job("cli_witt_mul", tuple(",".join(str(rng.randint(-3, 3))
                                                    for _ in range(6))
                                           for _ in range(2))),
                 Job("cli_witt_ghost", (",".join(str(rng.randint(-3, 3))
                                                 for _ in range(8)),))]
    jobs += [Job("cli_intersection", (state, fmt))
             for state in ("cold", "warm", "corrupt")
             for fmt in ("pretty", "json")]
    return jobs


ROUNDS = {"laws": _laws_round, "tables": _tables_round,
          "float": _float_round, "cli": _cli_round}


def rounds(workload: str, seed: int):
    """The job list, one round at a time, without end; round r depends only
    on (workload, seed, r) and is shuffled by its own generator."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    r = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{r}")
        jobs = ROUNDS[workload](rng)
        rng.shuffle(jobs)
        yield jobs
        r += 1


def digest(rounds: list[list[Job]]) -> str:
    text = json.dumps([[j.spec() for j in rnd] for rnd in rounds])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def q_input(job: Job):
    """The q-algebra input of a job, for the repeat share (None if none)."""
    if job.kind == "qfamily":
        return job.params
    if job.kind == "readme" and _README[job.params[0]]["argv"][0] in (
            "qreduce", "qfunction", "inner"):
        return tuple(_README[job.params[0]]["argv"])
    return None


# ---------------------------------------------------------------------------
# run and check, per kind
# ---------------------------------------------------------------------------

def _law_of(coeffs, order: int) -> grouplaw.GroupLaw:
    data = {1: Fraction(1)}
    data.update({k + 2: Fraction(c) for k, c in enumerate(coeffs) if Fraction(c)})
    return grouplaw.GroupLaw(TruncatedSeries.univariate("T", data, order))


def _check_log(law: grouplaw.GroupLaw, log: TruncatedSeries, ks) -> str | None:
    for k in ks:
        want = lagrange_reversion_coefficient(law.exponential, k)
        if log.coefficient(k) != want:
            return f"log coefficient T^{k}: {log.coefficient(k)} != Lagrange {want}"
    return None


def _run_genus_assoc(ctx, n):
    return grouplaw.genus_exponential(n).associativity_residual().is_zero()


def _run_genus_axiom8(ctx, axiom):
    law = grouplaw.genus_exponential(8)
    residual = {"commutativity": law.commutativity_residual,
                "unit": law.unit_residuals,
                "inverse": law.inverse_residual}[axiom]()
    return residual.is_zero()


def _is_true(ctx, job, out):
    return None if out is True else f"residual is not zero ({out!r})"


def _run_rational_law(ctx, *coeffs):
    law = _law_of(coeffs, 8)
    axioms = (law.unit_residuals().is_zero(),
              law.commutativity_residual().is_zero(),
              law.associativity_residual().is_zero(),
              law.inverse_residual().is_zero())
    return axioms, law.logarithm()


def _check_rational_law(ctx, job, out):
    axioms, log = out
    if not all(axioms):
        return f"axioms (unit, comm, assoc, inverse) = {axioms}"
    return _check_log(_law_of(job.params, 8), log, range(2, 9))


def _run_scalar_reversion(ctx, order, k):
    return grouplaw.scalar_exponential(order).logarithm()


def _check_scalar_reversion(ctx, job, out):
    order, k = job.params
    return _check_log(grouplaw.scalar_exponential(order), out, (k, order))


def _run_universal_reversion(ctx, order, k):
    return grouplaw.universal_exponential(order).logarithm()


def _check_universal_reversion(ctx, job, out):
    order, k = job.params
    return _check_log(grouplaw.universal_exponential(order), out, (k,))


def _exp_log_series(coeffs) -> TruncatedSeries:
    return TruncatedSeries.univariate(
        "T", {k + 1: Fraction(c) for k, c in enumerate(coeffs)}, len(coeffs))


def _run_exp_log(ctx, *coeffs):
    return _exp_log_series(coeffs).exp().log()


def _check_exp_log(ctx, job, out):
    if out != _exp_log_series(job.params):
        return "log(exp(s)) != s"
    return None


def _run_table(ctx, d, sample_seed):
    return virasoro.IntersectionTable().build_through(d)


def _check_table(ctx, job, table):
    d, sample_seed = job.params
    if table.complete_through != d:
        return f"table complete through {table.complete_through}, asked {d}"
    with_zero = []
    for K, v in table.entries():
        if virasoro.genus_of(K) == 0 and v != virasoro.genus_zero_closed_form(K):
            return f"genus-0 entry {K} = {v}, closed form disagrees"
        if K and K[0] >= 1 and K != (3,):
            with_zero.append(K)
    for K in random.Random(sample_seed).sample(sorted(with_zero), 5):
        if table.value(K) != virasoro.string_oracle(table, K):
            return f"entry {K} disagrees with the string equation"
    return None


def _run_annihilation(ctx, n, w):
    return virasoro.annihilation_check(n, w)


def _check_annihilation(ctx, job, report):
    return None if report.ok else f"not annihilated: {report}"


def _run_projective(ctx, n):
    p = grouplaw.projective_image(n)
    a, e = grouplaw.to_q_over_q1(p)
    return p, a, e


def _check_projective(ctx, job, out):
    p, a, e = out
    if e.to_x() != p * SparsePoly.gen(UX, 0, a) * Fraction(2) ** a:
        return f"E.to_x() != p*(2x0)^{a}"
    return None


def _run_qfamily(ctx, *lam):
    q = qfunctions.classical_q(lam)
    return q, qfunctions.inner(q, q), qfunctions.coproduct(q), qfunctions.antipode(q)


def _check_qfamily(ctx, job, out):
    q, norm, cop, s = out
    lam = job.params
    if norm != 2 ** len(lam):
        return f"<Q,Q> = {norm}, expected {2 ** len(lam)}"
    if s != (-1) ** sum(lam) * q:
        return "S(Q) != (-1)^|lambda| Q for a homogeneous Q"
    total = qfunctions.QElement.zero()
    for (left, right), c in cop.terms.items():
        total = total + (qfunctions.antipode(qfunctions.QElement({left: c}))
                         * qfunctions.QElement({right: 1}))
    if total != qfunctions.QElement({(): qfunctions.counit(q)}):
        return "m(S x id)coproduct(Q) != counit(Q)"
    return None


_GRAM = witt.LatticeData(((2, 1), (1, 2)))


def _lattice_state():
    uni = witt.lattice_universe(_GRAM.rank)
    return witt.LatticeFockElement(_GRAM, {(0, 0): SparsePoly.const(uni, 1)})


def _run_lattice(ctx, cap, point):
    op = witt.vertex_Y_lattice(point, _GRAM, weight_cap=cap)
    return witt.lattice_grading_audit(op, _lattice_state())


def _check_lattice(ctx, job, violations):
    return f"{len(violations)} grading violations" if violations else None


def _run_hl(ctx, t, order):
    return witt.hl_q_gen(Fraction(t), order)


def _check_hl(ctx, job, h):
    # log h = sum (1 - t^n) p_n T^n / n, so the n-th ghost coordinate is
    # (-1)^(n-1) (1 - t^n) p_n.
    t, order = Fraction(job.params[0]), job.params[1]
    g = witt.ghost(h)
    for n in range(1, order + 1):
        want = SparsePoly.gen(UPS, n) * ((-1) ** (n - 1) * (1 - t ** n))
        if g[n] != want:
            return f"ghost g{n} = {g[n]}, expected {want}"
    return None


def _run_closure(ctx, n, order, cap):
    return witt.closure_report(n, order, weight_cap=cap)


def _check_closure(ctx, job, report):
    return None if report.ok else f"leaking modes {report.leaking_modes}"


def _run_witt_mul(ctx, a, b):
    return witt.witt_mul(witt.WittVector.from_coeffs(a, len(a)),
                         witt.WittVector.from_coeffs(b, len(b)))


def _check_witt_mul(ctx, job, out):
    a, b = (witt.WittVector.from_coeffs(v, len(v)) for v in job.params)
    ga, gb, go = witt.ghost(a), witt.ghost(b), witt.ghost(out)
    for n in range(1, len(job.params[0]) + 1):
        if go[n] != ga[n] * gb[n]:
            return f"ghost g{n} of the product != product of ghosts"
    return None if out.is_integral() else "product of integral vectors is not integral"


def _eps_mp(y: float, guess: float) -> tuple[float, float]:
    """The root of eps(x) = y to 50 digits, from eps(x) = 1F1(1; 3/2; -x/2),
    and eps'(x) there."""
    import mpmath  # imported here: only the oracle needs it, not set-up
    with mpmath.workdps(50):
        x = mpmath.findroot(
            lambda x: mpmath.hyp1f1(1, mpmath.mpf(3) / 2, -x / 2) - mpmath.mpf(y),
            mpmath.mpf(guess))
        slope = -mpmath.hyp1f1(2, mpmath.mpf(5) / 2, -x / 2) / 3
        return float(x), float(slope)


def _ml_half_mp(y: float) -> complex:
    """exp_{1/2}(iy) = exp(z^2) erfc(-z) at z = iy, to 50 digits."""
    import mpmath
    with mpmath.workdps(50):
        z = mpmath.mpc(0, y)
        return complex(mpmath.exp(z * z) * mpmath.erfc(-z))


def _run_eps_inverse(ctx, *ys):
    return [analytic.epsilon_inverse(y) for y in ys]


def _check_eps_inverse(ctx, job, outs):
    for i, (y, inv) in enumerate(zip(job.params, outs)):
        # eps decreases, so y must lie between eps(x + err) and eps(x - err)
        hi = analytic.epsilon_num(inv.value - inv.error)
        lo = analytic.epsilon_num(inv.value + inv.error)
        if not lo.value - lo.error <= y <= hi.value + hi.error:
            return f"eps(eps_inverse({y!r})) misses y within the reported error"
        if i < 2:   # fixed subsample: the first two of every grid
            # x must be the root to within the bisection width plus what
            # eps's own reported error resolves at x; whether the reported
            # error alone covers the distance is the float audit's question
            x_ref, slope = _eps_mp(y, inv.value)
            allowed = inv.error + analytic.epsilon_num(inv.value).error / abs(slope)
            if abs(inv.value - x_ref) > allowed:
                return (f"eps_inverse({y!r}) = {inv.value!r} is "
                        f"{abs(inv.value - x_ref):.3g} from the 50-digit root, "
                        f"allowed {allowed:.3g}")
    return None


def _run_eps_overlap(ctx, *xs):
    return [(analytic.epsilon_num(x, "series"), analytic.epsilon_num(x, "asymptotic"))
            for x in xs]


def _check_eps_overlap(ctx, job, outs):
    for x, (ser, asy) in zip(job.params, outs):
        if abs(ser.value - asy.value) > ser.error + asy.error:
            return f"eps lanes disagree at x = {x!r} beyond their error sum"
    return None


def _run_ml_axis(ctx, *ys):
    return [(analytic.ml_exp(0.5, complex(0, y)),
             analytic.ml_asymptotic(0.5, complex(0, y))) for y in ys]


# Both lanes must give exp_{1/2}(iy) to 13 digits.  Doubles carry 15-16, so a
# wrong term, sign or branch misses by orders of magnitude; whether each
# lane's reported error covers its true error is the float audit's question.
ML_VALUE_RTOL = 1e-13


def _check_ml_axis(ctx, job, outs):
    for y, lanes in zip(job.params, outs):
        ref = _ml_half_mp(y)
        for name, lane in zip(("ml_exp", "ml_asymptotic"), lanes):
            if abs(lane.value - ref) > ML_VALUE_RTOL * abs(ref):
                return (f"{name}(1/2, {y!r}i) is {abs(lane.value - ref):.3g} from "
                        f"the 50-digit value {ref!r}")
    return None


def _run_psi_hom(ctx, *pairs):
    return [analytic.psi_hom_check(x, y) for x, y in pairs]


def _check_psi_hom(ctx, job, outs):
    bad = [(w.x, w.y) for w in outs if not w.ok]
    return f"psi is not multiplicative at {bad}" if bad else None


def _eps_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _run_eps_rows(ctx, lo, hi, n):
    return analytic.epsilon_rows(_eps_grid(lo, hi, n))


def _check_eps_rows(ctx, job, rows):
    if len(rows) != job.params[2]:
        return f"{len(rows)} rows, expected {job.params[2]}"
    for row in rows:
        ser, asy = row["series"], row["asymptotic"]
        if ser and asy and abs(ser.value - asy.value) > row["bound"]:
            return f"eps lanes disagree beyond the bound at x = {row['x']!r}"
    return None


# -- CLI jobs -----------------------------------------------------------------

@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    timed_out: bool
    cache_dir: Path | None = None


def _prepare_cli(ctx, job: Job):
    """Files and cache state a CLI job needs: (argv, cache dir or None)."""
    if job.kind == "readme":
        return list(_README[job.params[0]]["argv"]), None
    if job.kind == "cli_fixed":
        return [ctx.gram_file if a == "@gram" else a for a in job.params], None
    if job.kind == "cli_integrality":
        return ["kw", "--integrality", str(job.params[0])], None
    if job.kind == "cli_modp":
        return ["kw", "--modp", str(job.params[0])], None
    if job.kind == "cli_fgl":
        path = ctx.tmp / "exponential.json"
        coeffs = {"1": "1", **{str(k + 2): c for k, c in enumerate(job.params)}}
        path.write_text(json.dumps({"order": 8, "coefficients": coeffs}))
        return ["-f", "json", "fgl", "--exp", str(path)], None
    if job.kind == "cli_closure":
        n, order, cap = job.params
        return ["voa", "closure", "--n", str(n), "--order", str(order),
                "--weight-cap", str(cap)], None
    if job.kind == "cli_ycheck":
        return ["voa", "y-check", "--b", job.params[0], "--bprime",
                job.params[1], "--window", "6"], None
    if job.kind == "cli_witt_mul":
        return ["witt", "mul", "--", *job.params], None
    if job.kind == "cli_witt_ghost":
        return ["witt", "ghost", "--", job.params[0]], None
    if job.kind == "cli_epsilon_table":
        x_min, points = job.params
        return ["epsilon-table", "--x-min", str(x_min), "--points", str(points)], None
    if job.kind == "cli_intersection":
        state, fmt = job.params
        d = ctx.tmp / "cache" / "intersection"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        if state == "warm":
            (d / "intersection.json").write_text(ctx.warm_table)
        elif state == "corrupt":
            (d / "intersection.json").write_text('{"format": "intersection-table/1", "values": [')
        return ["-f", fmt, "intersection", "--max-weight", "13"], d
    raise ValueError(f"not a CLI job: {job.kind}")


def _expect_lines(out: CliRun, lines: list[str]) -> str | None:
    want = "".join(line + "\n" for line in lines)
    return None if out.stdout == want else f"stdout differs from the expected {lines!r}"


def _check_cli(ctx, job: Job, out: CliRun) -> str | None:
    if out.timed_out:
        return "timed out"
    if out.code != 0:
        return f"exit code {out.code}: {out.stderr.strip()[-300:]}"
    kind, p = job.kind, job.params
    if kind == "readme":
        if out.stdout != _README[p[0]]["stdout"]:
            return "stdout differs from the README example"
        return None
    if kind == "cli_fixed":
        key = " ".join(a for a in p if a not in ("--gram", "@gram"))
        return None if out.stdout == _CLI_EXPECTED[key] else f"stdout of {key!r} changed"
    if kind == "cli_integrality":
        return _expect_lines(out, [f"exponential coefficients through T^{p[0]}: "
                                   "all integral in the square-free basis"])
    if kind == "cli_modp":
        return None if out.stdout.endswith("prediction: pass\n") else "mod-p prediction failed"
    if kind == "cli_fgl":
        obj = json.loads(out.stdout)
        if not all(obj["axioms"].values()):
            return f"axioms {obj['axioms']}"
        law = _law_of(p, 8)
        for k in range(1, 9):
            want = lagrange_reversion_coefficient(law.exponential, k)
            if Fraction(obj["logarithm"].get(str(k), "0")) != want:
                return f"log coefficient T^{k} disagrees with Lagrange"
        return None
    if kind == "cli_closure":
        return None if out.stdout.endswith("closure: pass\n") else "closure failed"
    if kind == "cli_ycheck":
        return None if out.stdout.startswith("status: pass\n") else "y-check failed"
    if kind == "cli_witt_mul":
        a, b = (witt.WittVector.from_coeffs([Fraction(c) for c in v.split(",")], 6)
                for v in p)
        prod = witt.witt_mul(a, b)
        return _expect_lines(out, [f"h{i} = {prod.coefficient(i)}" for i in range(1, 7)]
                             + ["integral: yes"])
    if kind == "cli_witt_ghost":
        h = witt.WittVector.from_coeffs([Fraction(c) for c in p[0].split(",")], 8)
        g = witt.ghost(h)
        return _expect_lines(out, [f"g{n} = {g[n]}" for n in range(1, 9)])
    if kind == "cli_epsilon_table":
        lines = out.stdout.splitlines()
        if lines[0] != "x,series,asymptotic,bound" or len(lines) != p[1] + 1:
            return f"epsilon table has {len(lines)} lines"
        for line in lines[1:]:
            x, ser, asy, bound = line.split(",")
            if ser and asy and abs(float(ser) - float(asy)) > float(bound):
                return f"eps lanes disagree beyond the bound at x = {x}"
        return None
    if kind == "cli_intersection":
        state, fmt = p
        key = f"-f {fmt} intersection --max-weight 13"
        if out.stdout != _CLI_EXPECTED[key]:
            return f"stdout of {key!r} changed"
        cached = (out.cache_dir / "intersection.json").read_text()
        if state == "warm" and cached != ctx.warm_table:
            return "a warm cache was rewritten"
        if state != "warm" and cached != ctx.warm_table:
            return "the written cache differs from a fresh build"
        if state == "corrupt" and "warning" not in out.stderr:
            return "a corrupt cache was regenerated without a warning"
        return None
    raise ValueError(kind)


@dataclass
class Context:
    """What jobs share within one run: a scratch directory and, for CLI
    jobs, the command prefix, environment and per-child accounting."""

    tmp: Path
    cli_prefix: list = field(default_factory=list)
    env: dict = field(default_factory=dict)
    spawn: object = None            # callable(argv, env) -> CliRun
    gram_file: str = ""
    warm_table: str = ""


def make_context(workload: str, tmp: Path) -> Context:
    ctx = Context(tmp=tmp)
    if workload == "cli":
        ctx.gram_file = str(tmp / "gram.json")
        Path(ctx.gram_file).write_text("[[2, 1], [1, 2]]\n")
        ctx.warm_table = virasoro.IntersectionTable().build_through(
            virasoro.required_degree(13)).dumps()
    return ctx


KINDS = {
    "genus_assoc": (_run_genus_assoc, _is_true),
    "genus_axiom8": (_run_genus_axiom8, _is_true),
    "rational_law": (_run_rational_law, _check_rational_law),
    "scalar_reversion": (_run_scalar_reversion, _check_scalar_reversion),
    "universal_reversion": (_run_universal_reversion, _check_universal_reversion),
    "exp_log": (_run_exp_log, _check_exp_log),
    "table": (_run_table, _check_table),
    "annihilation": (_run_annihilation, _check_annihilation),
    "projective": (_run_projective, _check_projective),
    "qfamily": (_run_qfamily, _check_qfamily),
    "lattice": (_run_lattice, _check_lattice),
    "hl": (_run_hl, _check_hl),
    "closure": (_run_closure, _check_closure),
    "witt_mul": (_run_witt_mul, _check_witt_mul),
    "eps_inverse": (_run_eps_inverse, _check_eps_inverse),
    "eps_overlap": (_run_eps_overlap, _check_eps_overlap),
    "ml_axis": (_run_ml_axis, _check_ml_axis),
    "psi_hom": (_run_psi_hom, _check_psi_hom),
    "eps_rows": (_run_eps_rows, _check_eps_rows),
}


def prepare(ctx: Context, job: Job):
    if job.kind in KINDS:
        return None
    return _prepare_cli(ctx, job)


def run(ctx: Context, job: Job, prepared):
    if job.kind in KINDS:
        return KINDS[job.kind][0](ctx, *job.params)
    argv, cache_dir = prepared
    env = ctx.env if cache_dir is None else {**ctx.env, "QGENUS_CACHE_DIR": str(cache_dir)}
    out = ctx.spawn(argv, env)
    out.cache_dir = cache_dir
    return out


def check(ctx: Context, job: Job, out) -> str | None:
    if job.kind in KINDS:
        return KINDS[job.kind][1](ctx, job, out)
    return _check_cli(ctx, job, out)


# ---------------------------------------------------------------------------
# audits: known defects of the library at the seed commit, probed once per
# run outside the timed jobs and reported beside the result, so that they
# stay in view without failing every run of the workload
# ---------------------------------------------------------------------------

def _audit(name: str, claim: str, points: list, broken) -> dict:
    """Apply ``broken`` (None if the claim holds at a point, else a message)
    to every point; count and name the points where the claim fails."""
    bad = [msg for msg in map(broken, points) if msg is not None]
    return {"audit": name, "claim": claim, "points": len(points),
            "failed": len(bad), "first": bad[0] if bad else None}


def _ml_beyond_cap(y):
    try:
        analytic.ml_asymptotic(0.5, complex(0, y))
    except Exception as e:
        return f"z = {y!r}i raised {type(e).__name__}: {e}"
    return None


def _ml_lanes_apart(y):
    a = analytic.ml_exp(0.5, complex(0, y))
    b = analytic.ml_asymptotic(0.5, complex(0, y))
    if abs(a.value - b.value) > a.error + b.error:
        ref = _ml_half_mp(y)
        return (f"z = {y!r}i: lanes {abs(a.value - b.value):.3g} apart, errors "
                f"sum to {a.error + b.error:.3g}; ml_exp is {abs(a.value - ref):.3g} "
                f"from the 50-digit value, reported {a.error:.3g}")
    return None


def _eps_inverse_error_short(y):
    inv = analytic.epsilon_inverse(y)
    x_ref, _ = _eps_mp(y, inv.value)
    if abs(inv.value - x_ref) > inv.error:
        return (f"eps_inverse({y!r}) = {inv.value!r} is {abs(inv.value - x_ref):.3g} "
                f"from the 50-digit root, reported error {inv.error:.3g}")
    return None


# Inputs where each defect showed at the seed commit.  They open every audit,
# so the defect shows in every run; the seeded points after them look for it
# elsewhere.
_ML_LANE_WITNESSES = (-10.980838760600182, 11.978676600302567, -9.249082641827568)
_EPS_INVERSE_WITNESSES = (0.030049549344657756, 0.03397757592781982)


def _float_audit(rng: random.Random) -> list[dict]:
    def axis(lo, hi, n):
        return [rng.choice((-1, 1)) * rng.uniform(lo, hi) for _ in range(n)]

    return [
        _audit("ml_asymptotic_beyond_12",
               "ml_asymptotic(1/2, iy) evaluates for 12 < |y| <= 25",
               axis(ML_AXIS_MAX, 25.0, 20), _ml_beyond_cap),
        _audit("ml_lanes_within_errors",
               "ml_exp and ml_asymptotic at iy, 8 <= |y| <= 12, agree within "
               "their summed reported errors",
               [*_ML_LANE_WITNESSES, *axis(8.0, ML_AXIS_MAX, 200)], _ml_lanes_apart),
        _audit("eps_inverse_error",
               "the 50-digit root of eps(x) = y lies within eps_inverse's "
               "reported error, 0.02 <= y <= 0.98",
               [*_EPS_INVERSE_WITNESSES, *(rng.uniform(0.02, 0.98) for _ in range(40))],
               _eps_inverse_error_short),
    ]


AUDITS = {"float": _float_audit}


def audit(workload: str, seed: int) -> list[dict]:
    """The workload's audits of known defects, on inputs drawn from the seed."""
    if workload not in AUDITS:
        return []
    return AUDITS[workload](random.Random(f"{workload}:{seed}:audit"))
