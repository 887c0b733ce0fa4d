"""qgenus benchmark: one workload run, its checks and its metrics.

    python3 perfbench/run.py --workload {laws,tables,float,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload run happens in fresh
child processes (worker.py); this parent imports nothing from qgenus.

``--workload all`` runs the four workloads one after another, each with its
own result line.

--trace 0 prints the end-to-end metrics: several set-up-only children are
timed for ``setup_s``, then one child runs the jobs closed-loop.
--trace 1 runs the workload untraced and then traced, and prints the
per-layer metrics of the traced run plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name with its unit, the provenance, every failing job and the
workload's audits of known library defects (see jobs.audit), which are
printed but not counted as failed jobs.  The full result, with every
failure and audit, is also written to
.perfbench_out/result-<workload>-<seed>-trace<t>.json, and the traced
run's spans to .perfbench_out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from proc import exit_on_sigterm, wait_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("laws", "tables", "float", "cli")
SETUP_RUNS = 5
HELP_RUNS = 5
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def provenance(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qgenus").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "git_sha": sha, "source_digest": src.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def spawn_worker(args, tmp: Path, deadline: float, *, trace: int = 0,
                 setup_only: bool = False, audit: bool = False) -> tuple[dict, float]:
    """Run worker.py to completion; returns (its result, its peak RSS MB)."""
    run_dir = tmp / f"w{time.monotonic_ns()}"
    run_dir.mkdir()
    result = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--tmp", str(run_dir), "--result", str(result),
           "--spans", str(OUT / f"spans-{args.workload}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    if audit:
        cmd.append("--audit")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(time.monotonic())],
                            env=env, stdout=subprocess.DEVNULL)
    code, usage, timed_out = wait_child(proc.pid, max(deadline - time.monotonic(), 1.0))
    proc.returncode = code
    if timed_out:
        raise BenchError("worker exceeded the run's time limit")
    if code != 0 or not result.exists():
        raise BenchError(f"worker exited with code {code}")
    return json.loads(result.read_text()), usage.ru_maxrss / 1024.0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def jobs_per_s(res: dict) -> float:
    return (len(res["times"]) - len(res["failures"])) / sum(res["times"])


def end_to_end(res: dict, rss_mb: float, setups: list[float]) -> tuple[dict, list]:
    tail_s, pct = tail(res["times"])
    n = len(res["times"])
    metrics = {
        "jobs_per_s": (jobs_per_s(res), "1/s"),
        "job_p50_s": (statistics.median(res["times"]), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (res.get("child_peak_rss_mb", rss_mb), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [f"job_tail_s is p{pct:.2f} of {n} jobs ({res['rounds']} rounds)",
             f"failed_share = {len(res['failures']) / n:.4f} "
             f"({len(res['failures'])} of {n} jobs)"]
    return metrics, notes


def per_layer(res: dict, base: dict, help_s: float) -> dict:
    """Per-layer metrics of a traced run; times and counts are per job."""
    tr = res["trace"]
    stats, under, counts = tr["stats"], tr["under"], tr["counts"]
    n = len(res["times"])
    job_s = sum(res["times"])

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(stats.get(name, [0, 0.0, 0.0])[2] for name in names)

    def layer_self(layer):
        return sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    lookups = counts.get("qfunctions.reduce_lookups", 0)
    cli_walls = res.get("child_walls", [])
    library_s = sum(v for k, v in tr["top_level"].items() if k != "cli")
    cli_self = (sum(cli_walls) - library_s) if cli_walls else 0.0
    m = {
        "rings.mul_calls": (calls("rings.mul") / n, "calls/job"),
        "rings.mul_self_s": (self_s("rings.mul") / n, "s/job"),
        "rings.add_calls": (calls("rings.add") / n, "calls/job"),
        "rings.add_self_s": (self_s("rings.add") / n, "s/job"),
        "rings.terms_out": (counts.get("rings.terms_out", 0) / n, "terms/job"),
        "series.compose_calls": (calls("series.compose") / n, "calls/job"),
        "series.compose_self_s": (self_s("series.compose") / n, "s/job"),
        "series.substitute_self_s": (self_s("series.substitute") / n, "s/job"),
        "series.reversion_calls": (calls("series.reversion") / n, "calls/job"),
        "series.reversion_self_s": (self_s("series.reversion") / n, "s/job"),
        "series.compose_per_reversion": (
            ratio(under.get("series.reversion>series.compose", 0),
                  calls("series.reversion")), "ratio"),
        "series.exp_log_self_s": (self_s("series.exp_log") / n, "s/job"),
        "grouplaw.law_builds": (calls("grouplaw.law"), "count"),
        "grouplaw.law_builds_per_job": (calls("grouplaw.law") / n, "calls/job"),
        "grouplaw.self_s": (layer_self("grouplaw") / n, "s/job"),
        "qfunctions.reduce_calls": (calls("qfunctions.reduce") / n, "calls/job"),
        "qfunctions.reduce_hit_ratio": (
            ratio(counts.get("qfunctions.reduce_hits", 0), lookups), "ratio"),
        "qfunctions.reduce_memo_entries": (tr["reduce_memo_entries"], "count"),
        "qfunctions.q_in_x_hits": (counts.get("qfunctions.q_in_x_hits", 0) / n,
                                   "calls/job"),
        "qfunctions.q_in_x_misses": (counts.get("qfunctions.q_in_x_misses", 0) / n,
                                     "calls/job"),
        "qfunctions.repeat_share": (res["repeat_share"], "ratio"),
        "qfunctions.qmul_calls": (calls("qfunctions.qmul") / n, "calls/job"),
        "qfunctions.qmul_self_s": (self_s("qfunctions.qmul") / n, "s/job"),
        "qfunctions.to_q_self_s": (self_s("qfunctions.to_q") / n, "s/job"),
        "qfunctions.hopf_self_s": (self_s("qfunctions.hopf") / n, "s/job"),
        "virasoro.entries_built": (counts.get("virasoro.entries_built", 0) / n,
                                   "entries/job"),
        "virasoro.build_self_s": (self_s("virasoro.build") / n, "s/job"),
        "virasoro.tau_self_s": (self_s("virasoro.tau") / n, "s/job"),
        "virasoro.l_apply_self_s": (self_s("virasoro.l_apply") / n, "s/job"),
        "witt.lattice_self_s": (self_s("witt.lattice") / n, "s/job"),
        "witt.vertex_self_s": (self_s("witt.vertex") / n, "s/job"),
        "witt.ghost_self_s": (self_s("witt.ghost") / n, "s/job"),
        "witt.closure_self_s": (self_s("witt.closure") / n, "s/job"),
        "analytic.eps_num_calls": (calls("analytic.eps_num") / n, "calls/job"),
        "analytic.eps_inverse_calls": (calls("analytic.eps_inverse") / n, "calls/job"),
        "analytic.eps_num_per_inverse": (
            ratio(under.get("analytic.eps_inverse>analytic.eps_num", 0),
                  calls("analytic.eps_inverse")), "ratio"),
        "analytic.eps_inverse_steps": (
            ratio(counts.get("analytic.eps_inverse_steps", 0),
                  calls("analytic.eps_inverse")), "steps/call"),
        "analytic.eps_inverse_self_s": (self_s("analytic.eps_inverse") / n, "s/job"),
        "analytic.ml_self_s": (self_s("analytic.ml") / n, "s/job"),
        "cli.startup_s": (help_s, "s"),
        "cli.self_s": (cli_self / n, "s/job"),
        "cli.cache_write_s": (ratio(self_s("cli.cache_write"), calls("cli.cache_write")),
                              "s/call"),
        "cli.cache_read_s": (ratio(self_s("cli.cache_read"), calls("cli.cache_read")),
                             "s/call"),
        "cli.child_peak_rss_mb": (res.get("child_peak_rss_mb", 0.0), "MB"),
    }
    for layer in ("rings", "series", "qfunctions", "virasoro", "grouplaw",
                  "witt", "analytic"):
        m[f"{layer}.self_share"] = (layer_self(layer) / job_s, "ratio")
    m["cli.self_share"] = (cli_self / job_s, "ratio")
    m["trace.overhead_share"] = (jobs_per_s(base) / jobs_per_s(res) - 1.0, "ratio")
    return m


def help_startup(tmp: Path, deadline: float) -> float:
    """Median wall time of ``qgenus --help`` in a fresh process."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
           "HOME": str(tmp), "QGENUS_CACHE_DIR": str(tmp)}
    walls = []
    for _ in range(HELP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qgenus.cli", "--help"],
                                env=env, cwd=tmp, stdout=subprocess.DEVNULL)
        code, _, timed_out = wait_child(proc.pid, max(deadline - time.monotonic(), 1.0))
        proc.returncode = code
        if code != 0 or timed_out:
            raise BenchError(f"qgenus --help exited with code {code}")
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qgenus" / "__init__.py").is_file():
        print(f"error: no qgenus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    exit_on_sigterm()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
        if code:
            return code
    return 0


def run_workload(args) -> int:
    """One workload: run it, print its metrics and its result line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        # one untimed start first, so every timed start finds compiled bytecode
        spawn_worker(args, tmp, deadline, setup_only=True)
        if args.trace:
            base, _ = spawn_worker(args, tmp, deadline, audit=True)
            res, rss_mb = spawn_worker(args, tmp, deadline, trace=1)
            help_s = help_startup(tmp, deadline) if args.workload == "cli" else 0.0
            metrics = per_layer(res, base, help_s)
            notes = [f"per-layer metrics of the traced run: {len(res['times'])} "
                     f"jobs, {res['rounds']} rounds; {res['trace']['spans_kept']} "
                     f"spans kept, {res['trace']['spans_dropped']} dropped"]
            runs = [base, res]
        else:
            setups = [spawn_worker(args, tmp, deadline, setup_only=True)[0]["setup_s"]
                      for _ in range(SETUP_RUNS)]
            res, rss_mb = spawn_worker(args, tmp, deadline, audit=True)
            metrics, notes = end_to_end(res, rss_mb, setups + [res["setup_s"]])
            runs = [res]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(r["times"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    audits = runs[0].get("audits", [])
    prov = {**provenance(args.seed), "workload": args.workload,
            "jobs_digest": res["jobs_digest"], "rounds": res["rounds"]}
    full = {"provenance": prov, "trace": args.trace,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes, "attempted": attempted, "failures": failures,
            "audits": audits}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")

    print(f"workload {args.workload}: {'traced' if args.trace else 'untraced'}, "
          f"{args.seconds:g} s, closed loop, one job at a time")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for f in failures:
        print(f"  FAILED job {f['job']} {f['kind']} {json.dumps(f['params'])}: "
              f"{f['error']}")
    for a in audits:
        if a["failed"]:
            print(f"  KNOWN DEFECT {a['audit']}: fails at {a['failed']} of "
                  f"{a['points']} points ({a['claim']}); first: {a['first']}")
        else:
            print(f"  audit {a['audit']} holds at {a['points']} points")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": full["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
