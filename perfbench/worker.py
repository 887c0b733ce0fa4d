"""One workload run in a fresh process (started by run.py, never by hand).

Imports qgenus from the checkout's ``src``, generates the seeded job list,
then runs whole rounds closed-loop, one job at a time, until ``--seconds``
have passed.  Writes one JSON result file and exits.  With ``--trace 1`` it
installs the span recorder first; without it no wrapper is installed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402  (needs the src path above)
from proc import exit_on_sigterm, wait_child  # noqa: E402

CLI_TIMEOUT_S = 60.0
CLI_ADDRESS_SPACE = 3 << 30


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CLI_ADDRESS_SPACE, CLI_ADDRESS_SPACE))


class CliSpawner:
    """Runs one CLI process per job and keeps per-child accounting."""

    def __init__(self, tmp: Path, prefix: list):
        self.tmp = tmp
        self.prefix = prefix
        self.peak_rss_mb = 0.0
        self.walls: list[float] = []

    def __call__(self, argv, env) -> jobs.CliRun:
        with tempfile.TemporaryFile(dir=self.tmp) as out, \
                tempfile.TemporaryFile(dir=self.tmp) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.prefix + list(argv), stdout=out,
                                    stderr=err, env=env, cwd=self.tmp,
                                    preexec_fn=_limit_child)
            code, usage, timed_out = wait_child(proc.pid, CLI_TIMEOUT_S)
            proc.returncode = code
            self.walls.append(time.perf_counter() - start)
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
            out.seek(0)
            err.seek(0)
            return jobs.CliRun(code, out.read().decode(),
                               err.read().decode(), timed_out)


def child_env(tmp: Path) -> dict:
    home = tmp / "home"
    home.mkdir(exist_ok=True)
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
            "HOME": str(home), "QGENUS_CACHE_DIR": str(tmp / "cache" / "default"),
            "LC_ALL": "C.UTF-8"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--audit", action="store_true",
                    help="probe the workload's known defects after the jobs")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args()

    import qgenus
    if not Path(qgenus.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qgenus imported from {qgenus.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    exit_on_sigterm()
    # set-up generates the first round; later rounds are generated between
    # rounds, outside every job's time
    round_iter = jobs.rounds(args.workload, args.seed)
    first = next(round_iter)
    ctx = jobs.make_context(args.workload, args.tmp)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    rec = None
    if args.trace:
        import spans
        rec = spans.Recorder()
        spans.install(rec, [jobs])
    if args.workload == "cli":
        ctx.env = child_env(args.tmp)
        prefix = [sys.executable, "-m", "qgenus.cli"]
        if args.trace:
            prefix = [sys.executable, str(HERE / "cli_child.py"),
                      str(args.tmp / "traces")]
            (args.tmp / "traces").mkdir()
        ctx.spawn = CliSpawner(args.tmp, prefix)

    times, failures, q_inputs = [], [], []
    deadline = time.monotonic() + args.seconds
    done = []
    for r, rnd in enumerate(itertools.chain([first], round_iter)):
        for i, job in enumerate(rnd):
            job_id = f"{r}.{i}"
            prepared = jobs.prepare(ctx, job)
            if rec is not None:
                rec.job = job_id
            if ctx.spawn is not None:
                ctx.env["PERFBENCH_JOB"] = job_id
            t0 = time.perf_counter()
            try:
                out = jobs.run(ctx, job, prepared)
                error = None
            except Exception as e:  # a failing job is counted, not fatal
                out, error = None, f"raised {type(e).__name__}: {e}"
            times.append(time.perf_counter() - t0)
            if rec is not None:
                rec.job = None
            if error is None:
                try:
                    error = jobs.check(ctx, job, out)
                except Exception as e:
                    error = f"check raised {type(e).__name__}: {e}"
            q_inputs.append(jobs.q_input(job))
            if error is not None:
                failures.append({"job": job_id, "kind": job.kind,
                                 "params": job.spec()[1], "error": error})
        done.append(rnd)
        if time.monotonic() >= deadline:
            break

    seen, repeats, total_q = set(), 0, 0
    for q in q_inputs:
        if q is not None:
            total_q += 1
            repeats += q in seen
            seen.add(q)

    result = {
        "setup_s": setup_s,
        "rounds": len(done),
        "jobs_digest": jobs.digest(done),
        "times": times,
        "failures": failures,
        "repeat_share": repeats / total_q if total_q else 0.0,
    }
    if args.audit:
        result["audits"] = jobs.audit(args.workload, args.seed)
    if ctx.spawn is not None:
        result["child_peak_rss_mb"] = ctx.spawn.peak_rss_mb
        result["child_walls"] = ctx.spawn.walls
    if rec is not None:
        from qgenus import qfunctions
        result["trace"] = rec.summary()
        result["trace"]["reduce_memo_entries"] = len(
            getattr(qfunctions, "_REDUCE_MEMO", ()))
        if args.workload == "cli":
            result["trace"] = merge_child_traces(args.tmp / "traces", args.spans)
        else:
            rec.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


def merge_child_traces(trace_dir: Path, spans_path: Path) -> dict:
    """Sum the summaries the traced CLI children wrote, one file each, and
    gather their spans into one file."""
    merged = {"stats": {}, "under": {}, "counts": {}, "top_level": {},
              "spans_kept": 0, "spans_dropped": 0, "reduce_memo_entries": 0}
    with open(spans_path, "w") as out:
        for path in sorted(trace_dir.glob("*.jsonl")):
            out.write(path.read_text())
    for path in sorted(trace_dir.glob("*.json")):
        child = json.loads(path.read_text())
        for name, (calls, total, self_s) in child["stats"].items():
            acc = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key in ("under", "counts", "top_level"):
            for name, n in child[key].items():
                merged[key][name] = merged[key].get(name, 0) + n
        merged["spans_kept"] += child["spans_kept"]
        merged["spans_dropped"] += child["spans_dropped"]
        merged["reduce_memo_entries"] = max(merged["reduce_memo_entries"],
                                            child["reduce_memo_entries"])
    return merged


if __name__ == "__main__":
    sys.exit(main())
