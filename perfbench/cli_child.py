"""Traced CLI child: installs the span recorder, then calls the qgenus CLI
entry point with the remaining arguments.

    cli_child.py TRACE_DIR [qgenus arguments ...]

Writes TRACE_DIR/<job>.json (the recorder's summary) and <job>.jsonl (its
spans) on exit; the job id comes from $PERFBENCH_JOB.
"""

import json
import os
import sys
from pathlib import Path

from qgenus import cli, qfunctions

import spans


def main() -> int:
    trace_dir = Path(sys.argv[1])
    job = os.environ["PERFBENCH_JOB"]
    rec = spans.Recorder(max_spans=2000)
    spans.install(rec)
    rec.job = job
    try:
        cli.main(args=sys.argv[2:], prog_name="qgenus")
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        rec.job = None
        summary = rec.summary()
        summary["reduce_memo_entries"] = len(getattr(qfunctions, "_REDUCE_MEMO", ()))
        (trace_dir / f"{job}.json").write_text(json.dumps(summary))
        rec.write(trace_dir / f"{job}.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
