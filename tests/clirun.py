"""The qgenus CLI run in process: ``invoke`` calls ``qgenus.cli.main`` with
stdout and stderr captured and, like a child process, reports the exit
code that ``main`` raises."""

import contextlib
import io
import os
from typing import NamedTuple

from qgenus.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None  # the SystemExit of a nonzero exit code


def invoke(args, env=None) -> Result:
    """Run ``qgenus *args`` with ``env`` added to the environment for the
    call; any exception other than SystemExit propagates."""
    out, err, saved = io.StringIO(), io.StringIO(), dict(os.environ)
    code, exc = 0, None
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args=list(args), prog_name="qgenus")
    except SystemExit as e:
        code = e.code or 0
        exc = e if code else None
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return Result(code, out.getvalue(), err.getvalue(), exc)
