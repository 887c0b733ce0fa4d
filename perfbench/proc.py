"""Waiting for a child process under a wall-clock limit, with its rusage."""

import os
import signal
import sys
import time

GRACE_S = 5.0


def wait_child(pid: int, timeout: float):
    """os.wait4 under a wall-clock limit.  When the limit passes the child
    gets SIGTERM, and SIGKILL GRACE_S later.  If the wait is interrupted by
    an exception (SIGTERM to this process), the child is stopped and reaped
    before the exception goes on.  Returns (exit code, rusage, timed out)."""
    sent = []

    def on_alarm(signum, frame):
        sent.append(signal.SIGTERM if not sent else signal.SIGKILL)
        os.kill(pid, sent[-1])
        signal.setitimer(signal.ITIMER_REAL, GRACE_S)

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        stop(pid)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return os.waitstatus_to_exitcode(status), usage, bool(sent)


def stop(pid: int) -> None:
    """SIGTERM, so the child can stop its own children; SIGKILL if it has not
    ended GRACE_S later.  Reaps the child either way."""
    os.kill(pid, signal.SIGTERM)
    end = time.monotonic() + GRACE_S
    while time.monotonic() < end:
        if os.waitpid(pid, os.WNOHANG)[0]:
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that cleanup code runs."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
