"""Checks of the benchmark itself:  python3 -m pytest perfbench/test_jobs.py

The job list is a function of the seed alone: one seed reproduces it, and a
second seed gives different inputs with the same mix of job kinds.  The
audits of known defects are a function of the seed too.
"""

import sys
from collections import Counter
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402
from run import TAIL_BEYOND, tail  # noqa: E402


def first_rounds(workload, seed, n=3):
    return list(islice(jobs.rounds(workload, seed), n))


def test_one_seed_reproduces_the_job_list():
    for workload in jobs.ROUNDS:
        first = first_rounds(workload, 7)
        again = first_rounds(workload, 7)
        assert jobs.digest(first) == jobs.digest(again)
        assert [[j.spec() for j in r] for r in first] == \
            [[j.spec() for j in r] for r in again]


def test_another_seed_changes_inputs_not_the_mix():
    for workload in jobs.ROUNDS:
        a = first_rounds(workload, 7)
        b = first_rounds(workload, 8)
        assert jobs.digest(a) != jobs.digest(b)
        for ra, rb in zip(a, b):
            assert Counter(j.kind for j in ra) == Counter(j.kind for j in rb)
        # every round of a run holds the same mix
        assert all(Counter(j.kind for j in r) == Counter(j.kind for j in a[0])
                   for r in a)


def test_tail_keeps_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    value, pct = tail(times)
    assert sum(t > value for t in times) == TAIL_BEYOND
    assert pct == 90.0


def test_audits_are_seeded():
    assert jobs.audit("float", 7) == jobs.audit("float", 7)
    assert jobs.audit("laws", 7) == []
