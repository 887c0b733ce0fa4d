#!/usr/bin/env python3
"""Build (or extend) the intersection-number table and audit it.

Reads the CLI's cache (a cache that fails the audit is regenerated with a
warning), fills the closed recursion degree by degree, persists the
versioned JSON cache atomically, and with --check audits the result
against the genus-0 closed form and the string and dilaton equations.
Run from the repository root:

    python3 scripts/build_intersection_table.py --degree 5 --check
"""

import argparse
import sys
import time
from pathlib import Path

from qgenus.virasoro import (default_cache_path, index_stats, load_table,
                             save_table, table_audit)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree", type=int, default=5,
                    help="total degree to complete the table through")
    ap.add_argument("--cache", type=Path, default=None,
                    help="cache file (default: the CLI's cache location)")
    ap.add_argument("--check", action="store_true",
                    help="audit every entry of the finished table")
    args = ap.parse_args()
    if not 0 <= args.degree <= 8:
        ap.error("--degree outside the desk-scale window [0, 8]")

    path = args.cache or default_cache_path()
    table = load_table(path)
    t0 = time.perf_counter()
    table.build_through(args.degree)
    dt = time.perf_counter() - t0
    save_table(path, table)

    by_degree: dict[int, int] = {}
    for K, _ in table.entries():
        s = index_stats(K)[1]
        by_degree[s] = by_degree.get(s, 0) + 1
    print(f"table complete through degree {table.complete_through} "
          f"({sum(by_degree.values())} entries, {dt:.2f}s this run)")
    for s in sorted(by_degree):
        print(f"  degree {s}: {by_degree[s]} entries")
    print(f"cache: {path}")

    if not args.check:
        return 0
    faults = table_audit(table)
    for fault in faults:
        print(f"MISMATCH {fault}")
    if faults:
        print(f"{len(faults)} inconsistencies found", file=sys.stderr)
        return 1
    print(f"all audits clean ({len(table.values)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
