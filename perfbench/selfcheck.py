#!/usr/bin/env python3
"""Show that the benchmark's output checks catch corrupted records.

    python3 perfbench/selfcheck.py

Runs the loop once cleanly over a few small instances, which must fail no
operation, then once per corruption: each wraps ``sogl.cli``'s record
serializer so that the CLI writes a defective record, and the loop must
count a failed operation. Exits 0 when every case behaves so.
"""
from __future__ import annotations

import copy
import itertools
import shutil
import sys

import run

TINY = run.Workload("random", (8, 12, 20), 5, oracle_max_n=8)


def _scale_objective(record):
    if record.get("algorithm") == "admm":
        record["report"]["objective"] *= 1.0 + 1e-6
    return record


def _drop_coordinate(record):
    if record.get("algorithm") == "admm":
        record["report"]["x_final"] = record["report"]["x_final"][:-1]
    return record


def _raise_lower_bound(record):
    if record.get("config", {}).get("variant") == "l0":
        record["report"]["lower_value"] = record["report"]["upper_value"] + 1.0
        record["report"]["upper_value"] += 2.0
    return record


_stamps = itertools.count()


def _vary_bytes(record):
    # The same command must give the same bytes; a changing field breaks that.
    if record.get("algorithm") == "bounds":
        record["timestamp"] = f"call-{next(_stamps)}"
    return record


CORRUPTIONS = {
    "objective off by 1e-6": _scale_objective,
    "x_final one entry short": _drop_coordinate,
    "l0 lower bound above the objective": _raise_lower_bound,
    "record bytes change between identical commands": _vary_bytes,
}


def two_passes(checks, corrupt=None) -> run.Bench:
    """Set up, then two passes, so every command is repeated once;
    ``corrupt`` edits each record the passes write."""
    workdir = run.WORK / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    bench = run.Bench(checks, TINY, seed=7, workdir=workdir)
    try:
        bench.setup(0)
        if corrupt is not None:
            cli = bench.sogl.cli
            original = cli.dumps_canonical
            cli.dumps_canonical = lambda obj: original(corrupt(copy.deepcopy(obj)))
        bench.run_pass()
        bench.run_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return bench


def main() -> int:
    sys.dont_write_bytecode = True
    import checks

    ok = True
    clean = two_passes(checks)
    print(f"clean: {len(clean.failed)} of {clean.attempted} operations failed")
    ok &= not clean.failed
    for label, corrupt in CORRUPTIONS.items():
        bench = two_passes(checks, corrupt)
        first = bench.errors[0] if bench.errors else "-"
        print(f"{label}: {len(bench.failed)} of {bench.attempted} operations "
              f"failed; first: {first}")
        ok &= bool(bench.failed)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
