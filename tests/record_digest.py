"""One sha256 over every file the command line writes for a fixed set of runs.

Run from the repository root:

    PYTHONPATH=src python tests/record_digest.py [--out DIR] [seed ...]   # default: 101 102

For each seed it generates three pools shaped like the benchmark's (chain
n 500-810, nested n 360-454, random n 8-40; m = n // 2) with ``sogl gen``
and runs the six-command pipeline on every instance: ``solve --trace``,
``solve --algorithm dual --trace``, ``bounds`` for the plain, l1 and l0
variants, and ``check`` of the ADMM point. The commands run in-process
through ``sogl.cli.run_cli``, in a directory of their own and with relative
paths, so the bytes do not depend on where the script runs. The first
line printed is the number of those files and the sha256 over their
relative paths and bytes: two versions of the package that print the same
line wrote the same instances, records and traces. The second line is the
same digest over the exact-enumeration records of every pool instance with
n <= 10 (``oracle`` and ``bounds --with-oracle`` for each variant), which
go to ``oracle/`` and are left out of the first. The third line covers one
``solve --out-dir`` over each whole pool, whose records go to ``batch/``.
Without ``--out`` the files go to a temporary directory that is removed
afterwards.
"""
import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from sogl.cli import run_cli

# mode: (sizes n, largest group size), as in the benchmark's pools
POOLS = {
    "chain": (range(500, 811, 10), 8),
    "nested": (range(360, 455, 2), 8),
    "random": (range(8, 41), 5),
}
ORACLE_MAX_N = 10  # pool instances up to this n also get the oracle records
PARTS = ("", "oracle", "batch")  # top directory of each line's files ("": the rest)


def instance_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run(*argv: str):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run_cli(list(argv))
    if rc != 0:
        sys.exit(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")


def pipeline(seed: int, mode: str):
    sizes, max_group = POOLS[mode]
    d = f"s{seed}-{mode}"
    os.makedirs(d)
    instances = []
    for index, n in enumerate(sizes):
        stem = f"{d}/i{index:02d}-n{n}"
        inst = f"{stem}.json"
        instances.append(inst)
        run("gen", "--seed", str(instance_seed(seed, index)), "--n", str(n),
            "--m", str(max(1, n // 2)), "--min-size", "2",
            "--max-size", str(max_group), "--mode", mode, "--out", inst)
        run("solve", inst, "--out", f"{stem}.admm.json",
            "--trace", f"{stem}.admm.csv")
        run("solve", inst, "--algorithm", "dual", "--out", f"{stem}.dual.json",
            "--trace", f"{stem}.dual.csv")
        for variant in ("plain", "l1", "l0"):
            run("bounds", inst, "--variant", variant,
                "--out", f"{stem}.bounds-{variant}.json")
        run("check", inst, "--point", f"{stem}.admm.json",
            "--out", f"{stem}.check.json")
        if n <= ORACLE_MAX_N:
            os.makedirs(f"oracle/{d}", exist_ok=True)
            run("oracle", inst, "--out", f"oracle/{stem}.oracle.json")
            for variant in ("plain", "l1", "l0"):
                run("bounds", inst, "--variant", variant, "--with-oracle",
                    "--out", f"oracle/{stem}.bounds-{variant}.json")
    run("solve", "--out-dir", f"batch/{d}", *instances)


def digest(root: str, paths: list) -> tuple:
    """Number of ``paths`` and the sha256 over each one and its bytes."""
    h = hashlib.sha256()
    for path in paths:
        with open(os.path.join(root, path), "rb") as fh:
            h.update(path.encode() + b"\0" + fh.read() + b"\0")
    return len(paths), h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="directory for the files (must not exist)")
    parser.add_argument("seeds", nargs="*", type=int, default=[101, 102])
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.out:
            os.makedirs(args.out)
            root = os.path.abspath(args.out)
        else:
            root = stack.enter_context(tempfile.TemporaryDirectory())
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for seed in args.seeds:
                for mode in POOLS:
                    pipeline(seed, mode)
        finally:
            os.chdir(cwd)
        paths = sorted(os.path.relpath(os.path.join(d, f), root)
                       for d, _, files in os.walk(root) for f in files)
        tops = [p.split(os.sep, 1)[0] for p in paths]
        parts = [top if top in PARTS else "" for top in tops]
        lines = [digest(root, [p for p, q in zip(paths, parts) if q == part])
                 for part in PARTS]
    for count, hexdigest in lines:
        print(f"{count} files sha256 {hexdigest}")


if __name__ == "__main__":
    main()
