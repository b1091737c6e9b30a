#!/usr/bin/env python3
"""Benchmark of the sogl command line: command latency and answer quality.

    python3 perfbench/run.py --workload chain-large --seed 1 --seconds 35 --trace 0

One process drives the CLI in-process through ``sogl.cli.run_cli``, from
instance file to record file, as a single client in a closed loop: each
command starts after the previous one returned. Every record is checked
against the benchmark's own numpy recomputation (``checks.py``).

The loop runs the pipeline over a pool of instances generated from
``--seed``, in order and round and round: one whole pass, then more
instances while the longest pipeline so far still fits in ``--seconds``.
Latencies are reported in units of a fixed reference loop timed between
the commands (``Reference``), which takes the host's changing speed out.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
wrappers of ``tracing.py`` and reports the per-layer metrics instead. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md explains the
workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP_N = 100  # size of the instances of the untimed warm-up pipeline
VARIANTS = ("plain", "l1", "l0")
KINDS = ("solve", "dual", "bounds", "check")  # command kinds with a latency
MAX_ERRORS_SHOWN = 20
REF_SHARE = 0.1  # time of the reference units, as a share of command time
TRIM = 0.1  # share of the pool left out at each end of a latency's mean


@dataclass(frozen=True)
class Workload:
    mode: str  # overlap mode of sogl.instances.generate_instance
    sizes: tuple  # n of each pool instance, in pass order; m = n // 2
    max_group: int  # group sizes are drawn from 2..max_group
    oracle_max_n: int = 0  # pool instances up to this n get an oracle optimum


# Why each workload exists is in README.md. All use the generator's
# penalties: lam0 = 0.05, lam1 = lam = 0.1, unit weights. The sizes lie in
# a band, a few steps apart, so that each latency is taken over many draws
# of nearly one size: iteration counts differ from draw to draw, nested ones
# by a factor of up to five.
WORKLOADS = {
    "chain-large": Workload("chain", tuple(range(500, 811, 10)), 8),
    "nested-overlap": Workload("nested", tuple(range(360, 455, 2)), 8),
    "small-stream": Workload("random", tuple(range(8, 41)), 5, oracle_max_n=10),
}

# End-to-end metrics: (name, unit). BENCHMARK.json holds their bounds.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_ref", "ref"),
    ("dual_ref", "ref"),
    ("bounds_ref", "ref"),
    ("check_ref", "ref"),
    ("admm_to_lower_mean", "ratio"),
    ("dual_to_admm_mean", "ratio"),
    ("converged_frac", "frac"),
    ("peak_rss_mb", "MB"),
)


# Quality metrics printed for people to read: (name, key of quality_of).
# Several can be 0 on some workloads, so BENCHMARK.json carries ratios.
QUALITY_REPORTED = (
    ("gap_rel_mean", "gap_rel"),
    ("dual_excess_rel_mean", "dual_excess_rel"),
    ("check_pass_frac", "check_pass"),
    ("converged_frac", "converged"),
    ("oracle_match_frac", "oracle_match"),
)


def load_sogl():
    """Import sogl afresh from this checkout's ``src``, never an installed
    copy. Modules of an earlier import are dropped first, so each set-up
    pays the package's import again."""
    package = SRC / "sogl"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no sogl package at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "sogl" or m.startswith("sogl.")]:
        del sys.modules[name]
    import sogl.cli
    import sogl.instances
    if Path(sogl.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported sogl from {sogl.__file__}, not {package}")
    return sogl


def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, which names the code measured even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sogl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def instance_seed(seed: int, index: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Reference:
    """The host's speed, measured alongside the commands.

    A unit is a fixed mix of what sogl's commands spend their time on:
    small numpy operations driven from a Python loop, and JSON encoding.
    It does not use sogl, so no change to the package moves it. After each
    timed command, units run until their time reaches REF_SHARE of the
    timed command time so far, so they sample the host's speed over the
    run in step with the commands. A latency divided by a unit's mean time
    no longer moves with the host's speed from run to run.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.data = np.random.default_rng(0).standard_normal(4096)
        self.seconds = 0.0
        self.units = 0

    def unit(self) -> float:
        np, acc = self.np, 0.0
        for i in range(300):
            block = self.data[i:i + 8]
            acc += float(np.sqrt(block @ block))
            acc += float(np.maximum(block, 0.0).sum())
        return acc + len(json.dumps([round(x, 6) for x in self.data[:300].tolist()]))

    def keep_up(self, command_s: float):
        while self.seconds < REF_SHARE * command_s:
            start = time.perf_counter()
            self.unit()
            self.seconds += time.perf_counter() - start
            self.units += 1

    def unit_ms(self) -> float:
        return self.seconds * 1e3 / self.units


@dataclass
class Item:
    """One pool instance: its file, the bench-side copy, its record paths."""

    index: int
    path: Path
    problem: object
    records: Path
    oracle: float = None

    def out(self, what: str) -> str:
        return str(self.records / f"{self.path.stem}.{what}.json")


class Bench:
    """Set-up, the closed loop, and the output checks of one run."""

    def __init__(self, checks, wl: Workload, seed: int, workdir: Path,
                 tracer=None):
        self.sogl = None  # imported afresh by every set-up
        self.checks, self.wl, self.seed = checks, wl, seed
        self.workdir, self.tracer = workdir, tracer
        # ms of each timed command, by kind and then by (instance, variant)
        self.samples = {kind: defaultdict(list) for kind in KINDS}
        self.op = 0
        self.attempted = 0
        self.failed = set()
        self.errors = []
        self.digests = {}
        self.quality = {}
        self.command_s = 0.0
        self.pipelines = 0
        self.reference = Reference()
        self.pool = []
        self.timing = True  # False while set-up runs the warm-up pipeline

    # -- set-up -----------------------------------------------------------

    def setup(self, k: int) -> float:
        """Import sogl afresh, generate and write the pool, compute oracle
        references, and run the untimed warm-up pipeline. Returns the
        seconds it took."""
        start = time.perf_counter()
        self.sogl = load_sogl()
        if self.tracer is not None:
            self.tracer.install()
        d = self.workdir / f"setup{k}"
        pool = [self._write(d, i, seed=instance_seed(self.seed, i), n=n)
                for i, n in enumerate(self.wl.sizes)]
        for item in pool:
            if item.problem.n <= self.wl.oracle_max_n:
                item.oracle = self._oracle(item)
        # The warm-up instances have fixed seeds: they are set-up cost, not
        # inputs. Every set-up writes them to the same paths and runs the
        # same commands, so their record bytes are compared across set-ups.
        warm = self._write(self.workdir / "warmup", 0, seed=0, n=WARMUP_N)
        self.timing = False
        self.run_items([warm])
        self.timing = True
        elapsed = time.perf_counter() - start
        if self.pool:
            for mine, first in zip(pool, self.pool):
                if mine.path.read_bytes() != first.path.read_bytes():
                    raise SystemExit(f"error: set-up {k} wrote {mine.path.name} "
                                     "differently from set-up 0 with the same seed")
        self.pool = pool
        return elapsed

    def _write(self, d: Path, index: int, seed: int, n: int) -> Item:
        """Generate one instance with sogl and write it to ``d``."""
        instf = self.sogl.instances.generate_instance(
            seed=seed, n=n, m=max(1, n // 2),
            group_size_range=(2, self.wl.max_group), overlap_mode=self.wl.mode)
        (d / "records").mkdir(parents=True, exist_ok=True)
        path = d / f"i{index:02d}-n{n}.json"
        path.write_text(self.sogl.instances.dumps_canonical(instf.to_dict()))
        return Item(index, path, self.checks.Problem(json.loads(path.read_text())),
                    d / "records")

    def _setup_command(self, argv):
        if self.tracer is not None:
            self.op += 1
            self.tracer.op = self.op
            self.tracer.op_kinds[self.op] = "setup"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = self.sogl.cli.run_cli(argv)
        if rc != 0:
            raise SystemExit(f"error: set-up command {' '.join(argv)} exited "
                             f"{rc}: {err.getvalue().strip()}")

    def _oracle(self, item: Item) -> float:
        out = item.out("oracle")
        self._setup_command(["oracle", str(item.path), "--out", out])
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        try:
            return self.checks.oracle_record(record, item.problem)
        except self.checks.CheckError as exc:
            raise SystemExit(f"error: oracle record of {item.path.name}: {exc}")

    # -- the closed loop --------------------------------------------------

    def loop(self, seconds: float):
        """The pipeline on the pool's items in order, round and round: one
        whole pass, then more items while the longest pipeline so far
        still fits in ``seconds``."""
        start = time.perf_counter()
        longest = 0.0
        for i in itertools.count():
            item_start = time.perf_counter()
            self.run_items([self.pool[i % len(self.pool)]])
            now = time.perf_counter()
            longest = max(longest, now - item_start)
            if i + 1 >= len(self.pool) and now - start + longest > seconds:
                return

    def run_pass(self):
        self.run_items(self.pool)

    def run_items(self, items: list):
        """The pipeline on each item, in order."""
        for item in items:
            self.rest(item, self.solve_one(item))

    def command(self, kind: str, key: tuple, argv: list, outputs: list):
        """Run one CLI command, timed; ``key`` names the instance (and
        variant) its latency sample belongs to. Returns (op, records);
        records is None when the command failed or its outputs could not
        be read."""
        self.op += 1
        op = self.op
        if self.tracer is not None:
            self.tracer.op = op
            self.tracer.op_kinds[op] = kind if self.timing else "setup"
        self.attempted += 1
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = self.sogl.cli.run_cli(argv)
        except Exception:  # a crash fails this operation, not the run
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if self.timing:
            self.command_s += elapsed
            self.samples[kind][key].append(elapsed * 1e3)
            self.reference.keep_up(self.command_s)
        if rc != 0:
            self.fail(op, f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
            return op, None
        records = []
        for path in outputs:
            try:
                data = Path(path).read_bytes()
                records.append(json.loads(data))
            except (OSError, ValueError) as exc:
                self.fail(op, f"{path}: unreadable record: {exc}")
                return op, None
            digest = hashlib.sha256(data).digest()
            if self.digests.setdefault((tuple(argv), path), digest) != digest:
                self.fail(op, f"{path}: bytes differ from an earlier identical command")
        return op, records

    def fail(self, op: int, message: str):
        self.failed.add(op)
        self.errors.append(message)

    def verify(self, op: int, check, *args):
        """Run one output check; a failed check fails operation ``op``."""
        try:
            return check(*args)
        except (self.checks.CheckError, KeyError, TypeError, ValueError) as exc:
            self.fail(op, f"output check {check.__name__}: {exc!r}")
            return None

    def solve_one(self, item: Item):
        op, recs = self.command("solve", (item.index,),
                                ["solve", str(item.path), "--out", item.out("record")],
                                [item.out("record")])
        return recs and self.verify(op, self.checks.solve_record, recs[0],
                                    item.problem, ("admm",))

    def rest(self, item: Item, admm):
        """dual, the three bounds and check for one instance, then the
        checks that tie their records together."""
        checks, path, prob, key = self.checks, str(item.path), item.problem, (item.index,)
        op, recs = self.command("dual", key, ["solve", path, "--algorithm", "dual",
                                              "--out", item.out("dual")],
                                [item.out("dual")])
        dual = recs and self.verify(op, checks.solve_record, recs[0], prob,
                                    ("dual", "admm"))
        brackets = {}
        for variant in VARIANTS:
            out = item.out(f"bounds-{variant}")
            op, recs = self.command("bounds", (item.index, variant),
                                    ["bounds", path, "--variant", variant, "--out", out],
                                    [out])
            brackets[variant] = (op, recs and self.verify(
                op, checks.bounds_record, recs[0], prob, variant))
        op, recs = self.command("check", key, ["check", path, "--point",
                                               item.out("record"), "--out",
                                               item.out("check")],
                                [item.out("check")])
        stationary = recs and admm and self.verify(op, checks.check_record, recs[0],
                                                   prob, admm.x)
        if self.timing:
            self.pipelines += 1
        op_l0, l0 = brackets["l0"]
        if not (admm and dual and all(b for _, b in brackets.values())):
            return
        # The certificate is charged to the l0 bounds command that issued it.
        certified = self.verify(op_l0, checks.certificate, l0.lower,
                                [b for _, b in brackets.values()],
                                [admm.objective, dual.objective], item.oracle)
        if certified and stationary is not None and self.timing \
                and item.index not in self.quality:
            self.quality[item.index] = self.quality_of(admm, dual, l0.lower,
                                                       stationary, item.oracle)

    def quality_of(self, admm, dual, lower: float, stationary: bool, oracle) -> dict:
        q = {
            "gap_rel": (admm.objective - lower) / max(1.0, abs(lower)),
            "dual_excess_rel": (dual.objective - admm.objective)
            / max(1.0, abs(admm.objective)),
            "admm_to_lower": admm.objective / lower,
            "dual_to_admm": dual.objective / admm.objective,
            "check_pass": float(stationary),
            "converged": float(admm.converged),
        }
        if oracle is not None:
            q["oracle_match"] = float(abs(admm.objective - oracle) <= self.checks.
                                      ORACLE_MATCH_TOL * max(1.0, abs(oracle)))
        return q


def mean_of(quality: dict, key: str):
    values = [q[key] for q in quality.values() if key in q]
    return statistics.fmean(values) if values else None


def tail(samples: list):
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0):
        rank = math.ceil(len(ordered) * p / 100.0)  # nearest-rank percentile
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_ms(bench: Bench, kind: str) -> float:
    """Mean latency of one command kind over all its commands."""
    samples = [x for xs in bench.samples[kind].values() for x in xs]
    return statistics.fmean(samples) if samples else 0.0


def pool_ms(bench: Bench, kind: str) -> float:
    """The trimmed mean over the pool of each instance's (for bounds, each
    instance and variant's) mean latency.

    The highest and the lowest TRIM of the instances are left out, so a
    few draws that take far more iterations than their neighbours do not
    move the run. Each instance counts once, so the loop's partial last
    pass does not weight the early instances more.
    """
    means = sorted(statistics.fmean(xs) for xs in bench.samples[kind].values())
    cut = int(len(means) * TRIM)
    return statistics.fmean(means[cut:len(means) - cut]) if means else 0.0


def latency_ref(bench: Bench, kind: str) -> float:
    """pool_ms in reference units (see Reference)."""
    return pool_ms(bench, kind) / bench.reference.unit_ms()


def end_to_end(bench: Bench, setup_s: float) -> dict:
    q = bench.quality
    values = {
        "setup_s": setup_s,
        **{f"{kind}_ref": latency_ref(bench, kind) for kind in KINDS},
        "admm_to_lower_mean": mean_of(q, "admm_to_lower") or 0.0,
        "dual_to_admm_mean": mean_of(q, "dual_to_admm") or 0.0,
        "converged_frac": mean_of(q, "converged") or 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def report_lines(bench: Bench, setup_times: list, numpy_import_s: float) -> list:
    """Every metric named in README.md, by name and unit, for people to
    read; only the BENCHMARK.json ones go into the final JSON line."""
    lines = [f"setup_s_each {[round(s, 4) for s in setup_times]} s "
             f"(numpy import, once per process: {numpy_import_s:.4f} s)"]
    for kind, by_key in bench.samples.items():
        samples = [x for xs in by_key.values() for x in xs]
        p, value = tail(samples)
        t = f"{kind}_tail_ms p{p:g} {value:.3f}" if p else \
            f"{kind}_tail_ms n/a (fewer than 10 samples beyond p90)"
        lines.append(f"{kind}: {len(samples)} samples, {kind}_p50_ms "
                     f"{statistics.median(samples) if samples else 0:.3f}, "
                     f"{kind}_mean_ms {mean_ms(bench, kind):.3f}, "
                     f"{kind}_pool_ms {pool_ms(bench, kind):.3f}, {t}")
    q = bench.quality
    for name, key in QUALITY_REPORTED:
        value = mean_of(q, key)
        if value is not None:
            lines.append(f"{name} {value!r} (over {len(q)} instances)")
    lines.append(f"fail_frac {len(bench.failed) / max(1, bench.attempted)!r} "
                 f"({len(bench.failed)} of {bench.attempted} operations)")
    lines.append(f"reference unit {bench.reference.unit_ms():.4f} ms "
                 f"({bench.reference.units} units)")
    lines.append(f"instances_per_s {bench.pipelines / bench.command_s!r} "
                 f"({bench.pipelines} pipelines in {bench.command_s:.3f} s of commands)")
    return lines


def traced_run(bench: Bench, tracing, tracer, seconds: float) -> dict:
    """One untraced pass, the base of the tracing overhead, then the loop
    with the wrappers installed. Returns the per-layer metrics."""
    tracer.uninstall()
    start = time.perf_counter()
    bench.run_pass()
    untraced = bench.command_s / bench.pipelines
    first, traced_start = bench.pipelines, bench.command_s
    tracer.install()
    bench.loop(seconds - (time.perf_counter() - start))
    tracer.uninstall()
    instances = bench.pipelines - first
    traced = (bench.command_s - traced_start) / instances
    metrics, absent = tracing.layer_metrics(tracer, instances, SETUPS)
    metrics["trace.instances"] = (float(instances), "count")
    metrics["trace.untraced_ms"] = (untraced * 1e3, "ms/inst")
    metrics["trace.overhead_ms"] = ((traced - untraced) * 1e3, "ms/inst")
    print(f"absent {absent} counts_unreadable {sorted(tracer.attrs_missing)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="nonnegative; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.dont_write_bytecode = True  # every run compiles alike; no cache files

    numpy_start = time.perf_counter()
    import numpy
    numpy_import_s = time.perf_counter() - numpy_start
    import checks
    import tracing

    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps({
        "commit": git_commit(), "src_sha256": src_digest(),
        "numpy": numpy.__version__, "python": platform.python_version(),
        "nproc": nproc}))

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(checks, wl, args.seed, workdir, tracer)
    try:
        setup_times = [bench.setup(k) for k in range(SETUPS)]
        setup_s = statistics.median(setup_times)
        if tracer is None:
            bench.loop(args.seconds)
            metrics = end_to_end(bench, setup_s)
        else:
            metrics = traced_run(bench, tracing, tracer, args.seconds)
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in report_lines(bench, setup_times, numpy_import_s):
        print(line)
    for message in bench.errors[:MAX_ERRORS_SHOWN]:
        print(f"failed: {message}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != expected:
        raise SystemExit("error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
    print(json.dumps({
        "correct": not bench.failed,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
