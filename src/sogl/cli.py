"""Command-line driver.

Subcommands: ``solve`` (ADMM or dual ascent), ``bounds``
(sandwich report per variant), ``oracle`` (exact enumeration on small
instances), ``check`` (first-order test of a candidate point), ``gen``
(seeded instance generator). Records go to stdout or ``--out`` as
deterministic JSON; timing fields stay null unless ``--stamp`` is given,
so identical invocations produce identical bytes. ``solve --out-dir DIR``
writes one record per instance file, ``DIR/<stem>.record.json``.

Exit codes: 0 success, 1 usage, 2 validation or unwritable output,
3 non-finite iterates or results, 4 too large for the oracle's l0 search.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import math
import os
import sys
import time

import numpy as np

from .admm import (DOUBLE_EVERY, RHO_TIMES_S, AdmmConfig, NonFiniteError,
                   solve_admm, start_rho)
from .bounds import sandwich
from .dual import solve_dual
from .instances import (
    NonFiniteNumberError,
    ParseError,
    ValidationError,
    dumps_canonical,
    generate_instance,
    parse_instance,
    read_point,
    trace_to_csv,
    write_atomic,
)
from .model import objective_value
from .oracle import (N_LIMIT, TooLargeError, oracle_prox_l0_ogl, oracle_variant,
                     stationarity_check)

__all__ = ["run_cli", "main"]


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    def __init__(self, path: str, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


# an error a command reports as ``error: ...``, and its exit code; a
# subclass exits like its base
_EXIT_CODES = {ParseError: 2, ValidationError: 2, _WriteError: 2,
               NonFiniteError: 3, NonFiniteNumberError: 3, TooLargeError: 4}
_ERRORS = tuple(_EXIT_CODES)


def _exit_code(exc: Exception) -> int:
    return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """A command-line number that a record can echo: finite."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _positive_float(text: str) -> float:
    """A command-line step: finite and above 0."""
    x = _finite_float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return x


def _nonnegative_float(text: str) -> float:
    """A command-line penalty: finite and at least 0."""
    x = _finite_float(text)
    if not x >= 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative number, got {text!r}")
    return x


def _positive_int(text: str, low: int = 1) -> int:
    """A command-line count, at least 1; ``low=0`` also admits 0, for a seed."""
    try:
        k = int(text)
    except ValueError:
        k = low - 1
    if k < low:
        kind = "positive" if low else "nonnegative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return k


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process. Parsing leaves it unchanged, and
    no default is a mutable object a command could change."""
    p = _Parser(prog="sogl", description="Prox solvers and value bounds for "
                "the l0 sparse overlapping group lasso.")
    sub = p.add_subparsers(dest="command", metavar="command",
                           parser_class=_Parser)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH")
    stamp = argparse.ArgumentParser(add_help=False)
    stamp.add_argument("--stamp", action="store_true",
                       help="fill the record's timing fields")

    solve = sub.add_parser("solve", parents=[out, stamp],
                           help="run a solver on an instance")
    solve.add_argument("instance", nargs="*", default=(),
                       help="instance file(s); '-' or none reads one "
                       "instance from stdin")
    solve.add_argument("--algorithm", choices=("admm", "dual"), default="admm")
    solve.add_argument("--rho", type=_positive_float,
                       help=f"starting ADMM penalty (default {RHO_TIMES_S}/s), "
                       f"doubled after every {DOUBLE_EVERY} iterations while "
                       "the primal residual lags (sogl.solve_admm gives the "
                       "full rule); admm only")
    solve.add_argument("--max-iters", type=_positive_int, default=AdmmConfig.max_iters)
    solve.add_argument("--eps-abs", type=_nonnegative_float, default=AdmmConfig.eps_abs)
    solve.add_argument("--eps-rel", type=_nonnegative_float, default=AdmmConfig.eps_rel)
    solve.add_argument("--trace", metavar="PATH",
                       help="write per-iteration CSV trace here")
    solve.add_argument("--out-dir", metavar="DIR",
                       help="write each file's record to DIR/<stem>.record.json")

    bounds = sub.add_parser("bounds", parents=[out, stamp],
                            help="sandwich bounds for one variant")
    bounds.add_argument("instance", nargs="?", default="-")
    bounds.add_argument("--variant", choices=("plain", "l1", "l0"),
                        default="plain")
    bounds.add_argument("--with-oracle", action="store_true",
                        help="also compute the exact value by enumeration")
    limit_help = (f"largest n (default {N_LIMIT}) of the oracle's search over "
                  "supports, run only with a count term (lambda0 > 0); pruning "
                  "often makes 20 or so practical, but the worst case solves "
                  "all 2^n supports")
    bounds.add_argument("--limit", type=_positive_int,
                        help="for --with-oracle --variant l0: " + limit_help)

    oracle = sub.add_parser("oracle", parents=[out, stamp],
                            help="exact enumeration solve")
    oracle.add_argument("instance", nargs="?", default="-")
    oracle.add_argument("--limit", type=_positive_int, default=N_LIMIT,
                        help=limit_help)

    check = sub.add_parser("check", parents=[out, stamp],
                           help="first-order check of a point")
    check.add_argument("instance", nargs="?", default="-")
    check.add_argument("--point", required=True, metavar="PATH",
                       help="JSON array, {'x': [...]}, or a solve record")

    gen = sub.add_parser("gen", parents=[out],
                         help="generate a seeded random instance")
    gen.add_argument("--seed", type=functools.partial(_positive_int, low=0), default=0)
    gen.add_argument("--n", type=_positive_int, default=8)
    gen.add_argument("--m", type=_positive_int, default=3)
    gen.add_argument("--min-size", type=_positive_int, default=2)
    gen.add_argument("--max-size", type=_positive_int, default=4)
    gen.add_argument("--mode", choices=("chain", "random", "nested"),
                     default="chain")
    gen.add_argument("--s", type=_positive_float, default=1.0)
    gen.add_argument("--lambda0", type=_nonnegative_float, default=0.05)
    gen.add_argument("--lambda1", type=_nonnegative_float, default=0.1)
    gen.add_argument("--lambda", dest="lambda_", type=_nonnegative_float,
                     default=0.1)
    return p


# the instance paths that name stdin
_STDIN = ("-", "")


def _read_instance(path: str) -> tuple:
    """The instance at ``path`` ('-' or empty: stdin) and its source name."""
    if path in _STDIN:
        if sys.stdin is None:  # the process was started with stdin closed
            raise ParseError("cannot read <stdin>: stdin is closed")
        return parse_instance(sys.stdin), "stdin"
    return parse_instance(path), path


def _emit(text: str, path: str):
    """Write ``text`` to the file ``path`` atomically, or to stdout."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        write_atomic(path, text)
    except OSError as exc:
        raise _WriteError(path, exc) from exc


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _record(instf, source: str, algorithm: str, config: dict, report: dict,
            stamp: bool) -> str:
    """The text of a run record."""
    name = instf.name if instf.name is not None else os.path.basename(source)
    return dumps_canonical({"instance": name, "algorithm": algorithm,
                            "config": config, "report": report,
                            "timestamp": _now() if stamp else None,
                            "seed": instf.seed})


def _run_solve_single(args, cfg: AdmmConfig, path: str) -> tuple:
    """The record text of one solve, and its trace CSV (None without
    ``--trace``)."""
    instf, source = _read_instance(path)
    inst, gs = instf.build()
    rho = start_rho(inst, cfg) if args.algorithm == "admm" else None
    # the config's fields in declaration order, rho as resolved
    config = {"algorithm": args.algorithm, **vars(cfg), "rho": rho}
    del config["trace"]
    solver = solve_admm if args.algorithm == "admm" else solve_dual
    start = time.perf_counter()
    report = solver(inst, gs, cfg)
    wall_time = time.perf_counter() - start
    # a record's report: the fields in declaration order, timed last
    rep = {**vars(report), "wall_time": wall_time if args.stamp else None}
    del rep["trace"]
    text = _record(instf, source, report.algorithm, config, rep, args.stamp)
    return text, trace_to_csv(report) if args.trace else None


def _check_outputs(outputs):
    """Refuse two ``(writer, path)`` pairs that name one file; no path: stdout."""
    writers = {}
    for writer, path in outputs:
        key = path and os.path.abspath(path)
        if key and key in writers:
            raise _UsageError(f"{writers[key]} and {writer} would both write {path}")
        writers[key] = writer


def _cmd_solve(args) -> int:
    if args.algorithm == "dual" and args.rho is not None:
        raise _UsageError("--rho applies only to --algorithm admm")
    cfg = AdmmConfig(rho=args.rho, max_iters=args.max_iters, eps_abs=args.eps_abs,
                     eps_rel=args.eps_rel, trace=bool(args.trace))
    paths = args.instance
    if args.out_dir:
        if not paths:
            raise _UsageError("--out-dir requires instance paths")
        if args.trace or args.out:
            raise _UsageError("--trace and --out are not supported with --out-dir")
        if any(path in _STDIN for path in paths):
            raise _UsageError("--out-dir takes instance files; stdin ('-') is for "
                              "a single instance")
        records = [os.path.join(args.out_dir, os.path.splitext(
            os.path.basename(path))[0] + ".record.json") for path in paths]
        _check_outputs(zip(paths, records))
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise _WriteError(args.out_dir, exc) from exc
        code = 0  # the highest exit code met
        for out, path in zip(records, paths):
            try:
                _emit(_run_solve_single(args, cfg, path)[0], out)
            except _ERRORS as exc:
                code = max(code, _exit_code(exc))
                print(f"{path}: error: {exc}")
            else:
                print(f"{path}: ok -> {out}")
        return code

    if len(paths) > 1:
        raise _UsageError("several instance files need --out-dir")
    _check_outputs([("--trace", args.trace), ("--out", args.out)])
    text, trace = _run_solve_single(args, cfg, paths[0] if paths else "-")
    if trace is not None:
        _emit(trace, args.trace)
    try:
        _emit(text, args.out)
    except _WriteError:
        if trace is not None:  # no trace without its record
            with contextlib.suppress(OSError):
                os.remove(args.trace)
        raise
    return 0


def _cmd_bounds(args) -> int:
    if args.limit is not None and not (args.with_oracle and args.variant == "l0"):
        raise _UsageError("--limit applies only to --with-oracle --variant l0")
    instf, source = _read_instance(args.instance)
    inst, gs = instf.build()
    report = sandwich(inst, gs, args.variant)
    if args.with_oracle:
        report.oracle_value = oracle_variant(inst, gs, args.variant,
                                             n_limit=args.limit or N_LIMIT).value
    config = {"variant": args.variant, "with_oracle": bool(args.with_oracle)}
    _emit(_record(instf, source, "bounds", config, vars(report), args.stamp),
          args.out)
    return 0


def _cmd_oracle(args) -> int:
    instf, source = _read_instance(args.instance)
    inst, gs = instf.build()
    result = oracle_prox_l0_ogl(inst, gs, n_limit=args.limit)
    _emit(_record(instf, source, "oracle", {"limit": args.limit},
                  vars(result), args.stamp), args.out)
    return 0


def _cmd_check(args) -> int:
    instf, source = _read_instance(args.instance)
    inst, gs = instf.build()
    x = read_point(args.point, gs.n)
    ok, residual = stationarity_check(x, inst, gs)
    rep = {"stationary": bool(ok), "residual": residual,
           "objective": objective_value(x, inst, gs)}
    _emit(_record(instf, source, "check", {"point": args.point}, rep,
                  args.stamp), args.out)
    return 0


def _cmd_gen(args) -> int:
    try:  # only the size range is left to check: each number has its type
        instf = generate_instance(
            seed=args.seed, n=args.n, m=args.m,
            group_size_range=(args.min_size, args.max_size),
            overlap_mode=args.mode, s=args.s, lambda0=args.lambda0,
            lambda1=args.lambda1, lambda_=args.lambda_,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(dumps_canonical(instf.to_dict()), args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "gen": _cmd_gen,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        # overflow is reported by the non-finite checks (exit 3), not warned
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
