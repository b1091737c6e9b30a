"""Every file the command line reads or writes: instances and points (one
JSON reader), canonical records and traces (atomic writes), and a generator.

Instance files are JSON objects with a fixed field set; unknown fields are
rejected so typos fail loudly. All numbers are emitted with 17 significant
digits, which round-trips float64 bit-exactly and keeps output byte-stable
across runs.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .model import GroupStructure, ProxInstance

__all__ = [
    "ParseError",
    "ValidationError",
    "NonFiniteNumberError",
    "InstanceFile",
    "parse_instance",
    "instance_from_dict",
    "read_point",
    "generate_instance",
    "dumps_canonical",
    "write_atomic",
    "trace_to_csv",
]

_FIELDS = {"v", "groups", "weights", "s", "lambda0", "lambda1", "lambda",
           "name", "seed"}
_REQUIRED = ("v", "groups", "s", "lambda0", "lambda1", "lambda")


class ParseError(ValueError):
    """The file is not valid JSON or not an object at the top level."""


class ValidationError(ValueError):
    """A field violates the schema; the message names the field."""


class NonFiniteNumberError(ValueError):
    """A number to serialize is NaN or infinite; the message names its key."""


@dataclass
class InstanceFile:
    """One validated instance: the solvers' ``(ProxInstance,
    GroupStructure)`` pair, with the file's optional name and seed."""

    inst: ProxInstance
    gs: GroupStructure
    name: str = None
    seed: int = None

    def to_dict(self) -> dict:
        """The fields of the instance file, in file order."""
        inst, gs = self.inst, self.gs
        d = {
            "v": inst.v.tolist(),
            "groups": [g.tolist() for g in gs.groups],
            "s": inst.s,
            "lambda0": inst.lam0,
            "lambda1": inst.lam1,
            "lambda": inst.lam,
            "weights": gs.weights.tolist(),
        }
        if self.name is not None:
            d["name"] = self.name
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    def build(self) -> tuple:
        """The validated ``(ProxInstance, GroupStructure)`` pair; the same
        objects on every call."""
        return self.inst, self.gs


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{where}: expected a finite number")
    return x


def _number_array(values: list, where: str) -> np.ndarray:
    """The entries of a JSON array as floats; ``ValidationError`` names the
    first entry ``where[i]`` that is not a finite number."""
    if set(map(type, values)) <= {int, float}:
        try:
            x = np.fromiter(values, dtype=float, count=len(values))
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(x).all():
                return x
    for i, value in enumerate(values):
        _require_number(value, f"{where}[{i}]")
    return np.array(values, dtype=float)  # subclasses of int or float


def instance_from_dict(data: dict) -> InstanceFile:
    """Validate a decoded JSON object against the instance schema and build
    the instance it describes."""
    if not isinstance(data, dict):
        raise ParseError("instance file must be a JSON object")
    for key in data:
        if key not in _FIELDS:
            raise ValidationError(f"unknown field {key!r}")
    for key in _REQUIRED:
        if key not in data:
            raise ValidationError(f"{key}: missing required field")

    v = data["v"]
    if not isinstance(v, list) or not v:
        raise ValidationError("v: expected a non-empty array of numbers")
    v = _number_array(v, "v")

    groups = data["groups"]
    if not isinstance(groups, list):
        raise ValidationError("groups: expected an array of arrays")
    weights = data.get("weights")
    if weights is not None:
        if not isinstance(weights, list):
            raise ValidationError("weights: expected an array of numbers")
        weights = _number_array(weights, "weights")
    try:
        gs = GroupStructure(v.size, groups, weights)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    s = _require_number(data["s"], "s")
    if not s > 0:
        raise ValidationError("s: must be positive")
    lambdas = {}
    for key in ("lambda0", "lambda1", "lambda"):
        val = _require_number(data[key], key)
        if val < 0:
            raise ValidationError(f"{key}: must be nonnegative")
        lambdas[key] = val

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValidationError("name: expected a string")
    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ValidationError("seed: expected an integer")

    # lambdas holds lambda0, lambda1, lambda: the field order of ProxInstance
    return InstanceFile(ProxInstance(v, s, *lambdas.values()), gs, name, seed)


def parse_instance(path) -> InstanceFile:
    """Read and validate one instance file or open text stream; ``build()``
    of the result gives the solvers' ``(ProxInstance, GroupStructure)`` pair.

    Raises
    ------
    ParseError
        On unreadable or malformed JSON.
    ValidationError
        On any schema or invariant violation; the message names the field.
    """
    return instance_from_dict(_read_json(path))


def _read_json(source):
    """The JSON value in the file path ``source`` or in the open text stream
    ``source``; ``ParseError`` names it when it cannot be read or parsed.

    A path is read as bytes and decoded as strict UTF-8, without the text
    layer's newline translation: a position in an error message counts the
    file's own characters, which differs from a text-mode read only for a
    malformed file with CR line ends."""
    stream = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if stream else source
    try:
        if stream:
            return json.load(source)
        with open(source, "rb") as fh:
            data = fh.read()
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {name}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {name}: {exc}") from exc


def read_point(path, n: int) -> np.ndarray:
    """The length-``n`` point in the JSON file ``path``: an array, ``{"x":
    [...]}`` or a solve record's ``report.x_final``. ``ValidationError``
    names a wrong form or length, or the first entry that is not finite."""
    data = _read_json(path)
    if isinstance(data, dict) and "report" in data:
        if not isinstance(data["report"], dict) or "x_final" not in data["report"]:
            raise ValidationError("point: record has no report.x_final")
        data = data["report"]["x_final"]
    elif isinstance(data, dict):
        data = data.get("x")
    if not isinstance(data, list):
        raise ValidationError("point: expected an array, {'x': ...}, or a record")
    if len(data) != n:
        raise ValidationError(f"point: expected length {n}, got {len(data)}")
    return _number_array(data, "point")


def generate_instance(seed: int, n: int, m: int,
                      group_size_range=(2, 4), overlap_mode: str = "chain",
                      s: float = 1.0, lambda0: float = 0.05,
                      lambda1: float = 0.1, lambda_: float = 0.1) -> InstanceFile:
    """Draw a random instance, deterministically from the seed.

    Modes: ``chain`` places consecutive windows that advance by half their
    width (wrapping to the front when they run off the end), ``random``
    samples uniform index subsets, ``nested`` produces an increasing chain
    of subsets of one shuffled index pool. Group sizes are drawn from
    ``group_size_range = (lo, hi)``, which needs ``1 <= lo <= hi``; sizes
    above ``n`` are capped at ``n``. ``seed`` must be nonnegative.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if overlap_mode not in ("chain", "random", "nested"):
        raise ValueError(f"unknown overlap_mode {overlap_mode!r}")
    lo, hi = map(int, group_size_range)
    if not 1 <= lo <= hi:
        raise ValueError(f"group size range ({lo}, {hi}) needs 1 <= min <= max")
    lo, hi = min(lo, n), min(hi, n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    sizes = rng.integers(lo, hi + 1, size=m)
    groups = []
    if overlap_mode == "chain":
        start = 0
        for size in sizes:
            size = int(size)
            if start + size > n:
                start = 0
            groups.append(list(range(start, start + size)))
            start += max(1, size - size // 2)
    elif overlap_mode == "random":
        for size in sizes:
            groups.append(sorted(int(i) for i in rng.choice(n, int(size), replace=False)))
    else:
        sizes = np.sort(sizes)
        pool = rng.permutation(n)
        for size in sizes:
            groups.append(sorted(int(i) for i in pool[: int(size)]))
    inst = ProxInstance(v, float(s), float(lambda0), float(lambda1),
                        float(lambda_))
    return InstanceFile(inst, GroupStructure(n, groups),
                        name=f"{overlap_mode}-n{n}-m{m}-seed{seed}",
                        seed=int(seed))


def _format_floats(values: list, where: str, sep: str = ", ") -> str:
    """The one number formatter: the floats of ``values`` joined by ``sep``,
    each with 17 significant digits, which round-trips float64 exactly. The
    whole list is formatted in one call and then checked at once: only the
    text of NaN and infinity contains an ``n``. ``NonFiniteNumberError``
    names the first of them by ``where`` and its index."""
    text = sep.join(["%.17g"] * len(values)) % tuple(values)
    if "n" in text:
        i = int(np.isfinite(values).argmin())
        raise NonFiniteNumberError(
            f"{where.removeprefix('.')}[{i}] is not finite ({values[i]})")
    return text


def _encode(obj, where: str) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = "%.17g" % obj  # the format of _format_floats
        if "n" in text:
            raise NonFiniteNumberError(
                f"{where.removeprefix('.') or 'value'} is not finite ({float(obj)})")
        return text
    if isinstance(obj, dict):
        items = (f"{_quote(str(k))}: {_encode(val, f'{where}.{k}')}"
                 for k, val in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1:
        return "[" + _format_floats(obj.tolist(), where) + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        kinds = set(map(type, seq))
        if kinds == {float}:  # a whole float list: formatted and checked once
            return "[" + _format_floats(seq, where) + "]"
        if type(seq) is list and kinds == {list} and set(map(
                type, itertools.chain.from_iterable(seq))) <= {int}:
            return repr(seq)  # int lists, such as the groups, in one call
        items = (_encode(val, f"{where}[{i}]") for i, val in enumerate(seq))
        return "[" + ", ".join(items) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text with fixed spacing, for records and instance
    files. ``obj`` nests dicts, lists, tuples, strings, bools, ``None``, and
    Python or numpy numbers and arrays; every float goes through one
    formatter. A NaN or infinity anywhere raises ``NonFiniteNumberError`` (a
    ``ValueError``) naming its place, e.g. ``report.x_final[3] is not finite
    (nan)``."""
    return _encode(obj, "") + "\n"


def write_atomic(path: str, text: str):
    """Write via a temp file and rename, so readers never see partial output.

    ``os.open`` creates the temp file exclusively, with mode ``0o666`` less
    the umask, as ``open(path, "w")`` would create ``path``. ``os.write`` is
    called until every byte of the UTF-8 text is written, a short write
    being finished by the next call; then the file is closed and renamed
    over ``path``. On any failure the temp file is removed and ``path`` is
    left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.json")
    data = text.encode("utf-8")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            done = 0
            while done < len(data):
                done += os.write(fd, data[done:])
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_to_csv(report) -> str:
    """Render a solve report's trace rows as CSV. The header is
    ``iter,objective,r_norm,s_norm`` for ADMM and ``iter,objective,bound,gap``
    for the dual solver; numbers are formatted and checked as by
    ``dumps_canonical``."""
    names = ("objective", *{"admm": ("r_norm", "s_norm"),
                            "dual": ("bound", "gap")}[report.algorithm])
    rows = report.trace or []
    floats = np.array([row[1:] for row in rows], dtype=float).reshape(-1, 3)
    columns = [_format_floats(floats[:, k].tolist(), f"trace.{name}", "\n")
               for k, name in enumerate(names)]
    lines = map(",".join, zip([str(int(row[0])) for row in rows],
                              *map(str.splitlines, columns)))
    return "\n".join([",".join(("iter", *names)), *lines]) + "\n"
