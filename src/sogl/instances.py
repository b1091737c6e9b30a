"""Instance files, canonical serialization, and a generator.

Instance files are JSON objects with a fixed field set; unknown fields are
rejected so typos fail loudly. All numbers are emitted with 17 significant
digits, which round-trips float64 bit-exactly and keeps output byte-stable
across runs.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .model import GroupDefectError, GroupStructure, ProxInstance

__all__ = [
    "ParseError",
    "ValidationError",
    "NonFiniteNumberError",
    "InstanceFile",
    "parse_instance",
    "parse_instance_text",
    "instance_from_dict",
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
    """In-memory form of one instance file."""

    v: list
    groups: list
    s: float
    lambda0: float
    lambda1: float
    lambda_: float
    weights: list = None
    name: str = None
    seed: int = None

    def to_dict(self) -> dict:
        d = {
            "v": list(self.v),
            "groups": [list(map(int, g)) for g in self.groups],
            "s": self.s,
            "lambda0": self.lambda0,
            "lambda1": self.lambda1,
            "lambda": self.lambda_,
        }
        if self.weights is not None:
            d["weights"] = list(self.weights)
        if self.name is not None:
            d["name"] = self.name
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    def build(self):
        """Construct the validated (ProxInstance, GroupStructure) pair."""
        gs = GroupStructure(n=len(self.v), groups=self.groups,
                            weights=self.weights)
        inst = ProxInstance(v=np.asarray(self.v, dtype=float), s=self.s,
                            lam0=self.lambda0, lam1=self.lambda1,
                            lam=self.lambda_)
        return inst, gs


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


def _group_structure(groups: list, n: int) -> GroupStructure:
    """The structure of the index groups; ``ValidationError`` names their
    first defect in reading order (group by group, each group's entries in
    turn)."""
    i = None if set(map(type, groups)) <= {list} else next(
        (i for i, g in enumerate(groups) if not isinstance(g, list)), None)
    try:
        gs = GroupStructure(n, groups if i is None else groups[:i])
    except GroupDefectError as exc:
        i, j, kind = min(exc.defects, key=lambda d: d[:2])
        if kind == "empty":
            raise ValidationError(f"groups[{i}]: group is empty") from None
        raise ValidationError(f"groups[{i}][{j}]: " + {
            "not-int": "expected an integer index",
            "range": f"index {groups[i][j]} out of range for n={n}",
            "repeat": f"repeated index {groups[i][j]}",
        }[kind]) from None
    if i is not None:
        raise ValidationError(f"groups[{i}]: expected an array of indices")
    return gs


def _read(data: dict) -> tuple:
    """Validate a decoded JSON object against the instance schema and build
    it: ``(InstanceFile, ProxInstance, GroupStructure)``."""
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
    gs = _group_structure(groups, v.size)

    weights = data.get("weights")
    if weights is not None:
        if not isinstance(weights, list):
            raise ValidationError("weights: expected an array of numbers")
        if len(weights) != len(groups):
            raise ValidationError(
                f"weights: expected {len(groups)} entries, got {len(weights)}"
            )
        w = _number_array(weights, "weights")
        nonpositive = np.flatnonzero(~(w > 0))
        if nonpositive.size:
            raise ValidationError(
                f"weights[{nonpositive[0]}]: must be strictly positive")
        gs.weights = w  # checked above, with the messages of the file format
        weights = w.tolist()

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

    # lambdas holds lambda0, lambda1, lambda: the field order of both classes
    return (InstanceFile(v.tolist(), list(groups), s, *lambdas.values(),
                         weights=weights, name=name, seed=seed),
            ProxInstance(v, s, *lambdas.values()), gs)


def instance_from_dict(data: dict) -> InstanceFile:
    """Validate a decoded JSON object against the instance schema."""
    return _read(data)[0]


def parse_instance_text(text: str):
    """Parse instance JSON text into (ProxInstance, GroupStructure, InstanceFile)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    instf, inst, gs = _read(data)
    return inst, gs, instf


def parse_instance(path: str):
    """Read and validate one instance file.

    Returns ``(ProxInstance, GroupStructure, InstanceFile)``.

    Raises
    ------
    ParseError
        On unreadable or malformed JSON.
    ValidationError
        On any schema or invariant violation; the message names the field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_instance_text(text)


def generate_instance(seed: int, n: int, m: int,
                      group_size_range=(2, 4), overlap_mode: str = "chain",
                      s: float = 1.0, lambda0: float = 0.05,
                      lambda1: float = 0.1, lambda_: float = 0.1) -> InstanceFile:
    """Draw a random instance, deterministically from the seed.

    Modes: ``chain`` places consecutive windows that advance by half their
    width (wrapping to the front when they run off the end), ``random``
    samples uniform index subsets, ``nested`` produces an increasing chain
    of subsets of one shuffled index pool.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if overlap_mode not in ("chain", "random", "nested"):
        raise ValueError(f"unknown overlap_mode {overlap_mode!r}")
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")
    for key, val in (("lambda0", lambda0), ("lambda1", lambda1), ("lambda", lambda_)):
        if not 0 <= val < math.inf:
            raise ValueError(f"{key} must be nonnegative and finite, got {val}")
    lo, hi = group_size_range
    lo = max(1, min(int(lo), n))
    hi = max(lo, min(int(hi), n))
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
    return InstanceFile(
        v=[float(x) for x in v],
        groups=groups,
        s=float(s),
        lambda0=float(lambda0),
        lambda1=float(lambda1),
        lambda_=float(lambda_),
        weights=[1.0] * m,
        name=f"{overlap_mode}-n{n}-m{m}-seed{seed}",
        seed=int(seed),
    )


def _format_floats(values, where: str) -> list:
    """The one number formatter: the text of each float in ``values`` (one
    float or a 1-D sequence), with 17 significant digits, which round-trips
    float64 exactly. A sequence is tested for NaN and infinity at once;
    ``NonFiniteNumberError`` names the first by ``where`` and its index."""
    if isinstance(values, (float, np.floating)):  # one float: no numpy call
        x = float(values)
        if not math.isfinite(x):
            raise NonFiniteNumberError(
                f"{where.removeprefix('.') or 'value'} is not finite ({x})")
        return ["{:.17g}".format(x)]
    x = np.asarray(values, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        i = int(finite.argmin())
        raise NonFiniteNumberError(
            f"{where.removeprefix('.')}[{i}] is not finite ({x[i]})")
    return list(map("{:.17g}".format, x.tolist()))


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
        return _format_floats(obj, where)[0]
    if isinstance(obj, dict):
        items = (f"{_quote(str(k))}: {_encode(val, f'{where}.{k}')}"
                 for k, val in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        kinds = set(map(type, seq))
        if kinds == {float}:  # a whole float list or array: checked once
            items = _format_floats(seq, where)
        elif kinds == {int}:
            items = map(str, seq)
        else:
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
    """Write via a temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_to_csv(trace) -> str:
    """Render solver trace rows as CSV with a fixed header; numbers are
    formatted and checked as by ``dumps_canonical``."""
    rows = trace or []
    floats = np.array([row[1:] for row in rows], dtype=float).reshape(-1, 3)
    columns = [_format_floats(floats[:, k], f"trace.{name}")
               for k, name in enumerate(("objective", "r_norm", "s_norm"))]
    lines = map(",".join, zip([str(int(row[0])) for row in rows], *columns))
    return "\n".join(["iter,objective,r_norm,s_norm", *lines]) + "\n"
