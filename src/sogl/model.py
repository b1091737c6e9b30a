"""Group structures, thresholding primitives, and the composite objective.

Everything here is a pure function of its inputs; structures are plain
classes wrapping numpy arrays and are safe to share across threads. The
ADMM residuals and all bound values take their norms from ``_norm``.

Per-group copies of a global vector live in one stacked float array of
length ``gs.total_size``: block i occupies ``offsets[i]:offsets[i+1]`` and
holds the entries ``groups[i]``, so ``flat_index`` maps every stacked
position to its global index.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupDefectError",
    "GroupStructure",
    "ProxInstance",
    "hard_threshold",
    "gather",
    "scatter_add",
    "group_norms",
    "group_norm_sum",
    "objective_value",
]


class GroupDefectError(ValueError):
    """Index groups with a defect; the message names it, e.g.
    ``groups[1][0]: repeated index 4``, and ``defects`` holds it as the one
    entry ``(i, j, kind)``."""

    def __init__(self, message: str, defects: list):
        super().__init__(message)
        self.defects = defects


class GroupStructure:
    """Index groups over ``n`` variables, with per-group positive weights.

    Groups may overlap arbitrarily (including duplicated groups); variables
    covered by no group are allowed. A group is a list, a tuple or a 1-D
    numpy array of distinct integer indices in ``[0, n)`` (numpy integers
    count, bools do not), and it is not empty. The groups are checked first:
    ``GroupDefectError`` names the first defect in reading order, group by
    group and each group's entries in turn, and a group of another type is
    named as ``groups[i]: expected an array of indices``. Then the weights:
    one per group, each positive and finite, or a ``ValueError`` names the
    first bad one as ``weights[i]``.

    Attributes
    ----------
    n : int
        Number of global variables.
    groups : list of int arrays
        ``groups[i]`` holds the distinct global indices of group ``i``: the
        view ``flat_index[offsets[i]:offsets[i+1]]``. The list is built on
        first read, since the solvers work on the stacked layout only.
    weights : float array, shape (m,)
        Positive finite per-group weights. Defaults to all ones.
    sizes, offsets, flat_index, block_index : int arrays
        Stacked layout: block i is ``offsets[i]:offsets[i+1]`` (length
        ``sizes[i]``), ``flat_index`` is the concatenation of the groups and
        ``block_index[p]`` is the group that stacked position p belongs to.
    overlap_counts : int array, shape (n,)
        ``overlap_counts[g]`` is the number of groups containing ``g``.
    max_overlap : int
        The largest overlap count, 1 when no variable is covered; computed
        on first read.
    """

    def __init__(self, n: int, groups: list, weights=None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        m = len(groups)
        layout = _stacked_layout(groups, n)
        if layout is None:
            i, j, kind = _first_defect(groups, n)
            idx = groups[i][j] if kind in ("range", "repeat") else None
            raise GroupDefectError({
                "not-array": f"groups[{i}]: expected an array of indices",
                "empty": f"groups[{i}]: group is empty",
                "not-int": f"groups[{i}][{j}]: expected an integer index",
                "range": f"groups[{i}][{j}]: index {idx} out of range for n={n}",
                "repeat": f"groups[{i}][{j}]: repeated index {idx}",
            }[kind], [(i, j, kind)])
        w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValueError(
                f"weights: expected one entry per group ({m}), got shape {w.shape}")
        bad = np.flatnonzero(~((w > 0) & (w < np.inf)))  # NaN is refused too
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"weights[{i}]: must be "
                             + ("finite" if w[i] > 0 else "strictly positive"))
        self.weights = w
        self.sizes, self.block_index, self.flat_index = layout
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.intp)
        self.overlap_counts = np.bincount(self.flat_index, minlength=n)

    @functools.cached_property
    def groups(self) -> list:
        bounds = self.offsets.tolist()
        return list(map(self.flat_index.__getitem__,
                        map(slice, bounds[:-1], bounds[1:])))

    @functools.cached_property
    def max_overlap(self) -> int:
        return max(int(self.overlap_counts.max()), 1)

    @property
    def m(self) -> int:
        """Number of groups."""
        return len(self.sizes)

    @property
    def total_size(self) -> int:
        """Sum of group sizes (length of the stacked block vector)."""
        return int(self.offsets[-1])


def _is_group(g) -> bool:
    return isinstance(g, (list, tuple)) or isinstance(g, np.ndarray) and g.ndim == 1


def _is_index(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _stacked_layout(groups: list, n: int):
    """``(sizes, block_index, flat_index)`` of valid groups, else None.

    Group and entry types are checked once per distinct type (each array
    group for its shape); range, emptiness and repeats are then read from
    the sorted keys ``block*n + index``, without a loop over the groups."""
    kinds = set(map(type, groups))
    if not kinds <= {list, tuple} and not all(map(_is_group, groups)):
        return None
    entries = list(itertools.chain.from_iterable(groups))
    if not all(map(_is_index, set(map(type, entries)))):
        return None
    try:
        flat = np.fromiter(entries, dtype=np.intp, count=len(entries))
    except OverflowError:  # an index beyond the integer range
        return None
    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    if not sizes.all() or flat.size and (flat.min() < 0 or flat.max() >= n):
        return None
    block = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    key = np.sort(block * n + flat)
    if (key[1:] == key[:-1]).any():
        return None
    return sizes, block, flat


def _first_defect(groups: list, n: int) -> tuple:
    """``(i, j, kind)`` of the first defect of the groups in reading order:
    group i is not a list, tuple or 1-D array (``"not-array"``) or is empty
    (``"empty"``), both with ``j = -1``, or its entry j is not an integer
    (``"not-int"``), lies outside ``[0, n)`` (``"range"``) or repeats an
    earlier entry of its group (``"repeat"``). None when there is none."""
    for i, g in enumerate(groups):
        if not _is_group(g):
            return i, -1, "not-array"
        if len(g) == 0:
            return i, -1, "empty"
        seen = set()
        for j, idx in enumerate(g):
            if not _is_index(type(idx)):
                return i, j, "not-int"
            if not 0 <= idx < n:
                return i, j, "range"
            if idx in seen:
                return i, j, "repeat"
            seen.add(idx)
    return None


@dataclass
class ProxInstance:
    """One prox problem: center ``v``, step ``s``, and penalty levels.

    ``lam0`` scales the nonzero count and ``lam1`` the weighted group term
    ``sum_i w_i*||x_{G_i}||_2`` of the main objective; ``lam`` scales the
    same group term in the bound problems. Construction raises ``ValueError``
    on a step that is not positive and finite and on a penalty that is
    negative, NaN or infinite; ``solve_admm`` refuses an infinite ``v``.
    """

    v: np.ndarray
    s: float = 1.0
    lam0: float = 0.0
    lam1: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.ndim != 1:
            raise ValueError("v must be a 1-D vector")
        if not 0 < self.s < np.inf:
            raise ValueError(f"step s must be positive and finite, got {self.s}")
        for name in ("lam0", "lam1", "lam"):
            value = getattr(self, name)
            if not value >= 0:  # NaN is refused too
                raise ValueError(f"{name} must be nonnegative")
            if value == np.inf:
                raise ValueError(f"{name} must be finite")

    @property
    def n(self) -> int:
        return self.v.size


def _require_same_n(inst: ProxInstance, gs: GroupStructure) -> None:
    """Refuse an instance and a structure of different ``n``; the solvers,
    ``sandwich`` and the oracle entries all check with this."""
    if inst.n != gs.n:
        raise ValueError(f"instance has n={inst.n} but structure has n={gs.n}")


def hard_threshold(u, t):
    """Keep entries with ``|u| > t``, zero the rest (ties go to zero).

    Works on scalars and arrays; ``t`` may be a scalar or a per-entry array.
    """
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) > t, u, 0.0)
    return float(out) if out.ndim == 0 else out


def gather(z: np.ndarray, gs: GroupStructure) -> np.ndarray:
    """Stack the per-group copies of the global vector: block i is z[groups[i]]."""
    z = np.asarray(z, dtype=float)
    if z.size != gs.n:
        raise ValueError(f"expected a vector of length {gs.n}, got {z.size}")
    return z[gs.flat_index]


def scatter_add(a: np.ndarray, gs: GroupStructure) -> np.ndarray:
    """Sum stacked entries back onto their global indices.

    Adjoint of :func:`gather`; ``scatter_add(gather(z)) == overlap_counts * z``.
    """
    # bincount returns integer zeros when there is nothing to add
    return np.bincount(gs.flat_index, weights=a, minlength=gs.n).astype(float, copy=False)


def _scaled(a: np.ndarray):
    """``(a/2**e, e)`` with 2**e just above ``max|a|`` (e = 0 for a zero a)."""
    e = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    return np.ldexp(a, -e), e


def _ldexp(x: float, e: int) -> float:
    """``x*2**e`` for ``x >= 0``, inf where it overflows (math.ldexp raises)."""
    return math.ldexp(x, e) if not x or math.frexp(x)[1] + e <= 1024 else math.inf


def _norm(a: np.ndarray) -> float:
    """``||a||_2`` from ``a.dot(a)`` when that is a normal float or a is 0,
    else from ``_scaled(a)``, as Blue (1978) scales; inf past the range."""
    sq = float(a.dot(a))
    if 2.0**-1022 <= sq < math.inf or not (sq or np.count_nonzero(a)):  # or a = 0
        return math.sqrt(sq)
    a, e = _scaled(a)
    return _ldexp(math.sqrt(float(a.dot(a))), e)


def group_norms(a: np.ndarray, gs: GroupStructure) -> np.ndarray:
    """Euclidean norm of every block of a stacked vector, shape (m,)."""
    return np.sqrt(np.add.reduceat(a * a, gs.offsets[:-1]))


def group_norm_sum(x: np.ndarray, gs: GroupStructure) -> float:
    """The group term ``sum_i w_i*||x_{G_i}||_2`` of every objective."""
    return float((gs.weights * group_norms(gather(x, gs), gs)).sum())


def objective_value(x: np.ndarray, inst: ProxInstance, gs: GroupStructure) -> float:
    """Evaluate the composite objective

    ``(1/2s)*||x - v||^2 + lam0*nnz(x) + lam1*sum_i w_i*||x_{G_i}||_2``.

    A penalty term whose coefficient is 0 is left out, so a group norm
    that overflows does not turn ``0*inf`` into NaN.
    """
    x = np.asarray(x, dtype=float)
    value = 0.5 / inst.s * float(((x - inst.v) ** 2).sum())
    if inst.lam0:
        value += inst.lam0 * int(np.count_nonzero(x))
    if inst.lam1:
        value += inst.lam1 * group_norm_sum(x, gs)
    return value
