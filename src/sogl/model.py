"""Group structures, thresholding primitives, and the composite objective.

Everything here is a pure function of its inputs; structures are plain
classes wrapping numpy arrays and are safe to share across threads.

Per-group copies of a global vector live in one stacked float array of
length ``gs.total_size``: block i occupies ``offsets[i]:offsets[i+1]`` and
holds the entries ``groups[i]``, so ``flat_index`` maps every stacked
position to its global index.
"""
from __future__ import annotations

import functools
import itertools
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
    """Index groups with defects; ``defects`` lists them as ``(i, j, kind)``,
    and the message names the first, e.g. ``groups[1][0]: repeated index 4``."""

    def __init__(self, message: str, defects: list):
        super().__init__(message)
        self.defects = defects


class GroupStructure:
    """Index groups over ``n`` variables, with per-group positive weights.

    Groups may overlap arbitrarily (including duplicated groups); variables
    covered by no group are allowed. Indices are 0-based. The groups are
    checked first (``GroupDefectError`` names the first defect), then the
    weights: one per group, each positive and finite, or a ``ValueError``
    names the first bad one as ``weights[i]``.

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
    """

    def __init__(self, n: int, groups: list, weights=None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        m = len(groups)
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=m)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        block = np.repeat(np.arange(m, dtype=np.int64), sizes)
        flat, defects = _index_defects(groups, block, self.offsets, n)
        if defects:  # the first in reading order: by group, then by entry
            i, j, kind = min(defects, key=lambda d: d[:2])
            idx = None if kind == "empty" else list(groups[i])[j]
            raise GroupDefectError({
                "empty": f"groups[{i}]: group is empty",
                "not-int": f"groups[{i}][{j}]: expected an integer index",
                "range": f"groups[{i}][{j}]: index {idx} out of range for n={n}",
                "repeat": f"groups[{i}][{j}]: repeated index {idx}",
            }[kind], defects)
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
        self.sizes = sizes
        self.flat_index = flat
        self.block_index = block
        self.overlap_counts = np.bincount(flat, minlength=n)

    @functools.cached_property
    def groups(self) -> list:
        bounds = self.offsets.tolist()
        return list(map(self.flat_index.__getitem__,
                        map(slice, bounds[:-1], bounds[1:])))

    @property
    def m(self) -> int:
        """Number of groups."""
        return len(self.sizes)

    @property
    def total_size(self) -> int:
        """Sum of group sizes (length of the stacked block vector)."""
        return int(self.offsets[-1])


def _index_defects(groups: list, block: np.ndarray, offsets: np.ndarray,
                   n: int) -> tuple:
    """Stack the groups' indices and locate the first defect of each kind.

    Group i goes to ``offsets[i]:offsets[i+1]`` of the stacked array, and
    ``block`` holds the group of every stacked position. Returns ``(flat,
    defects)``: ``defects`` lists ``(i, j, kind)``, at most one per kind
    and in this order, where entry j of group i is the defect: the first
    empty group (``j = -1``, kind ``"empty"``), the first entry that is not
    an integer (``"not-int"``; bools are not integers), before that one the
    first index outside ``[0, n)`` (``"range"``), and before that one the
    first index that repeats an earlier index of its group (``"repeat"``).
    When ``defects`` is empty every group is a non-empty set of valid
    indices and ``flat`` is their concatenation.
    """
    entries = list(itertools.chain.from_iterable(groups))
    odd = {t for t in set(map(type, entries))
           if issubclass(t, bool) or not issubclass(t, (int, np.integer))}
    if odd:  # stack the entries before the first non-integer only
        entries = entries[:next(k for k, x in enumerate(entries) if type(x) in odd)]
    try:
        flat = np.fromiter(entries, dtype=np.intp, count=len(entries))
    except OverflowError:  # clipping keeps in range exactly the valid indices
        flat = np.fromiter((min(max(x, -1), n) for x in entries),
                           dtype=np.intp, count=len(entries))
    defects = []
    empty = np.flatnonzero(np.diff(offsets) == 0)
    if empty.size:
        defects.append((int(empty[0]), -1, "empty"))
    if odd:
        defects.append(_locate(flat.size, offsets) + ("not-int",))
    # repeats are looked for before the first out-of-range index only, so
    # that an index of n or more cannot alias one of the next group
    bad = np.flatnonzero((flat < 0) | (flat >= n))
    end = int(bad[0]) if bad.size else flat.size
    if bad.size:
        defects.append(_locate(end, offsets) + ("range",))
    key = block[:end] * n + flat[:end]
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    later = order[1:][ordered[1:] == ordered[:-1]]
    if later.size:
        defects.append(_locate(int(later.min()), offsets) + ("repeat",))
    return flat, defects


def _locate(k: int, offsets: np.ndarray) -> tuple:
    """(group, position within it) of stacked position ``k``."""
    i = int(np.searchsorted(offsets, k, "right")) - 1
    return i, k - int(offsets[i])


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


def group_norms(a: np.ndarray, gs: GroupStructure) -> np.ndarray:
    """Euclidean norm of every block of a stacked vector, shape (m,)."""
    return np.sqrt(np.add.reduceat(a * a, gs.offsets[:-1]))


def group_norm_sum(x: np.ndarray, gs: GroupStructure) -> float:
    """The group term ``sum_i w_i*||x_{G_i}||_2`` of every objective."""
    return float(np.sum(gs.weights * group_norms(gather(x, gs), gs)))


def objective_value(x: np.ndarray, inst: ProxInstance, gs: GroupStructure) -> float:
    """Evaluate the composite objective

    ``(1/2s)*||x - v||^2 + lam0*nnz(x) + lam1*sum_i w_i*||x_{G_i}||_2``.

    A penalty term whose coefficient is 0 is left out, so a group norm
    that overflows does not turn ``0*inf`` into NaN.
    """
    x = np.asarray(x, dtype=float)
    value = 0.5 / inst.s * float(np.sum((x - inst.v) ** 2))
    if inst.lam0:
        value += inst.lam0 * int(np.count_nonzero(x))
    if inst.lam1:
        value += inst.lam1 * group_norm_sum(x, gs)
    return value
