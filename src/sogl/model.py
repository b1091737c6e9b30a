"""Group structures, thresholding primitives, and the composite objective.

Everything here is a pure function of its inputs; structures are plain
dataclasses wrapping numpy arrays and are safe to share across threads.

Per-group copies of a global vector live in one stacked float array of
length ``gs.total_size``: block i occupies ``offsets[i]:offsets[i+1]`` and
holds the entries ``groups[i]``, so ``flat_index`` maps every stacked
position to its global index.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupStructure",
    "ProxInstance",
    "hard_threshold",
    "gather",
    "scatter_add",
    "group_norms",
    "group_norm_sum",
    "weighted_group_norm",
    "objective_value",
]


@dataclass
class GroupStructure:
    """Index groups over ``n`` variables, with per-group positive weights.

    Groups may overlap arbitrarily (including duplicated groups); variables
    covered by no group are allowed. Indices are 0-based.

    Attributes
    ----------
    n : int
        Number of global variables.
    groups : list of int arrays
        ``groups[i]`` holds the distinct global indices of group ``i``.
    weights : float array, shape (m,)
        Strictly positive per-group weights. Defaults to all ones.
    sizes, offsets, flat_index : int arrays
        Stacked layout: block i is ``offsets[i]:offsets[i+1]`` (length
        ``sizes[i]``) and ``flat_index`` is the concatenation of the groups.
    overlap_counts : int array, shape (n,)
        ``overlap_counts[g]`` is the number of groups containing ``g``.
    """

    n: int
    groups: list
    weights: np.ndarray = None
    overlap_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        m = len(self.groups)
        if self.weights is None:
            self.weights = np.ones(m)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (m,):
            raise ValueError(
                f"weights must have one entry per group ({m}), got shape {self.weights.shape}"
            )
        if m and not np.all(self.weights > 0):
            raise ValueError("all group weights must be strictly positive")
        groups, sizes = [], []
        for i, g in enumerate(self.groups):
            g = np.asarray(g, dtype=np.intp)
            if g.size == 0:
                raise ValueError(f"group {i} is empty")
            if g.min() < 0 or g.max() >= self.n:
                raise ValueError(f"group {i} has an index outside [0, {self.n})")
            if np.unique(g).size != g.size:
                raise ValueError(f"group {i} has repeated indices")
            groups.append(g)
            sizes.append(g.size)
        self.groups = groups
        self.sizes = np.array(sizes, dtype=np.intp)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.intp)
        self.flat_index = np.concatenate(groups) if m else np.zeros(0, dtype=np.intp)
        self.overlap_counts = np.bincount(self.flat_index, minlength=self.n)

    @property
    def m(self) -> int:
        """Number of groups."""
        return len(self.groups)

    @property
    def total_size(self) -> int:
        """Sum of group sizes (length of the stacked block vector)."""
        return int(self.offsets[-1])


@dataclass
class ProxInstance:
    """One prox problem: center ``v``, step ``s``, and penalty levels.

    ``lam0`` scales the nonzero count, ``lam1`` the sum of group norms in
    the main objective, and ``lam`` the weighted group term used by the
    bound problems.
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
        if not self.s > 0:
            raise ValueError(f"step s must be positive, got {self.s}")
        for name in ("lam0", "lam1", "lam"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

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
    """Sum of the per-group euclidean norms of ``x`` (unit weights)."""
    return float(np.sum(group_norms(gather(x, gs), gs)))


def weighted_group_norm(x: np.ndarray, gs: GroupStructure) -> float:
    """Weighted sum of per-group euclidean norms used by the bound problems."""
    return float(np.sum(gs.weights * group_norms(gather(x, gs), gs)))


def objective_value(x: np.ndarray, inst: ProxInstance, gs: GroupStructure) -> float:
    """Evaluate the composite objective

    ``(1/2s)*||x - v||^2 + lam0*nnz(x) + lam1*sum_i ||x_{G_i}||_2``.

    The group term is unweighted here; the weighted variant feeding the
    bound problems is :func:`weighted_group_norm`.
    """
    x = np.asarray(x, dtype=float)
    quad = 0.5 / inst.s * float(np.sum((x - inst.v) ** 2))
    nnz = int(np.count_nonzero(x))
    return quad + inst.lam0 * nnz + inst.lam1 * group_norm_sum(x, gs)
