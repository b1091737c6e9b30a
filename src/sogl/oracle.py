"""Independent brute-force reference solvers for desk-scale certification.

Nothing here calls the solver or bounds code it certifies; the shrinkage
primitives are reimplemented locally on purpose. The main tool is an exact
search over supports: for every candidate support S the remaining problem
is convex, and because its smooth part is exactly the prox quadratic, that
restricted problem is a single prox of a sum of norms. It separates over
the connected components of the active groups (positive coefficient)
restricted to S, and over the coordinates of S that no active group
covers, which are shrunk in closed form. A component's problem depends on
the component alone, so one search solves each distinct component
once and reuses it for every later support that has it: in closed form
when its groups all restrict to the whole component, otherwise by
Dykstra's splitting on the component's coordinates, stopped when a pass
moves no entry by more than ``1e-13*(1 + ||v_C||)``. The count term is
charged at the actual nonzero count of each restricted minimizer, so the
minimum over supports is the exact global optimum. ``oracle_variant`` is
the one door into this search, and ``oracle_prox_l0_ogl`` is its ``"l0"``
variant at ``lam = lam1``. Its size limit bounds only the search with a
count term: without one the full support is solved once, at any n. The
search and ``stationarity_check`` refuse an instance and a structure of
different ``n`` with ``model._require_same_n``, the solvers' own check.

With a count term the supports are searched depth first and a branch is
cut by a separable lower bound: ``||x_G||_2 >= ||x_G||_1/sqrt(|G|)`` turns
the group terms into per-coordinate l1 terms, and then every coordinate
costs at least ``v_j^2/(2s)`` off the support and a soft-threshold minimum
plus ``lam0`` on it. A branch is cut only when this bound on every support
below it exceeds the best value found, so the optimal support, whose
restricted minimizer is the optimum, is always solved. On generator
instances (m = n/2, groups of 2-5, seeds 900-905) one call takes 0.3-5 ms
at n = 10, 0.5-29 ms at n = 12 (at most 245 of 4096 supports solved) and
2 ms-1.3 s at n = 20 (2 shared CPUs, Python 3.11, numpy 2.4). The worst
case still solves all 2^n supports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import GroupStructure, ProxInstance, _require_same_n

__all__ = [
    "OracleResult",
    "TooLargeError",
    "oracle_prox_l0_ogl",
    "oracle_variant",
    "stationarity_check",
]

N_LIMIT = 12  # the default enumeration size limit: at most 2**12 supports


class TooLargeError(ValueError):
    """Instance exceeds the enumeration size limit."""


@dataclass
class OracleResult:
    """Certified global minimum (to stated tolerance) and its minimizer."""

    value: float
    minimizer: np.ndarray
    method: str  # "support_enum" here; the test references set their own


def _shrink(u: np.ndarray, t: float) -> np.ndarray:
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def _block_norms(xb: np.ndarray, gs: GroupStructure) -> np.ndarray:
    """Norm of each block of a vector stacked by ``gs.flat_index``."""
    return np.sqrt(np.add.reduceat(xb * xb, gs.offsets[:-1]))


def _block_shrink(a: np.ndarray, t: float) -> np.ndarray:
    nrm = math.sqrt(a.dot(a))
    if nrm <= t:
        return np.zeros_like(a)
    return (1.0 - t / nrm) * a


def _dykstra(u: np.ndarray, blocks: list, t1: float, tol: float = 1e-13,
             max_passes: int = 4000) -> np.ndarray:
    """Prox at ``u`` of ``t1*||x||_1 + sum_k t_k*||x_{b_k}||_2`` for
    ``blocks = [(b_k, t_k), ...]`` with ``b_k`` positions in ``u``, by
    Dykstra's splitting over the elementwise shrink (when ``t1 > 0``) and
    then each block shrink in list order. A block's correction lives on its
    block only. Stops when a pass moves no entry by more than
    ``tol*(1 + ||u||)``."""
    x = u.copy()
    p1 = np.zeros_like(u)
    corrections = [np.zeros(b.size) for b, _ in blocks]
    scale = 1.0 + math.sqrt(u.dot(u))
    for _ in range(max_passes):
        x_before = x.copy()
        if t1 > 0:
            w = x + p1
            x = _shrink(w, t1)
            p1 = w - x
        for k, (b, t) in enumerate(blocks):
            w = x[b] + corrections[k]
            y = _block_shrink(w, t)
            corrections[k] = w - y
            x[b] = y
        if float(abs(x - x_before).max()) <= tol * scale:
            break
    return x


class _Restricted:
    """The problem restricted to a support, solved one connected piece at a
    time, and the separable bound that prunes the search over supports.

    Minimizes ``(1/2s)||x-v||^2 + sum_i coeffs[i]*||x_{G_i}||_2 +
    lam1*||x||_1 + lam0*nnz(x)`` over vectors supported on the coordinates
    of a bitmask S. The active groups (``coeffs[i] > 0``) restricted to S
    link its coordinates into connected components, and the problem
    separates over them: a coordinate no active group covers is shrunk in
    closed form, and a component C is its own problem, since every group
    that meets C has ``G_i & S`` inside C. Each distinct C is solved once
    and kept in ``self.pieces``. Groups with the same coordinates in C act
    as one block with the summed coefficient; a single block is solved in
    closed form, several by :func:`_dykstra` with the blocks in group
    order.

    ``self.off``/``self.on`` are each coordinate's share of the lower bound
    ``B(S) = sum_{j not in S} off_j + sum_{j in S} on_j`` on the objective
    of every point whose support is exactly S. ``||x_G||_2 >=
    ||x_G||_1/sqrt(|G|)`` bounds the group terms by ``sum_j l_j*|x_j|``
    with ``l_j = lam1 + sum_{i: j in G_i} coeffs[i]/sqrt(|G_i|)``, and the
    bound separates: off S a coordinate costs ``off_j = v_j^2/(2s)``, on S
    at least ``on_j = h_j + lam0``, ``h_j`` the soft-threshold minimum of
    ``(t - v_j)^2/(2s) + l_j*|t|``. No share is negative, so sums of them
    do not cancel. They differ from ``self.costs`` on purpose: on S an
    uncovered j with ``|v_j| <= s*lam1`` is charged ``off_j`` (its
    minimizer is 0), but its bound share is ``off_j + lam0``.
    """

    def __init__(self, v: np.ndarray, s: float, coeffs: np.ndarray,
                 lam1: float, lam0: float, gs: GroupStructure):
        self.v, self.s, self.t1 = v, s, s * lam1
        self.lam1, self.lam0 = lam1, lam0
        self.groups = [(sum(1 << j for j in g.tolist()), c)
                       for g, c in zip(gs.groups, coeffs.tolist()) if c > 0]
        covered = 0
        for mask, _ in self.groups:
            covered |= mask
        off = 0.5 / s * v * v
        self.off = off.tolist()
        self.lone = _shrink(v, self.t1)
        lone = (0.5 / s * (self.lone - v) ** 2 + lam1 * np.abs(self.lone)
                + lam0 * (self.lone != 0))
        # each coordinate's share of the value: (off S, on S); a covered
        # coordinate on S is charged through its component
        self.costs = [(o, 0.0 if covered >> j & 1 else c)
                      for j, (o, c) in enumerate(zip(self.off, lone.tolist()))]
        per_entry = (coeffs / np.sqrt(gs.sizes))[gs.block_index]
        slope = lam1 + np.bincount(gs.flat_index, weights=per_entry,
                                   minlength=v.size)
        a = np.abs(v)
        h = np.where(a > s * slope, slope * (a - 0.5 * s * slope), off)
        self.on = (h + lam0).tolist()
        self.pieces = {}

    def components(self, S: int) -> list:
        """Bitmasks of the connected components of the active groups
        restricted to S."""
        comps = []
        for mask, _ in self.groups:
            r = mask & S
            if r:
                merged = []
                for c in comps:
                    if c & r:
                        r |= c
                    else:
                        merged.append(c)
                merged.append(r)
                comps = merged
        return comps

    def piece(self, C: int) -> tuple:
        """``(idx, x_C, value)`` of component C: its coordinates, the
        minimizer on them, and its share of the objective."""
        got = self.pieces.get(C)
        if got is not None:
            return got
        idx = [j for j in range(self.v.size) if C >> j & 1]
        members = {}  # restricted group mask -> summed coefficient
        for mask, c in self.groups:
            r = mask & C
            if r:
                members[r] = members.get(r, 0.0) + c
        vc = self.v[idx]
        if len(members) == 1:
            (c,) = members.values()
            x = _block_shrink(_shrink(vc, self.t1), self.s * c)
            blocks = [(slice(None), c)]
        else:
            blocks = [(np.array([k for k, j in enumerate(idx) if r >> j & 1]), c)
                      for r, c in members.items()]
            x = _dykstra(vc, [(b, self.s * c) for b, c in blocks], self.t1)
        d = x - vc
        value = (0.5 / self.s * float(d.dot(d))
                 + sum(c * math.sqrt(x[b].dot(x[b])) for b, c in blocks)
                 + self.lam1 * float(np.abs(x).sum())
                 + self.lam0 * int(np.count_nonzero(x)))
        got = self.pieces[C] = (idx, x, value)
        return got

    def value(self, S: int) -> float:
        """The restricted minimum on support S."""
        return (sum(cost[S >> j & 1] for j, cost in enumerate(self.costs))
                + sum(self.piece(C)[2] for C in self.components(S)))

    def minimizer(self, S: int) -> np.ndarray:
        """The restricted minimizer on support S."""
        on = np.array([S >> j & 1 for j in range(self.v.size)], dtype=bool)
        x = np.where(on, self.lone, 0.0)
        for C in self.components(S):
            idx, xc, _ = self.piece(C)
            x[idx] = xc
        return x


def _branch_and_bound(restricted: _Restricted) -> tuple:
    """The least ``(value, S)`` of the restricted minimum over all supports.

    A depth-first search fixes one coordinate per level, in increasing order
    of ``on_j - off_j`` (the bound shares on ``restricted``), and takes the
    branch with the smaller share first. A node's bound is the shares of its
    decided coordinates plus ``min(off_j, on_j)`` of the undecided ones: the
    least ``B(S)`` of any support below it. The node is cut when its bound
    exceeds the best value so far plus ``1e-9*max(1, |best|)``. This is
    exact: the optimum x* has value ``>= B(supp x*)`` and is the restricted
    minimizer on its own support, so that support is never cut. The memory
    is O(n); the worst case still visits all 2^n supports.
    """
    off, on = restricted.off, restricted.on
    n = len(off)
    order = sorted(range(n), key=lambda j: on[j] - off[j])
    # rest[k]: the least shares of the coordinates from level k on
    rest = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        j = order[k]
        rest[k] = rest[k + 1] + min(off[j], on[j])
    best = [math.inf, 0]

    def visit(k: int, S: int, decided: float) -> None:
        if decided + rest[k] > best[0] + 1e-9 * max(1.0, abs(best[0])):
            return
        if k == n:
            candidate = [restricted.value(S), S]
            if candidate < best:
                best[:] = candidate
            return
        j = order[k]
        include = (S | 1 << j, decided + on[j])
        exclude = (S, decided + off[j])
        for branch in ((include, exclude) if on[j] < off[j]
                       else (exclude, include)):
            visit(k + 1, *branch)

    visit(0, 0, 0.0)
    return tuple(best)


def oracle_prox_l0_ogl(inst: ProxInstance, gs: GroupStructure,
                       n_limit: int = N_LIMIT) -> OracleResult:
    """Exact global minimum of the main composite objective
    ``(1/2s)||x-v||^2 + lam0*nnz(x) + lam1*sum_i w_i*||x_{G_i}||_2``.

    This is exactly :func:`oracle_variant` ``"l0"`` with ``lam = lam1``:
    the one support search sits behind both, with the same refusals.
    """
    return oracle_variant(replace(inst, lam=inst.lam1), gs, "l0", n_limit)


def oracle_variant(inst: ProxInstance, gs: GroupStructure, variant: str,
                   n_limit: int = N_LIMIT) -> OracleResult:
    """Exact optimum of one sandwich target problem, by the support search.

    The objective is ``(1/2s)||x-v||^2 + lam*sum_i w_i*||x_{G_i}||_2`` plus
    ``lam1*||x||_1`` for the l1 variant or ``lam0*nnz(x)`` for the l0
    variant. This is the one door into the support search: without a count
    term the full support, at any n, otherwise :func:`_branch_and_bound`,
    with each restricted problem it reaches solved per component to ~1e-12.
    Raises ``ValueError`` for an unknown variant or when ``inst.n != gs.n``,
    and :class:`TooLargeError` when ``n > n_limit`` with a count term.
    """
    if variant not in ("plain", "l1", "l0"):
        raise ValueError(f"unknown variant {variant!r}")
    _require_same_n(inst, gs)
    n = inst.n
    lam0 = inst.lam0 if variant == "l0" else 0.0
    if lam0 > 0 and n > n_limit:
        raise TooLargeError(f"n={n} exceeds the enumeration limit {n_limit} "
                            "of the search with a count term")
    restricted = _Restricted(inst.v, inst.s, inst.lam * gs.weights,
                             inst.lam1 if variant == "l1" else 0.0, lam0, gs)
    if lam0 == 0.0:  # without a count term the full support is optimal
        S = (1 << n) - 1
        value = restricted.value(S)
    else:
        value, S = _branch_and_bound(restricted)
    return OracleResult(value=value, minimizer=restricted.minimizer(S),
                        method="support_enum")


def stationarity_check(x: np.ndarray, inst: ProxInstance,
                       gs: GroupStructure, tol: float = 1e-6):
    """First-order check of the main objective at ``x``.

    The smooth-plus-group part must admit a vanishing subgradient: on the
    support every coordinate is differentiable, a nonzero block contributing
    ``lam1*w_i*x_{G_i}/||x_{G_i}||``; at zero coordinates the zero blocks
    contribute multipliers in the balls of radius ``lam1*w_i``, except
    that a positive count penalty makes any zero coordinate locally optimal
    on its own. The count term on the support is checked in closed form:
    zeroing any one nonzero coordinate must not decrease the objective.

    Returns ``(ok, residual)`` where residual measures the subgradient
    inclusion. With a count term it is the gradient's norm on the support.
    Without one it is ``min ||r + sum_i u_i||`` over the multipliers, r the
    rest of the subgradient; by Moreau's decomposition that is
    ``||prox_f(r)||`` for ``f = sum_i lam1*w_i*||x_{G_i}||_2`` over the
    zero blocks, computed by :func:`_dykstra` (stopped at ``1e-10*(1 +
    ||r||)`` or after 500 passes). Dykstra's iterate p is r less one
    correction in each ball, so ``||p||`` bounds that least norm from above
    and the support function ``(p.r - sum_i lam1*w_i*||p_{G_i}||)/||p||``
    bounds it from below. Only when ``||p|| > tol`` and the lower bound
    leaves the verdict open does Dykstra run again, with its 4000-pass
    budget, and the residual is the rerun's. Raises ``ValueError`` when
    ``inst.n != gs.n``.
    """
    _require_same_n(inst, gs)
    x = np.asarray(x, dtype=float)
    r = (x - inst.v) / inst.s
    radii = inst.lam1 * gs.weights
    xb = x[gs.flat_index]
    nrm = _block_norms(xb, gs)
    nrm_b = nrm[gs.block_index]
    r += np.bincount(gs.flat_index, minlength=gs.n, weights=np.divide(
        radii[gs.block_index] * xb, nrm_b,
        out=np.zeros(xb.size), where=nrm_b > 0))
    if inst.lam0 > 0:
        rs = r[x != 0]
        residual = math.sqrt(rs.dot(rs))
    else:
        zero = np.flatnonzero((nrm == 0) & (radii > 0))
        blocks = [(gs.groups[i], radii[i]) for i in zero]
        p = _dykstra(r, blocks, 0.0, tol=1e-10, max_passes=500)
        residual = math.sqrt(p.dot(p))
        if residual > tol and (p.dot(r) - radii[zero].dot(
                _block_norms(p[gs.flat_index], gs)[zero])) / residual <= tol:
            p = _dykstra(r, blocks, 0.0, tol=1e-10)
            residual = math.sqrt(p.dot(p))
    ok = residual <= tol
    if ok and inst.lam0 > 0:
        ok = _count_term_ok(x, inst, gs)
    return ok, residual


def _count_term_ok(x: np.ndarray, inst: ProxInstance,
                   gs: GroupStructure) -> bool:
    """True unless zeroing some nonzero coordinate g alone lowers the main
    objective by more than 1e-9.

    The change is in closed form: ``x_g(2v_g - x_g)/(2s) - lam0`` plus
    ``lam1`` times the sum, over the blocks i holding g, of ``w_i`` times
    the norm of block i without ``x_g`` minus the norm with it.
    """
    xb = x[gs.flat_index]
    sq = xb * xb
    starts = gs.offsets[:-1]
    nrm2 = np.add.reduceat(sq, starts)[gs.block_index]
    rest2 = nrm2 - sq
    # nrm2 - sq cancels when x_g carries most of its block's norm; at most
    # one entry per block does, and for it the other squares are summed
    dominant = np.flatnonzero(sq > 0.5 * nrm2)
    if dominant.size:
        others = sq.copy()
        others[dominant] = 0.0
        rest2[dominant] = np.add.reduceat(others, starts)[gs.block_index[dominant]]
    change = np.bincount(gs.flat_index, minlength=gs.n, weights=(
        gs.weights[gs.block_index]
        * (np.sqrt(np.maximum(rest2, 0.0)) - np.sqrt(nrm2))))
    delta = (x * (2.0 * inst.v - x) / (2.0 * inst.s) - inst.lam0
             + inst.lam1 * change)
    return not (delta[x != 0] < -1e-9).any()
