"""Projected supergradient ascent on the Lagrangian dual of the consensus
splitting.

Relax the constraints tying each group's block to ``gather(x)`` with stacked
multipliers ``y`` whose blocks satisfy ``||y_i|| <= lam1*w_i``, with ``w_i``
the group weights. Cauchy--Schwarz gives ``lam1*w_i*||x_{G_i}|| >= -<y_i,
x_{G_i}>``, so for every such ``y`` the objective is bounded below by the
closed-form value

    d(-y) = (1/2s)*||z - v||^2 + lam0*nnz(z) - <y, gather(z)>,

where ``z = dual_z_step(y)`` minimizes the relaxed problem exactly. The
bound is concave in ``y`` with supergradient ``-gather(z)``; ascent steps of
length ``1/(s*k_max)`` (``k_max`` the largest overlap count) followed by a
projection onto the balls raise it. Every ``z`` is also a primal candidate:
its objective exceeds ``d(-y)`` by ``sum_i (lam1*w_i*||z_{G_i}|| + <y_i,
z_{G_i}>) >= 0``, so the best candidate comes with a certified gap.
"""
from __future__ import annotations

import math

import numpy as np

from .admm import AdmmConfig, SolveReport
from .model import (
    GroupStructure,
    ProxInstance,
    _require_same_n,
    gather,
    group_norms,
    hard_threshold,
    scatter_add,
)

__all__ = [
    "dual_z_step",
    "dual_y_step",
    "solve_dual",
]


def dual_z_step(y: np.ndarray, inst: ProxInstance, gs: GroupStructure) -> np.ndarray:
    """Exact minimizer in z: hard-threshold ``v + s*scatter_add(y)``.

    The threshold is ``sqrt(2*s*lam0)``, applied elementwise.
    """
    w = inst.v + inst.s * scatter_add(y, gs)
    return hard_threshold(w, np.sqrt(2.0 * inst.s * inst.lam0))


def dual_y_step(zb: np.ndarray, y: np.ndarray, inst: ProxInstance,
                gs: GroupStructure) -> np.ndarray:
    """Projected ascent step: ``y - zb/(s*k_max)``, block i then projected
    onto the ball of radius ``lam1*w_i``; ``zb`` is ``gather(z)``.

    ``k_max`` is ``gs.max_overlap``, the largest overlap count (1 when no
    variable is covered), so the step is the inverse of the bound's
    curvature in ``y``.
    """
    u = y - zb / (inst.s * gs.max_overlap)
    radius = inst.lam1 * gs.weights
    nrm = group_norms(u, gs)
    scale = np.divide(radius, nrm, out=np.ones(gs.m), where=nrm > radius)
    return scale[gs.block_index] * u


def solve_dual(inst: ProxInstance, gs: GroupStructure,
               cfg: AdmmConfig = None) -> SolveReport:
    """Ascend the Lagrangian bound from y = 0, keeping the best z-step point.

    Converges when the best objective minus the best bound is at most
    ``eps_abs + eps_rel*|objective|``, or when the bound rose by at most
    ``eps_abs + eps_rel*|bound|`` in one step; otherwise stops at
    ``max_iters``, or as soon as the objective or the bound is not finite.
    ``rho`` is not used.
    """
    cfg = cfg or AdmmConfig()
    _require_same_n(inst, gs)
    y = np.zeros(gs.total_size)
    best_z, best_obj, best_bound, bound = None, math.inf, -math.inf, -math.inf
    trace = [] if cfg.trace else None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        z = dual_z_step(y, inst, gs)
        zb = gather(z, gs)
        q = (0.5 / inst.s * float(((z - inst.v) ** 2).sum())
             + inst.lam0 * np.count_nonzero(z))
        obj = q
        if inst.lam1:  # left out at 0, where an overflowing norm gives 0*inf
            obj += inst.lam1 * float((gs.weights * group_norms(zb, gs)).sum())
        prev_bound, bound = bound, q - float(y @ zb)
        if best_z is None or obj < best_obj:
            best_z, best_obj = z, obj
        best_bound = max(best_bound, bound)
        if trace is not None:
            trace.append((it, obj, bound, best_obj - best_bound))
        if not (math.isfinite(obj) and math.isfinite(bound)):
            break
        if (best_obj - best_bound <= cfg.eps_abs + cfg.eps_rel * abs(best_obj)
                or bound - prev_bound <= cfg.eps_abs + cfg.eps_rel * abs(bound)):
            converged = True
            break
        y = dual_y_step(zb, y, inst, gs)
    return SolveReport(
        x_final=best_z,
        objective=best_obj,
        iters=it,
        converged=converged,
        algorithm="dual",
        trace=trace,
    )
