"""Alternating scheme on the dual of the consensus splitting.

The z-step is an exact global hard-threshold; the dual step maximizes a
linear form over the product of per-group balls of radius ``lam1`` and so
lands each block on the ball boundary (or at zero). The alternation has no
convergence guarantee: it either settles into a repeating discrete state
(support and signs of z, zero pattern of the dual blocks) or cycles, in
which case :class:`CycleDetectedError` tells the caller to fall back to
:func:`sogl.admm.solve_admm`.
"""
from __future__ import annotations

import time

import numpy as np

from .admm import AdmmConfig, SolveReport
from .model import (
    GroupStructure,
    ProxInstance,
    gather,
    group_norms,
    hard_threshold,
    objective_value,
    scatter_add,
)

__all__ = [
    "CycleDetectedError",
    "dual_z_step",
    "dual_y_step",
    "dual_objective",
    "solve_dual",
]


class CycleDetectedError(RuntimeError):
    """The alternation revisited an earlier non-consecutive discrete state."""


def dual_z_step(y: np.ndarray, inst: ProxInstance, gs: GroupStructure) -> np.ndarray:
    """Exact minimizer in z: hard-threshold ``v + s*scatter_add(y)``.

    The threshold is ``sqrt(2*s*lam0)``, applied elementwise.
    """
    w = inst.v + inst.s * scatter_add(y, gs)
    return hard_threshold(w, np.sqrt(2.0 * inst.s * inst.lam0))


def dual_y_step(z: np.ndarray, inst: ProxInstance,
                gs: GroupStructure) -> np.ndarray:
    """Maximize the linear form over the product of radius-``lam1`` balls.

    Each block is the unit direction of ``gather(z - 2v)`` scaled to the
    ball boundary; a zero direction maps to the zero block.
    """
    d = gather(z - 2.0 * inst.v, gs)
    nrm = np.repeat(group_norms(d, gs), gs.sizes)
    return np.divide(inst.lam1 * d, nrm, out=np.zeros_like(d), where=nrm > 0)


def dual_objective(z: np.ndarray, y: np.ndarray, inst: ProxInstance,
                   gs: GroupStructure) -> float:
    """Value of the dual inner objective at (z, y), constants dropped.

    ``(1/2s)*||z - (v + s*G'y)||^2 + lam0*nnz(z) - (1/2s)*||v + s*G'y||^2``.
    """
    w = inst.v + inst.s * scatter_add(y, gs)
    quad = 0.5 / inst.s * float(np.sum((z - w) ** 2))
    return quad + inst.lam0 * np.count_nonzero(z) - 0.5 / inst.s * float(np.sum(w**2))


def _discrete_state(z: np.ndarray, y: np.ndarray, gs: GroupStructure) -> tuple:
    signs = np.sign(z).astype(np.int8).tobytes()
    y_flags = np.logical_or.reduceat(y != 0, gs.offsets[:-1]).tobytes()
    return signs, y_flags


class _CycleMonitor:
    """Tracks discrete states; classifies each new one.

    Returns "repeat" when the state equals the immediately previous one
    (the alternation has settled), "cycle" when it equals an older state
    (a genuine loop), and "new" otherwise.
    """

    def __init__(self):
        self._seen = {}
        self._last = None
        self._count = 0

    def update(self, state: tuple) -> str:
        kind = "new"
        if state == self._last:
            kind = "repeat"
        elif state in self._seen:
            kind = "cycle"
        self._seen[state] = self._count
        self._last = state
        self._count += 1
        return kind


def solve_dual(inst: ProxInstance, gs: GroupStructure,
               cfg: AdmmConfig = None) -> SolveReport:
    """Alternate the exact z-step and the analytic dual step from y = 0.

    Stops once the discrete state (signs of z, zero pattern of the dual
    blocks) repeats between consecutive iterations, or at ``max_iters``.
    The returned candidate is z with its primal objective; treat it as a
    heuristic companion to the ADMM solver.

    Raises
    ------
    CycleDetectedError
        If the discrete state revisits an earlier non-consecutive state.
    """
    cfg = cfg or AdmmConfig()
    if inst.n != gs.n:
        raise ValueError(f"instance has n={inst.n} but structure has n={gs.n}")
    t0 = time.perf_counter()
    y, z = np.zeros(gs.total_size), np.zeros(gs.n)
    monitor = _CycleMonitor()
    trace = [] if cfg.trace else None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        z_new = dual_z_step(y, inst, gs)
        y_new = dual_y_step(z_new, inst, gs)
        dz = float(np.linalg.norm(z_new - z))
        dy = float(np.linalg.norm(y_new - y))
        z, y = z_new, y_new
        if trace is not None:
            trace.append((it, objective_value(z, inst, gs), dz, dy))
        kind = monitor.update(_discrete_state(z, y, gs))
        if kind == "repeat":
            converged = True
            break
        if kind == "cycle":
            raise CycleDetectedError(
                f"dual alternation revisited a state at iteration {it}; "
                "fall back to solve_admm"
            )
    return SolveReport(
        x_final=z,
        objective=objective_value(z, inst, gs),
        iters=it,
        converged=converged,
        algorithm="dual",
        trace=trace,
        wall_time=time.perf_counter() - t0,
    )
