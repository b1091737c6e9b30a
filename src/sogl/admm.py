"""Consensus ADMM solver for the l0 sparse overlapping group lasso prox.

Each group owns a local block tied to a global consensus vector. One cycle
runs a group soft-threshold block step, a per-coordinate hard-threshold
consensus step whose curvature folds in the overlap counts, and a dual
ascent step. Termination follows the usual primal/dual residual rule.

For ``lam0 > 0`` the problem is nonconvex: the returned point is a
stationary candidate, not a certified global minimum.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

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
    "AdmmConfig",
    "SolveReport",
    "NonFiniteError",
    "x_step",
    "z_step",
    "y_step",
    "residual_norms",
    "solve_admm",
]


class NonFiniteError(RuntimeError):
    """An iterate contains NaN or Inf (bad penalty parameter or input)."""


@dataclass
class AdmmConfig:
    """Solver knobs, shared by both solvers. ``rho`` is the ADMM
    augmented-Lagrangian penalty; the dual solver ignores it. An infinite
    tolerance stops either solver after its first iteration."""

    rho: float = 1.0
    max_iters: int = 10000
    eps_abs: float = 1e-8
    eps_rel: float = 1e-6
    trace: bool = False

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.eps_abs >= 0 and self.eps_rel >= 0):
            raise ValueError("tolerances must be nonnegative numbers")


@dataclass
class SolveReport:
    """Outcome of a solve: final point, objective, and diagnostics.

    ``trace`` rows are ``(iter, objective, r_norm, s_norm)``. For the dual
    solver the rows are ``(iter, objective, bound, gap)``: the objective at
    the iterate's z, the Lagrangian lower bound at its y, and the best
    objective so far minus the best bound so far. The dual's ``x_final`` is
    the best candidate seen, and ``converged`` means that gap, or the rise
    of the bound in one step, fell within the tolerance. ``oracle_gap`` is
    filled when a certified optimal value is supplied to the solver; with a
    positive count penalty the candidate is stationary, not certified
    global, and the gap quantifies the miss.
    """

    x_final: np.ndarray
    objective: float
    iters: int
    converged: bool
    algorithm: str
    r_norm: float = 0.0
    s_norm: float = 0.0
    trace: list = None
    wall_time: float = None
    oracle_gap: float = None


def x_step(z: np.ndarray, y: np.ndarray, inst: ProxInstance,
           gs: GroupStructure, cfg: AdmmConfig) -> np.ndarray:
    """Block update: soft-threshold each block of ``gather(z) - y/rho`` at
    level ``lam1/rho``, i.e. shrink its norm by that amount or zero it."""
    a = gather(z, gs) - y / cfg.rho
    t = inst.lam1 / cfg.rho
    nrm = group_norms(a, gs)
    keep = nrm > t
    scale = np.zeros(gs.m)
    scale[keep] = 1.0 - t / nrm[keep]
    return np.repeat(scale, gs.sizes) * a


def z_step(x: np.ndarray, y: np.ndarray, inst: ProxInstance,
           gs: GroupStructure, cfg: AdmmConfig) -> np.ndarray:
    """Consensus update, coordinate by coordinate.

    With curvature ``c_g = 1/s + k_g*rho`` (``k_g`` = overlap count), each
    coordinate hard-thresholds its weighted average of the center and the
    scattered dual/block information at level ``sqrt(2*lam0/c_g)``.
    """
    c = 1.0 / inst.s + gs.overlap_counts * cfg.rho
    num = inst.v / inst.s + scatter_add(y + cfg.rho * x, gs)
    return hard_threshold(num / c, np.sqrt(2.0 * inst.lam0 / c))


def y_step(x: np.ndarray, z: np.ndarray, y: np.ndarray, gs: GroupStructure,
           cfg: AdmmConfig) -> np.ndarray:
    """Dual ascent: ``y += rho * (x - gather(z))`` with freshly updated x, z."""
    return y + cfg.rho * (x - gather(z, gs))


def residual_norms(prev_z: np.ndarray, x: np.ndarray, z: np.ndarray,
                   gs: GroupStructure, cfg: AdmmConfig) -> tuple:
    """Primal and dual residual norms for the consensus constraints.

    r = ||x - gather(z)|| over all blocks; s = rho*||k * (z - prev_z)||
    where k holds the overlap counts.
    """
    r = float(np.linalg.norm(x - gather(z, gs)))
    s = cfg.rho * float(np.linalg.norm(gs.overlap_counts * (z - prev_z)))
    return r, s


def _stop_thresholds(x: np.ndarray, z: np.ndarray, y: np.ndarray,
                     gs: GroupStructure, cfg: AdmmConfig) -> tuple:
    nt = gs.total_size
    eps_pri = cfg.eps_abs * math.sqrt(nt if nt else 1) + cfg.eps_rel * max(
        float(np.linalg.norm(x)), float(np.linalg.norm(gather(z, gs)))
    )
    eps_dual = cfg.eps_abs * math.sqrt(gs.n) + cfg.eps_rel * float(
        np.linalg.norm(scatter_add(y, gs))
    )
    return eps_pri, eps_dual


def solve_admm(inst: ProxInstance, gs: GroupStructure,
               cfg: AdmmConfig = None,
               oracle_value: float = None) -> SolveReport:
    """Run the ADMM cycle until the residual criteria or ``max_iters``.

    Starts from the feasible point x = gather(v), z = v, y = 0 (already
    optimal when all penalties vanish). The report evaluates the objective
    at the consensus z; pass ``oracle_value`` (a certified optimum) to have
    the report record the gap to it.

    Raises
    ------
    NonFiniteError
        If any iterate picks up NaN/Inf.
    """
    cfg = cfg or AdmmConfig()
    if inst.n != gs.n:
        raise ValueError(f"instance has n={inst.n} but structure has n={gs.n}")
    t0 = time.perf_counter()
    x, z, y = gather(inst.v, gs), inst.v.copy(), np.zeros(gs.total_size)
    trace = [] if cfg.trace else None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        prev_z = z
        x = x_step(z, y, inst, gs, cfg)
        z = z_step(x, y, inst, gs, cfg)
        y = y_step(x, z, y, gs, cfg)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(x))):
            raise NonFiniteError(f"non-finite iterate at iteration {it}")
        r_norm, s_norm = residual_norms(prev_z, x, z, gs, cfg)
        if trace is not None:
            trace.append((it, objective_value(z, inst, gs), r_norm, s_norm))
        eps_pri, eps_dual = _stop_thresholds(x, z, y, gs, cfg)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
    objective = objective_value(z, inst, gs)
    return SolveReport(
        x_final=z,
        objective=objective,
        iters=it,
        converged=converged,
        algorithm="admm",
        r_norm=r_norm,
        s_norm=s_norm,
        trace=trace,
        wall_time=time.perf_counter() - t0,
        oracle_gap=None if oracle_value is None else objective - oracle_value,
    )
