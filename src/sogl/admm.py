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

__all__ = ["AdmmConfig", "SolveReport", "NonFiniteError", "x_step",
           "consensus_constants", "z_step", "y_step", "residual_norms",
           "solve_admm"]


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
    of the bound in one step, fell within the tolerance. ``objective`` is
    :func:`sogl.model.objective_value` at ``x_final``, group weights
    included.
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


def x_step(zb: np.ndarray, y: np.ndarray, inst: ProxInstance,
           gs: GroupStructure, cfg: AdmmConfig) -> np.ndarray:
    """Block update: soft-threshold block i of ``zb - y/rho``, zb =
    gather(z), at level ``lam1*w_i/rho``: shrink its norm by that or zero
    it."""
    a = zb - y / cfg.rho
    t = inst.lam1 * gs.weights / cfg.rho
    nrm = group_norms(a, gs)
    keep = nrm > t
    scale = np.zeros(gs.m)
    scale[keep] = 1.0 - t[keep] / nrm[keep]
    return np.repeat(scale, gs.sizes) * a


def consensus_constants(inst: ProxInstance, gs: GroupStructure,
                        cfg: AdmmConfig) -> tuple:
    """Per-solve invariants of :func:`z_step`: ``v/s``, the curvature
    ``c = 1/s + k*rho`` (k = overlap counts) and ``sqrt(2*lam0/c)``."""
    c = 1.0 / inst.s + gs.overlap_counts * cfg.rho
    return inst.v / inst.s, c, np.sqrt(2.0 * inst.lam0 / c)


def z_step(x: np.ndarray, y: np.ndarray, consts: tuple, gs: GroupStructure,
           cfg: AdmmConfig) -> np.ndarray:
    """Consensus update: with ``(v/s, c, thr) = consts``, each coordinate
    hard-thresholds its weighted average ``(v/s + scatter_add(y + rho*x))/c``
    of the center and the block/dual information at level ``thr``."""
    vs, c, thr = consts
    return hard_threshold((vs + scatter_add(y + cfg.rho * x, gs)) / c, thr)


def y_step(d: np.ndarray, y: np.ndarray, cfg: AdmmConfig) -> np.ndarray:
    """Dual ascent: ``y += rho * d`` with the primal residual
    ``d = x - gather(z)`` of freshly updated x, z."""
    return y + cfg.rho * d


def residual_norms(prev_z: np.ndarray, x: np.ndarray, z: np.ndarray,
                   zb: np.ndarray, d: np.ndarray, y: np.ndarray, floors: tuple,
                   gs: GroupStructure, cfg: AdmmConfig) -> tuple:
    """Residuals and stop thresholds ``(r, s, eps_pri, eps_dual, finite)``.

    r = ||d||, d = x - zb, zb = gather(z); s = rho*||k*(z - prev_z)||, k the
    overlap counts; eps_pri = floors[0] + eps_rel*max(||x||, ||zb||) and
    eps_dual = floors[1] + eps_rel*||scatter_add(y)||, with the floors
    ``eps_abs*sqrt(max(p, 1))`` (p stacked entries) and ``eps_abs*sqrt(n)``.
    ``finite`` is False when x or z holds a NaN or Inf; entries are scanned
    only when a squared norm overflows.
    """
    xx, zz = x.dot(x), z.dot(z)
    finite = (math.isfinite(xx) and math.isfinite(zz)) or bool(
        np.isfinite(x).all() and np.isfinite(z).all())
    w = gs.overlap_counts * (z - prev_z)
    sy = scatter_add(y, gs)
    return (math.sqrt(d.dot(d)), cfg.rho * math.sqrt(w.dot(w)),
            floors[0] + cfg.eps_rel * max(math.sqrt(xx), math.sqrt(zb.dot(zb))),
            floors[1] + cfg.eps_rel * math.sqrt(sy.dot(sy)), finite)


def solve_admm(inst: ProxInstance, gs: GroupStructure,
               cfg: AdmmConfig = None) -> SolveReport:
    """Run the ADMM cycle until the residual criteria or ``max_iters``.

    Starts from the feasible point x = gather(v), z = v, y = 0 (already
    optimal when all penalties vanish). The report evaluates the objective
    at the consensus z.

    Raises
    ------
    NonFiniteError
        If any iterate picks up NaN/Inf.
    """
    cfg = cfg or AdmmConfig()
    if inst.n != gs.n:
        raise ValueError(f"instance has n={inst.n} but structure has n={gs.n}")
    t0 = time.perf_counter()
    consts = consensus_constants(inst, gs, cfg)
    floors = (cfg.eps_abs * math.sqrt(gs.total_size or 1),
              cfg.eps_abs * math.sqrt(gs.n))
    z, zb, y = inst.v, gather(inst.v, gs), np.zeros(gs.total_size)
    trace = [] if cfg.trace else None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        prev_z = z
        x = x_step(zb, y, inst, gs, cfg)
        z = z_step(x, y, consts, gs, cfg)
        zb = gather(z, gs)
        d = x - zb
        y = y_step(d, y, cfg)
        r_norm, s_norm, eps_pri, eps_dual, finite = residual_norms(
            prev_z, x, z, zb, d, y, floors, gs, cfg)
        if not finite:
            raise NonFiniteError(f"non-finite iterate at iteration {it}")
        if trace is not None:
            trace.append((it, objective_value(z, inst, gs), r_norm, s_norm))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
    return SolveReport(
        x_final=z,
        objective=objective_value(z, inst, gs),
        iters=it,
        converged=converged,
        algorithm="admm",
        r_norm=r_norm,
        s_norm=s_norm,
        trace=trace,
        wall_time=time.perf_counter() - t0,
    )
