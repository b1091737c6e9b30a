"""Consensus ADMM solver for the l0 sparse overlapping group lasso prox.

Each group owns a local block tied to a global consensus vector. One cycle
runs a group soft-threshold block step, an over-relaxation of its result, a
per-coordinate hard-threshold consensus step whose curvature folds in the
overlap counts, and a dual ascent step on the scaled multiplier ``u =
y/rho``. Termination follows the usual primal/dual residual rule.

The penalty ``rho`` follows one schedule, described in :func:`solve_admm`.

For ``lam0 > 0`` the problem is nonconvex: the returned point is a
stationary candidate, not a certified global minimum.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    GroupStructure,
    ProxInstance,
    _norm,
    _require_same_n,
    gather,
    group_norms,
    hard_threshold,
    objective_value,
    scatter_add,
)

__all__ = ["AdmmConfig", "SolveReport", "NonFiniteError", "Penalty",
           "start_rho", "penalty_constants", "x_step", "z_step", "y_step",
           "residual_norms", "solve_admm"]

RHO_TIMES_S = 0.3        # the default starting penalty is RHO_TIMES_S / s
DOUBLE_EVERY = 100       # iterations between chances to double the penalty
ROUNDING_MARGIN = 1024   # eps_dual over the largest admitted rounding error
OVER_RELAX = 1.5         # the z step reads x + (OVER_RELAX - 1)*(x - zb)


class NonFiniteError(RuntimeError):
    """An iterate contains NaN or Inf (bad penalty parameter or input)."""


@dataclass
class AdmmConfig:
    """Solver knobs, shared by both solvers. ``rho`` is the starting ADMM
    augmented-Lagrangian penalty; ``None`` means the default start of
    :func:`start_rho`, and :func:`solve_admm` describes how the penalty
    moves from there. The dual solver ignores it. An infinite tolerance
    stops either solver after its first iteration."""

    rho: float | None = None
    max_iters: int = 10000
    eps_abs: float = 1e-8
    eps_rel: float = 1e-6
    trace: bool = False

    def __post_init__(self):
        if self.rho is not None and not 0 < self.rho < math.inf:
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
    the best candidate seen, and ``converged`` means that gap, or the rise of
    the bound in one step, fell within the tolerance; it computes no
    residuals, so its ``r_norm`` and ``s_norm`` are always 0. ``objective`` is
    :func:`sogl.model.objective_value` at ``x_final``, group weights included.
    """

    x_final: np.ndarray
    objective: float
    iters: int
    converged: bool
    algorithm: str
    r_norm: float = 0.0
    s_norm: float = 0.0
    trace: list = None


class Penalty(NamedTuple):
    """The step constants at one penalty ``rho``: the block thresholds
    ``t = lam1*w_i/rho`` of :func:`x_step`, the center term ``vs = v/s``,
    the curvature ``c = 1/s + k*rho`` (k = overlap counts) and the
    consensus threshold ``thr = sqrt(2*lam0/c)`` of :func:`z_step`. The
    scaled multiplier ``u = y/rho`` is not a constant: it is halved when
    the penalty doubles."""

    rho: float
    t: np.ndarray
    vs: np.ndarray
    c: np.ndarray
    thr: np.ndarray


def start_rho(inst: ProxInstance, cfg: AdmmConfig) -> float:
    """The penalty a solve starts at: ``cfg.rho``, or ``RHO_TIMES_S/s`` when
    that is None."""
    return RHO_TIMES_S / inst.s if cfg.rho is None else cfg.rho


def penalty_constants(inst: ProxInstance, gs: GroupStructure,
                      rho: float) -> Penalty:
    """The :class:`Penalty` of ``rho``: computed once per penalty, not per
    iteration."""
    c = 1.0 / inst.s + gs.overlap_counts * rho
    return Penalty(rho, inst.lam1 * gs.weights / rho, inst.v / inst.s, c,
                   np.sqrt(2.0 * inst.lam0 / c))


def x_step(zb: np.ndarray, u: np.ndarray, gs: GroupStructure,
           pen: Penalty) -> np.ndarray:
    """Block update: soft-threshold block i of ``zb - u``, zb = gather(z)
    and u the scaled multiplier, at level ``pen.t[i] = lam1*w_i/rho``:
    shrink its norm by that or zero it."""
    a = zb - u
    nrm = group_norms(a, gs)
    # t/nrm on the kept blocks, 1 (a zero scale) on the others
    ratio = np.divide(pen.t, nrm, out=np.ones(gs.m), where=nrm > pen.t)
    return np.take(1.0 - ratio, gs.block_index) * a


def z_step(q: np.ndarray, gs: GroupStructure, pen: Penalty) -> np.ndarray:
    """Consensus update: each coordinate hard-thresholds its weighted
    average ``(v/s + rho*scatter_add(q))/c`` of the center and the stacked
    ``q = u + x + (OVER_RELAX - 1)*(x - zb)`` (the multiplier plus the
    relaxed block point) at level ``pen.thr``."""
    return hard_threshold((pen.vs + pen.rho * scatter_add(q, gs)) / pen.c,
                          pen.thr)


def y_step(q: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Scaled dual ascent: ``u = q - zb``, with ``q`` the multiplier plus the
    relaxed block point that :func:`z_step` read and ``zb = gather(z)`` of
    the fresh z."""
    return q - zb


def residual_norms(prev_z: np.ndarray, x: np.ndarray, z: np.ndarray,
                   zb: np.ndarray, u: np.ndarray, floors: tuple,
                   gs: GroupStructure, rho: float, eps_rel: float,
                   dual: bool = True) -> tuple:
    """Residuals and stop thresholds ``(r, s, eps_pri, eps_dual, finite)``.

    r = ||x - zb||, zb = gather(z); s = rho*||k*(z - prev_z)||, k the
    overlap counts; eps_pri = floors[0] + eps_rel*max(||x||, ||zb||) and
    eps_dual = floors[1] + eps_rel*rho*||scatter_add(u)||, u = y/rho the
    scaled multiplier, with the floors ``eps_abs*sqrt(max(p, 1))`` (p
    stacked entries) and ``eps_abs*sqrt(n)``. s and eps_dual are None when
    ``dual`` is False and the primal test ``r <= eps_pri`` fails: the stop
    test cannot pass then. Norms are ``model._norm``'s. ``finite`` is False
    when x or z holds a NaN or Inf; entries are scanned only when ``||x||``
    or ``z.dot(z)`` overflows.
    """
    nx, zz = _norm(x), z.dot(z)
    finite = (math.isfinite(nx) and math.isfinite(zz)) or bool(
        np.isfinite(x).all() and np.isfinite(z).all())
    r = _norm(x - zb)
    eps_pri = floors[0] + eps_rel * max(nx, _norm(zb))
    if not (dual or r <= eps_pri):
        return r, None, eps_pri, None, finite
    return (r, rho * _norm(gs.overlap_counts * (z - prev_z)), eps_pri,
            floors[1] + eps_rel * rho * _norm(scatter_add(u, gs)), finite)


def solve_admm(inst: ProxInstance, gs: GroupStructure,
               cfg: AdmmConfig = None) -> SolveReport:
    """Run the ADMM cycle until the residual criteria or ``max_iters``.

    The iteration is scaled-form ADMM with over-relaxation (Boyd et al.
    2011, secs. 3.1.1 and 3.4.3; Eckstein & Bertsekas 1992): with the
    scaled multiplier ``u = y/rho`` and ``zb = gather(z)``, one cycle is
    ``x = x_step(zb, u)``, ``q = u + x + (OVER_RELAX - 1)*(x - zb)``
    (``OVER_RELAX = 1.5``), ``z = z_step(q)`` and ``u = y_step(q,
    gather(z))``. It starts from the feasible point x = gather(v), z = v,
    u = 0 (already optimal when all penalties vanish) at the penalty
    :func:`start_rho`: ``cfg.rho``, or ``0.3/s`` (``RHO_TIMES_S``).
    Scaling the objective by ``s`` turns ADMM at ``rho`` into ADMM at
    ``rho*s``, so the default is one scaled penalty for every ``s``.
    After every 100 iterations
    (``DOUBLE_EVERY``) that end with the primal residual above
    ``eps_pri``, the penalty doubles and the step constants are recomputed
    (the varying penalty of Boyd et al. 2011, sec. 3.4.1, raises ``rho``
    when the primal residual lags; a large enough penalty is what the
    nonconvex convergence result of Wang, Yin & Zeng 2019 asks for). A
    larger penalty only slows the dual residual ``s = rho*||k*(z -
    prev_z)||``, so the penalty does not double when only that test fails.
    Nor does it double when, at the doubled penalty, the rounding error of
    ``s``, estimated as ``2*rho*eps*sqrt(max k)*max(||x||, ||zb||)``
    (``eps`` the float rounding unit), could exceed ``eps_dual/1024``
    (``ROUNDING_MARGIN``): past that point the true update of z could fall
    below a rounding unit, and z would stop moving in floating point and
    pass the stop test at a point that is not stationary. This guard bounds
    the penalty, and with zero tolerances the penalty never doubles. A
    solve of ``iters`` iterations ends at a penalty of at most ``start *
    2**((iters-1)//100)``, and ``u`` is halved whenever the penalty
    doubles, so that ``y = rho*u`` stays put. The dual residual and
    ``eps_dual`` are computed only where they are read: when the primal
    test passes, at every 100th iteration, at the last one and, with
    ``cfg.trace``, at every iteration. The report evaluates the objective
    at the consensus z.

    Raises
    ------
    NonFiniteError
        If any iterate picks up NaN/Inf.
    """
    cfg = cfg or AdmmConfig()
    _require_same_n(inst, gs)
    pen = penalty_constants(inst, gs, start_rho(inst, cfg))
    floors = (cfg.eps_abs * math.sqrt(gs.total_size or 1),
              cfg.eps_abs * math.sqrt(gs.n))
    relax = OVER_RELAX - 1.0
    z, zb, u = inst.v, gather(inst.v, gs), np.zeros(gs.total_size)
    trace = [] if cfg.trace else None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        prev_z = z
        x = x_step(zb, u, gs, pen)
        # the relaxed point, then the multiplier: grouped as (u + x) + ...,
        # a solve whose entries dwarf its residuals can cycle by one ulp
        q = u + (x + relax * (x - zb))
        z = z_step(q, gs, pen)
        zb = gather(z, gs)
        u = y_step(q, zb)
        dual = (trace is not None or it % DOUBLE_EVERY == 0
                or it == cfg.max_iters)
        r_norm, s_norm, eps_pri, eps_dual, finite = residual_norms(
            prev_z, x, z, zb, u, floors, gs, pen.rho, cfg.eps_rel, dual)
        if not finite:
            raise NonFiniteError(f"non-finite iterate at iteration {it}")
        if trace is not None:
            trace.append((it, objective_value(z, inst, gs), r_norm, s_norm))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
        if it % DOUBLE_EVERY == 0 and r_norm > eps_pri:
            # the rounding error of s_norm at the doubled penalty, times
            # the margin it must keep below eps_dual
            err = 2.0 * pen.rho * ROUNDING_MARGIN * sys.float_info.epsilon * math.sqrt(
                gs.overlap_counts.max(initial=1) * max(x.dot(x), zb.dot(zb)))
            if err <= eps_dual:
                pen = penalty_constants(inst, gs, 2.0 * pen.rho)
                u = 0.5 * u
    return SolveReport(
        x_final=z,
        objective=objective_value(z, inst, gs),
        iters=it,
        converged=converged,
        algorithm="admm",
        r_norm=r_norm,
        s_norm=s_norm,
        trace=trace,
    )
