"""Certified sandwich bounds for the overlapping group lasso prox value.

The weighted sum of group norms is trapped between two diagonal surrogates:
a weighted l1 norm from below (entries spread each group's weight over its
members) and a scaled l2 norm from above (entries grow with the overlap
counts and the total weight mass). Swapping the group term for either
surrogate yields solvable problems whose optimal values bracket the true
optimum, in three flavors: the plain prox, the prox with an extra
elementwise l1 term, and the prox with an extra nonzero-count term.

The plain variant is the l1 variant at ``lam1 = 0``. The lower problems are
separable closed forms. The l1 upper problem is the scaled-l2 prox at the
soft-thresholded center (Yu 2013, "On Decomposing the Proximal Map"),
solved by a contraction fixed point whose limit norm also solves a scalar
equation; it stops when successive norms differ by at most ``_TOL``, or
after ``_MAX_ITERS`` steps. Bisection on that equation runs only when the
fixed point fails its check (not converged, equation residual above
``10*_TOL``, or stationarity residual above 1e-9): a traced 3 s run of
each benchmark pool (seed 1) records no bisection in 1282 calls. Just
above the zero threshold it is the usual path: at ``lam >= 0.9*||v/u||``
the fixed point slows down, and 14 of the 18 calls in
``test_near_the_zero_threshold`` bisect after 175-10000 fixed-point
iterations. The l0-flavored upper problem is relaxed through the largest
diagonal entry and solved exactly by top-k support enumeration. Every
bound's value comes from one evaluator, ``_value``, which leaves out a
term whose coefficient is 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import GroupStructure, ProxInstance, _require_same_n, scatter_add

__all__ = [
    "FixedPointTrace",
    "BoundsReport",
    "lower_diag",
    "upper_diag",
    "scaled_l2_prox",
    "lower_bound_l1",
    "upper_bound_l1",
    "lower_bound_l0",
    "upper_bound_l0",
    "sandwich",
]

# the fixed point's stopping step between successive norms, and its step cap
_TOL = 1e-10
_MAX_ITERS = 10000


@dataclass
class FixedPointTrace:
    """Diagnostics of one fixed-point solve.

    ``norms[k]`` is the scaled norm of iterate k (index 0 is the starting
    point v); step k multiplies coordinate j of the center by the factor
    ``norms[k] / (norms[k] + lam*u_j**2)``. ``c`` is the limit of the norm
    sequence and ``fp_residual`` how well it solves the scalar fixed-point
    equation.
    """

    norms: list = field(default_factory=list)
    c: float = 0.0
    iterations: int = 0
    converged: bool = True
    fp_residual: float = 0.0
    used_bisection: bool = False


@dataclass
class BoundsReport:
    """Lower/upper values and minimizers for one variant."""

    variant: str
    lower_value: float
    upper_value: float
    lower_minimizer: np.ndarray
    upper_minimizer: np.ndarray
    oracle_value: float = None
    upper_relaxed_value: float = None


def lower_diag(gs: GroupStructure) -> np.ndarray:
    """Diagonal under-estimator of the weighted group norm sum.

    Entry j sums ``w_i/sqrt(|G_i|)`` over the groups containing j, so that
    the weighted l1 norm it induces never exceeds the group term; equality
    holds when every group's entries share one magnitude.
    """
    return scatter_add(np.take(gs.weights / np.sqrt(gs.sizes), gs.block_index), gs)


def upper_diag(gs: GroupStructure) -> np.ndarray:
    """Diagonal over-estimator of the weighted group norm sum.

    Entry j is ``sqrt(k_j) * ||w||_2`` with k_j the overlap count; the
    scaled l2 norm it induces dominates the group term (Cauchy-Schwarz),
    tightly for a single unit-weight group.
    """
    return np.sqrt(gs.overlap_counts.astype(float)) * float(np.linalg.norm(gs.weights))


def _soft(v: np.ndarray, t) -> np.ndarray:
    """Soft threshold ``sign(v)*max(|v| - t, 0)``; ``t`` is a scalar or a
    per-entry array."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _value(x: np.ndarray, v: np.ndarray, lam: float, norm: float,
           lam1: float = 0.0, lam0: float = 0.0) -> float:
    """The bound objective ``0.5*||x - v||^2 + lam*norm + lam1*||x||_1 +
    lam0*nnz(x)``, ``norm`` being the surrogate norm at x. As in
    ``model.objective_value``, a term whose coefficient is 0 is left out,
    so a norm or l1 sum that overflows does not turn ``0*inf`` into NaN.
    """
    value = 0.5 * float(np.sum((x - v) ** 2))
    if lam:
        value += lam * norm
    if lam1:
        value += lam1 * float(np.sum(np.abs(x)))
    if lam0:
        value += lam0 * int(np.count_nonzero(x))
    return value


def _phi(c: float, uv_sq: np.ndarray, lam_u_sq: np.ndarray) -> float:
    return float(np.sum(uv_sq / (c + lam_u_sq) ** 2)) - 1.0


def _bisect_c(uv_sq: np.ndarray, lam_u_sq: np.ndarray, hi: float) -> float:
    """Root of ``_phi(c, uv_sq, lam_u_sq) = 0`` on (0, hi], hi = ||u*v||."""
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _phi(mid, uv_sq, lam_u_sq) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scaled_l2_prox(v: np.ndarray, lam: float, diag):
    """Minimize ``0.5*||x - v||^2 + lam*||diag(u) x||_2``.

    Coordinates with a zero diagonal entry pass through (x_j = v_j). On the
    penalized block, x = 0 exactly when the inverse-scaled center norm is
    at most ``lam``; otherwise the minimizer is the unique fixed point of
    ``x -> (I + lam*U^2/||Ux||)^(-1) v``, iterated from v until successive
    scaled norms change by at most ``_TOL``. The result is then checked:
    the iteration must have converged within ``_MAX_ITERS`` steps, the
    limit norm must solve the scalar fixed-point equation to ``10*_TOL``,
    and the stationarity residual must be at most 1e-9. Only when a check
    fails is the norm recomputed by bisection on that equation; the fixed
    point's result is kept otherwise. On the benchmark pools no check
    fails, but just above the zero threshold (``lam >= 0.9*||v/u||``) most
    calls bisect, after hundreds to ``_MAX_ITERS`` fixed-point iterations.

    Returns ``(x, value, FixedPointTrace)``.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(diag, dtype=float)
    if u.shape != v.shape:
        raise ValueError("diagonal and center must have matching length")
    penalized = u > 0
    trace = FixedPointTrace()
    x = v.copy()
    if lam == 0.0:
        trace.c = float(np.linalg.norm(u * x))
        trace.norms = [trace.c]
        return x, _value(x, v, lam, trace.c), trace

    inv_norm = math.sqrt(float(np.sum((v[penalized] / u[penalized]) ** 2)))
    if inv_norm <= lam:
        x[penalized] = 0.0
        return x, _value(x, v, lam, float(np.linalg.norm(u * x))), trace

    c = float(np.linalg.norm(u * x))  # positive: the zero test failed
    trace.norms.append(c)
    lam_u_sq = lam * u**2
    converged = False
    for _ in range(_MAX_ITERS):
        x = (c / (c + lam_u_sq)) * v
        c_next = float(np.linalg.norm(u * x))
        trace.norms.append(c_next)
        done = abs(c_next - c) <= _TOL
        c = c_next
        if done:
            converged = True
            break
    trace.iterations = len(trace.norms) - 1
    trace.converged = converged

    uv_sq = (u[penalized] * v[penalized]) ** 2
    lam_u_sq_pen = lam_u_sq[penalized]
    resid = abs(_phi(c, uv_sq, lam_u_sq_pen))
    station = float(np.linalg.norm(x - v + lam_u_sq * x / c))
    if not converged or resid > 10.0 * _TOL or station > 1e-9:
        c = _bisect_c(uv_sq, lam_u_sq_pen, float(np.linalg.norm(u * v)))
        x = (c / (c + lam_u_sq)) * v
        resid = abs(_phi(c, uv_sq, lam_u_sq_pen))
        trace.used_bisection = True
    trace.c = c
    trace.fp_residual = resid
    return x, _value(x, v, lam, float(np.linalg.norm(u * x))), trace


def lower_bound_l1(v: np.ndarray, lam: float, lam1: float, diag):
    """Weighted lasso with an extra elementwise l1 term.

    The combined threshold is ``lam*l_i + lam1`` and surviving coordinates
    are shrunk by the full combined amount; ``lam1 = 0`` gives the plain
    weighted lasso.

    Returns ``(x, value)`` with value the full objective at x.
    """
    v = np.asarray(v, dtype=float)
    l = np.asarray(diag, dtype=float)
    x = _soft(v, lam * l + lam1)
    return x, _value(x, v, lam, float(np.sum(l * np.abs(x))), lam1=lam1)


def upper_bound_l1(v: np.ndarray, lam: float, lam1: float, diag):
    """Scaled-l2 surrogate with an extra elementwise l1 term.

    The minimizer is the scaled-l2 prox of the soft-thresholded center
    ``sign(v)*max(|v| - lam1, 0)``: that prox scales each coordinate by a
    factor in [0, 1], so the soft threshold's l1 subgradients stay valid.

    Returns ``(x, value)`` with value the full objective at x.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(diag, dtype=float)
    x, _, _ = scaled_l2_prox(_soft(v, lam1), lam, u)
    return x, _value(x, v, lam, float(np.linalg.norm(u * x)), lam1=lam1)


def lower_bound_l0(v: np.ndarray, lam: float, lam0: float, diag):
    """Weighted lasso with an extra nonzero-count term, solved coordinatewise.

    Each coordinate compares the soft-thresholded candidate against zero
    under the count surcharge; ties go to zero.

    Returns ``(x, value)``.
    """
    v = np.asarray(v, dtype=float)
    l = np.asarray(diag, dtype=float)
    a = _soft(v, lam * l)
    f_a = 0.5 * (a - v) ** 2 + lam * l * np.abs(a) + lam0 * (a != 0)
    f_zero = 0.5 * v**2
    x = np.where(f_a < f_zero, a, 0.0)
    return x, _value(x, v, lam, float(np.sum(l * np.abs(x))), lam0=lam0)


def upper_bound_l0(v: np.ndarray, lam: float, lam0: float, diag):
    """Scaled-l2 surrogate with a nonzero-count term.

    The surrogate norm is relaxed through its largest diagonal entry so
    the smooth part becomes a plain l2 norm; the relaxation is solved
    exactly by enumerating supports of the k largest magnitudes (for fixed
    support size, concentrating mass on the largest entries is optimal).

    Returns ``(x, value, relaxed_value)`` where ``value`` evaluates the
    unrelaxed surrogate objective at x (the tighter certified bound) and
    ``relaxed_value`` is the optimal value of the relaxed problem.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(diag, dtype=float)
    n = v.size
    sigma = float(u.max()) if n else 0.0
    t = lam * sigma
    order = np.argsort(-np.abs(v), kind="stable")
    sq = np.cumsum(v[order] ** 2)
    r = np.sqrt(sq)  # r[k-1]: norm of the k largest magnitudes
    total = 0.5 * float(sq[-1]) if n else 0.0
    vals = np.where(r > t, total - 0.5 * (r - t) ** 2 + lam0 * np.arange(1, n + 1),
                    math.inf)
    k = int(np.argmin(vals)) if n else 0
    x = np.zeros(n)
    best_val = total
    if n and vals[k] < total:
        best_val = float(vals[k])
        idx = order[:k + 1]
        x[idx] = (1.0 - t / r[k]) * v[idx]
    return x, _value(x, v, lam, float(np.linalg.norm(u * x)), lam0=lam0), best_val


def sandwich(inst: ProxInstance, gs: GroupStructure, variant: str) -> BoundsReport:
    """Bracket the optimal value of one prox variant.

    The target problems carry a ``1/(2s)`` quadratic; they are solved in
    half-scaled form with every penalty multiplied by s, and the optimal
    values divided by s (the minimizers are unaffected).

    Variants: ``plain`` (weighted group term only), ``l1`` (adds
    ``lam1*||x||_1``), ``l0`` (adds ``lam0*nnz(x)``).
    """
    if variant not in ("plain", "l1", "l0"):
        raise ValueError(f"unknown variant {variant!r}")
    _require_same_n(inst, gs)
    ld = lower_diag(gs)
    ud = upper_diag(gs)
    v, s = inst.v, inst.s
    lam_s = inst.lam * s
    relaxed = None
    if variant == "l0":
        xl, vl = lower_bound_l0(v, lam_s, inst.lam0 * s, ld)
        xu, vu, rel = upper_bound_l0(v, lam_s, inst.lam0 * s, ud)
        relaxed = rel / s
    else:  # plain is the l1 variant at lam1 = 0
        lam1_s = inst.lam1 * s if variant == "l1" else 0.0
        xl, vl = lower_bound_l1(v, lam_s, lam1_s, ld)
        xu, vu = upper_bound_l1(v, lam_s, lam1_s, ud)
    return BoundsReport(
        variant=variant,
        lower_value=vl / s,
        upper_value=vu / s,
        lower_minimizer=xl,
        upper_minimizer=xu,
        upper_relaxed_value=relaxed,
    )
