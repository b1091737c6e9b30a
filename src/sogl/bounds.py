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
soft-thresholded center (Yu 2013, "On Decomposing the Proximal Map"). Its
minimizer is fixed by one scalar, the scaled norm ``c`` that solves
``sum_j (u_j*v_j)**2/(c + lam*u_j**2)**2 = 1``; that is the secular equation
of the trust-region subproblem, and Newton on its reciprocal form rises
monotonically to the root from a start below it (More & Sorensen 1983,
"Computing a trust region step"). The l0-flavored upper problem is relaxed
through the largest diagonal entry and solved exactly by top-k support
enumeration. The prox and the top-k candidates work on data divided by a
power of two, and the norms in the values and the upper diagonal are
``model._norm``'s, so no product or square leaves the float range. One
evaluator, ``_value``, gives every value, leaving out zero-coefficient terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (GroupStructure, ProxInstance, _ldexp, _norm, _require_same_n,
                     _scaled, scatter_add)

__all__ = [
    "ScaledL2Trace",
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


@dataclass
class ScaledL2Trace:
    """Diagnostics of one scaled-l2 prox solve.

    ``norms`` holds the Newton iterates ``c_1 < c_2 < ...`` for the scaled
    norm of the minimizer, all positive (empty when the start ``c_0`` is
    already the root); the minimizer at norm c multiplies coordinate j of
    the center by ``c / (c + lam*u_j**2)``. ``c`` is the last iterate (or
    ``c_0``), ``iterations`` the number of Newton steps and
    ``fp_residual`` is ``|G(c)**2 - 1|``, how well c solves the scalar
    equation (G as in ``scaled_l2_prox``). ``used_bisection`` is always
    False; it stays only for readers that count bisections (perfbench's
    traced metrics).
    """

    norms: list = field(default_factory=list)
    c: float = 0.0
    iterations: int = 0
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
    return scatter_add((gs.weights / np.sqrt(gs.sizes))[gs.block_index], gs)


def upper_diag(gs: GroupStructure) -> np.ndarray:
    """Diagonal over-estimator of the weighted group norm sum.

    Entry j is ``sqrt(k_j) * ||w||_2`` with k_j the overlap count; the
    scaled l2 norm it induces dominates the group term (Cauchy-Schwarz),
    tightly for a single unit-weight group. ``||w||`` is ``model._norm``'s.
    """
    return np.sqrt(gs.overlap_counts.astype(float)) * _norm(gs.weights)


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
    value = 0.5 * float(((x - v) ** 2).sum())
    if lam:
        value += lam * norm
    if lam1:
        value += lam1 * float(np.abs(x).sum())
    if lam0:
        value += lam0 * int(np.count_nonzero(x))
    return value


def scaled_l2_prox(v: np.ndarray, lam: float, diag):
    """Minimize ``0.5*||x - v||^2 + lam*||diag(u) x||_2``.

    Coordinates with a zero diagonal entry pass through (x_j = v_j). On the
    penalized block, x = 0 exactly when the inverse-scaled center norm is
    at most ``lam``; otherwise ``x_j = c*v_j/(c + lam*u_j**2)``, where the
    scaled norm ``c = ||u*x||`` is the root of ``G(c) = 1`` with ``G(c) =
    ||w||`` and ``w = |u*v|/(c + lam*u**2)`` over the coordinates whose
    product ``u_j*v_j`` is nonzero; the others add nothing to the norm and
    pass through as well. Each ``w_j`` is at most 1 at the root, so the
    root is at least ``c_0 = max(0, max_j(|u_j*v_j| - lam*u_j**2))``, and
    from there on every ``w_j <= 1``: no square overflows, however large
    ``|v/(lam*u)|`` is.
    Newton on ``1/G(c) - 1`` starts at ``c_0``, where G is at least 1; as
    ``1/G`` is concave and increasing, the iterates rise to the root
    without overshooting, and the loop stops when c stops rising (at
    ``lam = 0``, with x = v). All this runs on ``v/2**ev``, ``u/2**eu`` and
    ``lam*2**(eu - ev)``, 2**ev and 2**eu just above max|v| and max u.

    Returns ``(x, value, ScaledL2Trace)``, the trace in the caller's units.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(diag, dtype=float)
    if u.shape != v.shape:
        raise ValueError("diagonal and center must have matching length")
    (vs, ev), (us, eu) = _scaled(v), _scaled(u)
    lam_s = _ldexp(lam, eu - ev)
    penalized = us > 0
    x = v.copy()
    inv_norm = math.sqrt(float(((vs[penalized] / us[penalized]) ** 2).sum()))
    if inv_norm <= lam_s:
        x[penalized] = 0.0
        return x, _value(x, v, lam, _norm(u * x)), ScaledL2Trace()

    # wherever lam*u_j**2 rounds to 0, c_0 >= |u_j*v_j| > 0: no denominator
    # is 0; with no nonzero product at all, everything passes through
    active = np.abs(us * vs) > 0
    uv = np.abs(us[active] * vs[active])
    lam_u_sq = lam_s * us[active] ** 2
    c = float(np.max(uv - lam_u_sq, initial=0.0))
    norms, sum_sq = [], 1.0
    while uv.size:
        inv = 1.0 / (c + lam_u_sq)
        w = uv * inv
        sum_sq = float(w.dot(w))  # G(c)**2
        c_next = c + (math.sqrt(sum_sq) - 1.0) * sum_sq / float((w * w).dot(inv))
        if not c_next > c:
            break
        c = c_next
        norms.append(c)
    x[active] *= c / (c + lam_u_sq)
    trace = ScaledL2Trace([_ldexp(cn, ev + eu) for cn in norms], _ldexp(c, ev + eu),
                          len(norms), abs(sum_sq - 1.0))
    return x, _value(x, v, lam, _norm(u * x)), trace


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
    return x, _value(x, v, lam, float((l * np.abs(x)).sum()), lam1=lam1)


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
    return x, _value(x, v, lam, _norm(u * x), lam1=lam1)


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
    return x, _value(x, v, lam, float((l * np.abs(x)).sum()), lam0=lam0)


def upper_bound_l0(v: np.ndarray, lam: float, lam0: float, diag):
    """Scaled-l2 surrogate with a nonzero-count term.

    The surrogate norm is relaxed through its largest diagonal entry so
    the smooth part becomes a plain l2 norm; the relaxation is solved
    exactly by enumerating supports of the k largest magnitudes (for fixed
    support size, concentrating mass on the largest entries is optimal).

    Returns ``(x, value, relaxed_value)`` where ``value`` evaluates the
    unrelaxed surrogate objective at x (the tighter certified bound) and
    ``relaxed_value`` the relaxed objective at x, its optimal value.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(diag, dtype=float)
    n = v.size
    x = np.zeros(n)
    t = lam * float(u.max()) if n else 0.0
    if n:
        # the candidates are compared on v/2**e, 2**e just above max|v|; a
        # t or lam0 scaled to inf rightly leaves x = 0
        vs, e = _scaled(v)
        order = np.argsort(-np.abs(v), kind="stable")
        sq = np.cumsum(vs[order] ** 2)
        r = np.sqrt(sq)  # r[k-1]: scaled norm of the k largest magnitudes
        total = 0.5 * float(sq[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            ts = np.ldexp(t, -e)
            vals = np.where(r > ts, total - 0.5 * (r - ts) ** 2
                            + np.ldexp(lam0, -2 * e) * np.arange(1, n + 1), math.inf)
        k = int(np.argmin(vals))
        if vals[k] < total:
            idx = order[:k + 1]
            x[idx] = (1.0 - ts / r[k]) * v[idx]
    return (x, _value(x, v, lam, _norm(u * x), lam0=lam0),
            _value(x, v, t, _norm(x), lam0=lam0))


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
