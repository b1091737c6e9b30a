"""Shared random-instance builders and reference kernels for the test suite."""
import json
import math

import numpy as np
from hypothesis import strategies as st

from sogl.admm import AdmmConfig, NonFiniteError, SolveReport
from sogl.bounds import scaled_l2_prox
from sogl.instances import generate_instance
from sogl.model import (
    GroupStructure,
    ProxInstance,
    gather,
    group_norms,
    hard_threshold,
    objective_value,
    scatter_add,
)
from sogl.oracle import OracleResult, oracle_prox_l0_ogl


def random_structure(rng, n=None, m=None, max_n=8, max_m=3, weighted=False):
    n = n if n is not None else int(rng.integers(2, max_n + 1))
    m = m if m is not None else int(rng.integers(1, max_m + 1))
    groups = [
        sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        for _ in range(m)
    ]
    weights = rng.uniform(0.3, 2.0, m) if weighted else None
    return GroupStructure(n=n, groups=groups, weights=weights)


def random_instance(rng, gs, lam0_range=(0.0, 0.0), lam1_range=(0.0, 1.0),
                    lam_range=(0.0, 0.0), s_range=(0.5, 2.0), v_scale=2.0):
    def draw(lo_hi):
        lo, hi = lo_hi
        return lo if hi <= lo else float(rng.uniform(lo, hi))

    return ProxInstance(
        v=rng.normal(0.0, v_scale, gs.n),
        s=draw(s_range),
        lam0=draw(lam0_range),
        lam1=draw(lam1_range),
        lam=draw(lam_range),
    )


def stacked_normal(rng, gs):
    """One standard normal block per group, in group order, stacked into the
    flat layout of ``gs`` (the same draws as a list of per-group blocks)."""
    return np.concatenate([rng.normal(size=len(g)) for g in gs.groups] + [np.zeros(0)])


def wide_instances(seed, count, n_range):
    """``count`` built instances cycling through the chain, nested and
    random modes: n uniform on ``n_range`` (inclusive), m = n//2 groups of
    2-8 indices, and ``s``, ``lam0``, ``lam1`` log-uniform on [0.1, 10],
    [1e-3, 1] and [1e-2, 3.2]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        s, lam0, lam1 = (float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
                         for lo, hi in ((0.1, 10), (1e-3, 1), (1e-2, 3.2)))
        yield generate_instance(
            int(rng.integers(2**31)), n=n, m=max(n // 2, 1),
            group_size_range=(2, 8), overlap_mode=("chain", "nested", "random")[i % 3],
            s=s, lambda0=lam0, lambda1=lam1).build()


def block_soft_threshold(a, t):
    """Closed-form minimizer of ``0.5*||x - a||^2 + t*||x||_2``."""
    a = np.asarray(a, dtype=float)
    nrm = np.linalg.norm(a)
    return np.zeros_like(a) if nrm <= t else (1.0 - t / nrm) * a


def z_step_scaled_space(q, inst, gs, rho):
    """Reference consensus update computed in rescaled coordinates.

    Accumulates ``rho`` times the stacked ``q`` (the scaled multiplier plus
    the relaxed block point) onto the global indices entry by entry, then
    solves the diagonally rescaled problem where the threshold is the
    constant ``sqrt(2*lam0)``. ``sogl.admm.z_step`` must agree with it to
    round-off.
    """
    c = 1.0 / inst.s + gs.overlap_counts * rho
    acc = np.zeros(gs.n)
    for pos, g in enumerate(gs.flat_index):
        acc[g] += rho * q[pos]
    w = inst.v / inst.s + acc
    root_c = np.sqrt(c)
    z_scaled = hard_threshold(w / root_c, math.sqrt(2.0 * inst.lam0))
    return z_scaled / root_c


def _reference_x_step(z, u, inst, gs, rho):
    a = gather(z, gs) - u
    t = inst.lam1 * gs.weights / rho
    nrm = group_norms(a, gs)
    keep = nrm > t
    scale = np.zeros(gs.m)
    scale[keep] = 1.0 - t[keep] / nrm[keep]
    return np.repeat(scale, gs.sizes) * a


def _reference_relaxed_point(x, z, u, gs):
    """The multiplier plus the over-relaxed block point, at alpha = 1.5."""
    relaxed = x + (1.5 - 1.0) * (x - gather(z, gs))
    return u + relaxed


def _reference_z_step(q, inst, gs, rho):
    c = 1.0 / inst.s + gs.overlap_counts * rho
    num = inst.v / inst.s + rho * scatter_add(q, gs)
    return hard_threshold(num / c, np.sqrt(2.0 * inst.lam0 / c))


def _reference_u_step(q, z, gs):
    return q - gather(z, gs)


def _reference_norm(a):
    """``np.linalg.norm(a)``; when that overflows on finite entries, the
    norm of ``a`` divided by its largest magnitude, scaled back."""
    nrm = float(np.linalg.norm(a))
    big = float(np.max(np.abs(a), initial=0.0))
    if nrm == math.inf and math.isfinite(big):
        return big * float(np.linalg.norm(a / big))
    return nrm


def _reference_residual_norms(prev_z, x, z, gs, rho):
    r = _reference_norm(x - gather(z, gs))
    s = rho * _reference_norm(gs.overlap_counts * (z - prev_z))
    return r, s


def _reference_stop_thresholds(x, z, u, gs, cfg, rho):
    nt = gs.total_size
    eps_pri = cfg.eps_abs * math.sqrt(nt if nt else 1) + cfg.eps_rel * max(
        _reference_norm(x), _reference_norm(gather(z, gs))
    )
    eps_dual = cfg.eps_abs * math.sqrt(gs.n) + cfg.eps_rel * rho * _reference_norm(
        scatter_add(u, gs)
    )
    return eps_pri, eps_dual


def solve_admm_reference(inst, gs, cfg=None):
    """Reference for ``sogl.solve_admm``: scaled-form ADMM over-relaxed at
    1.5, in which every step gathers z itself and recomputes its penalty
    constants, the residuals and both stop thresholds are separate passes
    computed at every iteration with ``np.linalg.norm`` (rescaled where it
    overflows on finite entries), and every iterate is scanned for NaN/Inf.
    The penalty starts at ``cfg.rho`` or ``0.3/s`` and doubles, and the
    scaled multiplier halves, after every 100th iteration that ends with
    ``r_norm > eps_pri`` and ``2*rho*1024*eps*sqrt(max k)*max(||x||,
    ||gather(z)||) <= eps_dual``. ``solve_admm`` must agree with it bit for
    bit."""
    cfg = cfg or AdmmConfig()
    rho = 0.3 / inst.s if cfg.rho is None else cfg.rho
    x, z, u = gather(inst.v, gs), inst.v.copy(), np.zeros(gs.total_size)
    trace = [] if cfg.trace else None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        prev_z = z
        x = _reference_x_step(z, u, inst, gs, rho)
        q = _reference_relaxed_point(x, z, u, gs)
        z = _reference_z_step(q, inst, gs, rho)
        u = _reference_u_step(q, z, gs)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(x))):
            raise NonFiniteError(f"non-finite iterate at iteration {it}")
        r_norm, s_norm = _reference_residual_norms(prev_z, x, z, gs, rho)
        if trace is not None:
            trace.append((it, objective_value(z, inst, gs), r_norm, s_norm))
        eps_pri, eps_dual = _reference_stop_thresholds(x, z, u, gs, cfg, rho)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
        if it % 100 == 0 and r_norm > eps_pri:
            scale = max(float(np.linalg.norm(x)), float(np.linalg.norm(gather(z, gs))))
            kmax = max(int(gs.overlap_counts.max(initial=0)), 1)
            err = 2.0 * rho * 1024 * np.finfo(float).eps * math.sqrt(kmax * scale**2)
            if err <= eps_dual:
                rho *= 2.0
                u = u / 2.0
    return SolveReport(x_final=z, objective=objective_value(z, inst, gs),
                       iters=it, converged=converged, algorithm="admm",
                       r_norm=r_norm, s_norm=s_norm, trace=trace)


def _reference_shrink(u, t):
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def _reference_block_shrink(a, t):
    nrm = float(np.linalg.norm(a))
    if nrm <= t:
        return np.zeros_like(a)
    return (1.0 - t / nrm) * a


def _reference_dykstra(center, prox_ops, tol=1e-13, max_passes=4000):
    """Prox of a sum of convex functions from their individual proxes; each
    correction is as long as ``center``."""
    x = center.copy()
    corrections = [np.zeros_like(center) for _ in prox_ops]
    scale = 1.0 + float(np.linalg.norm(center))
    for _ in range(max_passes):
        x_before = x.copy()
        for j, op in enumerate(prox_ops):
            y = op(x + corrections[j])
            corrections[j] = x + corrections[j] - y
            x = y
        if float(np.max(np.abs(x - x_before))) <= tol * scale:
            break
    return x


def convex_restricted_min_reference(v, s, coeffs, lam1, gs, idx):
    """Minimize (1/2s)||x-v||^2 + sum_i coeffs[i]*||x_{G_i}||_2 +
    lam1*||x||_1 over vectors supported on ``idx``, as one problem: the
    elementwise and block shrinks in closed form when no two active groups
    share a coordinate of ``idx``, Dykstra's splitting over all of ``idx``
    otherwise. Returns (x, convex value)."""
    x = np.zeros(v.size)
    off_value = 0.5 / s * float(np.sum(np.delete(v, idx) ** 2))
    if idx.size == 0:
        return x, off_value
    v_r = v[idx]
    pos = np.full(gs.n, -1, dtype=np.intp)
    pos[idx] = np.arange(idx.size)
    rgroups = [pos[g][pos[g] >= 0] for g in gs.groups]
    active = [(rg, c) for rg, c in zip(rgroups, coeffs) if rg.size > 0 and c > 0]
    hits = np.zeros(idx.size, dtype=np.intp)
    for rg, _ in active:
        hits[rg] += 1
    if np.all(hits <= 1):
        y = _reference_shrink(v_r, s * lam1) if lam1 > 0 else v_r.copy()
        for rg, c in active:
            y[rg] = _reference_block_shrink(y[rg], s * c)
        x_r = y
    else:
        ops = []
        if lam1 > 0:
            ops.append(lambda u: _reference_shrink(u, s * lam1))
        for rg, c in active:
            def op(u, rg=rg, t=s * c):
                out = u.copy()
                out[rg] = _reference_block_shrink(out[rg], t)
                return out
            ops.append(op)
        x_r = _reference_dykstra(v_r, ops)
    x[idx] = x_r
    value = (
        0.5 / s * float(np.sum((x_r - v_r) ** 2))
        + float(sum(c * np.linalg.norm(x_r[rg]) for rg, c in active))
        + lam1 * float(np.sum(np.abs(x_r)))
        + off_value
    )
    return x, value


def oracle_variant_reference(inst, gs, variant):
    """Reference for ``sogl.oracle_variant`` (and, as variant ``"main"``,
    for ``sogl.oracle_prox_l0_ogl``): every support solved as one problem
    by :func:`convex_restricted_min_reference`, the full support alone when
    there is no count term. Returns ``(value, minimizer)``."""
    lam = inst.lam1 if variant == "main" else inst.lam
    coeffs = lam * gs.weights
    lam1 = inst.lam1 if variant == "l1" else 0.0
    lam0 = inst.lam0 if variant in ("l0", "main") else 0.0
    n = inst.n
    if lam0 == 0.0:
        x, value = convex_restricted_min_reference(inst.v, inst.s, coeffs, lam1,
                                                   gs, np.arange(n))
        return value, x
    all_idx = np.arange(n)
    best_val, best_x = math.inf, np.zeros(n)
    for mask in range(1 << n):
        idx = all_idx[[(mask >> i) & 1 == 1 for i in range(n)]]
        x, cv = convex_restricted_min_reference(inst.v, inst.s, coeffs, lam1,
                                                gs, idx)
        val = cv + lam0 * int(np.count_nonzero(x))
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x


def upper_bound_l1_masked(v, lam, lam1, diag):
    """Reference for ``sogl.bounds.upper_bound_l1``: the masked form it
    replaced. Coordinates with ``|v_i| <= lam1`` are zero; the survivors
    solve a reduced scaled-l2 prox at the center pulled toward zero by
    ``lam1``, scattered back. Returns ``(x, value)``."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(diag, dtype=float)
    x = np.zeros(v.size)
    support = np.abs(v) > lam1
    if support.any():
        v_red = v[support] - lam1 * np.sign(v[support])
        x[support], _, _ = scaled_l2_prox(v_red, lam, u[support])
    value = (0.5 * float(np.sum((x - v) ** 2)) + lam * float(np.linalg.norm(u * x))
             + lam1 * float(np.sum(np.abs(x))))
    return x, value


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(objective, lo: float, hi: float, tol: float = 1e-9):
    """Golden-section minimization of a 1-D function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    xm = 0.5 * (a + b)
    return xm, objective(xm)


def oracle_c_scan(v: np.ndarray, lam: float, diag) -> OracleResult:
    """Scan the scaled-l2 prox along its one-parameter solution family.

    Every nonzero candidate has the form ``x(c) = (I + lam*U^2/c)^(-1) v``
    for some c > 0; the scan minimizes the true objective over a log-spaced
    c grid with golden refinement, then compares against the zero-block
    candidate.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(diag, dtype=float)
    penalized = u > 0

    def objective_at(x):
        return 0.5 * float(np.sum((x - v) ** 2)) + lam * float(
            np.linalg.norm(u * x)
        )

    x_zero = v.copy()
    x_zero[penalized] = 0.0
    uv_norm = float(np.linalg.norm(u * v))
    if lam == 0.0 or uv_norm == 0.0:
        x = v.copy()
        return OracleResult(value=objective_at(x), minimizer=x, method="c_scan")

    def x_of(log_c):
        c = math.exp(log_c)
        return c * v / (c + lam * u**2)

    def f_of(log_c):
        return objective_at(x_of(log_c))

    lo, hi = math.log(1e-12), math.log(uv_norm * 10.0)
    grid = np.linspace(lo, hi, 400)
    vals = [f_of(g) for g in grid]
    k = int(np.argmin(vals))
    a = grid[max(0, k - 1)]
    b = grid[min(len(grid) - 1, k + 1)]
    log_c, f_best = _golden_refine(f_of, float(a), float(b), tol=1e-12)
    x_best = x_of(log_c)
    f_zero = objective_at(x_zero)
    if f_zero <= f_best:
        return OracleResult(value=f_zero, minimizer=x_zero, method="c_scan")
    return OracleResult(value=f_best, minimizer=x_best, method="c_scan")


def oracle_ub_l0_subsets(v: np.ndarray, lam: float, lam0: float, diag,
                         n_limit: int = 10) -> OracleResult:
    """Exact reference for the relaxed count-penalized l2 prox.

    Minimizes ``0.5*||x-v||^2 + lam*sigma*||x||_2 + lam0*nnz(x)`` with
    ``sigma`` the largest diagonal entry. That is the main objective with
    one group holding every coordinate (``s = 1``, weight 1, ``lam1 =
    lam*sigma``), so this is :func:`oracle_prox_l0_ogl` on that structure:
    the one support search, with its refusals. Certifies the top-k
    shortcut used by the bounds module.
    """
    v = np.asarray(v, dtype=float)
    gs = GroupStructure(v.size, [np.arange(v.size)])
    inst = ProxInstance(v, 1.0, lam0, lam * float(np.max(diag)))
    return oracle_prox_l0_ogl(inst, gs, n_limit)


def oracle_grid_1d(objective, lo: float, hi: float,
                   resolution: float = 1e-3) -> OracleResult:
    """Coarse scan plus golden-section refinement of a 1-D objective.

    Refines around the best grid cell and around zero (the count term is
    discontinuous there) and always evaluates 0 itself.
    """
    xs = np.arange(lo, hi + resolution, resolution)
    if not ((xs >= -resolution) & (xs <= resolution)).any():
        xs = np.append(xs, 0.0)
    vals = np.array([objective(float(x)) for x in xs])
    best = int(np.argmin(vals))
    cands = []
    x_lo = max(lo, float(xs[best]) - resolution)
    x_hi = min(hi, float(xs[best]) + resolution)
    cands.append(_golden_refine(objective, x_lo, x_hi))
    if lo <= 0.0 <= hi:
        cands.append(_golden_refine(objective, max(lo, -resolution),
                                    min(hi, resolution)))
        cands.append((0.0, objective(0.0)))
    xm, fm = min(cands, key=lambda t: t[1])
    return OracleResult(value=float(fm), minimizer=np.array([xm]),
                        method="grid_1d")


def scaled_l2_fixed_point_from(v, lam, u, x0, tol=1e-10, max_iters=10000):
    """The fixed-point iteration of ``sogl.bounds.scaled_l2_prox`` started at
    ``x0`` instead of v: ``x -> (c/(c + lam*u^2))*v`` with ``c = ||u*x||``,
    until successive values of c change by at most ``tol``."""
    c = float(np.linalg.norm(u * x0))
    x = x0
    for _ in range(max_iters):
        x = (c / (c + lam * u**2)) * v
        c_next = float(np.linalg.norm(u * x))
        if abs(c_next - c) <= tol:
            break
        c = c_next
    return x


def count_term_ok_by_zeroing(x, inst, gs):
    """Reference for the count-term test of ``sogl.stationarity_check``:
    zero each nonzero coordinate in turn and evaluate the whole objective
    again. True unless one of them lowers it by more than 1e-9."""
    base = objective_value(x, inst, gs)
    for g in np.flatnonzero(x):
        x_try = x.copy()
        x_try[g] = 0.0
        if objective_value(x_try, inst, gs) < base - 1e-9:
            return False
    return True


def _min_norm_with_ball_multipliers(base: np.ndarray, zero_groups,
                                    radii: np.ndarray,
                                    passes: int = 500) -> float:
    """min ||base + sum_i u_i||_2 over blocks u_i supported on each zero
    group with ||u_i|| <= radii[i], by cyclic block minimization."""
    if not zero_groups:
        return float(np.linalg.norm(base))
    total = base.copy()
    mults = [np.zeros(g.size) for g in zero_groups]
    prev = math.inf
    for _ in range(passes):
        for i, (g, radius) in enumerate(zip(zero_groups, radii)):
            w = total[g] - mults[i]
            nrm = float(np.linalg.norm(w))
            target = -w if nrm <= radius else -(radius / nrm) * w
            total[g] += target - mults[i]
            mults[i] = target
        cur = float(np.linalg.norm(total))
        if prev - cur <= 1e-14 * (1.0 + cur):
            break
        prev = cur
    return float(np.linalg.norm(total))


def convex_stationarity_residual_reference(x, inst, gs):
    """Reference for the residual of ``sogl.stationarity_check`` without a
    count term: the gradient of the quadratic plus each nonzero block's
    ``lam1*w_i*x_G/||x_G||``, summed group by group, then the least norm
    over the zero blocks' multipliers by cyclic block minimization."""
    r = (x - inst.v) / inst.s
    zero_groups, radii = [], []
    for g, w in zip(gs.groups, gs.weights):
        nrm = float(np.linalg.norm(x[g]))
        if nrm > 0:
            r[g] += inst.lam1 * w * x[g] / nrm
        elif inst.lam1 * w > 0:
            zero_groups.append(g)
            radii.append(inst.lam1 * w)
    return _min_norm_with_ball_multipliers(r, zero_groups, np.array(radii))


def first_group_defect(groups, n):
    """Reference for the group rule of ``sogl.GroupStructure`` and
    ``sogl.instance_from_dict``: the message of the first defect met reading
    the groups entry by entry, or None when there is none. A group is a
    list, a tuple or a 1-D numpy array; an index is a Python or numpy
    integer that is not a bool."""
    for i, g in enumerate(groups):
        if not (isinstance(g, (list, tuple))
                or isinstance(g, np.ndarray) and g.ndim == 1):
            return f"groups[{i}]: expected an array of indices"
        if not len(g):
            return f"groups[{i}]: group is empty"
        seen = set()
        for j, idx in enumerate(g):
            if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
                return f"groups[{i}][{j}]: expected an integer index"
            idx = int(idx)
            if idx < 0 or idx >= n:
                return f"groups[{i}][{j}]: index {idx} out of range for n={n}"
            if idx in seen:
                return f"groups[{i}][{j}]: repeated index {idx}"
            seen.add(idx)
    return None


# values that are not a group: JSON scalars and objects, and numpy arrays
# that are not 1-D
NOT_ARRAYS = (3, 2.5, "ab", None, {"0": 0}, True, np.array(1), np.array([[1, 2]]))

GROUP_FORMS = ("list", "tuple", "int8", "int32", "int64", "uint64")

GROUP_DEFECTS = ("not-int", "bool", "range", "repeat", "empty", "not-array")


def _in_form(g: list, form: str):
    """Group ``g`` as a list, a tuple or an integer array of dtype ``form``;
    a group whose entries the dtype cannot hold stays a list."""
    if form == "tuple":
        return tuple(g)
    if form != "list":
        info = np.iinfo(form)
        if all(type(idx) is int and info.min <= idx <= info.max for idx in g):
            return np.array(g, dtype=form)
    return g


@st.composite
def groups_with_defects(draw, kinds, max_defects=1, big=2**70, forms=("list",)):
    """Valid index groups over ``n`` variables with defects injected.

    Each defect is one of ``kinds`` at a drawn group i and entry j:
    ``"not-int"``, ``"bool"``, ``"range"`` (an index outside [0, n), up to
    ``big`` away), ``"repeat"`` (entry j copies an earlier entry of its
    group), ``"empty"`` or ``"not-array"`` (group i replaced by one of
    ``NOT_ARRAYS``). Every group that is left is then drawn in one of
    ``forms`` (see ``GROUP_FORMS``). Returns ``(n, groups, (kind, i, j))``
    with the last defect injected.
    """
    n = draw(st.integers(1, 10))
    groups = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
        min_size=1, max_size=6))
    for _ in range(draw(st.integers(1, max_defects))):
        kind = draw(st.sampled_from(kinds))
        i = draw(st.integers(0, len(groups) - 1))
        if not isinstance(groups[i], list) or not groups[i]:
            groups[i] = [draw(st.integers(0, n - 1))]
        g = groups[i]
        j = draw(st.integers(0, len(g) - 1))
        if kind == "not-int":
            g[j] = draw(st.sampled_from([1.5, 2.0, "3", None, [0], np.float64(1.0)]))
        elif kind == "bool":
            g[j] = draw(st.sampled_from([True, False, np.True_]))
        elif kind == "range":
            g[j] = draw(st.one_of(st.integers(n, n + big), st.integers(-big, -1)))
        elif kind == "repeat":
            if len(g) == 1:
                g.append(g[0])
            j = max(j, 1)
            g[j] = g[draw(st.integers(0, j - 1))]
        elif kind == "empty":
            groups[i] = []
        else:
            groups[i] = draw(st.sampled_from(NOT_ARRAYS))
    groups = [_in_form(g, draw(st.sampled_from(forms))) if isinstance(g, list) else g
              for g in groups]
    return n, groups, (kind, i, j)


def _reference_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite number {x}")
    return format(x, ".17g")


def _reference_emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_reference_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _reference_emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, val in enumerate(seq):
            if i:
                out.append(", ")
            _reference_emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps_canonical(obj) -> str:
    """Reference for ``sogl.dumps_canonical``: the element-by-element
    emitter it replaced, which formats and checks one number at a time."""
    out = []
    _reference_emit(obj, out)
    out.append("\n")
    return "".join(out)


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308)
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from(EDGE_FLOATS))
int64s = st.integers(-2**63, 2**63 - 1)
record_keys = st.text(alphabet="abxyz_0", min_size=1, max_size=4)

# Leaves of a record: JSON scalars, numpy scalars, and whole sequences of
# one number type (the encoder's array path), empty ones included.
record_leaves = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(), finite_floats,
    finite_floats.map(np.float64), int64s.map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.lists(finite_floats, max_size=6), st.lists(st.integers(), max_size=6),
    st.lists(finite_floats, max_size=6).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(int64s, max_size=6).map(lambda xs: np.array(xs, dtype=np.int64)),
)

records = st.recursive(
    record_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(record_keys, children, max_size=4)),
    max_leaves=24)


@st.composite
def records_with_non_finite(draw):
    """A finite record with one NaN or infinity placed at a drawn depth.
    Returns ``(record, place)``, where ``place`` is how the encoder's error
    names it, such as ``a.b[2]``."""
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    kind = draw(st.sampled_from(["float", "numpy", "list", "array", "mixed"]))
    if kind in ("float", "numpy"):
        node, place = (bad if kind == "float" else np.float64(bad)), ""
    else:
        values = draw(st.lists(finite_floats, max_size=5))
        i = draw(st.integers(0, len(values)))
        values.insert(i, bad)
        if kind == "mixed":  # a list the encoder walks entry by entry
            values.insert(0, None)
            i += 1
        node = np.array(values) if kind == "array" else values
        place = f"[{i}]"
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            key = draw(record_keys)
            siblings = draw(st.dictionaries(record_keys, records, max_size=2))
            siblings.pop(key, None)
            items = list(siblings.items())
            items.insert(draw(st.integers(0, len(items))), (key, node))
            node, place = dict(items), f".{key}{place}"
        else:
            before = draw(st.lists(records, max_size=2))
            node, place = [*before, node], f"[{len(before)}]{place}"
    return node, place.removeprefix(".")
