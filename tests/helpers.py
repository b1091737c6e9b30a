"""Shared random-instance builders and reference kernels for the test suite."""
import json
import math

import numpy as np
from hypothesis import strategies as st

from sogl.admm import AdmmConfig, NonFiniteError, SolveReport
from sogl.model import (
    GroupStructure,
    ProxInstance,
    gather,
    group_norms,
    hard_threshold,
    objective_value,
    scatter_add,
)


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


def block_soft_threshold(a, t):
    """Closed-form minimizer of ``0.5*||x - a||^2 + t*||x||_2``."""
    a = np.asarray(a, dtype=float)
    nrm = np.linalg.norm(a)
    return np.zeros_like(a) if nrm <= t else (1.0 - t / nrm) * a


def z_step_scaled_space(x, y, inst, gs, cfg):
    """Reference consensus update computed in rescaled coordinates.

    Accumulates the stacked ``rho*x + y`` onto the global indices entry by
    entry, then solves the diagonally rescaled problem where the threshold
    is the constant ``sqrt(2*lam0)``. ``sogl.z_step`` must agree with it to
    round-off.
    """
    c = 1.0 / inst.s + gs.overlap_counts * cfg.rho
    stacked = cfg.rho * x + y
    acc = np.zeros(gs.n)
    for pos, g in enumerate(gs.flat_index):
        acc[g] += stacked[pos]
    w = inst.v / inst.s + acc
    root_c = np.sqrt(c)
    z_scaled = hard_threshold(w / root_c, math.sqrt(2.0 * inst.lam0))
    return z_scaled / root_c


def _reference_x_step(z, y, inst, gs, cfg):
    a = gather(z, gs) - y / cfg.rho
    t = inst.lam1 / cfg.rho
    nrm = group_norms(a, gs)
    keep = nrm > t
    scale = np.zeros(gs.m)
    scale[keep] = 1.0 - t / nrm[keep]
    return np.repeat(scale, gs.sizes) * a


def _reference_z_step(x, y, inst, gs, cfg):
    c = 1.0 / inst.s + gs.overlap_counts * cfg.rho
    num = inst.v / inst.s + scatter_add(y + cfg.rho * x, gs)
    return hard_threshold(num / c, np.sqrt(2.0 * inst.lam0 / c))


def _reference_y_step(x, z, y, gs, cfg):
    return y + cfg.rho * (x - gather(z, gs))


def _reference_residual_norms(prev_z, x, z, gs, cfg):
    r = float(np.linalg.norm(x - gather(z, gs)))
    s = cfg.rho * float(np.linalg.norm(gs.overlap_counts * (z - prev_z)))
    return r, s


def _reference_stop_thresholds(x, z, y, gs, cfg):
    nt = gs.total_size
    eps_pri = cfg.eps_abs * math.sqrt(nt if nt else 1) + cfg.eps_rel * max(
        float(np.linalg.norm(x)), float(np.linalg.norm(gather(z, gs)))
    )
    eps_dual = cfg.eps_abs * math.sqrt(gs.n) + cfg.eps_rel * float(
        np.linalg.norm(scatter_add(y, gs))
    )
    return eps_pri, eps_dual


def solve_admm_reference(inst, gs, cfg=None):
    """Reference for ``sogl.solve_admm``: the loop it replaced, in which
    every step gathers z itself, the residual and the stop thresholds are
    separate passes with ``np.linalg.norm``, the consensus step recomputes
    its curvature and threshold, and every iterate is scanned for NaN/Inf.
    ``solve_admm`` must agree with it bit for bit."""
    cfg = cfg or AdmmConfig()
    x, z, y = gather(inst.v, gs), inst.v.copy(), np.zeros(gs.total_size)
    trace = [] if cfg.trace else None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        prev_z = z
        x = _reference_x_step(z, y, inst, gs, cfg)
        z = _reference_z_step(x, y, inst, gs, cfg)
        y = _reference_y_step(x, z, y, gs, cfg)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(x))):
            raise NonFiniteError(f"non-finite iterate at iteration {it}")
        r_norm, s_norm = _reference_residual_norms(prev_z, x, z, gs, cfg)
        if trace is not None:
            trace.append((it, objective_value(z, inst, gs), r_norm, s_norm))
        eps_pri, eps_dual = _reference_stop_thresholds(x, z, y, gs, cfg)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
    return SolveReport(x_final=z, objective=objective_value(z, inst, gs),
                       iters=it, converged=converged, algorithm="admm",
                       r_norm=r_norm, s_norm=s_norm, trace=trace)


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


def first_group_defect(groups, n):
    """Reference for the index checks of ``sogl.instance_from_dict``: the
    message of the first defect met reading the groups entry by entry, or
    None when there is none."""
    for i, g in enumerate(groups):
        if not isinstance(g, list):
            return f"groups[{i}]: expected an array of indices"
        if not g:
            return f"groups[{i}]: group is empty"
        seen = set()
        for j, idx in enumerate(g):
            if isinstance(idx, bool) or not isinstance(idx, int):
                return f"groups[{i}][{j}]: expected an integer index"
            if idx < 0 or idx >= n:
                return f"groups[{i}][{j}]: index {idx} out of range for n={n}"
            if idx in seen:
                return f"groups[{i}][{j}]: repeated index {idx}"
            seen.add(idx)
    return None


def first_structure_defect(groups, n):
    """Reference for the index checks of ``sogl.GroupStructure``: the
    message for the first group that is empty, leaves [0, n) or repeats an
    index (checked in that order), or None when there is none."""
    for i, g in enumerate(groups):
        g = np.asarray(g, dtype=np.intp)
        if g.size == 0:
            return f"group {i} is empty"
        if g.min() < 0 or g.max() >= n:
            return f"group {i} has an index outside [0, {n})"
        if np.unique(g).size != g.size:
            return f"group {i} has repeated indices"
    return None


@st.composite
def groups_with_defects(draw, kinds, max_defects=1, big=2**70):
    """Valid index groups over ``n`` variables with defects injected.

    Each defect is one of ``kinds`` at a drawn group i and entry j:
    ``"not-int"``, ``"bool"``, ``"range"`` (an index outside [0, n), up to
    ``big`` away), ``"repeat"`` (entry j copies an earlier entry of its
    group), ``"empty"`` or ``"not-list"`` (group i replaced). Returns
    ``(n, groups, (kind, i, j))`` with the last defect injected.
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
            g[j] = draw(st.sampled_from([1.5, 2.0, "3", None, [0]]))
        elif kind == "bool":
            g[j] = draw(st.booleans())
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
            groups[i] = draw(st.sampled_from([3, "ab", (0,), None, {"0": 0}]))
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
