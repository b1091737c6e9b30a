"""Shared random-instance builders and reference kernels for the test suite."""
import math

import numpy as np

from sogl import GroupStructure, ProxInstance, hard_threshold


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
