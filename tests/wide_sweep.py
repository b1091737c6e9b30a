"""Convergence of the ADMM penalty schedule on a wide sweep of instances.

Run from the repository root:

    PYTHONPATH=src python tests/wide_sweep.py [seed ...]      # default: 5 6 8

Each seed draws 120 instances with ``helpers.wide_instances`` (n 20-300)
and solves each one four ways: the default schedule, the same schedule
without over-relaxation (``OVER_RELAX = 1``), the same schedule without its
rounding guard (the penalty doubles on every 100th unconverged iteration),
and a fixed ``rho = 1``. Per way it prints how many solves
report convergence, how many of those also pass ``stationarity_check`` at
its default tolerance, how many converged points have a subgradient
residual within ``eps_abs*sqrt(n) + eps_rel*||v||/s`` (first order, at a
tolerance scaled like the stop test's), how many converged points are
frozen (the final dual residual is exactly 0 but the subgradient residual
is not below 1e-8), the median iteration count, and the mean objective over
the best Lagrangian bound that ``solve_dual`` reaches.
"""
import math
import sys
import time

import numpy as np

import sogl.admm as admm
from sogl import AdmmConfig, solve_admm, solve_dual, stationarity_check
from helpers import wide_instances


def solve(way, inst, gs):
    double_every, margin, relax = (admm.DOUBLE_EVERY, admm.ROUNDING_MARGIN,
                                   admm.OVER_RELAX)
    cfg = AdmmConfig()
    if way == "no-relax":
        admm.OVER_RELAX = 1.0
    elif way == "unguarded":
        admm.ROUNDING_MARGIN = 0
    elif way == "rho=1":
        cfg = AdmmConfig(rho=1.0)
        admm.DOUBLE_EVERY = cfg.max_iters + 1
    try:
        return solve_admm(inst, gs, cfg)
    finally:
        admm.DOUBLE_EVERY, admm.ROUNDING_MARGIN, admm.OVER_RELAX = (
            double_every, margin, relax)


def main(seeds):
    ways = ("default", "no-relax", "unguarded", "rho=1")
    for seed in seeds:
        rows = {way: [] for way in ways}
        for inst, gs in wide_instances(seed, 120, (20, 300)):
            trace = solve_dual(inst, gs, AdmmConfig(trace=True)).trace
            bound = max(row[2] for row in trace)
            for way in ways:
                t0 = time.perf_counter()
                rep = solve(way, inst, gs)
                secs = time.perf_counter() - t0
                ok, residual = stationarity_check(rep.x_final, inst, gs)
                tol = 1e-8 * math.sqrt(inst.n) + 1e-6 * np.linalg.norm(inst.v) / inst.s
                rows[way].append((rep.converged, ok, residual <= tol,
                                  rep.s_norm == 0 and residual > 1e-8, rep.iters,
                                  rep.objective / bound, secs))
        for way, r in rows.items():
            conv, ok, first, frozen, iters, ratio, secs = zip(*r)
            stationary = sum(c and o for c, o in zip(conv, ok))
            first = sum(c and f for c, f in zip(conv, first))
            frozen = sum(c and f for c, f in zip(conv, frozen))
            print(f"seed {seed} {way:9s} converged {sum(conv):3d}/120"
                  f"  +stationary {stationary:3d}  +first-order {first:3d}"
                  f"  frozen {frozen:2d}"
                  f"  median iters {np.median(iters):6.1f}  mean obj/bound"
                  f" {np.mean(ratio):.4f}  {sum(secs):.1f} s", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [5, 6, 8])
