"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints a single PASS line with its measured numbers (visible with
``pytest -s`` or on failure). All randomness is seeded; reruns are
byte-for-byte repeatable.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sogl
from sogl import (
    AdmmConfig,
    GroupStructure,
    ProxInstance,
    dual_y_step,
    dual_z_step,
    gather,
    lower_diag,
    oracle_c_scan,
    oracle_prox_l0_ogl,
    oracle_ub_l0_subsets,
    oracle_variant,
    sandwich,
    scaled_l2_prox,
    scatter_add,
    solve_admm,
    solve_dual,
    upper_bound_l0,
    upper_diag,
    weighted_group_norm,
    z_step,
)
from sogl.admm import consensus_constants
from helpers import stacked_normal, z_step_scaled_space


def _random_structure(rng, max_n=8, max_m=3, weighted=False):
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    groups = [
        sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        for _ in range(m)
    ]
    weights = rng.uniform(0.3, 2.0, m) if weighted else None
    return GroupStructure(n=n, groups=groups, weights=weights)


def test_c1_convex_oracle_equivalence():
    rng = np.random.default_rng(20260808)
    cfg = AdmmConfig(eps_abs=1e-10, eps_rel=1e-8, max_iters=20000)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        gs = _random_structure(rng, max_n=8, max_m=3)
        inst = ProxInstance(v=rng.normal(0, 2, gs.n),
                            s=float(rng.uniform(0.5, 2)),
                            lam0=0.0, lam1=float(rng.uniform(0, 1)))
        report = solve_admm(inst, gs, cfg)
        oracle = oracle_prox_l0_ogl(inst, gs)
        rel = abs(report.objective - oracle.value) / max(1.0, abs(oracle.value))
        worst = max(worst, rel)
        assert rel <= 1e-6, (inst, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE C1 (convex oracle equivalence, 200 instances): PASS - "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c2_nonconvex_oracle_dominance():
    rng = np.random.default_rng(20260809)
    matches = 0
    for _ in range(200):
        gs = _random_structure(rng, max_n=6, max_m=3)
        inst = ProxInstance(v=rng.normal(0, 2, gs.n),
                            s=float(rng.uniform(0.5, 1.0)),
                            lam0=float(rng.uniform(0.02, 0.2)),
                            lam1=float(rng.uniform(0, 0.5)))
        report = solve_admm(inst, gs)
        oracle = oracle_prox_l0_ogl(inst, gs)
        assert report.objective >= oracle.value - 1e-9
        if abs(report.objective - oracle.value) <= 1e-6 * max(1.0, abs(oracle.value)):
            matches += 1
    rate = matches / 200.0
    assert rate >= 0.60, rate
    print(f"ACCEPTANCE C2 (nonconvex dominance, 200 instances): PASS - "
          f"global-match rate {rate:.1%} (guard 60%)")


def test_c3_norm_bracketing_inequalities():
    rng = np.random.default_rng(20260810)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        x = rng.normal(0, 3, n)
        qm = math.sqrt(float(np.mean(x**2)))
        am = float(np.mean(np.abs(x)))
        assert qm >= am - 1e-12
        # equality case: constant magnitude
        xe = float(rng.uniform(0, 3)) * rng.choice([-1.0, 1.0], size=n)
        qe = math.sqrt(float(np.mean(xe**2)))
        ae = float(np.mean(np.abs(xe)))
        assert abs(qe - ae) <= 1e-12

        gs = _random_structure(rng, max_n=8, max_m=4, weighted=True)
        l = lower_diag(gs)
        u = upper_diag(gs)
        y = rng.normal(0, 3, gs.n)
        mid = weighted_group_norm(y, gs)
        assert float(np.sum(l * np.abs(y))) <= mid + 1e-12
        assert mid <= float(np.linalg.norm(u * y)) + 1e-12
        # lower equality: one shared magnitude with random signs
        ye = float(rng.uniform(0, 2)) * rng.choice([-1.0, 1.0], size=gs.n)
        assert abs(float(np.sum(l * np.abs(ye))) - weighted_group_norm(ye, gs)) <= 1e-12
    # upper equality: single unit-weight group, every overlap count one
    gs1 = GroupStructure(6, [[0, 2, 3]])
    z = rng.normal(0, 2, 6)
    assert abs(float(np.linalg.norm(upper_diag(gs1) * z))
               - weighted_group_norm(z, gs1)) <= 1e-12
    print("ACCEPTANCE C3 (norm bracketing, 1000 draws each): PASS - "
          "all inequalities and equality cases within 1e-12")


def test_c4_fixed_point_diagnostics():
    rng = np.random.default_rng(20260811)
    max_station = 0.0
    max_resid = 0.0
    worst_scan = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        u = rng.uniform(0.2, 3.0, n)
        v = rng.normal(0, 2, n)
        while not np.any(v):
            v = rng.normal(0, 2, n)
        inv_norm = math.sqrt(float(np.sum((v / u) ** 2)))
        lam = float(rng.uniform(0.05, 0.95)) * inv_norm  # zero test fails
        x, val, tr = scaled_l2_prox(v, lam, u, tol=1e-10, max_iters=10000)
        # (a) monotone scaled-norm sequence after the first step
        diffs = np.diff(tr.norms[1:])
        assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
        # (b) stationarity within the iteration budget
        assert tr.iterations <= 10000
        c = float(np.linalg.norm(u * x))
        station = float(np.linalg.norm(x - v + lam * u**2 * x / c))
        max_station = max(max_station, station)
        assert station <= 1e-8
        # (c) the limit norm solves the scalar fixed-point equation
        max_resid = max(max_resid, tr.fp_residual)
        assert tr.fp_residual <= 1e-8
        # (d) agreement with the independent scan
        scan = oracle_c_scan(v, lam, u)
        gap = abs(val - scan.value) / max(1.0, abs(scan.value))
        worst_scan = max(worst_scan, gap)
        assert gap <= 1e-6
        # (e) initialization independence
        x2, _, _ = scaled_l2_prox(v, lam, u, tol=1e-10, x0=0.01 * v)
        assert float(np.linalg.norm(x - x2)) <= 1e-8
    print(f"ACCEPTANCE C4 (fixed point, 500 draws): PASS - max stationarity "
          f"{max_station:.2e}, max equation residual {max_resid:.2e}, "
          f"worst scan gap {worst_scan:.2e}")


def test_c5_sandwich_property():
    rng = np.random.default_rng(20260812)
    for variant in ("plain", "l1", "l0"):
        for _ in range(100):
            gs = _random_structure(rng, max_n=6, max_m=3, weighted=True)
            inst = ProxInstance(v=rng.normal(0, 2, gs.n),
                                s=float(rng.uniform(0.5, 2)),
                                lam0=float(rng.uniform(0.0, 0.5)),
                                lam1=float(rng.uniform(0.0, 0.8)),
                                lam=float(rng.uniform(0.05, 0.8)))
            rep = sandwich(inst, gs, variant)
            exact = oracle_variant(inst, gs, variant).value
            assert rep.lower_value - 1e-9 <= exact, (variant, rep, exact)
            assert exact <= rep.upper_value + 1e-9, (variant, rep, exact)
    print("ACCEPTANCE C5 (sandwich, 3 variants x 100 instances): PASS - "
          "lower <= exact <= upper throughout")


def test_c6_l0_upper_support_enumeration():
    rng = np.random.default_rng(20260813)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        v = rng.normal(0, 2, n)
        u = rng.uniform(0.0, 2.5, n)
        lam = float(rng.uniform(0, 1))
        lam0 = float(rng.uniform(0, 1))
        _, _, relaxed = upper_bound_l0(v, lam, lam0, u)
        full = oracle_ub_l0_subsets(v, lam, lam0, u, n_limit=10)
        worst = max(worst, abs(relaxed - full.value))
        assert abs(relaxed - full.value) <= 1e-9
    print(f"ACCEPTANCE C6 (top-k vs full enumeration, 100 instances): PASS - "
          f"worst gap {worst:.2e}")


def test_c7_matrix_form_equivalence():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        gs = _random_structure(rng, max_n=12, max_m=5)
        inst = ProxInstance(v=rng.normal(0, 2, gs.n),
                            s=float(rng.uniform(0.3, 3)),
                            lam0=float(rng.uniform(0, 1)),
                            lam1=float(rng.uniform(0, 1)))
        cfg = AdmmConfig(rho=float(rng.uniform(0.3, 3)))
        x = stacked_normal(rng, gs)
        # the consensus iterate is unused by the step; drawn to keep the draw order
        rng.normal(size=gs.n)
        y = stacked_normal(rng, gs)
        z = z_step(x, y, consensus_constants(inst, gs, cfg), gs, cfg)
        gap = float(np.max(np.abs(z - z_step_scaled_space(x, y, inst, gs, cfg))))
        worst = max(worst, gap)
        assert gap <= 1e-12
    print(f"ACCEPTANCE C7 (consensus step, plain vs rescaled form): PASS - "
          f"worst gap {worst:.2e}")


def test_c8_dual_solver_sanity():
    rng = np.random.default_rng(20260815)
    worst_excess = -math.inf
    for _ in range(100):
        gs = _random_structure(rng, max_n=6, max_m=3)
        inst = ProxInstance(v=rng.normal(0, 2, gs.n),
                            s=float(rng.uniform(0.5, 2)),
                            lam0=float(rng.uniform(0.0, 0.5)),
                            lam1=float(rng.uniform(0.0, 1.0)))
        oracle = oracle_prox_l0_ogl(inst, gs)
        # replay the ascent, checking feasibility, exactness and weak
        # duality per step
        y = np.zeros(gs.total_size)
        for _ in range(20):
            z = dual_z_step(y, inst, gs)
            w = inst.v + inst.s * scatter_add(y, gs)
            for g in range(gs.n):
                keep = 0.5 / inst.s * (z[g] - w[g]) ** 2 + inst.lam0 * (z[g] != 0)
                assert keep <= 0.5 / inst.s * w[g] ** 2 + 1e-12
                assert keep <= (inst.lam0 if w[g] != 0 else 0.0) + 1e-12
            bound = (0.5 / inst.s * float(np.sum((z - inst.v) ** 2))
                     + inst.lam0 * np.count_nonzero(z) - y @ gather(z, gs))
            worst_excess = max(worst_excess, bound - oracle.value)
            assert bound <= oracle.value + 1e-9
            y = dual_y_step(gather(z, gs), y, inst, gs)
            for b in np.split(y, gs.offsets[1:-1]):
                assert np.linalg.norm(b) <= inst.lam1 + 1e-12
        report = solve_dual(inst, gs)
        assert report.objective >= oracle.value - 1e-9
    print(f"ACCEPTANCE C8 (dual solver sanity, 100 instances): PASS - "
          f"feasible throughout, worst bound minus optimum {worst_excess:.2e}")


def test_c9_cli_round_trips(tmp_path):
    # run with relative paths inside each working directory so the records
    # (which echo the flags) are comparable byte for byte
    #
    # The child must import the same ``sogl`` as this process, but runs in a
    # temp cwd where a relative PYTHONPATH (such as ``src``) no longer
    # resolves; so put the absolute directory holding the imported package
    # first on the child's PYTHONPATH.
    package_root = str(Path(sogl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)

    def pipeline(workdir):
        workdir.mkdir()
        outputs = []
        for argv, out in (
            (["gen", "--seed", "11", "--n", "7", "--m", "3", "--lambda0",
              "0.05", "--lambda1", "0.2", "--out", "inst.json"], "inst.json"),
            (["solve", "inst.json", "--out", "rec.json"], "rec.json"),
            (["check", "inst.json", "--point", "rec.json", "--out",
              "chk.json"], "chk.json"),
        ):
            proc = subprocess.run([sys.executable, "-m", "sogl", *argv],
                                  capture_output=True, cwd=workdir, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append((workdir / out).read_bytes())
        return outputs

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first == second
    print("ACCEPTANCE C9 (CLI round trip): PASS - gen/solve/check exit 0 "
          "with identical bytes across two runs")
