import math

import numpy as np
import pytest

import sogl.dual as dual_mod
from sogl import (
    AdmmConfig,
    CycleDetectedError,
    GroupStructure,
    ProxInstance,
    dual_objective,
    dual_y_step,
    dual_z_step,
    hard_threshold,
    oracle_prox_l0_ogl,
    scatter_add,
    solve_dual,
)
from sogl.dual import _CycleMonitor
from helpers import random_instance, random_structure


class TestDualZStep:
    def test_zero_dual_zero_count_penalty(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([0.4, -1.1]), s=1.3, lam0=0.0)
        np.testing.assert_array_equal(dual_z_step(np.zeros(gs.total_size), inst, gs),
                                      inst.v)

    def test_threshold_drops_small_entries(self):
        # s=1, lam0=0.5 gives threshold 1: |0.5| <= 1 dies, |2| survives
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([0.5, 2.0]), s=1.0, lam0=0.5)
        out = dual_z_step(np.zeros(gs.total_size), inst, gs)
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_huge_count_penalty(self):
        gs = GroupStructure(3, [[0, 1, 2]])
        inst = ProxInstance(v=np.array([1.0, -2.0, 3.0]), s=1.0, lam0=1e8)
        assert np.all(dual_z_step(np.zeros(gs.total_size), inst, gs) == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_coordinate_two_candidate_optimality(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.8),
                               lam1_range=(0.0, 1.0))
        y = _ball_boundary_blocks(rng, gs, inst.lam1)
        z = dual_z_step(y, inst, gs)
        w = inst.v + inst.s * scatter_add(y, gs)
        for g in range(gs.n):
            keep = 0.5 / inst.s * (z[g] - w[g]) ** 2 + inst.lam0 * (z[g] != 0)
            drop = 0.5 / inst.s * w[g] ** 2
            take = inst.lam0 if w[g] != 0 else 0.0
            assert keep <= drop + 1e-12
            assert keep <= take + 1e-12


def _unit(b):
    nrm = np.linalg.norm(b)
    return b / nrm if nrm > 0 else b


def _ball_boundary_blocks(rng, gs, radius):
    """Stacked dual blocks, each a random point on its radius ball."""
    return np.concatenate([radius * _unit(rng.normal(size=len(g))) for g in gs.groups])


class TestDualYStep:
    def test_zero_direction_maps_to_zero(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, -0.5]), s=1.0, lam1=2.0)
        out = dual_y_step(2.0 * inst.v, inst, gs)
        assert np.linalg.norm(out) == 0.0

    def test_scales_direction_to_ball_boundary(self):
        # z - 2v = (3, 4), radius 2: boundary point (1.2, 1.6)
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=2.0)
        out = dual_y_step(np.array([3.0, 4.0]), inst, gs)
        np.testing.assert_allclose(out, [1.2, 1.6], atol=1e-15)

    def test_zero_radius(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=1.0, lam1=0.0)
        assert np.linalg.norm(dual_y_step(np.array([3.0, 4.0]), inst, gs)) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_and_maximal_over_disk(self, seed):
        rng = np.random.default_rng(seed)
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=rng.normal(size=2), s=1.0,
                            lam1=float(rng.uniform(0.1, 2)))
        z = rng.normal(size=2)
        out = dual_y_step(z, inst, gs)
        assert np.linalg.norm(out) <= inst.lam1 + 1e-12
        d = z - 2 * inst.v
        attained = out @ d
        for theta in np.linspace(0, 2 * math.pi, 721):
            p = inst.lam1 * np.array([math.cos(theta), math.sin(theta)])
            assert p @ d <= attained + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_group_reference(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng, max_n=10, max_m=5)
        inst = random_instance(rng, gs, lam1_range=(0.1, 2.0))
        z = rng.normal(size=gs.n)
        out = np.split(dual_y_step(z, inst, gs), gs.offsets[1:-1])
        for b, g in zip(out, gs.groups):
            d = z[g] - 2.0 * inst.v[g]
            np.testing.assert_allclose(b, inst.lam1 * _unit(d), rtol=1e-14,
                                       atol=1e-15)

    def test_direction_switch(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 0.0]), s=1.0, lam1=1.0)
        z = np.array([3.0, 0.0])
        default = dual_y_step(z, inst, gs)                  # direction (1, 0)
        np.testing.assert_allclose(default, [1.0, 0.0], atol=1e-15)
        inst2 = ProxInstance(v=np.array([2.0, 0.0]), s=1.0, lam1=1.0)
        flipped = dual_y_step(z, inst2, gs)                 # direction (-1, 0)
        np.testing.assert_allclose(flipped, [-1.0, 0.0], atol=1e-15)


class TestDualObjective:
    def test_at_center_without_count_penalty(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=2.0, lam0=0.0)
        val = dual_objective(inst.v, np.zeros(gs.total_size), inst, gs)
        assert val == pytest.approx(-np.sum(inst.v**2) / (2 * inst.s), rel=1e-15)

    def test_cancellation_at_zero(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=2.0, lam0=0.3)
        assert dual_objective(np.zeros(2), np.zeros(gs.total_size), inst, gs) == \
            pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_expanded_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.5),
                               lam1_range=(0.1, 1.0))
        y = _ball_boundary_blocks(rng, gs, inst.lam1)
        z = rng.normal(size=gs.n)
        val = dual_objective(z, y, inst, gs)
        # expand the square: (1/2s)(||z||^2 - 2 z.w) + lam0*nnz
        w = inst.v + inst.s * scatter_add(y, gs)
        expanded = (0.5 / inst.s) * (z @ z - 2 * z @ w) + inst.lam0 * np.count_nonzero(z)
        assert val == pytest.approx(expanded, rel=1e-10, abs=1e-10)


class TestSolveDual:
    def test_zero_radius_settles_to_global_hard_threshold(self):
        rng = np.random.default_rng(0)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.1, 0.5), lam1_range=(0.0, 0.0))
        report = solve_dual(inst, gs)
        assert report.converged and report.iters <= 2
        expected = hard_threshold(inst.v, math.sqrt(2 * inst.s * inst.lam0))
        np.testing.assert_array_equal(report.x_final, expected)

    def test_penalty_free_returns_center(self):
        rng = np.random.default_rng(1)
        gs = random_structure(rng)
        inst = ProxInstance(v=rng.normal(size=gs.n), s=1.0)
        report = solve_dual(inst, gs)
        np.testing.assert_array_equal(report.x_final, inst.v)

    @pytest.mark.parametrize("seed", range(10))
    def test_candidate_dominates_global_minimum(self, seed):
        rng = np.random.default_rng(300 + seed)
        gs = random_structure(rng, max_n=6)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.5),
                               lam1_range=(0.0, 1.0))
        try:
            report = solve_dual(inst, gs)
        except CycleDetectedError:
            return  # legitimate outcome; the caller falls back to ADMM
        oracle = oracle_prox_l0_ogl(inst, gs)
        assert report.objective >= oracle.value - 1e-9

    def test_every_iterate_feasible(self):
        rng = np.random.default_rng(2)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.5),
                               lam1_range=(0.2, 1.5))
        y = np.zeros(gs.total_size)
        for _ in range(25):
            z = dual_z_step(y, inst, gs)
            y = dual_y_step(z, inst, gs)
            for b in np.split(y, gs.offsets[1:-1]):
                assert np.linalg.norm(b) <= inst.lam1 + 1e-12

    def test_trace_rows_match_iterations(self):
        rng = np.random.default_rng(3)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.05, 0.3),
                               lam1_range=(0.1, 1.0))
        report = solve_dual(inst, gs, AdmmConfig(trace=True))
        assert len(report.trace) == report.iters


class TestCycleDetection:
    def test_monitor_classification(self):
        mon = _CycleMonitor()
        a, b, c = ("a",), ("b",), ("c",)
        assert mon.update(a) == "new"
        assert mon.update(b) == "new"
        assert mon.update(b) == "repeat"
        assert mon.update(c) == "new"
        assert mon.update(a) == "cycle"

    def test_solve_dual_raises_on_forced_cycle(self, monkeypatch):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 1.0]), s=1.0, lam0=0.1, lam1=0.5)
        flip = {"k": 0}

        def alternating_z(y, inst_, gs_):
            flip["k"] += 1
            period = flip["k"] % 3
            if period == 0:
                return np.array([1.0, 0.0])
            if period == 1:
                return np.array([0.0, 1.0])
            return np.array([1.0, 1.0])

        monkeypatch.setattr(dual_mod, "dual_z_step", alternating_z)
        with pytest.raises(CycleDetectedError):
            solve_dual(inst, gs, AdmmConfig(max_iters=50))
