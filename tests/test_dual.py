import math

import numpy as np
import pytest

from sogl import (
    AdmmConfig,
    GroupStructure,
    ProxInstance,
    generate_instance,
    oracle_prox_l0_ogl,
    solve_admm,
    solve_dual,
)
from sogl.dual import dual_y_step, dual_z_step
from sogl.model import gather, hard_threshold, scatter_add
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
        out = dual_y_step(gather(np.zeros(2), gs), np.zeros(gs.total_size),
                          inst, gs)
        assert np.linalg.norm(out) == 0.0

    def test_inside_block_moves_by_scaled_gather(self):
        rng = np.random.default_rng(7)
        gs = GroupStructure(5, [[0, 1, 2], [1, 2, 3], [2, 4]])
        inst = ProxInstance(v=rng.normal(size=5), s=0.7, lam1=10.0)
        y, z = rng.uniform(-1, 1, gs.total_size), rng.normal(size=5)
        out = dual_y_step(gather(z, gs), y, inst, gs)
        # overlap count 3 at index 2; every stepped block stays inside
        np.testing.assert_array_equal(out, y - z[gs.flat_index] / (0.7 * 3))

    def test_scales_direction_to_ball_boundary(self):
        # y = 0, s = 1, one group: stepped point -(3, 4), radius 2
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=2.0)
        out = dual_y_step(gather(np.array([3.0, 4.0]), gs), np.zeros(2), inst, gs)
        np.testing.assert_allclose(out, [-1.2, -1.6], atol=1e-15)
        assert np.linalg.norm(out) == pytest.approx(2.0, rel=1e-15)

    def test_zero_radius(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=1.0, lam1=0.0)
        out = dual_y_step(gather(np.array([3.0, 4.0]), gs), np.array([0.5, -0.5]),
                          inst, gs)
        assert np.linalg.norm(out) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_and_maximal_over_disk(self, seed):
        # the projection maximizes <p, u> - ||p||^2/2 over the disk, where
        # u is the stepped point
        rng = np.random.default_rng(seed)
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=rng.normal(size=2), s=float(rng.uniform(0.5, 2)),
                            lam1=float(rng.uniform(0.1, 2)))
        y, z = rng.normal(size=2), rng.normal(0, 3, size=2)
        out = dual_y_step(gather(z, gs), y, inst, gs)
        assert np.linalg.norm(out) <= inst.lam1 + 1e-12
        u = y - z / inst.s

        def value(p):
            return p @ u - 0.5 * p @ p

        attained = value(out)
        for r in np.linspace(0, inst.lam1, 9):
            for theta in np.linspace(0, 2 * math.pi, 181):
                p = r * np.array([math.cos(theta), math.sin(theta)])
                assert value(p) <= attained + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_group_reference(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng, max_n=10, max_m=5)
        inst = random_instance(rng, gs, lam1_range=(0.1, 2.0))
        y = _ball_boundary_blocks(rng, gs, inst.lam1) * rng.uniform(0, 1)
        z = rng.normal(size=gs.n)
        k = max(max(sum(j in g for g in gs.groups) for j in range(gs.n)), 1)
        weighted = GroupStructure(gs.n, gs.groups, weights=rng.uniform(0.3, 2.0, gs.m))
        for gs in (gs, weighted):  # block i's ball has radius lam1*w_i
            out = np.split(dual_y_step(gather(z, gs), y, inst, gs), gs.offsets[1:-1])
            for b, yb, g, w in zip(out, np.split(y, gs.offsets[1:-1]), gs.groups,
                                   gs.weights):
                u = yb - z[g] / (inst.s * k)
                nrm = np.linalg.norm(u)
                ref = u if nrm <= inst.lam1 * w else inst.lam1 * w * u / nrm
                np.testing.assert_allclose(b, ref, rtol=1e-14, atol=1e-15)

    def test_direction_switch(self):
        # the step runs against gather(z): flipping z flips it
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 0.0]), s=2.0, lam1=1.0)
        y = np.zeros(2)
        z = np.array([1.0, 0.0])
        np.testing.assert_array_equal(dual_y_step(gather(z, gs), y, inst, gs),
                                      [-0.5, 0.0])
        np.testing.assert_array_equal(dual_y_step(gather(-z, gs), y, inst, gs),
                                      [0.5, 0.0])


def _replay_bounds(inst, gs, iters):
    """The bound at each of the first ``iters`` dual iterates, expanded as
    ``(1/2s)(z.z - 2 z.w + v.v) + lam0*nnz(z)`` with ``w = v + s*G'y``."""
    y, bounds = np.zeros(gs.total_size), []
    for _ in range(iters):
        z = dual_z_step(y, inst, gs)
        w = inst.v + inst.s * scatter_add(y, gs)
        bounds.append(0.5 / inst.s * (z @ z - 2 * z @ w + inst.v @ inst.v)
                      + inst.lam0 * np.count_nonzero(z))
        y = dual_y_step(gather(z, gs), y, inst, gs)
    return bounds


class TestDualObjective:
    """The Lagrangian bound that ``solve_dual`` traces in its third column."""

    def test_at_center_without_count_penalty(self):
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=2.0, lam0=0.0, lam1=0.5)
        for w in (1.0, 3.0):
            gs = GroupStructure(2, [[0, 1]], weights=[w])
            report = solve_dual(inst, gs, AdmmConfig(trace=True))
            _, obj, bound, _ = report.trace[0]
            assert bound == 0.0
            assert obj == pytest.approx(0.5 * w * math.sqrt(5.0), rel=1e-15)

    def test_cancellation_at_zero(self):
        # z = 0 at y = 0: the gap terms vanish and the bound is the objective
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=2.0, lam0=10.0, lam1=0.3)
        report = solve_dual(inst, gs, AdmmConfig(trace=True))
        assert report.converged and report.iters == 1
        assert report.trace == [(1, 1.25, 1.25, 0.0)]
        np.testing.assert_array_equal(report.x_final, [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_expanded_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng, max_n=6)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.5),
                               lam1_range=(0.1, 1.0))
        report = solve_dual(inst, gs, AdmmConfig(trace=True))
        oracle = oracle_prox_l0_ogl(inst, gs).value
        expected = _replay_bounds(inst, gs, report.iters)
        for (_, obj, bound, gap), ref in zip(report.trace, expected):
            assert bound == pytest.approx(ref, rel=1e-10, abs=1e-10)
            assert bound <= oracle + 1e-9 <= obj + 2e-9  # weak duality
            assert gap >= 0.0


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
        report = solve_dual(inst, gs)
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
            y = dual_y_step(gather(z, gs), y, inst, gs)
            for b in np.split(y, gs.offsets[1:-1]):
                assert np.linalg.norm(b) <= inst.lam1 + 1e-12

    def test_trace_rows_match_iterations(self):
        rng = np.random.default_rng(3)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.05, 0.3),
                               lam1_range=(0.1, 1.0))
        report = solve_dual(inst, gs, AdmmConfig(trace=True))
        assert len(report.trace) == report.iters

    def test_non_finite_objective_stops_at_first_iterate(self):
        # the group norm of 1e200 overflows: the first iterate is returned
        gs = GroupStructure(1, [[0]])
        inst = ProxInstance(v=np.array([1e200]), s=1.0, lam1=0.1)
        with np.errstate(over="ignore"):
            report = solve_dual(inst, gs)
        assert report.iters == 1 and not report.converged
        np.testing.assert_array_equal(report.x_final, inst.v)
        assert report.objective == math.inf

    @pytest.mark.parametrize("seed", range(10))
    def test_nested_overlap_close_to_admm(self, seed):
        inst, gs = generate_instance(seed, n=80, m=40, group_size_range=(2, 8),
                                     overlap_mode="nested").build()
        report = solve_dual(inst, gs)
        assert report.objective <= 1.01 * solve_admm(inst, gs).objective
