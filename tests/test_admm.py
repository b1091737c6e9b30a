import math

import numpy as np
import pytest

from sogl import (
    AdmmConfig,
    GroupStructure,
    NonFiniteError,
    ProxInstance,
    gather,
    hard_threshold,
    objective_value,
    oracle_prox_l0_ogl,
    oracle_variant,
    residual_norms,
    sandwich,
    scatter_add,
    solve_admm,
    solve_dual,
    stationarity_check,
    x_step,
    y_step,
    z_step,
)
from sogl.admm import consensus_constants
from sogl.instances import generate_instance
from helpers import (
    block_soft_threshold,
    random_instance,
    random_structure,
    solve_admm_reference,
    stacked_normal,
    z_step_scaled_space,
)


def make_state(rng, gs):
    """Random stacked x, consensus z and stacked y, drawn in that order."""
    x = stacked_normal(rng, gs)
    z = rng.normal(size=gs.n)
    y = stacked_normal(rng, gs)
    return x, z, y


def blocks(a, gs):
    """The per-group blocks of a stacked vector."""
    return np.split(a, gs.offsets[1:-1])


class TestAdmmConfig:
    @pytest.mark.parametrize("field, value", [
        ("rho", math.inf), ("rho", math.nan), ("rho", 0.0),
        ("eps_abs", math.nan), ("eps_rel", math.nan), ("eps_rel", -1e-9),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            AdmmConfig(**{field: value})


class TestXStep:
    def test_zero_threshold_is_projection(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        rng = np.random.default_rng(0)
        x, z, y = make_state(rng, gs)
        inst = ProxInstance(v=np.zeros(3), s=1.0, lam1=0.0)
        cfg = AdmmConfig(rho=2.0)
        zb = gather(z, gs)
        out = x_step(zb, y, inst, gs, cfg)
        np.testing.assert_allclose(out, zb - y / cfg.rho, atol=1e-15)

    def test_all_zero_state(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=0.7)
        out = x_step(np.zeros(2), np.zeros(2), inst, gs, AdmmConfig())
        assert np.linalg.norm(out) == 0.0

    def test_block_shrink_example(self):
        # z=(3,4) on one group, y=0, lam1/rho = 2.5: shrink factor 1/2
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=2.5)
        out = x_step(gather(np.array([3.0, 4.0]), gs), np.zeros(2), inst, gs,
                     AdmmConfig(rho=1.0))
        np.testing.assert_allclose(out, [1.5, 2.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_optimality_against_grid(self, seed):
        # each output block minimizes its own subproblem; verify on 2-D
        # blocks by dense grid search
        rng = np.random.default_rng(seed)
        gs = GroupStructure(2, [[0, 1]])
        _, z, y = make_state(rng, gs)
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=float(rng.uniform(0, 2)))
        cfg = AdmmConfig(rho=float(rng.uniform(0.5, 2)))
        zb = gather(z, gs)
        out = x_step(zb, y, inst, gs, cfg)

        def block_obj(p):
            return (inst.lam1 * np.linalg.norm(p) + p @ y
                    + 0.5 * cfg.rho * np.sum((p - zb) ** 2))

        best = block_obj(out)
        grid = np.linspace(-4, 4, 81)
        for a in grid:
            for b in grid:
                assert block_obj(np.array([a, b])) >= best - 1e-9


    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_group_reference(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng, max_n=10, max_m=5)
        _, z, y = make_state(rng, gs)
        inst = ProxInstance(v=np.zeros(gs.n), lam1=float(rng.uniform(0, 3)))
        cfg = AdmmConfig(rho=float(rng.uniform(0.5, 2)))
        out = x_step(gather(z, gs), y, inst, gs, cfg)
        for i, g in enumerate(gs.groups):
            expected = block_soft_threshold(z[g] - blocks(y, gs)[i] / cfg.rho,
                                            inst.lam1 / cfg.rho)
            np.testing.assert_allclose(blocks(out, gs)[i], expected,
                                       rtol=1e-14, atol=1e-15)


class TestZStep:
    def test_uncoupled_quadratic_returns_center(self):
        gs = GroupStructure(2, [])  # no groups: every overlap count is 0
        inst = ProxInstance(v=np.array([0.3, -1.2]), s=1.0, lam0=0.0)
        cfg = AdmmConfig()
        np.testing.assert_allclose(
            z_step(np.zeros(0), np.zeros(0), consensus_constants(inst, gs, cfg),
                   gs, cfg),
            inst.v, atol=1e-15)

    def test_hand_worked_coordinate(self):
        # s=1, rho=1, both groups contain the coordinate (k=2), v=3 and the
        # scattered dual/block term sums to 3: curvature 3, argument 2,
        # threshold sqrt(2/3) < 2, so the coordinate survives as 2
        gs = GroupStructure(1, [[0], [0]])
        x = np.array([1.0, 1.0])
        y = np.array([0.5, 0.5])
        inst = ProxInstance(v=np.array([3.0]), s=1.0, lam0=1.0)
        cfg = AdmmConfig(rho=1.0)
        out = z_step(x, y, consensus_constants(inst, gs, cfg), gs, cfg)
        np.testing.assert_allclose(out, [2.0], atol=1e-15)

    def test_huge_count_penalty_zeroes_everything(self):
        rng = np.random.default_rng(1)
        gs = random_structure(rng)
        x, _, y = make_state(rng, gs)
        inst = ProxInstance(v=rng.normal(size=gs.n), s=1.0, lam0=1e6)
        cfg = AdmmConfig()
        assert np.all(z_step(x, y, consensus_constants(inst, gs, cfg), gs, cfg) == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_coordinate_two_candidate_optimality(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng)
        x, _, y = make_state(rng, gs)
        inst = random_instance(rng, gs, lam0_range=(0.0, 1.0))
        cfg = AdmmConfig(rho=float(rng.uniform(0.3, 3)))
        z = z_step(x, y, consensus_constants(inst, gs, cfg), gs, cfg)
        c = 1.0 / inst.s + gs.overlap_counts * cfg.rho
        num = inst.v / inst.s + scatter_add(y + cfg.rho * x, gs)
        for g in range(gs.n):
            def sub(val):
                return (0.5 * c[g] * val**2 - num[g] * val
                        + inst.lam0 * (val != 0))
            assert sub(z[g]) <= sub(0.0) + 1e-12
            assert sub(z[g]) <= sub(num[g] / c[g]) + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scaled_space_form(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng, max_n=12, max_m=5)
        x, _, y = make_state(rng, gs)
        inst = random_instance(rng, gs, lam0_range=(0.0, 1.0))
        cfg = AdmmConfig(rho=float(rng.uniform(0.3, 3)))
        z1 = z_step(x, y, consensus_constants(inst, gs, cfg), gs, cfg)
        z2 = z_step_scaled_space(x, y, inst, gs, cfg)
        assert float(np.max(np.abs(z1 - z2))) <= 1e-12


class TestYStep:
    def test_consensus_reached_leaves_duals(self):
        rng = np.random.default_rng(2)
        gs = random_structure(rng)
        _, z, y = make_state(rng, gs)
        zb = gather(z, gs)
        out = y_step(zb - zb, y, AdmmConfig(rho=1.7))
        np.testing.assert_array_equal(out, y)

    def test_direct_formula(self):
        out = y_step(np.array([1.0, -1.0]), np.zeros(2), AdmmConfig(rho=2.0))
        np.testing.assert_array_equal(out, [2.0, -2.0])

    def test_duals_stabilize_after_convex_convergence(self):
        rng = np.random.default_rng(3)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam1_range=(0.2, 0.8))
        cfg = AdmmConfig(eps_abs=1e-12, eps_rel=1e-10)
        report = solve_admm(inst, gs, cfg)
        assert report.converged
        # primal residual ~ 0 implies the last dual update barely moved
        assert report.r_norm <= 1e-8


class TestResiduals:
    def test_zero_at_consensus(self):
        rng = np.random.default_rng(4)
        gs = random_structure(rng)
        _, z, y = make_state(rng, gs)
        zb = gather(z, gs)
        r, s, *_ = residual_norms(z.copy(), zb, z, zb, zb - zb, y, (0.0, 0.0),
                                  gs, AdmmConfig())
        assert r == 0.0 and s == 0.0

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(5)
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        x, z, y = make_state(rng, gs)
        prev_z = rng.normal(size=3)
        cfg = AdmmConfig(rho=1.3, eps_rel=0.1)
        zb = gather(z, gs)
        r, s, eps_pri, eps_dual, finite = residual_norms(
            prev_z, x, z, zb, x - zb, y, (0.25, 0.5), gs, cfg)
        # recompute from scratch with plain loops
        r2 = 0.0
        for i, g in enumerate(gs.groups):
            for j, idx in enumerate(g):
                r2 += (blocks(x, gs)[i][j] - z[idx]) ** 2
        r2 = math.sqrt(r2)
        counts = [0] * 3
        for g in gs.groups:
            for idx in g:
                counts[idx] += 1
        s2 = cfg.rho * math.sqrt(
            sum((counts[g] * (z[g] - prev_z[g])) ** 2 for g in range(3))
        )
        assert r == pytest.approx(r2, rel=1e-12)
        assert s == pytest.approx(s2, rel=1e-12)
        scattered = [0.0] * 3
        for pos, idx in enumerate(gs.flat_index):
            scattered[idx] += y[pos]
        pri2 = 0.25 + 0.1 * max(math.sqrt(sum(v * v for v in x)),
                                math.sqrt(sum(z[idx] ** 2 for g in gs.groups
                                              for idx in g)))
        dual2 = 0.5 + 0.1 * math.sqrt(sum(v * v for v in scattered))
        assert eps_pri == pytest.approx(pri2, rel=1e-12)
        assert eps_dual == pytest.approx(dual2, rel=1e-12)
        assert finite

    @pytest.mark.parametrize("where", ["x", "covered-z", "uncovered-z"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_detected(self, where, bad):
        gs = GroupStructure(3, [[0, 1]])
        x, z = np.ones(2), np.ones(3)
        if where == "x":
            x[1] = bad
        else:
            z[0 if where == "covered-z" else 2] = bad
        zb = gather(z, gs)
        with np.errstate(invalid="ignore"):
            *_, finite = residual_norms(np.ones(3), x, z, zb, x - zb, np.ones(2),
                                        (0.0, 0.0), gs, AdmmConfig())
        assert not finite

    def test_overflowing_squares_of_finite_entries_are_finite(self):
        gs = GroupStructure(2, [[0, 1]])
        x, z = np.array([1e200, -1e200]), np.array([1e200, 1e200])
        zb = gather(z, gs)
        with np.errstate(over="ignore"):
            r, _, eps_pri, _, finite = residual_norms(
                np.zeros(2), x, z, zb, x - zb, np.zeros(2), (0.0, 0.0), gs,
                AdmmConfig())
        assert finite and r == math.inf and eps_pri == math.inf

    def test_infinite_tolerance_stops_immediately(self):
        rng = np.random.default_rng(6)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.1, 0.5), lam1_range=(0.1, 1.0))
        report = solve_admm(inst, gs, AdmmConfig(eps_abs=math.inf))
        assert report.iters == 1 and report.converged


class TestSolveAdmm:
    def test_penalty_free_returns_center(self):
        rng = np.random.default_rng(7)
        gs = random_structure(rng)
        inst = ProxInstance(v=rng.normal(size=gs.n), s=float(rng.uniform(0.5, 2)))
        report = solve_admm(inst, gs)
        assert np.max(np.abs(report.x_final - inst.v)) <= 1e-8
        assert report.iters <= 3

    def test_report_objective_consistent(self):
        rng = np.random.default_rng(8)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.3), lam1_range=(0.0, 1.0))
        report = solve_admm(inst, gs)
        assert report.objective == objective_value(report.x_final, inst, gs)

    def test_oracle_gap_recorded_when_supplied(self):
        rng = np.random.default_rng(13)
        gs = random_structure(rng, max_n=5)
        inst = random_instance(rng, gs, lam0_range=(0.05, 0.3),
                               lam1_range=(0.1, 0.6))
        exact = oracle_prox_l0_ogl(inst, gs)
        report = solve_admm(inst, gs, oracle_value=exact.value)
        assert report.oracle_gap == report.objective - exact.value
        assert report.oracle_gap >= -1e-9
        assert solve_admm(inst, gs).oracle_gap is None

    @pytest.mark.parametrize("seed", range(12))
    def test_convex_matches_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam1_range=(0.0, 1.0))
        report = solve_admm(inst, gs, AdmmConfig(eps_abs=1e-10, eps_rel=1e-8))
        oracle = oracle_prox_l0_ogl(inst, gs)
        assert report.objective == pytest.approx(oracle.value, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", range(12))
    def test_nonconvex_dominates_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        gs = random_structure(rng, max_n=6)
        inst = random_instance(rng, gs, lam0_range=(0.05, 0.4),
                               lam1_range=(0.0, 1.0))
        report = solve_admm(inst, gs)
        oracle = oracle_prox_l0_ogl(inst, gs)
        assert report.objective >= oracle.value - 1e-9

    def test_non_finite_input_raises(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([math.inf, 1.0]), s=1.0, lam1=0.1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError):
                solve_admm(inst, gs)

    def test_trace_rows_match_iteration_count(self):
        rng = np.random.default_rng(9)
        gs = random_structure(rng)
        inst = random_instance(rng, gs, lam0_range=(0.05, 0.2),
                               lam1_range=(0.1, 0.5))
        report = solve_admm(inst, gs, AdmmConfig(trace=True))
        assert len(report.trace) == report.iters
        assert report.trace[-1][0] == report.iters

    def test_convex_residuals_vanish_at_scale(self):
        # n up to 100, rho = 1: both residuals below 1e-6 within 10000 cycles
        rng = np.random.default_rng(10)
        n = 100
        groups = [
            sorted(rng.choice(n, size=int(rng.integers(2, 12)), replace=False).tolist())
            for _ in range(12)
        ]
        gs = GroupStructure(n, groups)
        inst = ProxInstance(v=rng.normal(0, 2, n), s=1.0, lam1=0.5)
        cfg = AdmmConfig(rho=1.0, eps_abs=0.0, eps_rel=0.0, max_iters=10000)
        report = solve_admm(inst, gs, cfg)
        assert report.r_norm <= 1e-6 and report.s_norm <= 1e-6

    def test_mismatched_sizes_rejected(self):
        gs = GroupStructure(3, [[0, 1]])
        inst = ProxInstance(v=np.ones(2), s=1.0)
        with pytest.raises(ValueError, match="n="):
            solve_admm(inst, gs)


class TestLayoutEdges:
    """Structures where the stacked layout is empty or leaves variables out."""

    @pytest.mark.parametrize("n,groups", [(4, []), (5, [[1, 2], [2, 3]])],
                             ids=["no-groups", "uncovered"])
    def test_solvers_bounds_and_check(self, n, groups):
        gs = GroupStructure(n, groups)
        rng = np.random.default_rng(31)
        inst = ProxInstance(v=rng.normal(0, 2, n), s=0.8, lam0=0.3, lam1=0.4,
                            lam=0.5)
        exact = oracle_prox_l0_ogl(inst, gs)
        # an uncovered coordinate is its own 1-D count-penalized prox
        free = gs.overlap_counts == 0
        separable = hard_threshold(inst.v, math.sqrt(2 * inst.s * inst.lam0))

        for report in (solve_admm(inst, gs), solve_dual(inst, gs)):
            assert report.converged
            assert report.objective >= exact.value - 1e-9
            np.testing.assert_allclose(report.x_final[free], separable[free],
                                       atol=1e-12)

        ok, residual = stationarity_check(exact.minimizer, inst, gs)
        assert ok and residual <= 1e-6

        for variant in ("plain", "l1", "l0"):
            rep = sandwich(inst, gs, variant)
            target = oracle_variant(inst, gs, variant).value
            assert rep.lower_value - 1e-9 <= target <= rep.upper_value + 1e-9

        if gs.m == 0:
            # no group term: every problem is separable with a closed form
            v, s = inst.v, inst.s
            l0_value = float(np.sum(np.minimum(v**2 / (2 * s), inst.lam0)))
            assert exact.value == pytest.approx(l0_value, rel=1e-12)
            for report in (solve_admm(inst, gs), solve_dual(inst, gs)):
                np.testing.assert_allclose(report.x_final, separable, atol=1e-12)
                assert report.objective == pytest.approx(l0_value, rel=1e-12)
            t = s * inst.lam1
            l1_value = float(np.sum(np.where(
                np.abs(v) > t, inst.lam1 * np.abs(v) - 0.5 * s * inst.lam1**2,
                v**2 / (2 * s))))
            for variant, value in (("plain", 0.0), ("l1", l1_value),
                                   ("l0", l0_value)):
                rep = sandwich(inst, gs, variant)
                assert rep.lower_value == pytest.approx(value, rel=1e-12, abs=1e-15)
                assert rep.upper_value == pytest.approx(value, rel=1e-12, abs=1e-15)


def _agreement_cases():
    cases = []
    for mode, n in (("chain", 120), ("nested", 90), ("random", 30)):
        for seed in range(3):
            inst, gs = generate_instance(seed, n=n, m=n // 2, group_size_range=(2, 8),
                                         overlap_mode=mode).build()
            cases.append(pytest.param(inst, gs, AdmmConfig(trace=True),
                                      id=f"{mode}-{seed}"))
    inst, gs = generate_instance(7, n=60, m=30, lambda0=0.0).build()
    cases.append(pytest.param(inst, gs, AdmmConfig(trace=True), id="lam0-0"))
    inst, gs = generate_instance(8, n=60, m=30, lambda1=0.0).build()
    cases.append(pytest.param(inst, gs, AdmmConfig(trace=True), id="lam1-0"))
    rng = np.random.default_rng(41)
    gs = GroupStructure(9, [[1, 2, 3], [3, 4], [6, 7]])
    inst = ProxInstance(v=rng.normal(0, 2, 9), s=0.7, lam0=0.2, lam1=0.3)
    cases.append(pytest.param(inst, gs, AdmmConfig(trace=True), id="uncovered"))
    inst, gs = generate_instance(9, n=80, m=40, group_size_range=(2, 6)).build()
    for rho in (0.3, 2.5):
        cases.append(pytest.param(inst, gs, AdmmConfig(rho=rho, trace=True),
                                  id=f"rho-{rho}"))
    cases.append(pytest.param(inst, gs, AdmmConfig(max_iters=1, trace=True),
                              id="max-iters-1"))
    cases.append(pytest.param(inst, gs, AdmmConfig(eps_abs=math.inf, trace=True),
                              id="eps-abs-inf"))
    return cases


class TestAgreesWithReferenceLoop:
    """``solve_admm`` shares temporaries across its steps and stop test;
    the loop it replaced, kept in helpers, must give the same bits."""

    @staticmethod
    def assert_same(report, ref):
        assert (report.iters, report.converged, report.objective, report.r_norm,
                report.s_norm) == (ref.iters, ref.converged, ref.objective,
                                   ref.r_norm, ref.s_norm)
        assert report.x_final.tobytes() == ref.x_final.tobytes()
        assert report.trace == ref.trace

    @pytest.mark.parametrize("inst, gs, cfg", _agreement_cases())
    def test_bit_for_bit(self, inst, gs, cfg):
        self.assert_same(solve_admm(inst, gs, cfg), solve_admm_reference(inst, gs, cfg))

    def test_overflowing_norms_of_finite_iterates(self):
        # every entry is finite, but the squared norms are not: no raise
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        inst = ProxInstance(v=np.array([1e200, -1e200, 1e200]), s=1.0, lam0=0.05,
                            lam1=0.1)
        cfg = AdmmConfig(trace=True)
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve_admm(inst, gs, cfg)
            ref = solve_admm_reference(inst, gs, cfg)
        assert np.all(np.isfinite(report.x_final))
        self.assert_same(report, ref)

    def test_overflowing_center_raises_at_first_iteration(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        inst = ProxInstance(v=np.array([1e308, 1.0, 2.0]), s=1e-10)
        for solve in (solve_admm, solve_admm_reference):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteError, match="at iteration 1$"):
                    solve(inst, gs)
