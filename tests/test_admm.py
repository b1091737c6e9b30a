import dataclasses
import math

import numpy as np
import pytest

from sogl import (
    AdmmConfig,
    GroupStructure,
    NonFiniteError,
    ProxInstance,
    objective_value,
    oracle_prox_l0_ogl,
    oracle_variant,
    sandwich,
    solve_admm,
    solve_dual,
    stationarity_check,
)
from sogl import admm
from sogl.admm import penalty_constants, residual_norms, x_step, y_step, z_step
from sogl.instances import generate_instance
from sogl.model import gather, hard_threshold, scatter_add
from helpers import (
    block_soft_threshold,
    random_instance,
    random_structure,
    solve_admm_reference,
    stacked_normal,
    wide_instances,
    z_step_scaled_space,
)


def record_penalties(monkeypatch):
    """The penalties ``solve_admm`` computes step constants for, in order."""
    rhos = []
    constants = admm.penalty_constants

    def recording(inst, gs, rho):
        rhos.append(rho)
        return constants(inst, gs, rho)

    monkeypatch.setattr(admm, "penalty_constants", recording)
    return rhos


def assert_first_order_to_scale(x, inst, gs, cfg=AdmmConfig()):
    """The subgradient residual of ``stationarity_check`` is within
    ``eps_abs*sqrt(n) + eps_rel*||v||/s``, a tolerance scaled like ADMM's
    stop test. Its count-term test is left out: an ADMM fixed point need
    not pass it."""
    tol = cfg.eps_abs * math.sqrt(inst.n) + cfg.eps_rel * float(
        np.linalg.norm(inst.v)) / inst.s
    residual = stationarity_check(x, inst, gs, tol=tol)[1]
    assert residual <= tol, (residual, tol)


def make_state(rng, gs):
    """Random stacked x, consensus z and stacked scaled multiplier u, drawn
    in that order."""
    x = stacked_normal(rng, gs)
    z = rng.normal(size=gs.n)
    u = stacked_normal(rng, gs)
    return x, z, u


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
        x, z, u = make_state(rng, gs)
        inst = ProxInstance(v=np.zeros(3), s=1.0, lam1=0.0)
        zb = gather(z, gs)
        out = x_step(zb, u, gs, penalty_constants(inst, gs, 2.0))
        np.testing.assert_allclose(out, zb - u, atol=1e-15)

    def test_all_zero_state(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=0.7)
        out = x_step(np.zeros(2), np.zeros(2), gs, penalty_constants(inst, gs, 1.0))
        assert np.linalg.norm(out) == 0.0

    def test_block_shrink_example(self):
        # z=(3,4) on one group, u=0, lam1/rho = 2.5: shrink factor 1/2
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=2.5)
        out = x_step(gather(np.array([3.0, 4.0]), gs), np.zeros(2), gs,
                     penalty_constants(inst, gs, 1.0))
        np.testing.assert_allclose(out, [1.5, 2.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_optimality_against_grid(self, seed):
        # each output block minimizes its own subproblem; verify on 2-D
        # blocks by dense grid search
        rng = np.random.default_rng(seed)
        gs = GroupStructure(2, [[0, 1]])
        _, z, y = make_state(rng, gs)
        inst = ProxInstance(v=np.zeros(2), s=1.0, lam1=float(rng.uniform(0, 2)))
        rho = float(rng.uniform(0.5, 2))
        zb = gather(z, gs)
        out = x_step(zb, y / rho, gs, penalty_constants(inst, gs, rho))

        def block_obj(p):
            return (inst.lam1 * np.linalg.norm(p) + p @ y
                    + 0.5 * rho * np.sum((p - zb) ** 2))

        best = block_obj(out)
        grid = np.linspace(-4, 4, 81)
        for a in grid:
            for b in grid:
                assert block_obj(np.array([a, b])) >= best - 1e-9


    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_group_reference(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng, max_n=10, max_m=5)
        _, z, u = make_state(rng, gs)
        inst = ProxInstance(v=np.zeros(gs.n), lam1=float(rng.uniform(0, 3)))
        rho = float(rng.uniform(0.5, 2))
        weighted = GroupStructure(gs.n, gs.groups, weights=rng.uniform(0.3, 2.0, gs.m))
        for gs in (gs, weighted):  # block i is thresholded at lam1*w_i/rho
            out = x_step(gather(z, gs), u, gs, penalty_constants(inst, gs, rho))
            for i, g in enumerate(gs.groups):
                expected = block_soft_threshold(z[g] - blocks(u, gs)[i],
                                                inst.lam1 * gs.weights[i] / rho)
                np.testing.assert_allclose(blocks(out, gs)[i], expected,
                                           rtol=1e-14, atol=1e-15)


class TestZStep:
    def test_uncoupled_quadratic_returns_center(self):
        gs = GroupStructure(2, [])  # no groups: every overlap count is 0
        inst = ProxInstance(v=np.array([0.3, -1.2]), s=1.0, lam0=0.0)
        np.testing.assert_allclose(
            z_step(np.zeros(0), gs, penalty_constants(inst, gs, 1.0)),
            inst.v, atol=1e-15)

    def test_hand_worked_coordinate(self):
        # s=1, rho=1, both groups contain the coordinate (k=2), v=3 and the
        # scattered multiplier/block term sums to 3: curvature 3, argument
        # 2, threshold sqrt(2/3) < 2, so the coordinate survives as 2
        gs = GroupStructure(1, [[0], [0]])
        q = np.array([1.5, 1.5])
        inst = ProxInstance(v=np.array([3.0]), s=1.0, lam0=1.0)
        out = z_step(q, gs, penalty_constants(inst, gs, 1.0))
        np.testing.assert_allclose(out, [2.0], atol=1e-15)

    def test_huge_count_penalty_zeroes_everything(self):
        rng = np.random.default_rng(1)
        gs = random_structure(rng)
        x, _, u = make_state(rng, gs)
        inst = ProxInstance(v=rng.normal(size=gs.n), s=1.0, lam0=1e6)
        assert np.all(z_step(u + x, gs, penalty_constants(inst, gs, 1.0)) == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_coordinate_two_candidate_optimality(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng)
        x, _, u = make_state(rng, gs)
        inst = random_instance(rng, gs, lam0_range=(0.0, 1.0))
        rho = float(rng.uniform(0.3, 3))
        z = z_step(u + x, gs, penalty_constants(inst, gs, rho))
        c = 1.0 / inst.s + gs.overlap_counts * rho
        num = inst.v / inst.s + scatter_add(rho * u + rho * x, gs)
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
        x, _, u = make_state(rng, gs)
        inst = random_instance(rng, gs, lam0_range=(0.0, 1.0))
        rho = float(rng.uniform(0.3, 3))
        z1 = z_step(u + x, gs, penalty_constants(inst, gs, rho))
        z2 = z_step_scaled_space(u + x, inst, gs, rho)
        assert float(np.max(np.abs(z1 - z2))) <= 1e-12


class TestYStep:
    def test_consensus_reached_leaves_duals(self):
        # x = zb before and after the z step: the relaxed point is zb and
        # the multiplier does not move
        rng = np.random.default_rng(2)
        gs = random_structure(rng)
        _, z, u = make_state(rng, gs)
        zb = gather(z, gs)
        out = y_step(u + zb + 0.5 * (zb - zb), zb)
        np.testing.assert_allclose(out, u, rtol=0, atol=1e-14)

    def test_direct_formula(self):
        out = y_step(np.array([3.0, -1.0]), np.array([1.0, 1.0]))
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
        _, z, u = make_state(rng, gs)
        zb = gather(z, gs)
        r, s, *_ = residual_norms(z.copy(), zb, z, zb, u, (0.0, 0.0), gs, 1.0,
                                  1e-6)
        assert r == 0.0 and s == 0.0

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(5)
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        x, z, u = make_state(rng, gs)
        prev_z = rng.normal(size=3)
        rho = 1.3
        zb = gather(z, gs)
        r, s, eps_pri, eps_dual, finite = residual_norms(
            prev_z, x, z, zb, u, (0.25, 0.5), gs, rho, 0.1)
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
        s2 = rho * math.sqrt(
            sum((counts[g] * (z[g] - prev_z[g])) ** 2 for g in range(3))
        )
        assert r == pytest.approx(r2, rel=1e-12)
        assert s == pytest.approx(s2, rel=1e-12)
        scattered = [0.0] * 3  # of the unscaled multiplier y = rho*u
        for pos, idx in enumerate(gs.flat_index):
            scattered[idx] += rho * u[pos]
        pri2 = 0.25 + 0.1 * max(math.sqrt(sum(v * v for v in x)),
                                math.sqrt(sum(z[idx] ** 2 for g in gs.groups
                                              for idx in g)))
        dual2 = 0.5 + 0.1 * math.sqrt(sum(v * v for v in scattered))
        assert eps_pri == pytest.approx(pri2, rel=1e-12)
        assert eps_dual == pytest.approx(dual2, rel=1e-12)
        assert finite

    def test_dual_terms_computed_where_the_stop_test_reads_them(self):
        rng = np.random.default_rng(5)
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        x, z, u = make_state(rng, gs)
        zb = gather(z, gs)
        args = (rng.normal(size=3), x, z, zb, u)
        full = residual_norms(*args, (0.25, 0.5), gs, 1.3, 0.1)
        assert full[0] > full[2]  # the primal test fails
        # skipped while the primal test fails, unless asked for
        assert residual_norms(*args, (0.25, 0.5), gs, 1.3, 0.1, False) == (
            full[0], None, full[2], None, True)
        # computed once the primal test passes
        loose = residual_norms(*args, (10.0, 0.5), gs, 1.3, 0.1)
        assert loose[0] <= loose[2] and None not in loose
        assert residual_norms(*args, (10.0, 0.5), gs, 1.3, 0.1, False) == loose

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
            *_, finite = residual_norms(np.ones(3), x, z, zb, np.ones(2),
                                        (0.0, 0.0), gs, 1.0, 1e-6)
        assert not finite

    def test_overflowing_squares_of_finite_entries_are_finite(self):
        gs = GroupStructure(2, [[0, 1]])
        x, z = np.array([1e200, -1e200]), np.array([1e200, 1e200])
        zb = gather(z, gs)
        with np.errstate(over="ignore"):
            r, _, eps_pri, _, finite = residual_norms(
                np.zeros(2), x, z, zb, np.zeros(2), (0.0, 0.0), gs, 1.0,
                1e-6)
        # each overflowing norm is computed with scaling, not left infinite
        assert finite and r == pytest.approx(2e200, rel=1e-15)
        assert eps_pri == pytest.approx(1e-6 * math.sqrt(2.0) * 1e200, rel=1e-15)

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

    def test_default_schedule_converges_on_wide_sweep(self):
        # 40 instances over three modes with s, lam0 and lam1 each drawn
        # log-uniformly over two or more decades; a fixed rho = 1 leaves
        # some of these unconverged after 10000 iterations. Each converged
        # point is first-order stationary up to a tolerance that scales
        # like the stop test's: a point that only froze in floating point
        # is not
        for inst, gs in wide_instances(12, 40, (12, 60)):
            report = solve_admm(inst, gs)
            assert report.converged, (inst.n, inst.s, inst.lam0, inst.lam1)
            assert_first_order_to_scale(report.x_final, inst, gs)

    def test_converged_point_is_first_order_where_doubling_froze_z(self):
        # nested, small lam1. A schedule that doubled the penalty whatever
        # the residuals drove rho so high that z stopped moving in floating
        # point; its stop test passed after 3009 iterations at a point
        # whose stationarity residual is 1.5e-4
        *_, (inst, gs) = wide_instances(5, 92, (20, 300))
        report = solve_admm(inst, gs)
        assert report.converged and report.iters < 1000
        assert_first_order_to_scale(report.x_final, inst, gs)

    def test_zero_tolerances_never_double_the_penalty(self, monkeypatch):
        # at eps_dual = 0 the rounding error of the dual residual at any
        # doubled penalty exceeds its tolerance, so rho stays at its start
        rhos = record_penalties(monkeypatch)
        inst, gs = generate_instance(3, n=40, m=20, group_size_range=(2, 6),
                                     overlap_mode="chain").build()
        report = solve_admm(inst, gs, AdmmConfig(eps_abs=0.0, eps_rel=0.0,
                                                 max_iters=1000))
        assert report.iters == 1000 and not report.converged
        assert rhos == [0.3 / inst.s]

    def test_rounding_guard_holds_the_doubling_back(self, monkeypatch):
        # eps_rel = 1e-13: the primal test still fails at iteration 100, but
        # doubling there would put the rounding error of the dual residual
        # above eps_dual/1024; without the guard the penalty doubles once
        # and the solve takes 120 iterations instead of 111
        inst, gs = generate_instance(3, n=40, m=20, group_size_range=(2, 6),
                                     overlap_mode="nested").build()
        cfg = AdmmConfig(eps_abs=0.0, eps_rel=1e-13)
        rhos = record_penalties(monkeypatch)
        report = solve_admm(inst, gs, cfg)
        assert rhos == [0.3 / inst.s] and report.converged and report.iters == 111
        rhos.clear()
        monkeypatch.setattr(admm, "ROUNDING_MARGIN", 0)
        report = solve_admm(inst, gs, cfg)
        assert rhos == [0.3 / inst.s, 0.6 / inst.s] and report.iters == 120

    @pytest.mark.parametrize("eps_rel", [1e-6, 0.0], ids=["default", "eps-rel-0"])
    def test_overflowing_squares_stop_on_finite_residuals(self, eps_rel):
        # ||x||^2 overflows on finite iterates: an infinite eps_pri stopped
        # the default run at iteration 1 with infinite residuals, and
        # eps_pri = 0*inf = nan kept the eps_rel = 0 run from ever stopping
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        inst = ProxInstance(v=np.array([1e280, -1e280, 1e280]), s=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve_admm(inst, gs, AdmmConfig(eps_rel=eps_rel, max_iters=500))
        assert report.converged and report.iters < 500
        assert math.isfinite(report.r_norm) and math.isfinite(report.s_norm)
        np.testing.assert_allclose(report.x_final, inst.v, rtol=1e-12)


_SIZED_ENTRIES = {
    "solve_admm": solve_admm,
    "solve_dual": solve_dual,
    "sandwich": lambda inst, gs: sandwich(inst, gs, "l0"),
    "oracle_prox_l0_ogl": oracle_prox_l0_ogl,
    "oracle_variant": lambda inst, gs: oracle_variant(inst, gs, "plain"),
    "stationarity_check": lambda inst, gs: stationarity_check(
        [0.5, -1.5, 2.5], inst, gs),
}


@pytest.mark.parametrize("gs_n", [1, 5], ids=["structure-smaller",
                                            "structure-larger"])
@pytest.mark.parametrize("entry", list(_SIZED_ENTRIES))
def test_mismatched_sizes_rejected(entry, gs_n):
    # every entry that takes an (instance, structure) pair refuses one of
    # different sizes, before a smaller structure can broadcast or a larger
    # one index past the center; files cannot reach this, since the reader
    # builds both objects from one file
    gs = GroupStructure(gs_n, [[0]])
    inst = ProxInstance(v=[1.0, -2.0, 3.0], s=1.0, lam0=0.1, lam1=0.5, lam=0.5)
    with pytest.raises(ValueError, match=f"^instance has n=3 but structure "
                                         f"has n={gs_n}$"):
        _SIZED_ENTRIES[entry](inst, gs)


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
    # converges after 311 iterations: three doublings of the penalty
    cases.append(pytest.param(inst, gs, AdmmConfig(rho=0.03, trace=True),
                              id="rho-0.03-doubled"))
    cases.append(pytest.param(inst, gs, AdmmConfig(max_iters=1, trace=True),
                              id="max-iters-1"))
    # the rounding guard holds back the doubling at iteration 100
    inst, gs = generate_instance(3, n=40, m=20, group_size_range=(2, 6),
                                 overlap_mode="nested").build()
    cases.append(pytest.param(inst, gs, AdmmConfig(eps_abs=0.0, eps_rel=1e-13,
                                                    trace=True), id="guard-held"))
    cases.append(pytest.param(inst, gs, AdmmConfig(eps_abs=math.inf, trace=True),
                              id="eps-abs-inf"))
    rng = np.random.default_rng(43)
    for mode, n in (("chain", 120), ("nested", 90), ("random", 30)):
        inst, gs = generate_instance(4, n=n, m=n // 2, group_size_range=(2, 8),
                                     overlap_mode=mode).build()
        gs = GroupStructure(n, gs.groups, weights=rng.uniform(0.3, 2.0, gs.m))
        cases.append(pytest.param(inst, gs, AdmmConfig(trace=True),
                                  id=f"weighted-{mode}"))
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

    @pytest.mark.parametrize("inst, gs, cfg", _agreement_cases())
    def test_trace_changes_no_result(self, inst, gs, cfg):
        # a trace computes the dual residual at every iteration; without one
        # it is computed only where the stop test or the doubling reads it
        traced = solve_admm(inst, gs, cfg)
        plain = solve_admm(inst, gs, dataclasses.replace(cfg, trace=False))
        assert plain.trace is None
        assert plain.x_final.tobytes() == traced.x_final.tobytes()
        assert (plain.iters, plain.converged, plain.r_norm, plain.s_norm) == (
            traced.iters, traced.converged, traced.r_norm, traced.s_norm)

    def test_doubled_case_crosses_two_doublings(self):
        inst, gs = generate_instance(9, n=80, m=40, group_size_range=(2, 6)).build()
        report = solve_admm(inst, gs, AdmmConfig(rho=0.03))
        assert report.converged and report.iters > 200

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
