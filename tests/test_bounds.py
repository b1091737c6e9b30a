import math

import numpy as np
import pytest

from sogl import (
    GroupStructure,
    ProxInstance,
    oracle_variant,
    sandwich,
)
from sogl.bounds import (
    lower_bound_l0,
    lower_bound_l1,
    lower_diag,
    scaled_l2_prox,
    upper_bound_l0,
    upper_bound_l1,
    upper_diag,
)
from sogl.model import group_norm_sum
from helpers import (
    block_soft_threshold,
    oracle_c_scan,
    oracle_ub_l0_subsets,
    random_instance,
    random_structure,
    scaled_l2_fixed_point_from,
    upper_bound_l1_masked,
)


class TestDiagonals:
    def test_lower_entries_spread_weights(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        ld = lower_diag(gs)
        np.testing.assert_allclose(
            ld, [1 / math.sqrt(2), 2 / math.sqrt(2), 1 / math.sqrt(2)]
        )

    def test_lower_singleton_is_exact(self):
        gs = GroupStructure(1, [[0]])
        ld = lower_diag(gs)
        np.testing.assert_allclose(ld, [1.0])
        for x in (0.3, -2.0, 0.0):
            assert abs(ld[0] * abs(x) - group_norm_sum(np.array([x]), gs)) <= 1e-15

    def test_no_groups_gives_zero(self):
        gs = GroupStructure(3, [])
        assert np.all(lower_diag(gs) == 0.0)
        assert np.all(upper_diag(gs) == 0.0)

    def test_entries_are_floats_without_groups(self):
        gs = GroupStructure(3, [])
        assert lower_diag(gs).dtype == upper_diag(gs).dtype == np.float64

    def test_upper_entries_formula(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        ud = upper_diag(gs)
        np.testing.assert_allclose(ud, [math.sqrt(2), 2.0, math.sqrt(2)])

    def test_upper_single_full_group_is_identity(self):
        gs = GroupStructure(4, [[0, 1, 2, 3]])
        np.testing.assert_allclose(upper_diag(gs), np.ones(4))

    def test_zero_entries_exactly_on_uncovered(self):
        gs = GroupStructure(4, [[1, 3]], weights=[2.0])
        assert (lower_diag(gs) == 0).tolist() == [True, False, True, False]
        assert (upper_diag(gs) == 0).tolist() == [True, False, True, False]

    @pytest.mark.parametrize("seed", range(10))
    def test_bracketing_inequalities(self, seed):
        rng = np.random.default_rng(seed)
        gs = random_structure(rng, weighted=True)
        l = lower_diag(gs)
        u = upper_diag(gs)
        for _ in range(50):
            x = rng.normal(0, 3, gs.n)
            mid = group_norm_sum(x, gs)
            assert float(np.sum(l * np.abs(x))) <= mid + 1e-12
            assert mid <= float(np.linalg.norm(u * x)) + 1e-12

    def test_lower_equality_constant_magnitude(self):
        rng = np.random.default_rng(11)
        gs = random_structure(rng, weighted=True)
        x = 1.7 * rng.choice([-1.0, 1.0], size=gs.n)
        l = lower_diag(gs)
        assert float(np.sum(l * np.abs(x))) == pytest.approx(
            group_norm_sum(x, gs), abs=1e-12
        )

    def test_upper_equality_single_unit_group(self):
        rng = np.random.default_rng(12)
        gs = GroupStructure(5, [[0, 2, 4]])
        x = rng.normal(size=5)
        u = upper_diag(gs)
        assert float(np.linalg.norm(u * x)) == pytest.approx(
            group_norm_sum(x, gs), abs=1e-12
        )


class TestLowerBoundPlain:
    def test_zero_scale_returns_center(self):
        v = np.array([1.0, -2.0])
        x, val = lower_bound_l1(v, 0.0, 0.0, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(x, v)
        assert val == 0.0

    @pytest.mark.parametrize("v,thr,expected", [(3.0, 1.0, 2.0), (0.5, 1.0, 0.0),
                                                (-3.0, 1.0, -2.0)])
    def test_scalar_soft_threshold(self, v, thr, expected):
        # frozen from a 1-D grid scan of 0.5*(x-v)^2 + thr*|x|
        x, _ = lower_bound_l1(np.array([v]), 1.0, 0.0, np.array([thr]))
        assert x[0] == expected

    def test_value_recomputation(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=5)
        l = rng.uniform(0, 2, 5)
        x, val = lower_bound_l1(v, 0.7, 0.0, l)
        assert val == pytest.approx(
            0.5 * np.sum((x - v) ** 2) + 0.7 * np.sum(l * np.abs(x)), rel=1e-14
        )


class TestScaledL2Prox:
    def test_one_dimensional_closed_form(self):
        # min 0.5*(x-3)^2 + |x| has minimizer 2; the norm limit is 2 and
        # the scalar equation residual 9/(2+1)^2 - 1 vanishes
        x, val, tr = scaled_l2_prox(np.array([3.0]), 1.0, np.array([1.0]))
        assert x[0] == pytest.approx(2.0, abs=1e-10)
        assert tr.c == pytest.approx(2.0, abs=1e-10)
        assert val == pytest.approx(2.5, abs=1e-10)
        assert tr.fp_residual <= 1e-8

    def test_diagonal_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="^diagonal and center must have "
                           "matching length$"):
            scaled_l2_prox(np.ones(3), 0.5, np.ones(2))

    def test_zero_condition_boundary(self):
        v = np.array([1.0, 2.0])
        u = np.array([1.0, 2.0])
        lam = float(np.linalg.norm(v / u))  # exactly on the boundary
        x, val, _ = scaled_l2_prox(v, lam, u)
        assert np.all(x == 0.0)
        assert val == pytest.approx(0.5 * np.sum(v**2), rel=1e-15)

    def test_zero_scale_returns_center(self):
        v = np.array([1.0, -2.0])
        x, val, _ = scaled_l2_prox(v, 0.0, np.array([1.0, 3.0]))
        np.testing.assert_array_equal(x, v)
        assert val == 0.0

    def test_tiny_center_keeps_its_shrink(self):
        # the product u*v underflows to 0 unless v and u are scaled up first
        x, _, _ = scaled_l2_prox(np.array([1e-200]), 0.5, np.array([1e-200]))
        np.testing.assert_allclose(x, [0.5e-200], rtol=1e-12, atol=0.0)

    def test_passthrough_on_unpenalized_coordinates(self):
        v = np.array([5.0, 1.0, -4.0])
        u = np.array([0.0, 2.0, 0.0])
        x, _, _ = scaled_l2_prox(v, 10.0, u)  # zero condition holds on coord 1
        np.testing.assert_array_equal(x, [5.0, 0.0, -4.0])

    def test_zero_center_on_penalized_block(self):
        # center vanishes on the penalized block: zero condition catches it
        v = np.array([3.0, 0.0])
        u = np.array([0.0, 1.0])
        x, _, _ = scaled_l2_prox(v, 0.5, u)
        np.testing.assert_array_equal(x, [3.0, 0.0])

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        u = rng.uniform(0.2, 3.0, n)
        v = rng.normal(0, 2, n)
        lam = float(rng.uniform(0.05, 1.5))
        x, val, _ = scaled_l2_prox(v, lam, u)
        o = oracle_c_scan(v, lam, u)
        assert val == pytest.approx(o.value, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_iteration_diagnostics(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(1, 9))
        u = rng.uniform(0.2, 3.0, n)
        v = rng.normal(0, 2, n)
        inv = math.sqrt(float(np.sum((v / u) ** 2)))
        lam = float(rng.uniform(0.05, 0.95)) * inv  # nonzero regime
        x, _, tr = scaled_l2_prox(v, lam, u)
        diffs = np.diff(tr.norms[1:])
        assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
        for cn in tr.norms[:-1]:  # the factors applied at each step
            f = cn / (cn + lam * u**2)
            assert np.all((f > 0) & (f < 1))
        c = float(np.linalg.norm(u * x))
        assert float(np.linalg.norm(x - v + lam * u**2 * x / c)) <= 1e-8

    def test_near_the_zero_threshold(self):
        # just above the zero test's threshold the paper's fixed point
        # converges slowly; the Newton root is stationary and matches the scan
        rng = np.random.default_rng(2026)
        for _ in range(6):
            n = int(rng.integers(1, 9))
            u = rng.uniform(0.2, 3.0, n)
            v = rng.normal(0, 2, n)
            inv = math.sqrt(float(np.sum((v / u) ** 2)))
            for fraction in (0.9, 0.99, 0.999):
                lam = fraction * inv
                x, val, _ = scaled_l2_prox(v, lam, u)
                c = float(np.linalg.norm(u * x))
                assert float(np.linalg.norm(x - v + lam * u**2 * x / c)) <= 1e-8
                scan = oracle_c_scan(v, lam, u).value
                assert abs(val - scan) <= 1e-6 * abs(scan), (n, fraction)

    def test_newton_steps_stay_few(self):
        # near the zero threshold, where the paper's fixed point needs up to
        # 10000 steps, Newton's iterates rise strictly and stop within 12
        rng = np.random.default_rng(61)
        u = rng.uniform(0.2, 3.0, 6)
        v = rng.normal(0, 2, 6)
        cases = [(v, u, 0.999), (v, u, 0.0)]  # lam = 0 runs the same Newton
        rng = np.random.default_rng(2026)  # the draws of the test above
        for _ in range(6):
            n = int(rng.integers(1, 9))
            u = rng.uniform(0.2, 3.0, n)
            v = rng.normal(0, 2, n)
            cases += [(v, u, fraction) for fraction in (0.9, 0.99, 0.999)]
        for v, u, fraction in cases:
            lam = fraction * math.sqrt(float(np.sum((v / u) ** 2)))
            x, _, tr = scaled_l2_prox(v, lam, u)
            assert tr.iterations == len(tr.norms) <= 12, (v.size, fraction)
            assert np.all(np.diff([0.0] + tr.norms) > 0)
            assert tr.fp_residual <= 1e-8
            c = float(np.linalg.norm(u * x))
            assert float(np.linalg.norm(x - v + lam * u**2 * x / c)) <= 1e-8

    def test_wide_diagonals_and_huge_ratios(self):
        # beyond C4's draws: n up to 800, a diagonal over e^-7..e^7 with
        # zeros, lam from 0.001 to 1 - 1e-9 of the zero threshold, one draw
        # whose ratios |v/(lam*u)| near 1e160 overflow a sum of their
        # squares, one whose ratios overflow themselves, and two where a
        # product u_j*v_j or lam*u_j**2 underflows to 0 with Newton at c = 0
        rng = np.random.default_rng(29)
        cases = []
        for n in (1, 2, 7, 40, 150, 800):
            for fraction in (0.001, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9):
                u = np.exp(rng.uniform(-7.0, 7.0, n))
                u[rng.random(n) < 0.2] = 0.0
                u[0] = max(u[0], 1.0)  # at least one penalized coordinate
                cases.append((rng.normal(0, 2, n), u, fraction))
        for scale, fraction, bound in ((1e150, 1e-160, 1e159), (2.0, 1e-310, math.inf)):
            u = np.exp(rng.uniform(-7.0, 7.0, 50))
            v = rng.normal(0, scale, 50)
            lam = fraction * math.sqrt(float(np.sum((v / u) ** 2)))
            with np.errstate(over="ignore"):
                assert float(np.max(np.abs(v / (lam * u)))) >= bound
            cases.append((v, u, fraction))
        u = np.array([1.0, 1.0, 1e-170])
        for v in (np.array([0.8, 0.8, 0.0]), np.array([0.8, 0.8, 1e-160])):
            cases.append((v, u, 1.0 / math.sqrt(float(np.sum((v / u) ** 2)))))
        for v, u, fraction in cases:
            pen = u > 0
            lam = fraction * math.sqrt(float(np.sum((v[pen] / u[pen]) ** 2)))
            x, _, tr = scaled_l2_prox(v, lam, u)
            assert np.all(np.diff([0.0] + tr.norms) > 0)
            np.testing.assert_array_equal(x[~pen], v[~pen])
            c = float(np.linalg.norm(u * x))
            station = float(np.linalg.norm(x - v + lam * u**2 * x / c))
            scale = 1.0 + float(np.linalg.norm(v))
            assert station <= 1e-12 * scale, (v.size, fraction, station)
            if fraction <= 0.5:
                x_fp = scaled_l2_fixed_point_from(v, lam, u, v, tol=1e-13 * c)
                assert float(np.linalg.norm(x - x_fp)) <= 1e-8 * scale


class TestZeroCoefficientTerms:
    # each call has a coefficient of 0 on a term that overflows; leaving the
    # term out keeps the value finite, where 0*inf made it NaN
    big = np.array([1e300, 1e300])

    def test_lower_bound_l1(self):
        v = np.array([1e308, 1e308])
        with np.errstate(all="ignore"):
            _, val = lower_bound_l1(v, 0.1, 0.0, np.ones(2) / math.sqrt(2))
        assert val == pytest.approx(0.1 * math.sqrt(2) * 1e308, rel=1e-12)

    def test_lower_bound_l0(self):
        v = np.array([1e308, 1e308])
        with np.errstate(all="ignore"):
            x, val = lower_bound_l0(v, 0.0, 0.1, np.ones(2))
        np.testing.assert_array_equal(x, v)
        assert val == pytest.approx(0.2, rel=1e-15)

    def test_scaled_l2_prox(self):
        with np.errstate(all="ignore"):
            x, val, _ = scaled_l2_prox(np.array([1.0, 2.0]), 0.0, self.big)
        np.testing.assert_array_equal(x, [1.0, 2.0])
        assert val == 0.0

    def test_upper_bound_l1(self):
        with np.errstate(all="ignore"):
            x, val = upper_bound_l1(np.array([1.0, 2.0]), 0.0, 0.1, self.big)
        np.testing.assert_allclose(x, [0.9, 1.9], rtol=1e-15)
        assert val == pytest.approx(0.5 * 0.02 + 0.1 * 2.8, rel=1e-12)

    def test_upper_bound_l0(self):
        with np.errstate(all="ignore"):
            x, val, _ = upper_bound_l0(np.array([1.0, 2.0]), 0.0, 0.1, self.big)
        np.testing.assert_array_equal(x, [1.0, 2.0])
        assert val == pytest.approx(0.2, rel=1e-15)


class TestLowerBoundL1:
    def test_combined_threshold_shrinks(self):
        # v=3, group part 1, l1 part 0.5: survivor shrinks to 1.5
        x, _ = lower_bound_l1(np.array([3.0]), 1.0, 0.5, np.array([1.0]))
        assert x[0] == pytest.approx(1.5, abs=1e-15)

    def test_below_combined_threshold_dies(self):
        x, _ = lower_bound_l1(np.array([1.4]), 1.0, 0.5, np.array([1.0]))
        assert x[0] == 0.0

    def test_zero_group_scale_is_plain_soft_threshold(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=6)
        l = rng.uniform(0, 2, 6)
        x, _ = lower_bound_l1(v, 0.0, 0.7, l)
        np.testing.assert_allclose(x, np.sign(v) * np.maximum(np.abs(v) - 0.7, 0))

    def test_partial_shrinkage_form_differs_and_scores_worse(self):
        v = np.array([3.0])
        l = np.array([1.0])
        x_full, val_full = lower_bound_l1(v, 1.0, 0.5, l)
        # shrinking by the group part only gives 2.0, worth 0.5 + 2 + 1
        x_lit = 2.0
        val_lit = 0.5 * (x_lit - 3.0) ** 2 + 1.0 * x_lit + 0.5 * x_lit
        assert x_full[0] != x_lit
        assert val_full < val_lit  # the full shrink is the true minimizer

    @pytest.mark.parametrize("seed", range(8))
    def test_coordinatewise_optimality_by_grid(self, seed):
        rng = np.random.default_rng(seed)
        v = float(rng.normal(0, 2))
        li = float(rng.uniform(0, 1.5))
        lam, lam1 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        x, _ = lower_bound_l1(np.array([v]), lam, lam1, np.array([li]))

        def obj(p):
            return 0.5 * (p - v) ** 2 + lam * li * abs(p) + lam1 * abs(p)

        best = obj(x[0])
        for p in np.linspace(-6, 6, 24001):
            assert obj(p) >= best - 1e-9


class TestUpperBoundL1:
    def test_reduces_to_scaled_l2(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=5)
        u = rng.uniform(0.3, 2, 5)
        x1, v1 = upper_bound_l1(v, 0.6, 0.0, u)
        x2, v2, _ = scaled_l2_prox(v, 0.6, u)
        np.testing.assert_allclose(x1, x2, atol=1e-12)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_small_entries_all_die(self):
        v = np.array([0.3, -0.2, 0.5])
        x, val = upper_bound_l1(v, 0.4, 0.6, np.ones(3))
        assert np.all(x == 0.0)
        assert val == pytest.approx(0.5 * np.sum(v**2), rel=1e-15)

    def test_survivors_keep_sign(self):
        rng = np.random.default_rng(4)
        v = rng.normal(0, 2, 6)
        u = rng.uniform(0.3, 2, 6)
        x, _ = upper_bound_l1(v, 0.3, 0.4, u)
        nz = x != 0
        assert np.all(np.sign(x[nz]) == np.sign(v[nz]))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sign_pattern_brute_force(self, seed):
        # independent oracle: enumerate supports x sign patterns, solve each
        # restricted smooth problem by the one-parameter scan on the center
        # shifted against the chosen signs, keep sign-consistent candidates
        import itertools

        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 5))
        u = rng.uniform(0.2, 2.5, n)
        v = rng.normal(0, 2, n)
        lam = float(rng.uniform(0.05, 1.2))
        lam1 = float(rng.uniform(0.0, 0.8))

        def objective(x):
            return (0.5 * float(np.sum((x - v) ** 2))
                    + lam * float(np.linalg.norm(u * x))
                    + lam1 * float(np.sum(np.abs(x))))

        best = 0.5 * float(np.sum(v**2))
        for mask in range(1, 1 << n):
            idx = [i for i in range(n) if (mask >> i) & 1]
            for signs in itertools.product((-1.0, 1.0), repeat=len(idx)):
                sig = np.array(signs)
                shifted = v[idx] - lam1 * sig
                cand = oracle_c_scan(shifted, lam, u[idx]).minimizer
                if np.all(sig * cand > 0):
                    x = np.zeros(n)
                    x[idx] = cand
                    best = min(best, objective(x))
        _, val = upper_bound_l1(v, lam, lam1, u)
        assert val == pytest.approx(best, rel=1e-6, abs=1e-6)

    def test_zero_test_forms_disagree_in_the_gap(self):
        # pick lam between the two conditions: the shrunk form certifies
        # zero, the pushed form does not; the minimizer is zero either way
        # because the reduced fixed point collapses there
        v = np.array([1.0])
        u = np.array([1.0])
        lam1 = 0.4
        lam = 0.5 * (0.6 + 1.4)  # between |v|-lam1 and |v|+lam1
        assert abs(v[0]) - lam1 <= lam < abs(v[0]) + lam1
        x_def, _ = upper_bound_l1(v, lam, lam1, u)
        np.testing.assert_allclose(x_def, 0.0, atol=1e-12)

    def test_zero_when_pushed_form_certifies(self):
        v = np.array([1.0, -0.8])
        u = np.array([1.0, 1.0])
        lam1 = 0.4
        lam = 3.0  # above both conditions: both forms certify zero
        x_def, vd = upper_bound_l1(v, lam, lam1, u)
        assert np.all(x_def == 0.0)
        assert vd == pytest.approx(0.5 * np.sum(v**2), rel=1e-15)

    def test_unpenalized_survivors_never_zeroed(self):
        # coordinates with a zero diagonal entry reduce to plain 1-D
        # soft-thresholding regardless of any zero test
        v = np.array([3.0, 0.2])
        u = np.array([0.0, 1.0])
        x, _ = upper_bound_l1(v, 5.0, 0.5, u)
        np.testing.assert_allclose(x, [2.5, 0.0], atol=1e-12)


    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_masked_reference(self, seed):
        # centers with exact zeros, negative zeros and negative entries at
        # or below lam1, some of them at exactly -lam1
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 40))
        lam1 = 0.0 if seed % 5 == 0 else float(rng.uniform(0.0, 1.5))
        lam = float(rng.uniform(0.0, 3.0))
        v = rng.normal(0, 2, n)
        kind = rng.integers(0, 5, n)
        v[kind == 0] = 0.0
        v[kind == 1] = -0.0
        v[kind == 2] = -rng.uniform(0.0, lam1, int(np.sum(kind == 2)))
        v[(kind == 3) & (rng.random(n) < 0.5)] = -lam1
        u = rng.uniform(0.2, 2.5, n)
        u[rng.random(n) < 0.1] = 0.0  # unpenalized coordinates
        x, val = upper_bound_l1(v, lam, lam1, u)
        x_ref, val_ref = upper_bound_l1_masked(v, lam, lam1, u)
        assert np.all(np.abs(x - x_ref) <= 1e-14 * np.maximum(1.0, np.abs(x_ref)))
        assert abs(val - val_ref) <= 1e-14 * max(1.0, abs(val_ref))


class TestLowerBoundL0:
    def test_survivor_case(self):
        # f(2) = 0.5 + 2 + 1 = 3.5 beats f(0) = 4.5
        x, val = lower_bound_l0(np.array([3.0]), 1.0, 1.0, np.array([1.0]))
        assert x[0] == 2.0
        assert val == pytest.approx(3.5, rel=1e-15)

    def test_count_charge_kills_small_survivor(self):
        # candidate 0.2 costs 1.7 but f(0) = 0.72
        x, val = lower_bound_l0(np.array([1.2]), 1.0, 1.0, np.array([1.0]))
        assert x[0] == 0.0
        assert val == pytest.approx(0.72, rel=1e-15)

    def test_reduces_to_plain(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=6)
        l = rng.uniform(0, 2, 6)
        x1, v1 = lower_bound_l0(v, 0.9, 0.0, l)
        x2, v2 = lower_bound_l1(v, 0.9, 0.0, l)
        np.testing.assert_array_equal(x1, x2)
        assert v1 == v2

    def test_tie_goes_to_zero(self):
        # lam=0, lam0 = v^2/2 exactly: keeping pays lam0, dropping pays v^2/2
        v = 1.3
        x, _ = lower_bound_l0(np.array([v]), 0.0, 0.5 * v * v, np.array([1.0]))
        assert x[0] == 0.0


class TestUpperBoundL0:
    def test_no_count_penalty_is_block_shrink(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=6)
        u = rng.uniform(0.3, 2, 6)
        sigma = float(u.max())
        x, _, _ = upper_bound_l0(v, 0.4, 0.0, u)
        np.testing.assert_allclose(x, block_soft_threshold(v, 0.4 * sigma),
                                   atol=1e-12)

    def test_huge_count_penalty(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=5)
        x, val, _ = upper_bound_l0(v, 0.3, 1e9, np.ones(5))
        assert np.all(x == 0.0)
        assert val == pytest.approx(0.5 * np.sum(v**2), rel=1e-15)

    @pytest.mark.parametrize("seed", range(15))
    def test_topk_matches_full_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        v = rng.normal(0, 2, n)
        u = rng.uniform(0.0, 2.5, n)
        lam = float(rng.uniform(0, 1))
        lam0 = float(rng.uniform(0, 1))
        _, _, relaxed = upper_bound_l0(v, lam, lam0, u)
        full = oracle_ub_l0_subsets(v, lam, lam0, u)
        assert relaxed == pytest.approx(full.value, abs=1e-9)

    def test_tiny_center_with_unit_count_penalty(self):
        # a scale of 2**-e with e = frexp(max|v|)[1] very negative takes
        # lam0 to inf, which must leave x = 0 rather than raise
        v = np.array([1e-200, -1e-200])
        for lam in (0.0, 1.0):
            x, val, relaxed = upper_bound_l0(v, lam, 1.0, np.ones(2))
            np.testing.assert_array_equal(x, [0.0, 0.0])
            assert val == relaxed == 0.0
        gs = GroupStructure(2, [[0, 1]])
        rep = sandwich(ProxInstance(v=v, s=1.0, lam0=1.0, lam=1.0), gs, "l0")
        assert rep.lower_value == rep.upper_value == 0.0

    def test_tiny_center_keeps_its_block_shrink(self):
        # the squares of v underflow to 0 unless v is scaled up first
        v = np.array([1e-200, -3e-200])
        x, _, _ = upper_bound_l0(v, 1e-200, 0.0, np.ones(2))
        expected = (1.0 - 1e-200 / math.hypot(1e-200, 3e-200)) * v
        np.testing.assert_allclose(x, expected, rtol=1e-12, atol=0.0)

    def test_unrelaxed_value_no_larger_than_relaxed(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=7)
        u = rng.uniform(0.2, 2, 7)
        _, val, relaxed = upper_bound_l0(v, 0.5, 0.2, u)
        assert val <= relaxed + 1e-12


class TestSandwich:
    def test_no_penalties_collapses_to_zero(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        inst = ProxInstance(v=np.array([1.0, -2.0, 0.5]), s=1.3)
        for variant in ("plain", "l1", "l0"):
            rep = sandwich(inst, gs, variant)
            assert rep.lower_value == 0.0
            assert rep.upper_value == 0.0

    def test_single_full_group_upper_is_tight(self):
        # one unit-weight group across everything makes the upper surrogate
        # the problem itself; its value must equal the exact single-group
        # prox value computed in closed form
        rng = np.random.default_rng(9)
        n = 5
        gs = GroupStructure(n, [list(range(n))])
        inst = ProxInstance(v=rng.normal(0, 2, n), s=0.8, lam=0.5)
        rep = sandwich(inst, gs, "plain")
        x_exact = block_soft_threshold(inst.v, inst.lam * inst.s)
        exact = (0.5 / inst.s) * float(np.sum((x_exact - inst.v) ** 2)) + \
            inst.lam * float(np.linalg.norm(x_exact))
        assert rep.upper_value == pytest.approx(exact, rel=1e-9)
        assert rep.lower_value <= exact + 1e-9

    @pytest.mark.parametrize("variant", ["plain", "l1", "l0"])
    @pytest.mark.parametrize("seed", range(6))
    def test_brackets_exact_value(self, variant, seed):
        rng = np.random.default_rng(60 + seed)
        gs = random_structure(rng, max_n=6, weighted=True)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.5),
                               lam1_range=(0.0, 0.8), lam_range=(0.05, 0.8))
        rep = sandwich(inst, gs, variant)
        exact = oracle_variant(inst, gs, variant).value
        assert rep.lower_value - 1e-9 <= exact <= rep.upper_value + 1e-9
        assert rep.lower_value <= rep.upper_value + 1e-9

    def test_uncovered_coordinates_pass_through(self):
        gs = GroupStructure(3, [[1]])
        inst = ProxInstance(v=np.array([4.0, 1.0, -3.0]), s=1.0, lam=0.5)
        rep = sandwich(inst, gs, "plain")
        assert rep.lower_minimizer[0] == 4.0 and rep.lower_minimizer[2] == -3.0
        assert rep.upper_minimizer[0] == 4.0 and rep.upper_minimizer[2] == -3.0

    @pytest.mark.parametrize("seed", range(12))
    def test_plain_is_l1_at_zero_lam1_bit_for_bit(self, seed):
        rng = np.random.default_rng(950 + seed)
        gs = random_structure(rng, max_n=12, max_m=5, weighted=True)
        inst = random_instance(rng, gs, lam1_range=(0.0, 0.0), lam_range=(0.0, 2.0))
        inst.v[rng.random(gs.n) < 0.2] = -0.0
        plain, l1 = sandwich(inst, gs, "plain"), sandwich(inst, gs, "l1")
        for key in ("lower_value", "upper_value"):
            assert getattr(plain, key).hex() == getattr(l1, key).hex()
        for key in ("lower_minimizer", "upper_minimizer"):
            assert getattr(plain, key).tobytes() == getattr(l1, key).tobytes()

    def test_power_of_two_scales_the_minimizers(self):
        # scaling v, lam1 and the weights by 2**k scales both minimizers by
        # exactly 2**k, also where squares of the scaled data leave the float
        # range (|k| = 600); the values scale by exactly 2**(2k), checked
        # where that stays in range (|k| = 300)
        rng = np.random.default_rng(3200)
        for _ in range(100):
            gs = random_structure(rng, max_n=12, max_m=6, weighted=True)
            inst = random_instance(rng, gs, lam_range=(0.05, 1.0))
            for variant in ("plain", "l1"):
                base = sandwich(inst, gs, variant)
                for k in (-600, -300, 300, 600):
                    gs_k = GroupStructure(gs.n, gs.groups, np.ldexp(gs.weights, k))
                    inst_k = ProxInstance(v=np.ldexp(inst.v, k), s=inst.s,
                                          lam1=math.ldexp(inst.lam1, k), lam=inst.lam)
                    with np.errstate(over="ignore"):
                        rep = sandwich(inst_k, gs_k, variant)
                    for key in ("lower_minimizer", "upper_minimizer"):
                        assert np.array_equal(getattr(rep, key),
                                              np.ldexp(getattr(base, key), k)), \
                            (variant, k, key)
                    if abs(k) == 300:
                        for key in ("lower_value", "upper_value"):
                            assert getattr(rep, key) == math.ldexp(
                                getattr(base, key), 2 * k), (variant, k, key)

    def test_unknown_variant_rejected(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.ones(2), s=1.0)
        with pytest.raises(ValueError, match="variant"):
            sandwich(inst, gs, "l2")
