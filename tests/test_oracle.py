import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from sogl import (
    GroupStructure,
    ProxInstance,
    TooLargeError,
    objective_value,
    oracle_prox_l0_ogl,
    oracle_variant,
    sandwich,
    solve_admm,
    solve_dual,
    stationarity_check,
)
from sogl.instances import generate_instance
from sogl.oracle import (
    _block_shrink,
    _branch_and_bound,
    _count_term_ok,
    _dykstra,
    _Restricted,
    _shrink,
)
from helpers import (
    convex_stationarity_residual_reference,
    count_term_ok_by_zeroing,
    oracle_c_scan,
    oracle_grid_1d,
    oracle_ub_l0_subsets,
    oracle_variant_reference,
    random_instance,
    random_structure,
)


class TestSupportEnumeration:
    def test_penalty_free_returns_center(self):
        rng = np.random.default_rng(0)
        gs = random_structure(rng)
        inst = ProxInstance(v=rng.normal(size=gs.n), s=1.0)
        res = oracle_prox_l0_ogl(inst, gs)
        np.testing.assert_allclose(res.minimizer, inst.v, atol=1e-12)
        assert res.value == pytest.approx(0.0, abs=1e-15)
        assert res.method == "support_enum"

    def test_one_dimensional_two_candidate(self):
        # keep: 0.5*(2-3)^2 + 1 + 2 = 3.5 beats drop: 4.5
        gs = GroupStructure(1, [[0]])
        inst = ProxInstance(v=np.array([3.0]), s=1.0, lam0=1.0, lam1=1.0)
        res = oracle_prox_l0_ogl(inst, gs)
        assert res.value == pytest.approx(3.5, rel=1e-12)
        np.testing.assert_allclose(res.minimizer, [2.0], atol=1e-10)

    def test_separable_instances_factorize(self):
        # two disjoint singleton groups: the solution is the product of the
        # 1-D solutions found by the grid oracle
        gs = GroupStructure(2, [[0], [1]])
        inst = ProxInstance(v=np.array([1.7, -2.4]), s=0.8, lam0=0.3, lam1=0.6)
        res = oracle_prox_l0_ogl(inst, gs)
        for g in range(2):
            vg = inst.v[g]

            def obj1d(x, vg=vg):
                return (0.5 / inst.s * (x - vg) ** 2 + inst.lam1 * abs(x)
                        + inst.lam0 * (1.0 if x != 0 else 0.0))

            r1 = oracle_grid_1d(obj1d, -6.0, 6.0)
            assert res.minimizer[g] == pytest.approx(r1.minimizer[0], abs=1e-6)
        total = sum(
            0.5 / inst.s * (res.minimizer[g] - inst.v[g]) ** 2
            + inst.lam1 * abs(res.minimizer[g])
            + inst.lam0 * (res.minimizer[g] != 0)
            for g in range(2)
        )
        assert res.value == pytest.approx(total, rel=1e-12)

    def test_size_limit(self):
        # the limit bounds only the search with a count term
        gs = GroupStructure(13, [[0]])
        inst = ProxInstance(v=np.zeros(13), s=1.0, lam0=0.1)
        with pytest.raises(TooLargeError):
            oracle_prox_l0_ogl(inst, gs, n_limit=12)
        for variant in ("plain", "l1"):
            assert oracle_variant(inst, gs, variant, n_limit=12).value == 0.0
        assert oracle_prox_l0_ogl(replace(inst, lam0=0.0), gs, n_limit=12).value == 0.0

    def test_support_size_nonincreasing_in_count_penalty(self):
        rng = np.random.default_rng(1)
        gs = random_structure(rng, max_n=6)
        base = random_instance(rng, gs, lam1_range=(0.1, 0.6))
        counts = []
        for lam0 in (0.0, 0.05, 0.15, 0.4, 1.0, 3.0):
            inst = ProxInstance(v=base.v, s=base.s, lam0=lam0, lam1=base.lam1)
            res = oracle_prox_l0_ogl(inst, gs)
            counts.append(int(np.count_nonzero(res.minimizer)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_value_reproduces_at_minimizer(self):
        rng = np.random.default_rng(2)
        gs = random_structure(rng, max_n=6)
        inst = random_instance(rng, gs, lam0_range=(0.05, 0.4),
                               lam1_range=(0.1, 0.8))
        res = oracle_prox_l0_ogl(inst, gs)
        assert abs(objective_value(res.minimizer, inst, gs) - res.value) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_minimizer_is_stationary_and_unbeatable_locally(self, seed):
        rng = np.random.default_rng(10 + seed)
        gs = random_structure(rng, max_n=6)
        inst = random_instance(rng, gs, lam0_range=(0.0, 0.3),
                               lam1_range=(0.1, 0.8))
        res = oracle_prox_l0_ogl(inst, gs)
        ok, residual = stationarity_check(res.minimizer, inst, gs)
        assert ok, residual
        for _ in range(200):
            probe = res.minimizer + rng.normal(0, 0.1, gs.n)
            assert objective_value(probe, inst, gs) >= res.value - 1e-10


class TestVariantOracle:
    def test_matches_main_at_lam1(self):
        rng = np.random.default_rng(3)
        gs = random_structure(rng, max_n=5)
        v = rng.normal(size=gs.n)
        a = ProxInstance(v=v, s=1.2, lam0=0.2, lam1=0.0, lam=0.45)
        b = ProxInstance(v=v, s=1.2, lam0=0.2, lam1=0.45, lam=0.0)
        res_a = oracle_variant(a, gs, "l0")
        res_b = oracle_prox_l0_ogl(b, gs)
        assert res_a.value == pytest.approx(res_b.value, rel=1e-10)
        # for any weights, the l0 target at lam = lam1 is the main problem,
        # so the l0 sandwich brackets the main optimum
        rng = np.random.default_rng(30)
        for _ in range(200):
            gs = random_structure(rng, max_n=6, weighted=True)
            inst = random_instance(rng, gs, lam0_range=(0.0, 0.5),
                                   lam1_range=(0.05, 0.8))
            inst.lam = inst.lam1
            main = oracle_prox_l0_ogl(inst, gs).value
            assert oracle_variant(inst, gs, "l0").value == main
            rep = sandwich(inst, gs, "l0")
            assert rep.lower_value - 1e-9 <= main <= rep.upper_value + 1e-9

    def test_unknown_variant_rejected(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.ones(2), s=1.0)
        with pytest.raises(ValueError, match="variant"):
            oracle_variant(inst, gs, "l2")


class TestGrid1D:
    def test_pure_quadratic(self):
        res = oracle_grid_1d(lambda x: 0.5 * (x - 3.0) ** 2, -10.0, 10.0)
        assert res.minimizer[0] == pytest.approx(3.0, abs=1e-6)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.method == "grid_1d"

    def test_soft_threshold_cross_check(self):
        res = oracle_grid_1d(lambda x: 0.5 * (x - 3.0) ** 2 + abs(x), -10.0, 10.0)
        assert res.minimizer[0] == pytest.approx(2.0, abs=1e-6)
        assert res.value == pytest.approx(2.5, abs=1e-12)

    def test_count_discontinuity_lands_on_zero(self):
        res = oracle_grid_1d(
            lambda x: 0.5 * (x - 1.2) ** 2 + abs(x) + (1.0 if x != 0 else 0.0),
            -10.0, 10.0,
        )
        assert res.minimizer[0] == 0.0
        assert res.value == pytest.approx(0.72, rel=1e-12)


class TestCScan:
    def test_one_dimensional(self):
        res = oracle_c_scan(np.array([3.0]), 1.0, np.array([1.0]))
        assert res.minimizer[0] == pytest.approx(2.0, abs=1e-6)
        assert res.value == pytest.approx(2.5, abs=1e-10)
        assert res.method == "c_scan"

    def test_no_penalty(self):
        v = np.array([1.0, -2.0])
        res = oracle_c_scan(v, 0.0, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(res.minimizer, v)

    def test_zero_beats_every_contraction(self):
        v = np.array([0.5, -0.3])
        u = np.array([1.0, 1.0])
        lam = 2.0  # comfortably above the zero threshold
        res = oracle_c_scan(v, lam, u)
        assert np.all(res.minimizer == 0.0)
        assert res.value == pytest.approx(0.5 * np.sum(v**2), rel=1e-12)


class TestSubsetEnumeration:
    def test_limit(self):
        with pytest.raises(TooLargeError):
            oracle_ub_l0_subsets(np.zeros(11), 0.1, 0.1, np.ones(11))

    def test_one_dimensional_hand_case(self):
        # t = 1: keep costs 0.5 + 2 + lam0, drop costs 4.5
        res = oracle_ub_l0_subsets(np.array([3.0]), 1.0, 1.0, np.array([1.0]))
        assert res.value == pytest.approx(3.5, rel=1e-12)
        assert res.method == "support_enum"


class TestStationarityCheck:
    def test_center_without_penalties(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, -0.5]), s=1.0)
        ok, residual = stationarity_check(inst.v, inst, gs)
        assert ok and residual == 0.0

    def test_large_perturbation_fails(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([0.1, 0.1]), s=1.0, lam0=0.3, lam1=0.5)
        ok, residual = stationarity_check(np.array([5.0, 5.0]), inst, gs)
        assert not ok and residual > 1.0

    def test_zero_point_with_overlapping_zero_groups(self):
        # x = 0 is optimal when the center is small against the group dual
        # ball; the multiplier search must certify it despite the overlap
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        inst = ProxInstance(v=np.array([0.1, 0.05, -0.1]), s=1.0, lam1=0.5)
        ok, residual = stationarity_check(np.zeros(3), inst, gs)
        assert ok, residual
        # the balls have radius lam1*w_i: at w_i = 0.1 they cannot cancel v_0
        gs = GroupStructure(3, [[0, 1], [1, 2]], weights=[0.1, 0.1])
        ok, residual = stationarity_check(np.zeros(3), inst, gs)
        assert not ok and residual >= 0.05 - 1e-12

    @pytest.mark.parametrize("lam0", [0.0, 0.01])
    @pytest.mark.parametrize("w", [0.2, 3.0])
    def test_weighted_block_shrink(self, w, lam0):
        # on one group of weight w the minimizer shrinks v by s*lam1*w;
        # shrinking by s*lam1 leaves a residual of lam1*|w - 1|
        gs = GroupStructure(3, [[0, 1, 2]], weights=[w])
        inst = ProxInstance(v=np.array([3.0, -4.0, 12.0]), s=0.8, lam0=lam0,
                            lam1=0.5)
        ok, residual = stationarity_check(
            _block_shrink(inst.v, inst.s * inst.lam1 * w), inst, gs)
        assert ok, residual
        ok, residual = stationarity_check(
            _block_shrink(inst.v, inst.s * inst.lam1), inst, gs)
        assert not ok
        assert residual == pytest.approx(inst.lam1 * abs(w - 1.0), rel=1e-12)

    def test_matches_cyclic_multiplier_reference(self):
        # without a count term the residual is the norm of the zero blocks'
        # prox by Dykstra; the cyclic least-norm multiplier search solves
        # the same problem from the dual side
        rng = np.random.default_rng(21)
        points = []
        for i in range(500):
            gs = random_structure(rng, max_n=8, max_m=5, weighted=bool(i % 2))
            inst = random_instance(rng, gs, lam1_range=(0.05, 2.0), v_scale=1.0)
            points.append((np.zeros(gs.n), inst, gs))
            points.append((oracle_prox_l0_ogl(inst, gs).minimizer, inst, gs))
        verdicts = set()
        for x, inst, gs in points:
            ok, residual = stationarity_check(x, inst, gs)
            expected = convex_stationarity_residual_reference(x, inst, gs)
            assert ok == (expected <= 1e-6), (x, inst, gs.groups)
            assert abs(residual - expected) <= 1e-8, (residual, expected)
            verdicts.add((bool(x.any()), ok))
        assert verdicts >= {(False, False), (False, True), (True, True)}
        # the optimum is 0 up to an entry of 1.8e-11, but 500 passes leave a
        # residual of 2.9e-6 with the lower bound at -5e-3, so the verdict
        # is open and Dykstra runs again; the reference, capped at 500
        # cyclic passes of the 1520 it needs, is not compared here
        inst = ProxInstance(v=np.array([0.341125, 0.927026]), s=1.0, lam1=1.0,
                            lam=1.0)
        gs = GroupStructure(2, [[0, 1], [0, 1], [0]],
                            weights=[0.627478, 0.3046, 1.789106])
        ok, residual = stationarity_check(np.zeros(2), inst, gs)
        assert ok and residual <= 1e-6

    def test_flags_improvable_support(self):
        # zeroing the second coordinate strictly improves the objective
        gs = GroupStructure(2, [[0], [1]])
        inst = ProxInstance(v=np.array([3.0, 0.05]), s=1.0, lam0=0.5)
        x = np.array([3.0, 0.05])
        ok, _ = stationarity_check(x, inst, gs)
        assert not ok


class TestCountTerm:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_zeroing_reference(self, seed):
        rng = np.random.default_rng(seed)
        weights_rng = np.random.default_rng(100 + seed)
        for _ in range(8):
            gs = random_structure(rng, max_n=10, max_m=5)
            inst = random_instance(rng, gs, lam0_range=(0.01, 0.5))
            points = [solve_admm(inst, gs).x_final, inst.v, rng.normal(size=gs.n),
                      solve_dual(inst, gs).x_final]
            for x in list(points):
                zeroed = x.copy()
                zeroed[rng.random(gs.n) < 0.3] = 0.0
                points.append(zeroed)
            weighted = GroupStructure(gs.n, gs.groups,
                                      weights=weights_rng.uniform(0.3, 2.0, gs.m))
            for gs, x in itertools.product((gs, weighted), points):
                expected = count_term_ok_by_zeroing(x, inst, gs)
                assert _count_term_ok(x, inst, gs) == expected
                ok, residual = stationarity_check(x, inst, gs)
                assert ok == (residual <= 1e-6 and expected)

    @pytest.mark.parametrize("margin, expected", [(0.5e-9, True), (-0.5e-9, False)])
    def test_dominant_entry_block(self, margin, expected):
        # x_0 carries all but 1e-16 of its block's squared norm, so the
        # block's norm without x_0 (1e-8) is lost if taken as nrm^2 - x_0^2.
        # v_0 puts the change on zeroing x_0 at -1e-9 + margin.
        gs = GroupStructure(2, [[0, 1]])
        lam0, t = 1e-12, 1e-8
        v0 = 1.5 + lam0 - t - 1e-9 + margin
        inst = ProxInstance(v=np.array([v0, 1.0]), s=1.0, lam0=lam0, lam1=1.0)
        x = np.array([1.0, t])
        assert count_term_ok_by_zeroing(x, inst, gs) is expected
        assert _count_term_ok(x, inst, gs) is expected


def _agreement_cases(n):
    """Structures on n variables, each with penalties drawn at random: a
    chain, a nested and a random one with non-unit weights, the random one
    with its first group repeated, one weighted group that holds every
    coordinate (the shape of ``oracle_ub_l0_subsets``), and one with every
    penalty 0."""
    rng = np.random.default_rng(500 + n)
    for mode in ("chain", "nested", "random"):
        instf = generate_instance(seed=n, n=n, m=max(1, n // 2),
                                  group_size_range=(1, 5), overlap_mode=mode)
        groups = instf.gs.groups + ([instf.gs.groups[0]] if mode == "random" else [])
        gs = GroupStructure(n, groups, weights=rng.uniform(0.3, 2.0, len(groups)))
        lam = float(rng.uniform(0.05, 0.8))
        yield mode, gs, ProxInstance(
            v=rng.normal(0, 1.5, n), s=float(rng.uniform(0.5, 2.0)),
            lam0=float(rng.uniform(0.02, 0.4)), lam1=lam,
            lam=lam if mode == "chain" else float(rng.uniform(0.05, 0.8)))
    zero = ProxInstance(v=rng.normal(0, 1.5, n), s=1.0,
                        lam0=float(rng.uniform(0.02, 0.4)))
    whole = GroupStructure(n, [list(range(n))], weights=rng.uniform(0.3, 2.0, 1))
    lam = float(rng.uniform(0.05, 0.8))
    yield "whole", whole, ProxInstance(
        v=rng.normal(0, 1.5, n), lam0=float(rng.uniform(0.02, 0.4)), lam1=lam,
        lam=lam)
    yield "zero", gs, zero


class TestReferenceAgreement:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_whole_support_enumeration(self, n):
        # the enumeration by connected pieces against the one that solves
        # every support as one problem, on the main objective and all three
        # sandwich targets
        for mode, gs, inst in _agreement_cases(n):
            for variant in ("main", "plain", "l1", "l0"):
                res = (oracle_prox_l0_ogl(inst, gs) if variant == "main"
                       else oracle_variant(inst, gs, variant))
                value, x = oracle_variant_reference(inst, gs, variant)
                where = f"{mode} {variant}"
                assert abs(res.value - value) <= 1e-12 * max(1.0, abs(value)), where
                np.testing.assert_allclose(res.minimizer, x, rtol=0, atol=1e-9,
                                           err_msg=where)

    def test_cases_cover_the_edge_structures(self):
        cases = list(_agreement_cases(10))
        random_gs = cases[2][1]
        assert np.array_equal(random_gs.groups[0], random_gs.groups[-1])
        assert any(np.any(gs.overlap_counts == 0) for _, gs, _ in cases)
        assert all(not np.all(gs.weights == 1.0) for _, gs, _ in cases)
        assert any(gs.m == 1 and gs.sizes[0] == gs.n for _, gs, _ in cases)
        assert cases[-1][2].lam1 == cases[-1][2].lam == 0.0


def _full_enumeration(v, s, coeffs, lam1, lam0, gs):
    """Value and minimizer of the least ``(value, S)`` over all 2^n
    supports, unpruned."""
    r = _Restricted(v, s, coeffs, lam1, lam0, gs)
    S = min(range(1 << gs.n), key=r.value)
    return r.value(S), r.minimizer(S)


def _bound_case(rng, n):
    """A weighted structure on n >= 2 variables whose first group is
    repeated and whose last coordinate no group covers, with penalties at
    random."""
    groups = [sorted(rng.choice(n - 1, size=int(rng.integers(1, n)),
                                replace=False).tolist())
              for _ in range(int(rng.integers(1, 4)))]
    groups.append(groups[0])
    gs = GroupStructure(n, groups, weights=rng.uniform(0.3, 2.0, len(groups)))
    coeffs = float(rng.uniform(0.05, 0.8)) * gs.weights
    lam1 = float(rng.choice([0.0, rng.uniform(0.05, 0.5)]))
    return gs, rng.normal(0, 1.5, n), float(rng.uniform(0.5, 2.0)), coeffs, lam1


class TestPrunedEnumeration:
    @pytest.mark.parametrize("lam0", [1e-6, 0.05, 1.0])
    def test_bound_is_below_every_full_support_restricted_minimum(self, lam0):
        # B(S) bounds the objective of every point whose support is exactly
        # S, so it is below the restricted minimum wherever the restricted
        # minimizer has no zero on S
        rng = np.random.default_rng(int(lam0 * 1e6))
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 9))
            gs, v, s, coeffs, lam1 = _bound_case(rng, n)
            assert gs.overlap_counts[-1] == 0
            r = _Restricted(v, s, coeffs, lam1, lam0, gs)
            off, on = r.off, r.on
            for S in range(1 << n):
                if np.count_nonzero(r.minimizer(S)) != bin(S).count("1"):
                    continue
                bound = sum(on[j] if S >> j & 1 else off[j] for j in range(n))
                value = r.value(S)
                assert bound <= value + 1e-12 * max(1.0, abs(value)), (S, bound, value)
                checked += 1
        assert checked > 100

    def test_root_bound_is_the_diagonal_l0_lower_bound(self):
        # at lam = lam1 the search's root bound, sum(min(off_j, on_j)), is
        # the paper's diagonal l0 lower bound: two derivations that share
        # no code agree
        rng = np.random.default_rng(6)
        for i in range(300):
            n = int(rng.integers(3, 301))
            lam0, lam = rng.uniform(0.01, 0.5), rng.uniform(0.02, 1.0)
            inst, gs = generate_instance(
                seed=int(rng.integers(2**31)), n=n, m=max(n // 2, 1),
                group_size_range=(2, 5),
                overlap_mode=("chain", "nested", "random")[i % 3],
                s=float(rng.uniform(0.5, 2.0)), lambda0=float(lam0),
                lambda1=float(lam), lambda_=float(lam)).build()
            if i % 2:
                gs = GroupStructure(n, gs.groups, weights=rng.uniform(0.3, 3.0, gs.m))
            r = _Restricted(inst.v, inst.s, inst.lam * gs.weights, 0.0,
                            inst.lam0, gs)
            root = sum(map(min, r.off, r.on))
            lower = sandwich(inst, gs, "l0").lower_value
            assert abs(root - lower) <= 1e-12 * abs(lower), (i, root, lower)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_unpruned_enumeration(self, n):
        # the pruned search against the least (value, S) over all supports,
        # on the main objective, the l0 target, and an l1 term next to the
        # count term, which only the bound's slope sees and no public entry
        # reaches
        for (mode, gs, inst), lam0 in zip(_agreement_cases(n),
                                          (1e-6, 0.05, 1.0, 0.1, 0.2),
                                          strict=True):
            for args in ((inst.lam1 * gs.weights, 0.0, inst.lam0),
                         (inst.lam * gs.weights, 0.0, lam0),
                         (inst.lam * gs.weights, 0.3, lam0)):
                r = _Restricted(inst.v, inst.s, *args, gs)
                got, S = _branch_and_bound(r)
                value, x = _full_enumeration(inst.v, inst.s, *args, gs)
                assert abs(got - value) <= 1e-12 * max(1.0, abs(value)), mode
                np.testing.assert_allclose(r.minimizer(S), x, rtol=0, atol=1e-9,
                                           err_msg=mode)

    @pytest.mark.parametrize("mode", ["chain", "nested", "random"])
    def test_n12_evaluates_at_most_an_eighth_of_the_supports(self, mode,
                                                             monkeypatch):
        calls = []
        value = _Restricted.value

        def counted(self, S):
            calls.append(S)
            return value(self, S)

        monkeypatch.setattr(_Restricted, "value", counted)
        for seed in range(900, 906):
            inst, gs = generate_instance(seed=seed, n=12, m=6,
                                         group_size_range=(2, 5),
                                         overlap_mode=mode).build()
            calls.clear()
            oracle_prox_l0_ogl(inst, gs)
            assert 0 < len(calls) <= (1 << 12) // 8, (seed, len(calls))


class TestInternals:
    def test_dykstra_matches_disjoint_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 6
            u = rng.normal(0, 2, n)
            blocks = [np.array([0, 1, 2]), np.array([3, 4])]
            coeffs = rng.uniform(0.1, 1.0, 2)
            l1 = float(rng.uniform(0, 0.5))
            closed = _shrink(u, l1)
            for b, c in zip(blocks, coeffs):
                closed[b] = _block_shrink(closed[b], c)
            np.testing.assert_allclose(
                _dykstra(u, list(zip(blocks, coeffs)), l1), closed, atol=1e-9)

    def test_components_split_the_support(self):
        gs = GroupStructure(6, [[0, 1], [1, 2], [3, 4], [4]])
        r = _Restricted(np.ones(6), 1.0, np.full(4, 0.1), 0.0, 0.1, gs)
        assert sorted(r.components(0b111111)) == [0b000111, 0b011000]
        # without coordinate 1 the first two groups no longer meet
        assert sorted(r.components(0b111101)) == [0b000001, 0b000100, 0b011000]
        # a group with coefficient 0 links nothing
        r = _Restricted(np.ones(6), 1.0, np.array([0.1, 0.0, 0.1, 0.1]), 0.0,
                        0.1, gs)
        assert sorted(r.components(0b111111)) == [0b000011, 0b011000]

    def test_each_component_is_solved_once(self):
        gs = GroupStructure(5, [[0, 1], [1, 2], [3, 4]])
        inst = ProxInstance(v=np.array([1.0, -2.0, 0.5, 3.0, -1.0]), s=1.0,
                            lam0=0.1, lam1=0.3)
        r = _Restricted(inst.v, inst.s, inst.lam1 * gs.weights, 0.0, inst.lam0, gs)
        for S in range(1 << gs.n):
            r.value(S)
        # the pieces are the connected subsets of the two chains
        assert sorted(r.pieces) == sorted(
            [0b00001, 0b00010, 0b00100, 0b00011, 0b00110, 0b00111,
             0b01000, 0b10000, 0b11000])

    def test_restricted_solver_honors_support(self):
        rng = np.random.default_rng(5)
        gs = GroupStructure(4, [[0, 1, 2], [1, 2, 3]])
        v = rng.normal(size=4)
        r = _Restricted(v, 1.0, np.array([0.4, 0.4]), 0.1, 0.0, gs)
        support = 0b0101  # coordinates 0 and 2
        x, val = r.minimizer(support), r.value(support)
        assert x[1] == 0.0 and x[3] == 0.0
        direct = (0.5 * np.sum((x - v) ** 2)
                  + 0.4 * np.linalg.norm(x[[0, 1, 2]])
                  + 0.4 * np.linalg.norm(x[[1, 2, 3]])
                  + 0.1 * np.sum(np.abs(x)))
        assert val == pytest.approx(direct, rel=1e-10)

    def test_overlapping_restricted_solve_is_stationary(self):
        # overlap forces the iterative path; certify its output by the
        # multiplier-based first-order check
        rng = np.random.default_rng(6)
        gs = GroupStructure(4, [[0, 1, 2], [1, 2, 3]])
        v = rng.normal(0, 2, 4)
        inst = ProxInstance(v=v, s=1.0, lam1=0.5)
        r = _Restricted(v, 1.0, np.full(2, 0.5), 0.0, 0.0, gs)
        ok, residual = stationarity_check(r.minimizer(0b1111), inst, gs)
        assert ok, residual
