import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sogl import (
    GroupDefectError,
    GroupStructure,
    ProxInstance,
    objective_value,
)
from sogl.admm import penalty_constants, x_step
from sogl.instances import generate_instance, instance_from_dict
from sogl.model import _norm, gather, hard_threshold, scatter_add

from helpers import (
    GROUP_DEFECTS,
    GROUP_FORMS,
    NOT_ARRAYS,
    first_group_defect,
    groups_with_defects,
)

finite = st.floats(min_value=-20, max_value=20, allow_nan=False)


def group_soft_threshold(a, t):
    """The block step of ADMM on one group holding all of ``a``, with y = 0
    and rho = 1: it shrinks the norm of ``a`` by ``t``."""
    a = np.asarray(a, dtype=float)
    gs = GroupStructure(a.size, [list(range(a.size))])
    inst = ProxInstance(v=np.zeros(a.size), lam1=t)
    return x_step(a, np.zeros(a.size), gs, penalty_constants(inst, gs, 1.0))


class TestGroupSoftThreshold:
    def test_boundary_norm_equals_threshold(self):
        assert np.array_equal(group_soft_threshold(np.array([3.0, 4.0]), 5.0),
                              np.zeros(2))

    def test_zero_input(self):
        assert np.array_equal(group_soft_threshold(np.zeros(2), 1.0), np.zeros(2))

    def test_shrinks_by_half(self):
        # frozen from a lattice search over 0.5*||x-a||^2 + 2.5*||x||_2
        out = group_soft_threshold(np.array([3.0, 4.0]), 2.5)
        np.testing.assert_allclose(out, [1.5, 2.0], atol=1e-15)

    def test_zero_threshold_is_identity(self):
        a = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(group_soft_threshold(a, 0.0), a)

    @given(
        a=st.lists(finite, min_size=1, max_size=4),
        t=st.floats(min_value=0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_exact_minimizer(self, a, t):
        # local perturbation search cannot beat the closed form by > 1e-9
        a = np.array(a)
        x = group_soft_threshold(a, t)

        def obj(p):
            return 0.5 * np.sum((p - a) ** 2) + t * np.linalg.norm(p)

        best = obj(x)
        rng = np.random.default_rng(0)
        for scale in (1.0, 1e-2, 1e-4):
            for _ in range(40):
                assert obj(x + scale * rng.normal(size=a.size)) >= best - 1e-9
        assert obj(np.zeros_like(a)) >= best - 1e-9
        assert obj(a) >= best - 1e-9


class TestHardThreshold:
    @pytest.mark.parametrize("u,t,expected", [
        (2.0, 1.0, 2.0),
        (1.0, 1.0, 0.0),   # ties go to zero
        (-0.5, 1.0, 0.0),
        (-3.0, 2.0, -3.0),
    ])
    def test_scalar_cases(self, u, t, expected):
        assert hard_threshold(u, t) == expected

    def test_elementwise(self):
        out = hard_threshold(np.array([2.0, 1.0, -0.5]), 1.0)
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])

    @given(u=finite, gamma=st.floats(min_value=1e-6, max_value=10, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_minimizes_count_penalized_quadratic(self, u, gamma):
        # the only candidates of 0.5*(x-u)^2 + gamma*1(x != 0) are 0 and u
        x = hard_threshold(u, math.sqrt(2 * gamma))
        f_keep = gamma if u != 0 else 0.0
        f_zero = 0.5 * u * u
        best = min(f_keep, f_zero)
        attained = 0.5 * (x - u) ** 2 + (gamma if x != 0 else 0.0)
        assert attained <= best + 1e-12


class TestGatherScatter:
    def test_gather_direct_indexing(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        stacked = gather(np.array([1.0, 2.0, 3.0]), gs)
        np.testing.assert_array_equal(stacked[gs.offsets[0]:gs.offsets[1]], [1.0, 2.0])
        np.testing.assert_array_equal(stacked[gs.offsets[1]:gs.offsets[2]], [2.0, 3.0])

    def test_gather_zero(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        assert np.linalg.norm(gather(np.zeros(3), gs)) == 0.0

    def test_full_overlap(self):
        gs = GroupStructure(1, [[0], [0], [0]])
        assert gather(np.array([5.0]), gs).tolist() == [5.0, 5.0, 5.0]

    def test_gather_refuses_a_vector_of_another_length(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="^expected a vector of length 3, got 2$"):
            gather(np.ones(2), gs)

    def test_scatter_sums(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        out = scatter_add(np.array([1.0, 2.0, 2.0, 3.0]), gs)
        np.testing.assert_array_equal(out, [1.0, 4.0, 3.0])

    def test_scatter_zero(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        assert np.all(scatter_add(np.zeros(gs.total_size), gs) == 0)

    def test_scatter_of_gather_is_overlap_scaling(self):
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        out = scatter_add(gather(np.ones(3), gs), gs)
        np.testing.assert_array_equal(out, [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(out, gs.overlap_counts)

    @pytest.mark.parametrize("seed", range(8))
    def test_adjoint_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 5))
        groups = [
            sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            for _ in range(m)
        ]
        gs = GroupStructure(n, groups)
        z = rng.normal(size=n)
        # exact equality: both sides perform the same integer-weighted sums
        np.testing.assert_array_equal(
            scatter_add(gather(z, gs), gs), gs.overlap_counts * z
        )


class TestObjective:
    def test_zero_at_center_without_penalties(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=1.0)
        assert objective_value(inst.v, inst, gs) == 0.0

    def test_all_penalties_vanish_at_zero(self):
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=0.5, lam0=3.0, lam1=7.0)
        assert objective_value(np.zeros(2), inst, gs) == pytest.approx(
            np.sum(inst.v**2) / (2 * inst.s), rel=1e-15
        )

    def test_hand_evaluated_terms(self):
        # quad 0, count 2, group norm sqrt(5); checked term by term by hand
        gs = GroupStructure(2, [[0, 1]])
        inst = ProxInstance(v=np.array([1.0, 2.0]), s=1.0, lam0=1.0, lam1=1.0)
        assert objective_value(np.array([1.0, 2.0]), inst, gs) == pytest.approx(
            2.0 + math.sqrt(5.0), rel=1e-15
        )

    def test_zero_coefficient_term_left_out(self):
        # the group norms overflow at v; at lam1 = 0 the group term is left
        # out instead of adding 0*inf = NaN
        gs = GroupStructure(3, [[0, 1], [1, 2]])
        v = np.array([1e280, -1e280, 1e280])
        assert objective_value(v, ProxInstance(v=v, s=1.0), gs) == 0.0
        assert objective_value(v, ProxInstance(v=v, s=1.0, lam0=0.5), gs) == 1.5

    def test_group_weights_scale_their_norms(self):
        # group norms 5 and 4, weighted 2 and 0.5: a group term of 12
        gs = GroupStructure(3, [[0, 1], [1, 2]], weights=[2.0, 0.5])
        x = np.array([3.0, 4.0, 0.0])
        inst = ProxInstance(v=x, s=1.0, lam1=1.5)
        assert objective_value(x, inst, gs) == 18.0


class TestNorm:
    @pytest.mark.parametrize("k", [-1070, -600, -300, 0, 300, 600, 1000])
    def test_matches_hypot_across_the_float_range(self, k):
        # squares of the entries overflow at k >= 600 and underflow at
        # k <= -600; at k = -1070 the entries themselves are subnormal
        rng = np.random.default_rng(7000 + k)
        for _ in range(200):
            a = np.ldexp(rng.standard_normal(rng.integers(1, 17)), k)
            want = math.hypot(*a)
            with np.errstate(over="ignore"):  # the unscaled square overflows
                got = _norm(a)
            assert abs(got - want) <= 4 * math.ulp(want), (k, a)

    def test_bit_for_bit_numpy_on_normal_data(self):
        rng = np.random.default_rng(7001)
        for _ in range(200):
            a = rng.standard_normal(rng.integers(1, 50)) * 10.0 ** rng.integers(-9, 9)
            assert _norm(a) == float(np.linalg.norm(a))

    def test_special_vectors(self):
        assert _norm(np.zeros(3)) == 0.0 and _norm(np.zeros(0)) == 0.0
        assert math.isnan(_norm(np.array([1.0, math.nan])))
        with np.errstate(over="ignore"):
            assert _norm(np.array([1.0, -math.inf, 2.0])) == math.inf
            assert _norm(np.array([1.5e308, 1.5e308])) == math.inf  # past the range


class TestQuadraticVsArithmeticMean:
    @given(x=st.lists(finite, min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_quadratic_mean_dominates(self, x):
        x = np.array(x)
        qm = math.sqrt(float(np.mean(x**2)))
        am = float(np.mean(np.abs(x)))
        assert qm >= am - 1e-12

    @given(
        mag=st.floats(min_value=0, max_value=10, allow_nan=False),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_equality_for_constant_magnitude(self, mag, signs):
        x = mag * np.array(signs)
        qm = math.sqrt(float(np.mean(x**2)))
        am = float(np.mean(np.abs(x)))
        assert abs(qm - am) <= 1e-12


class TestGroupStructureValidation:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GroupStructure(3, [[0], []])

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            GroupStructure(0, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            GroupStructure(3, [[0, 3]])

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            GroupStructure(3, [[1, 1]])

    @pytest.mark.parametrize("group, j, kind", [
        ([0.5, 1], 0, "not-int"),
        (["1"], 0, "not-int"),
        ([True, 2], 0, "not-int"),
        ([2, np.float64(1.0)], 1, "not-int"),
        ([10**30], 0, "range"),
        ([1, -10**30], 1, "range"),
    ], ids=["float", "str", "bool", "numpy-float", "huge", "huge-negative"])
    def test_entries_are_not_coerced(self, group, j, kind):
        with pytest.raises(GroupDefectError) as exc:
            GroupStructure(3, [[0], group])
        assert str(exc.value).startswith(f"groups[1][{j}]: ")
        assert exc.value.defects == [(1, j, kind)]

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GroupStructure(3, [[0]], weights=[0.0])

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one entry per group"):
            GroupStructure(3, [[0]], weights=[1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("i", [0, 2])
    def test_bad_weight_named_by_index(self, bad, i):
        weights = [1.0, 0.5, 2.0]
        weights[i] = bad
        if i == 0:
            weights[2] = 0.0  # a later bad weight is not the one named
        rule = "finite" if bad > 0 else "strictly positive"
        with pytest.raises(ValueError, match=rf"^weights\[{i}\]: must be {rule}$"):
            GroupStructure(3, [[0, 1], [1, 2], [2]], weights=weights)

    def test_groups_are_checked_before_weights(self):
        with pytest.raises(GroupDefectError, match=r"^groups\[1\]\[0\]"):
            GroupStructure(3, [[0], [5]], weights=[0.0, 1.0, 1.0])

    def test_overlap_counts_and_membership_agree(self):
        gs = GroupStructure(4, [[0, 1, 2], [1, 2], [3]])
        np.testing.assert_array_equal(gs.overlap_counts, [1, 2, 2, 1])

    def test_uncovered_variables_allowed(self):
        gs = GroupStructure(4, [[1]])
        assert gs.overlap_counts.tolist() == [0, 1, 0, 0]

    def test_no_groups_allowed(self):
        gs = GroupStructure(3, [])
        assert gs.m == 0 and gs.total_size == 0

    def test_groups_as_arrays_tuples_or_no_groups(self):
        lists = GroupStructure(5, [[0, 1], [1, 2, 3], [4]])
        mixed = GroupStructure(5, [np.array([0, 1]), (1, 2, 3),
                                   np.array([4], dtype=np.int32)])
        assert [g.tolist() for g in mixed.groups] == [[0, 1], [1, 2, 3], [4]]
        for attr in ("sizes", "offsets", "flat_index", "overlap_counts"):
            np.testing.assert_array_equal(getattr(mixed, attr), getattr(lists, attr))
        empty = GroupStructure(3, [])
        assert empty.groups == [] and empty.flat_index.size == 0
        assert empty.offsets.tolist() == [0] and empty.sizes.size == 0

    @pytest.mark.parametrize("groups", [
        [], [[2]], [[0, 1], [1, 2, 3], [4]], [(4, 0), np.array([3, 1]), [2, 4, 0, 1]],
        [[0, 1], [0, 1], [1]], [[k] for k in range(5)] + [[0, 4], [3, 1, 2]]])
    def test_groups_are_blocks_of_the_stacked_index(self, groups):
        gs = GroupStructure(5, groups)
        assert "groups" not in vars(gs)  # built on first read
        assert len(gs.groups) == gs.m == len(groups)
        for i, g in enumerate(gs.groups):
            np.testing.assert_array_equal(
                g, gs.flat_index[gs.offsets[i]:gs.offsets[i + 1]])
            assert g.tolist() == list(groups[i])
        assert gs.groups is gs.groups

    @pytest.mark.parametrize("bad", NOT_ARRAYS, ids=[
        "int", "float", "str", "none", "dict", "bool", "0-d-array", "2-d-array"])
    def test_non_array_group_named(self, bad):
        # group 2 is out of range for n = 3, but group 1 comes first
        with pytest.raises(GroupDefectError) as exc:
            GroupStructure(3, [[0], bad, [4]])
        assert str(exc.value) == "groups[1]: expected an array of indices"
        assert exc.value.defects == [(1, -1, "not-array")]

    @given(case=groups_with_defects(GROUP_DEFECTS, forms=GROUP_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_one_defect_names_its_group(self, case):
        n, groups, (kind, i, j) = case
        if kind in ("empty", "not-array"):
            expected = f"groups[{i}]: " + {
                "empty": "group is empty",
                "not-array": "expected an array of indices"}[kind]
        else:
            expected = f"groups[{i}][{j}]: " + {
                "not-int": "expected an integer index",
                "bool": "expected an integer index",
                "range": f"index {groups[i][j]} out of range for n={n}",
                "repeat": f"repeated index {groups[i][j]}"}[kind]
        with pytest.raises(GroupDefectError) as exc:
            GroupStructure(n, groups)
        assert str(exc.value) == expected
        assert len(exc.value.defects) == 1

    @given(case=groups_with_defects(GROUP_DEFECTS, max_defects=4, forms=GROUP_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_first_defective_group_of_several(self, case):
        n, groups, _ = case
        expected = first_group_defect(groups, n)
        assert expected is not None
        with pytest.raises(GroupDefectError) as exc:
            GroupStructure(n, groups)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("mode, sizes, max_group", [
        ("chain", range(500, 811, 10), 8),
        ("nested", range(360, 455, 2), 8),
        ("random", range(8, 41), 5),
    ], ids=["chain", "nested", "random"])
    def test_valid_groups_are_not_searched_for_a_defect(self, monkeypatch, mode,
                                                         sizes, max_group):
        # pool instances drawn as perfbench/run.py draws them (every fourth
        # size), then their groups again as tuples and as integer arrays
        def search(groups, n):
            raise AssertionError("valid groups reached the defect search")

        monkeypatch.setattr("sogl.model._first_defect", search)
        for index, n in enumerate(sizes[::4]):
            seed = int(np.random.SeedSequence([1, index]).generate_state(1)[0])
            instf = generate_instance(seed, n, max(1, n // 2), (2, max_group), mode)
            gs = instance_from_dict(instf.to_dict()).gs
            lists = [g.tolist() for g in gs.groups]
            for form in ("tuple", "int16", "int32", "int64", "uint64"):
                groups = [tuple(g) if form == "tuple" else np.array(g, dtype=form)
                          for g in lists]
                np.testing.assert_array_equal(
                    GroupStructure(n, groups).flat_index, gs.flat_index)


class TestProxInstanceValidation:
    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ProxInstance(v=np.ones(2), s=0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="nonneg"):
            ProxInstance(v=np.ones(2), s=1.0, lam0=-0.1)

    def test_matrix_center_rejected(self):
        with pytest.raises(ValueError, match="^v must be a 1-D vector$"):
            ProxInstance(v=np.ones((2, 2)))

    @pytest.mark.parametrize("name", ["lam0", "lam1", "lam"])
    def test_nan_penalty_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            ProxInstance(v=[1.0, 2.0], s=1.0, **{name: math.nan})

    @pytest.mark.parametrize("name, message", [
        ("s", "^step s must be positive and finite, got inf$"),
        ("lam0", "^lam0 must be finite$"),
        ("lam1", "^lam1 must be finite$"),
        ("lam", "^lam must be finite$"),
    ], ids=["s", "lam0", "lam1", "lam"])
    def test_infinite_value_rejected(self, name, message):
        kwargs = dict(s=1.0, lam0=0.05, lam1=0.1, lam=0.1)
        kwargs[name] = math.inf
        with pytest.raises(ValueError, match=message):
            ProxInstance(v=[1.0, 2.0, 3.0], **kwargs)
