import io
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sogl import (
    GroupStructure,
    InstanceFile,
    ParseError,
    ProxInstance,
    ValidationError,
    dumps_canonical,
    generate_instance,
    instance_from_dict,
    parse_instance,
)
from sogl.admm import SolveReport
from sogl.instances import NonFiniteNumberError, trace_to_csv, write_atomic
from helpers import (
    EDGE_FLOATS,
    GROUP_DEFECTS,
    GROUP_FORMS,
    first_group_defect,
    groups_with_defects,
    records,
    records_with_non_finite,
    reference_dumps_canonical,
)

MINIMAL = {"v": [1.0], "groups": [[0]], "s": 1, "lambda0": 0, "lambda1": 0,
           "lambda": 0}

safe_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_minimal_file_valid():
    inst, gs = parse_instance(io.StringIO(json.dumps(MINIMAL))).build()
    assert gs.n == 1 and gs.m == 1
    assert inst.s == 1.0 and inst.lam0 == 0.0


class TestOneRepresentation:
    def test_text_builds_one_group_structure(self, monkeypatch):
        built = []

        class Counting(GroupStructure):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("sogl.instances.GroupStructure", Counting)
        text = json.dumps(dict(MINIMAL, weights=[2.0]))
        instf = parse_instance(io.StringIO(text))
        instf.build()
        instf.build()
        assert len(built) == 1

    def test_file_weights_go_to_the_constructor(self, monkeypatch):
        received = []

        class Recording(GroupStructure):
            def __init__(self, n, groups, weights=None):
                received.append(None if weights is None else list(weights))
                super().__init__(n, groups, weights)

        monkeypatch.setattr("sogl.instances.GroupStructure", Recording)
        data = dict(MINIMAL, v=[1.0, 2.0], groups=[[0], [0, 1]])
        _, gs = instance_from_dict(dict(data, weights=[2.5, 0.5])).build()
        assert received == [[2.5, 0.5]] and gs.weights.tolist() == [2.5, 0.5]
        instance_from_dict(data)
        assert received[1:] == [None]

    def test_build_returns_the_same_objects(self):
        instf = parse_instance(io.StringIO(json.dumps(MINIMAL)))
        inst, gs = instf.build()
        again = instf.build()
        assert again[0] is inst and again[1] is gs

    def test_file_without_weights_round_trips(self):
        data = dict(MINIMAL, v=[1.0, -2.0], groups=[[0, 1], [1]], seed=4)
        d = parse_instance(io.StringIO(json.dumps(data))).to_dict()
        assert list(d) == ["v", "groups", "s", "lambda0", "lambda1", "lambda",
                           "weights", "seed"]
        assert d == dict(data, weights=[1.0, 1.0])
        back = instance_from_dict(d).to_dict()
        assert dumps_canonical(back) == dumps_canonical(d)


class TestValidation:
    def test_unknown_field_rejected(self):
        data = dict(MINIMAL, extra=1)
        with pytest.raises(ValidationError, match="unknown field 'extra'"):
            instance_from_dict(data)

    @pytest.mark.parametrize("missing", ["v", "groups", "s", "lambda0",
                                         "lambda1", "lambda"])
    def test_missing_required_field(self, missing):
        data = {k: val for k, val in MINIMAL.items() if k != missing}
        with pytest.raises(ValidationError, match=missing):
            instance_from_dict(data)

    def test_out_of_range_index_names_position(self):
        data = dict(MINIMAL, v=[1.0, 2.0], groups=[[0], [5]])
        with pytest.raises(ValidationError, match=r"groups\[1\]\[0\]"):
            instance_from_dict(data)

    def test_repeated_index_names_position(self):
        data = dict(MINIMAL, v=[1.0, 2.0], groups=[[0, 0]])
        with pytest.raises(ValidationError, match=r"groups\[0\]\[1\]"):
            instance_from_dict(data)

    def test_empty_group_rejected(self):
        data = dict(MINIMAL, groups=[[]])
        with pytest.raises(ValidationError, match=r"groups\[0\]"):
            instance_from_dict(data)

    def test_weights_length_mismatch(self):
        data = dict(MINIMAL, weights=[1.0, 2.0])
        with pytest.raises(ValidationError, match="weights"):
            instance_from_dict(data)

    def test_weights_positivity(self):
        data = dict(MINIMAL, weights=[0.0])
        with pytest.raises(ValidationError, match=r"weights\[0\]"):
            instance_from_dict(data)

    @pytest.mark.parametrize("groups, weights, message", [
        ([[0]], [1.0, 2.0], r"weights: expected one entry per group \(1\), got shape \(2,\)"),
        ([[0], [0]], [1.0, -2.0], r"weights\[1\]: must be strictly positive"),
        ([[0], [3]], [1.0], r"groups\[1\]\[0\]: index 3 out of range for n=1"),
        ([[0], 5], [1.0], r"groups\[1\]: expected an array of indices"),
        ([[3]], ["x"], r"weights\[0\]: expected a number"),
    ], ids=["count", "sign", "group-defect-first", "not-list-first",
            "non-numeric-weight-first"])
    def test_first_defect_of_groups_and_weights(self, groups, weights, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            instance_from_dict(dict(MINIMAL, groups=groups, weights=weights))

    def test_nonnumeric_center_entry(self):
        data = dict(MINIMAL, v=["x"])
        with pytest.raises(ValidationError, match=r"v\[0\]"):
            instance_from_dict(data)

    def test_numpy_floats_are_numbers(self):
        # subclasses of float take the entry-by-entry path of the check
        data = dict(MINIMAL, v=[np.float64(0.5), np.float64(-1.5)], groups=[[0, 1]])
        inst, _ = instance_from_dict(data).build()
        assert inst.v.dtype == float and inst.v.tolist() == [0.5, -1.5]

    def test_boolean_is_not_a_number(self):
        data = dict(MINIMAL, s=True)
        with pytest.raises(ValidationError, match="s"):
            instance_from_dict(data)

    def test_nonpositive_step(self):
        data = dict(MINIMAL, s=0)
        with pytest.raises(ValidationError, match="s"):
            instance_from_dict(data)

    def test_negative_penalty(self):
        data = dict(MINIMAL, lambda1=-0.5)
        with pytest.raises(ValidationError, match="lambda1"):
            instance_from_dict(data)

    def test_bad_name_type(self):
        data = dict(MINIMAL, name=7)
        with pytest.raises(ValidationError, match="name"):
            instance_from_dict(data)

    def test_bad_seed_type(self):
        data = dict(MINIMAL, seed="zero")
        with pytest.raises(ValidationError, match="seed"):
            instance_from_dict(data)

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_instance(io.StringIO("{not json"))

    def test_top_level_array_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_instance(io.StringIO("[1, 2]"))

    def test_stream_is_read_as_a_file(self):
        # an open text stream goes through the file reader, named by its name
        stream = io.StringIO(json.dumps(MINIMAL))
        assert parse_instance(stream).to_dict() == instance_from_dict(MINIMAL).to_dict()
        raw = io.BytesIO(b"\xff\xfe{}")
        raw.name = "<stdin>"
        with pytest.raises(ParseError, match="^invalid JSON in <stdin>: "):
            parse_instance(io.TextIOWrapper(raw, encoding="utf-8"))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            parse_instance(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("data", [b"{not json", b"\xff\xfe{}"],
                             ids=["malformed", "not-utf-8"])
    def test_bad_file_is_parse_error_naming_the_path(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            parse_instance(str(path))
        assert str(info.value).startswith(f"invalid JSON in {path}: ")


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("field, value, name", [
        ("v", [1.0, float("nan")], r"v\[1\]"),
        ("v", [10**400], r"v\[0\]"),
        ("weights", [float("inf")], r"weights\[0\]"),
        ("s", float("inf"), "s"),
        ("s", float("nan"), "s"),
        ("lambda0", float("inf"), "lambda0"),
        ("lambda1", 10**400, "lambda1"),
        ("lambda", float("-inf"), "lambda"),
    ], ids=["v-nan", "v-int-overflow", "weights-inf", "s-inf", "s-nan",
            "lambda0-inf", "lambda1-int-overflow", "lambda-neg-inf"])
    def test_rejected_naming_the_field(self, field, value, name):
        with pytest.raises(ValidationError, match=f"^{name}: expected a finite number$"):
            instance_from_dict(dict(MINIMAL, **{field: value}))

    def test_first_bad_entry_in_order(self):
        data = dict(MINIMAL, v=[1.0, float("nan"), "x", 2.0])
        with pytest.raises(ValidationError, match=r"^v\[1\]: expected a finite number$"):
            instance_from_dict(data)


class TestGroupDefects:
    @given(case=groups_with_defects(GROUP_DEFECTS, forms=GROUP_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_one_defect_named_at_its_position(self, case):
        n, groups, (kind, i, j) = case
        if kind in ("not-int", "bool"):
            expected = f"groups[{i}][{j}]: expected an integer index"
        elif kind == "range":
            expected = f"groups[{i}][{j}]: index {groups[i][j]} out of range for n={n}"
        elif kind == "repeat":
            expected = f"groups[{i}][{j}]: repeated index {groups[i][j]}"
        elif kind == "empty":
            expected = f"groups[{i}]: group is empty"
        else:
            expected = f"groups[{i}]: expected an array of indices"
        with pytest.raises(ValidationError) as exc:
            instance_from_dict(dict(MINIMAL, v=[0.0] * n, groups=groups))
        assert str(exc.value) == expected

    @given(case=groups_with_defects(GROUP_DEFECTS, max_defects=4, forms=GROUP_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_first_of_several_defects_in_reading_order(self, case):
        n, groups, _ = case
        expected = first_group_defect(groups, n)
        assert expected is not None
        with pytest.raises(ValidationError) as exc:
            instance_from_dict(dict(MINIMAL, v=[0.0] * n, groups=groups))
        assert str(exc.value) == expected

    @given(case=groups_with_defects(GROUP_DEFECTS, max_defects=4, forms=GROUP_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_library_names_the_same_defect(self, case):
        n, groups, _ = case
        with pytest.raises(ValueError) as lib:
            GroupStructure(n, groups)
        with pytest.raises(ValidationError) as reader:
            instance_from_dict(dict(MINIMAL, v=[0.0] * n, groups=groups))
        assert str(lib.value) == str(reader.value)

    def test_tuple_and_array_groups_accepted(self):
        # a dict built in Python may hold any group the library takes
        groups = [(0, 1), np.array([1, 2], dtype=np.int8), [2]]
        gs = instance_from_dict(dict(MINIMAL, v=[0.0] * 3, groups=groups)).gs
        assert [g.tolist() for g in gs.groups] == [[0, 1], [1, 2], [2]]


class TestCanonicalSerialization:
    @given(x=safe_floats)
    @settings(max_examples=400, deadline=None)
    def test_float_round_trips_bit_exactly(self, x):
        text = dumps_canonical(x)
        assert float(json.loads(text)) == x or (x != x)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("inf"))

    def test_rejects_unsupported_objects(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            dumps_canonical({"report": {"x": {1.0}}})

    @given(record=records)
    @settings(max_examples=400, deadline=None)
    def test_matches_element_by_element_reference(self, record):
        assert dumps_canonical(record) == reference_dumps_canonical(record)

    @given(seq=st.lists(st.lists(st.one_of(
        st.integers(), st.booleans(), st.integers(-9, 9).map(np.int64)),
        max_size=5).map(lambda xs: xs if len(xs) % 3 else tuple(xs)), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_int_lists_match_reference(self, seq):
        # lists of int lists take one repr; bools, numpy ints and tuples do not
        assert dumps_canonical(seq) == reference_dumps_canonical(seq)
        assert dumps_canonical({"groups": seq}) == reference_dumps_canonical(
            {"groups": seq})

    def test_edge_floats_match_reference(self):
        for record in ({"x": list(EDGE_FLOATS)}, {"x": np.array(EDGE_FLOATS)},
                       {"x": np.array([]), "y": [], "z": np.array([], dtype=int)}):
            assert dumps_canonical(record) == reference_dumps_canonical(record)

    @given(case=records_with_non_finite())
    @settings(max_examples=300, deadline=None)
    def test_non_finite_at_any_depth_names_its_place(self, case):
        record, place = case
        with pytest.raises(NonFiniteNumberError) as exc:
            dumps_canonical(record)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value).startswith(f"{place} is not finite (")

    def test_instance_round_trip(self):
        instf = generate_instance(11, 9, 3, (2, 4), "random", s=0.7,
                                  lambda0=0.2, lambda1=0.3, lambda_=0.4)
        text = dumps_canonical(instf.to_dict())
        back = instance_from_dict(json.loads(text))
        assert back.to_dict() == instf.to_dict()
        assert dumps_canonical(back.to_dict()) == text

    @given(
        v=st.lists(safe_floats, min_size=1, max_size=6),
        s=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_arbitrary_centers(self, v, s):
        instf = InstanceFile(ProxInstance(v, s), GroupStructure(len(v), [[0]]))
        back = instance_from_dict(json.loads(dumps_canonical(instf.to_dict())))
        assert back.to_dict()["v"] == [float(x) for x in v]
        assert back.inst.s == float(s)

    def test_record_round_trip(self):
        record = {
            "instance": "demo", "algorithm": "admm",
            "config": {"rho": 1.0, "eps_abs": 1e-8},
            "report": {"objective": 0.12345678901234567, "x_final": [0.1, -0.2]},
            "timestamp": None, "seed": 3,
        }
        text = dumps_canonical(record)
        back = json.loads(text)
        assert back["report"]["objective"] == record["report"]["objective"]
        assert back["report"]["x_final"] == record["report"]["x_final"]
        assert dumps_canonical(back) == text

    def test_deterministic_output(self):
        instf = generate_instance(5, 6, 2)
        assert dumps_canonical(instf.to_dict()) == dumps_canonical(instf.to_dict())


class TestWholeVectorFormatting:
    """A float vector is formatted in one call; the bytes and the place a
    NaN or infinity is named by are those of formatting entry by entry."""

    VECTORS = [[], [0.5], [-0.0], [5e-324], list(EDGE_FLOATS),
               [1e-310, -2.2250738585072014e-308, 1 / 3, -1e16, 123456789.0, 1e22]]

    @staticmethod
    def per_entry(xs) -> str:
        return "[" + ", ".join("{:.17g}".format(float(x)) for x in xs) + "]\n"

    @pytest.mark.parametrize("xs", VECTORS, ids=lambda xs: f"len{len(xs)}")
    def test_array_list_and_tuple_match_per_entry_format(self, xs):
        expected = self.per_entry(xs)
        for vector in (np.array(xs, dtype=float), list(xs), tuple(xs)):
            assert dumps_canonical(vector) == expected

    @pytest.mark.parametrize("x", EDGE_FLOATS + (1 / 3, 1e-310))
    def test_scalars_match_per_entry_format(self, x):
        for scalar in (x, np.float64(x)):
            assert dumps_canonical(scalar) == "{:.17g}\n".format(x)
        assert dumps_canonical({"a": np.float64(x)}) == '{"a": %s}\n' % (
            "{:.17g}".format(x))

    @given(xs=st.lists(safe_floats, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_vector_matches_per_entry_format(self, xs):
        assert dumps_canonical(np.array(xs, dtype=float)) == self.per_entry(xs)
        assert dumps_canonical(xs) == self.per_entry(xs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("i", [0, 3, 6])
    def test_non_finite_named_at_first_middle_and_last(self, i, bad):
        xs = [0.25, -1.5, 3.0, 4.0, 1e-300, 6.0, 7.0]
        xs[i] = bad
        for vector in (np.array(xs), xs, tuple(xs)):
            with pytest.raises(NonFiniteNumberError) as exc:
                dumps_canonical({"report": {"x_final": vector}})
            assert str(exc.value) == f"report.x_final[{i}] is not finite ({bad})"
            with pytest.raises(NonFiniteNumberError) as exc:
                dumps_canonical(vector)
            assert str(exc.value) == f"[{i}] is not finite ({bad})"

    def test_first_of_several_non_finite_is_named(self):
        xs = np.array([1.0, float("inf"), 2.0, float("nan")])
        with pytest.raises(NonFiniteNumberError, match=r"^x\[1\] is not finite \(inf\)$"):
            dumps_canonical({"x": xs})

    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_trace_non_finite_named_at_its_row(self, row, column):
        trace = [(k + 1, 0.5, 0.125, 0.25) for k in range(5)]
        trace[row] = trace[row][:column] + (float("inf"),) + trace[row][column + 1:]
        name = ("objective", "r_norm", "s_norm")[column - 1]
        with pytest.raises(NonFiniteNumberError) as exc:
            trace_csv(trace)
        assert str(exc.value) == f"trace.{name}[{row}] is not finite (inf)"

    def test_trace_names_the_first_column_before_later_rows(self):
        # columns are checked in order, as when each was formatted alone
        trace = [(1, 0.5, float("nan"), 0.25), (2, float("nan"), 0.125, 0.25)]
        with pytest.raises(NonFiniteNumberError,
                           match=r"^trace\.objective\[1\] is not finite"):
            trace_csv(trace)

    def test_to_dict_bytes_unchanged(self):
        generated = generate_instance(3, 6, 3, (2, 3), "random", s=0.5)
        assert dumps_canonical(generated.to_dict()) == (
            '{"v": [2.0409191213851825, -2.5556650313141818, 0.41809884672577885,'
            ' -0.56776960612792982, -0.45264929211044586, -0.2155971630897659],'
            ' "groups": [[0, 3, 4], [2, 5], [2, 5]], "s": 0.5,'
            ' "lambda0": 0.050000000000000003, "lambda1": 0.10000000000000001,'
            ' "lambda": 0.10000000000000001, "weights": [1, 1, 1],'
            ' "name": "random-n6-m3-seed3", "seed": 3}\n')
        built = InstanceFile(
            ProxInstance([0.1, -0.0, 5e-324, 1e300, 2.5], 2.0, 0.05, 0.1, 0.2),
            GroupStructure(5, [(4, 0), [1, 2, 3], [2]], weights=[1.5, 2.0, 0.25]),
            name="demo", seed=9)
        assert dumps_canonical(built.to_dict()) == (
            '{"v": [0.10000000000000001, -0, 4.9406564584124654e-324,'
            ' 1.0000000000000001e+300, 2.5], "groups": [[4, 0], [1, 2, 3], [2]],'
            ' "s": 2, "lambda0": 0.050000000000000003, "lambda1": 0.10000000000000001,'
            ' "lambda": 0.20000000000000001, "weights": [1.5, 2, 0.25],'
            ' "name": "demo", "seed": 9}\n')

    @pytest.mark.parametrize("mode", ["chain", "random", "nested"])
    def test_to_dict_groups_are_the_groups_read(self, mode):
        instf = generate_instance(17, 40, 20, (2, 6), mode)
        d = instf.to_dict()
        assert d["groups"] == [g.tolist() for g in instf.gs.groups]
        assert dumps_canonical(d) == reference_dumps_canonical(d)
        back = instance_from_dict(json.loads(dumps_canonical(d)))
        assert dumps_canonical(back.to_dict()) == dumps_canonical(d)


class TestGenerator:
    def test_same_seed_identical(self):
        a = generate_instance(42, 10, 4, (2, 5), "random")
        b = generate_instance(42, 10, 4, (2, 5), "random")
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = generate_instance(1, 10, 4, (2, 5), "random")
        b = generate_instance(2, 10, 4, (2, 5), "random")
        assert a.to_dict() != b.to_dict()

    def test_chain_windows_overlap_once(self):
        instf = generate_instance(0, 7, 3, (3, 3), "chain")
        _, gs = instf.build()
        assert set(gs.overlap_counts.tolist()) <= {1, 2}
        assert instf.to_dict()["groups"] == [[0, 1, 2], [2, 3, 4], [4, 5, 6]]

    def test_single_covering_group(self):
        instf = generate_instance(0, 5, 1, (5, 5), "random")
        _, gs = instf.build()
        assert gs.overlap_counts.tolist() == [1, 1, 1, 1, 1]

    def test_nested_mode_nests(self):
        instf = generate_instance(9, 9, 4, (1, 7), "nested")
        sets = [set(g) for g in instf.to_dict()["groups"]]
        assert all(a <= b for a, b in zip(sets, sets[1:]))

    def test_generated_instances_always_parse(self):
        for seed in range(10):
            instf = generate_instance(seed, 8, 3, (2, 4),
                                      ("chain", "random", "nested")[seed % 3])
            text = dumps_canonical(instf.to_dict())
            inst, gs = parse_instance(io.StringIO(text)).build()
            assert gs.n == 8 and gs.m == 3

    @pytest.mark.parametrize("mode", ["chain", "random", "nested"])
    @pytest.mark.parametrize("s, lambdas", [
        (1.0, (0.05, 0.1, 0.1)), (1e-3, (0.0, 0.0, 0.0)), (250.0, (3.0, 0.0, 1e6)),
    ])
    def test_valid_parameters_give_valid_files(self, mode, s, lambdas):
        for seed, n in ((0, 1), (1, 5), (2, 12)):
            instf = generate_instance(seed, n, 4, (1, 6), mode, s, *lambdas)
            data = json.loads(dumps_canonical(instf.to_dict()))
            assert instance_from_dict(data).to_dict() == instf.to_dict()

    @pytest.mark.parametrize("kwargs", [
        {"s": 0.0}, {"s": -1.0}, {"s": float("inf")}, {"s": float("nan")},
        {"lambda0": -0.1}, {"lambda0": float("nan")},
        {"lambda1": -2.0}, {"lambda_": float("inf")},
    ])
    def test_rejects_parameters_the_reader_would(self, kwargs):
        with pytest.raises(ValueError):
            generate_instance(0, 4, 2, **kwargs)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            generate_instance(0, 0, 1)
        with pytest.raises(ValueError):
            generate_instance(0, 4, 0)
        with pytest.raises(ValueError):
            generate_instance(0, 4, 1, overlap_mode="spiral")

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            generate_instance(-1, 4, 2)

    @pytest.mark.parametrize("size_range", [(3, 2), (0, 0), (0, 2), (-1, 3)])
    def test_rejects_size_ranges_it_cannot_honour(self, size_range):
        with pytest.raises(ValueError, match="needs 1 <= min <= max"):
            generate_instance(0, 4, 2, size_range)

    @pytest.mark.parametrize("mode", ["chain", "random", "nested"])
    def test_sizes_above_n_are_capped_at_n(self, mode):
        for seed in range(5):
            assert (generate_instance(seed, 4, 3, (2, 9), mode).to_dict()
                    == generate_instance(seed, 4, 3, (2, 4), mode).to_dict())
            assert (generate_instance(seed, 4, 3, (6, 9), mode).to_dict()
                    == generate_instance(seed, 4, 3, (4, 4), mode).to_dict())


def trace_csv(trace, algorithm="admm"):
    """The CSV of a report of ``algorithm`` that carries ``trace``."""
    return trace_to_csv(SolveReport(np.zeros(1), 0.0, len(trace), False,
                                    algorithm, trace=trace))


class TestTraceCsv:
    def test_header_and_rows(self):
        trace = [(1, 0.5, 0.1, 0.2), (2, 0.25, 0.05, 0.1)]
        text = trace_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "iter,objective,r_norm,s_norm"
        assert len(lines) == 3

    def test_empty_trace(self):
        assert trace_csv([]) == "iter,objective,r_norm,s_norm\n"
        assert trace_csv([], "dual") == "iter,objective,bound,gap\n"

    def test_dual_columns_are_bound_and_gap(self):
        trace = [(1, 0.5, 0.25, 0.25), (2, 0.5, 0.375, 0.125)]
        assert trace_csv(trace, "dual").splitlines() == [
            "iter,objective,bound,gap", "1,0.5,0.25,0.25", "2,0.5,0.375,0.125"]

    def test_numbers_formatted_as_in_records(self):
        trace = [(1, 0.1, np.float64(5e-324), -0.0), (2, 1 / 3, 2.0, 1e300)]
        rows = trace_csv(trace).splitlines()[1:]
        assert rows == [f"{it}," + ",".join(format(float(x), ".17g") for x in row)
                        for it, *row in trace]

    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_non_finite_names_column_and_row(self, column):
        trace = [(1, 0.5, 0.1, 0.2), (2, 0.25, 0.05, 0.1)]
        trace[1] = trace[1][:column] + (float("nan"),) + trace[1][column + 1:]
        for algorithm, names in (("admm", ("objective", "r_norm", "s_norm")),
                                 ("dual", ("objective", "bound", "gap"))):
            name = names[column - 1]
            with pytest.raises(NonFiniteNumberError,
                               match=rf"^trace\.{name}\[1\] is not"):
                trace_csv(trace, algorithm)


def test_write_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    write_atomic(str(path), "replaced\n")
    assert path.read_text() == "replaced\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_atomic_mode_follows_umask(tmp_path, umask):
    # the file gets the mode open(path, "w") would give it, not 0o600
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        write_atomic(str(path), "hello\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
