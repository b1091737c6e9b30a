import io
import json
from dataclasses import replace

import numpy as np
import pytest

from sogl import dumps_canonical, generate_instance, oracle_variant, parse_instance
from sogl.cli import run_cli

MINIMAL = '{"v": [1.0], "groups": [[0]], "s": 1, "lambda0": 0, "lambda1": 0, "lambda": 0}\n'


def write_instance(tmp_path, name="inst.json", **overrides):
    instf = generate_instance(seed=overrides.pop("seed", 5), n=overrides.pop("n", 6),
                              m=overrides.pop("m", 2), **overrides)
    path = tmp_path / name
    path.write_text(dumps_canonical(instf.to_dict()))
    return path


def _big_file(argv):
    """An instance with v = 1e200 whose result overflows under ``argv``. The
    bounds take every norm with scaling, so their values, about 1e199 at
    lambda = 0.1, stay finite; at lambda = 1e300 they leave the float range."""
    lam = "1e300" if argv[0] == "bounds" else "0.1"
    return ('{"v": [1e200], "groups": [[0]], "s": 1, "lambda0": 0, '
            f'"lambda1": 0.1, "lambda": {lam}}}\n')


class TestSolve:
    def test_minimal_instance(self, tmp_path, capsys):
        path = tmp_path / "min.json"
        path.write_text(MINIMAL)
        assert run_cli(["solve", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["report"]["objective"] == 0.0
        assert record["report"]["converged"] is True
        assert record["algorithm"] == "admm"

    @pytest.mark.parametrize("groups, algorithm", [
        ("[[0, 1], [1, 2]]", "dual"), ("[[0, 1], [2]]", "admm"),
        ("[[0, 1], [2]]", "dual")],
        ids=["overlapping-dual", "disjoint-admm", "disjoint-dual"])
    def test_zero_lambda1_with_overflowing_group_norm(self, tmp_path, capsys,
                                                       groups, algorithm):
        # the point is v, whose group norms overflow: at lam1 = 0 the group
        # term is left out, where 0*inf made the objective NaN (exit 3)
        path = tmp_path / "big.json"
        path.write_text('{"v": [1e280, -1e280, 1e280], "groups": ' + groups
                        + ', "s": 1, "lambda0": 0, "lambda1": 0, "lambda": 0}')
        assert run_cli(["solve", str(path), "--algorithm", algorithm]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["objective"] == 0.0 and report["converged"] is True
        assert report["x_final"] == [1e280, -1e280, 1e280]

    @pytest.mark.parametrize("algorithm", ["admm", "dual"])
    def test_weights_change_the_record(self, tmp_path, capsys, algorithm):
        # weights 5 and 0.1 in turn: another problem than all ones, and the
        # record's objective is the weighted one
        data = generate_instance(3, 30, 15, (2, 5), "random").to_dict()
        reports = []
        for name, weights in (("ones", [1.0] * 15), ("weighted", [5.0, 0.1] * 7 + [5.0])):
            path = tmp_path / f"{name}.json"
            path.write_text(dumps_canonical(dict(data, weights=weights)))
            assert run_cli(["solve", str(path), "--algorithm", algorithm]) == 0
            reports.append(json.loads(capsys.readouterr().out)["report"])
        ones, rep = reports
        assert rep != ones
        x, v = np.array(rep["x_final"]), np.array(data["v"])
        expected = (0.5 / data["s"] * np.sum((x - v) ** 2)
                    + data["lambda0"] * np.count_nonzero(x)
                    + data["lambda1"] * sum(w * np.linalg.norm(x[g]) for w, g in
                                            zip(weights, data["groups"])))
        assert rep["objective"] == pytest.approx(expected, rel=1e-12)

    def test_out_file_and_flags(self, tmp_path, capsys):
        inst = write_instance(tmp_path)
        out = tmp_path / "rec.json"
        code = run_cli(["solve", str(inst), "--rho", "1.5", "--eps-abs",
                        "1e-10", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        record = json.loads(out.read_text())
        assert record["config"]["rho"] == 1.5
        assert record["seed"] == 5
        assert record["timestamp"] is None
        assert record["report"]["wall_time"] is None

    def test_record_holds_the_starting_penalty(self, tmp_path, capsys):
        # the default start is 0.3/s; --rho sets it; the dual uses none
        inst = write_instance(tmp_path, s=2.0)
        for flags, rho in (([], 0.15), (["--rho", "1.5"], 1.5),
                           (["--algorithm", "dual"], None)):
            assert run_cli(["solve", str(inst), *flags]) == 0
            assert json.loads(capsys.readouterr().out)["config"]["rho"] == rho

    def test_dual_algorithm_labelled(self, tmp_path, capsys):
        inst = write_instance(tmp_path)
        assert run_cli(["solve", str(inst), "--algorithm", "dual"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["algorithm"] == "dual"
        assert record["report"]["algorithm"] == "dual"

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MINIMAL))
        assert run_cli(["solve", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["converged"]

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_stdin_not_utf8_is_parse_error(self, capsys, monkeypatch, errors):
        # stdin goes through the file reader: bytes that are not UTF-8 are
        # invalid JSON (exit 2), however the stream decodes them
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8",
                                 errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert run_cli(["solve", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid JSON in ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "-"], ["solve"], ["bounds"], ["oracle"], ["check", "--point", "p.json"],
    ], ids=["solve-dash", "solve", "bounds", "oracle", "check"])
    def test_closed_stdin_is_parse_error(self, capsys, monkeypatch, argv):
        # a process started with stdin closed has sys.stdin None
        monkeypatch.setattr("sys.stdin", None)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot read <stdin>: stdin is closed\n"
        assert captured.out == ""

    @pytest.mark.parametrize("trace", ["rec.json", "./rec.json"])
    def test_trace_and_out_on_one_path_is_usage_error(self, tmp_path, capsys,
                                                      monkeypatch, trace):
        # the record would overwrite the trace: refused before any input is read
        read = []
        monkeypatch.setattr("sogl.cli.parse_instance", read.append)
        monkeypatch.chdir(tmp_path)
        inst = write_instance(tmp_path)
        assert run_cli(["solve", str(inst), "--trace", trace, "--out", "rec.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: --trace and --out would both write rec.json\n"
        assert captured.out == "" and read == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]

    def test_trace_rows_equal_iters(self, tmp_path, capsys):
        inst = write_instance(tmp_path, lambda0=0.1, lambda1=0.3)
        trace_path = tmp_path / "trace.csv"
        assert run_cli(["solve", str(inst), "--trace", str(trace_path)]) == 0
        record = json.loads(capsys.readouterr().out)
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "iter,objective,r_norm,s_norm"
        assert len(lines) - 1 == record["report"]["iters"]

    def test_dual_trace_names_its_columns(self, tmp_path, capsys):
        inst = write_instance(tmp_path, lambda0=0.1, lambda1=0.3)
        trace_path = tmp_path / "trace.csv"
        assert run_cli(["solve", str(inst), "--algorithm", "dual",
                        "--trace", str(trace_path)]) == 0
        record = json.loads(capsys.readouterr().out)
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "iter,objective,bound,gap"
        assert len(lines) - 1 == record["report"]["iters"]
        for line in lines[1:]:  # the gap is best objective minus best bound
            assert float(line.split(",")[3]) >= 0.0

    def test_stamp_fills_timing(self, tmp_path, capsys):
        inst = write_instance(tmp_path)
        assert run_cli(["solve", str(inst), "--stamp"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["timestamp"] is not None
        assert record["report"]["wall_time"] > 0
        assert list(record["report"])[-1] == "wall_time"

    def test_batch_writes_records(self, tmp_path, capsys):
        a = write_instance(tmp_path, name="a.json", seed=1)
        b = write_instance(tmp_path, name="b.json", seed=2)
        out_dir = tmp_path / "records"
        code = run_cli(["solve", str(a), str(b), "--out-dir", str(out_dir)])
        assert code == 0
        for stem in ("a", "b"):
            record = json.loads((out_dir / f"{stem}.record.json").read_text())
            assert record["report"]["converged"] is True
        assert "a.json: ok" in capsys.readouterr().out

    def test_batch_of_one_writes_its_record(self, tmp_path, capsys):
        # --out-dir alone turns on batch mode; the record is the one stdout gets
        a = write_instance(tmp_path, name="a.json")
        out_dir = tmp_path / "records"
        assert run_cli(["solve", str(a), "--out-dir", str(out_dir)]) == 0
        record = out_dir / "a.record.json"
        assert capsys.readouterr().out == f"{a}: ok -> {record}\n"
        assert run_cli(["solve", str(a)]) == 0
        assert record.read_text() == capsys.readouterr().out

    def test_batch_requires_out_dir(self, tmp_path, capsys):
        a = write_instance(tmp_path, name="a.json")
        b = write_instance(tmp_path, name="b.json")
        assert run_cli(["solve", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: several instance files need --out-dir\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_batch_requires_instance_paths(self, tmp_path, capsys):
        assert run_cli(["solve", "--out-dir", str(tmp_path / "recs")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: --out-dir requires instance paths\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stdin", ["-", ""])
    def test_batch_refuses_stdin(self, tmp_path, capsys, monkeypatch, stdin):
        # stdin has no file name to name a record after: refused before any
        # input is read or the directory is made
        read = []
        monkeypatch.setattr("sogl.cli.parse_instance", read.append)
        a = write_instance(tmp_path, name="a.json")
        out_dir = tmp_path / "records"
        assert run_cli(["solve", str(a), stdin, "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("usage error: --out-dir takes instance files; "
                                "stdin ('-') is for a single instance\n")
        assert captured.out == "" and read == []
        assert not out_dir.exists()

    def test_batch_propagates_validation_failures(self, tmp_path):
        good = write_instance(tmp_path, name="good.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out_dir = tmp_path / "records"
        code = run_cli(["solve", str(good), str(bad), "--out-dir", str(out_dir)])
        assert code == 2
        assert (out_dir / "good.record.json").exists()

    @pytest.mark.parametrize("names", [("a/x.json", "b/x.json"), ("a/x.json", "a/x.json")],
                             ids=["same-name", "same-path"])
    def test_batch_inputs_sharing_a_record_are_usage_error(self, tmp_path, capsys,
                                                           monkeypatch, names):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        paths = [str(write_instance(tmp_path, name=name)) for name in names]
        solved = []
        monkeypatch.setattr("sogl.cli.solve_admm", lambda *args: solved.append(args))
        out_dir = tmp_path / "records"
        assert run_cli(["solve", *paths, "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: {paths[0]} and {paths[1]} would both "
                                f"write {out_dir / 'x.record.json'}\n")
        assert not out_dir.exists() and solved == []


class TestExitCodes:
    def test_usage_unknown_command(self):
        assert run_cli(["frobnicate"]) == 1

    def test_usage_no_command(self):
        assert run_cli([]) == 1

    def test_usage_bad_rho(self, tmp_path):
        inst = write_instance(tmp_path)
        assert run_cli(["solve", str(inst), "--rho", "-1"]) == 1

    @pytest.mark.parametrize("option, value", [
        ("--eps-abs", "nan"), ("--eps-rel", "inf"), ("--rho", "inf"),
        ("--rho", "nan"), ("--eps-abs", "-1"),
    ])
    def test_usage_non_finite_or_negative_option(self, tmp_path, capsys,
                                                 option, value):
        inst = write_instance(tmp_path)
        assert run_cli(["solve", str(inst), option, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: argument {option}: expected a ")
        assert captured.out == ""

    @pytest.mark.parametrize("command, option, value, expected", [
        ("solve", "--rho", "x", "number"),
        ("solve", "--rho", "0", "positive number"),
        ("solve", "--max-iters", "abc", "positive integer"),
        ("solve", "--max-iters", "1.5", "positive integer"),
        ("solve", "--max-iters", "0", "positive integer"),
        ("solve", "--eps-abs", "x", "number"),
        ("solve", "--eps-abs", "-0.5", "nonnegative number"),
        ("solve", "--eps-rel", "x", "number"),
        ("solve", "--eps-rel", "-1", "nonnegative number"),
        ("gen", "--seed", "x", "nonnegative integer"),
        ("gen", "--seed", "-1", "nonnegative integer"),
        ("gen", "--n", "abc", "positive integer"),
        ("gen", "--n", "0", "positive integer"),
        ("gen", "--m", "x", "positive integer"),
        ("gen", "--m", "-3", "positive integer"),
        ("gen", "--min-size", "x", "positive integer"),
        ("gen", "--min-size", "0", "positive integer"),
        ("gen", "--max-size", "2.5", "positive integer"),
        ("gen", "--max-size", "0", "positive integer"),
        ("gen", "--s", "x", "number"),
        ("gen", "--s", "0", "positive number"),
        ("gen", "--lambda0", "x", "number"),
        ("gen", "--lambda0", "-1", "nonnegative number"),
        ("gen", "--lambda1", "x", "number"),
        ("gen", "--lambda1", "-1", "nonnegative number"),
        ("gen", "--lambda", "x", "number"),
        ("gen", "--lambda", "-1", "nonnegative number"),
    ])
    def test_numeric_option_error_names_the_option(self, tmp_path, capsys, monkeypatch,
                                                   command, option, value, expected):
        # each number is checked by its option's type, before any input is
        # read or output written: no "invalid int value", no library field name
        read = []
        monkeypatch.setattr("sogl.cli.parse_instance", read.append)
        argv = [command, option, value, "--out", str(tmp_path / "out.json")]
        assert run_cli(argv + [str(tmp_path / "missing.json")] * (command == "solve")) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"usage error: argument {option}: expected a "
                                f"{expected}, got {value!r}\n")
        assert captured.out == "" and read == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["oracle", "--limit", "-1"], ["bounds", "--with-oracle", "--limit", "0"],
        ["bounds", "--with-oracle", "--limit", "1.5"], ["oracle", "--limit", "abc"],
    ], ids=["oracle-negative", "bounds-zero", "bounds-fraction", "oracle-word"])
    def test_usage_non_positive_limit(self, tmp_path, capsys, argv):
        inst = write_instance(tmp_path)
        assert run_cli(argv + [str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("usage error: argument --limit: expected a "
                                f"positive integer, got {argv[-1]!r}\n")
        assert captured.out == ""

    def test_validation_missing_file(self):
        assert run_cli(["solve", "/definitely/not/here.json"]) == 2

    def test_validation_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"v": [1.0], "groups": [[4]], "s": 1, "lambda0": 0, '
                        '"lambda1": 0, "lambda": 0}')
        assert run_cli(["solve", str(path)]) == 2

    @pytest.mark.parametrize("field, value, message", [
        ("v", [], "v: expected a non-empty array of numbers"),
        ("v", 1.0, "v: expected a non-empty array of numbers"),
        ("groups", {"0": [0]}, "groups: expected an array of arrays"),
        ("weights", 1.0, "weights: expected an array of numbers"),
    ], ids=["v-empty", "v-number", "groups-object", "weights-number"])
    def test_validation_names_the_field(self, tmp_path, capsys, field, value,
                                        message):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(dict(json.loads(MINIMAL), **{field: value})))
        assert run_cli(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_non_finite_solver(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"v": [1e308], "groups": [[0]], "s": 1, "lambda0": 0, '
                        '"lambda1": 0.1, "lambda": 0}')
        assert run_cli(["solve", str(path)]) == 3

    @pytest.mark.parametrize("command, fields, name", [
        ("solve", '"v": [1' + '0' * 400 + '], "s": 1, "lambda0": 0', "v[0]"),
        ("bounds", '"v": [NaN, 1.0], "s": 1, "lambda0": 0', "v[0]"),
        ("solve", '"v": [1.0, 2.0], "s": Infinity, "lambda0": 0', "s"),
        ("solve", '"v": [1.0, 2.0], "s": 1, "lambda0": Infinity', "lambda0"),
        ("solve", '"v": [1e999, 2.0], "s": 1, "lambda0": 0', "v[0]"),
    ], ids=["int-overflow-v", "nan-v", "inf-s", "inf-lambda0", "float-overflow-v"])
    def test_non_finite_input_is_validation_error(self, tmp_path, capsys,
                                                  command, fields, name):
        path = tmp_path / "inst.json"
        path.write_text("{" + fields + ', "groups": [[0]], "lambda1": 0.1, '
                        '"lambda": 0}\n')
        assert run_cli([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {name}: expected a finite number\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["solve"], ["solve", "--algorithm", "dual"], ["bounds"],
        ["bounds", "--variant", "l1"], ["bounds", "--variant", "l0"], ["oracle"],
        ["solve", "--trace", "{tmp}/trace.csv"],
        ["solve", "--algorithm", "dual", "--trace", "{tmp}/trace.csv"],
    ], ids=["solve", "dual", "bounds-plain", "bounds-l1", "bounds-l0", "oracle",
            "solve-trace", "dual-trace"])
    def test_overflowing_result_is_non_finite_error(self, tmp_path, capsys, argv):
        # finite input whose objective overflows: exit 3 before any output
        path = tmp_path / "big.json"
        path.write_text(_big_file(argv))
        out = tmp_path / "rec.json"
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run_cli(argv + [str(path), "--out", str(out)]) == 3
        assert "is not finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]

    @pytest.mark.parametrize("argv", [
        ["solve"], ["bounds"], ["check", "--point", "{tmp}/x.json"],
    ], ids=["solve", "bounds", "check"])
    def test_overflow_prints_only_the_error_line(self, tmp_path, capsys, argv):
        # numpy's floating-point warnings would fail here: the suite makes
        # every RuntimeWarning an error
        path = tmp_path / "big.json"
        path.write_text(_big_file(argv))
        (tmp_path / "x.json").write_text("[0.0]\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run_cli(argv + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "is not finite" in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("argv, target", [
        (["solve", "{a}", "--out", "{tmp}/missing/rec.json"], "{tmp}/missing/rec.json"),
        (["solve", "{a}", "--trace", "{tmp}/missing/t.csv"], "{tmp}/missing/t.csv"),
        (["bounds", "{a}", "--out", "{tmp}/missing/rec.json"], "{tmp}/missing/rec.json"),
        (["solve", "{a}", "{b}", "--out-dir", "{a}"], "{a}"),
        (["solve", "{a}", "{b}", "--out-dir", "{tmp}/recs"], "{tmp}/recs/a.record.json"),
        (["solve", "{a}", "--trace", "{tmp}/t.csv", "--out", "{tmp}/missing/rec.json"],
         "{tmp}/missing/rec.json"),
    ], ids=["out-missing-dir", "trace-missing-dir", "bounds-out-missing-dir",
            "out-dir-is-file", "batch-record-is-dir", "trace-then-out-missing-dir"])
    def test_unwritable_output_is_reported(self, tmp_path, capsys, argv, target):
        names = {"a": write_instance(tmp_path, name="a.json", seed=1),
                 "b": write_instance(tmp_path, name="b.json", seed=2), "tmp": tmp_path}
        (tmp_path / "recs" / "a.record.json").mkdir(parents=True)
        argv = [x.format(**names) for x in argv]
        target = target.format(**names)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        if target.endswith("a.record.json"):  # the failed file's line; b still written
            assert f"{names['a']}: error: cannot write {target}: " in captured.out
            assert (tmp_path / "recs" / "b.record.json").exists()
        else:
            assert captured.err.startswith(f"error: cannot write {target}: ")
            assert captured.out == ""
        assert not list(tmp_path.rglob(".tmp-*"))
        assert not (tmp_path / "t.csv").exists()  # no trace without its record

    @pytest.mark.parametrize("argv", [
        ["solve", "{a}", "{b}", "--out-dir", "{tmp}/recs", "--out", "{tmp}/r.json"],
        ["solve", "{a}", "--algorithm", "dual", "--rho", "5"],
        ["bounds", "{a}", "--limit", "5"],
        ["bounds", "{a}", "--with-oracle", "--variant", "l1", "--limit", "5"],
    ], ids=["out-with-several-files", "rho-with-dual", "limit-without-oracle",
            "limit-without-count-term"])
    def test_ignored_output_option_is_usage_error(self, tmp_path, capsys, argv):
        names = {"a": write_instance(tmp_path, name="a.json"),
                 "b": write_instance(tmp_path, name="b.json"), "tmp": tmp_path}
        assert run_cli([x.format(**names) for x in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    @pytest.mark.parametrize("argv", [
        ["solve", "{tmp}/missing.json", "--max-iters", "0"],
        ["solve", "{tmp}/missing.json", "--eps-rel", "-1"],
        ["solve", "{tmp}/bad.json", "{a}", "--out-dir", "{tmp}/new", "--max-iters", "0"],
    ], ids=["missing-file-max-iters", "missing-file-eps-rel", "batch-out-dir"])
    def test_option_error_comes_before_any_input(self, tmp_path, capsys, monkeypatch,
                                                 argv):
        names = {"a": write_instance(tmp_path, name="a.json"), "tmp": tmp_path}
        (tmp_path / "bad.json").write_text("{broken")
        read = []
        monkeypatch.setattr("sogl.cli.parse_instance",
                            lambda path: read.append(path) or parse_instance(path))
        assert run_cli([x.format(**names) for x in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and captured.out == ""
        assert read == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "bad.json"]

    def test_oracle_too_large(self, tmp_path):
        instf = generate_instance(seed=0, n=13, m=2)
        path = tmp_path / "big.json"
        path.write_text(dumps_canonical(instf.to_dict()))
        for argv in (["oracle", "--limit", "12"],
                     ["bounds", "--with-oracle", "--variant", "l0", "--limit", "12"]):
            assert run_cli(argv + [str(path)]) == 4

    def test_oracle_without_a_count_term_at_any_n(self, tmp_path, capsys):
        # lambda0 = 0: the oracle solves the full support once, at any n;
        # it is oracle_variant's plain variant at lam = lam1
        instf = generate_instance(seed=3, n=13, m=6, lambda0=0.0)
        path = tmp_path / "big.json"
        path.write_text(dumps_canonical(instf.to_dict()))
        assert run_cli(["oracle", str(path), "--limit", "12"]) == 0
        value = json.loads(capsys.readouterr().out)["report"]["value"]
        inst, gs = instf.build()
        plain = oracle_variant(replace(inst, lam=inst.lam1), gs, "plain", n_limit=12)
        assert value == plain.value

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "solve" in capsys.readouterr().out


def test_consecutive_commands_share_nothing(tmp_path, capsys):
    # the parser is built once per process; no call may leave state in it
    inst = write_instance(tmp_path)
    assert run_cli(["solve", str(inst), "--rho", "1.5"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["rho"] == 1.5
    assert run_cli(["--help"]) == 0
    assert "solve" in capsys.readouterr().out
    assert run_cli(["solve", str(inst), "--rho", "-1"]) == 1
    assert run_cli(["solve", str(inst)]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["rho"] == 0.3 and config["eps_abs"] == 1e-8  # 0.3/s, s = 1


class TestBounds:
    @pytest.mark.parametrize("variant", ["plain", "l1", "l0"])
    def test_sandwich_with_oracle(self, tmp_path, capsys, variant):
        inst = write_instance(tmp_path, lambda0=0.2, lambda1=0.3, lambda_=0.4)
        assert run_cli(["bounds", str(inst), "--variant", variant,
                        "--with-oracle"]) == 0
        record = json.loads(capsys.readouterr().out)
        rep = record["report"]
        assert rep["lower_value"] - 1e-9 <= rep["oracle_value"] <= \
            rep["upper_value"] + 1e-9

    def test_l0_brackets_oracle_on_weighted_file(self, tmp_path, capsys):
        # with lambda == lambda1 the l0 target is the problem oracle solves
        data = generate_instance(4, 8, 4, lambda0=0.2, lambda1=0.3,
                                 lambda_=0.3).to_dict()
        path = tmp_path / "inst.json"
        path.write_text(dumps_canonical(dict(data, weights=[2.5, 0.4, 1.0, 0.7])))
        assert run_cli(["oracle", str(path)]) == 0
        value = json.loads(capsys.readouterr().out)["report"]["value"]
        assert run_cli(["bounds", str(path), "--variant", "l0", "--with-oracle"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["oracle_value"] == value
        assert rep["lower_value"] - 1e-9 <= value <= rep["upper_value"] + 1e-9

    @pytest.mark.parametrize("variant", ["plain", "l1", "l0"])
    def test_zero_penalties_with_overflowing_norms(self, tmp_path, capsys, variant):
        # the optimum is v, whose surrogate norms overflow: at lam = 0 the
        # norm term is left out, where 0*inf made the upper value NaN (exit 3);
        # l0's top-k candidates are compared on a scaled v, where squares of
        # v itself overflowed and left the upper value at inf (exit 3)
        path = tmp_path / "big.json"
        path.write_text('{"v": [1e280, -1e280, 1e280], "groups": [[0, 1], [1, 2]], '
                        '"s": 1, "lambda0": 0, "lambda1": 0, "lambda": 0}')
        assert run_cli(["bounds", str(path), "--variant", variant,
                        "--with-oracle"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["lower_value"] == rep["upper_value"] == rep["oracle_value"] == 0.0

    def test_l0_with_a_tiny_center(self, tmp_path, capsys):
        # scaling l0's top-k candidates near 1e-200 up by a power of two
        # takes lambda0 to inf, which must leave x = 0 rather than raise
        path = tmp_path / "tiny.json"
        path.write_text('{"v": [1e-200, 1e-200], "groups": [[0, 1]], "s": 1, '
                        '"lambda0": 1, "lambda1": 0, "lambda": 1}')
        assert run_cli(["bounds", str(path), "--variant", "l0",
                        "--with-oracle"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["lower_value"] == rep["upper_value"] == rep["oracle_value"] == 0.0

    @pytest.mark.parametrize("variant", ["plain", "l1", "l0"])
    def test_huge_group_weight(self, tmp_path, capsys, variant):
        # ||w||_2 is taken on w scaled by a power of two: squaring 1e200
        # itself overflowed, and the upper value came out NaN (exit 3)
        path = tmp_path / "heavy.json"
        path.write_text('{"v": [1.0, -2.0], "groups": [[0, 1]], "weights": [1e200], '
                        '"s": 1, "lambda0": 0, "lambda1": 0.1, "lambda": 0.1}')
        assert run_cli(["bounds", str(path), "--variant", variant,
                        "--with-oracle"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["lower_value"] == rep["upper_value"] == rep["oracle_value"] == 2.5

    @pytest.mark.parametrize("variant", ["plain", "l0"])
    def test_tiny_group_weight_brackets_the_oracle(self, tmp_path, capsys, variant):
        # the upper value's norm ||u*x|| is about 1e-170: its unscaled square
        # underflowed to 0, and the upper value fell under the oracle's
        path = tmp_path / "light.json"
        path.write_text('{"v": [1.0, -2.0], "groups": [[0, 1]], "weights": [1e-170], '
                        '"s": 1, "lambda0": 0, "lambda1": 1, "lambda": 1}')
        assert run_cli(["bounds", str(path), "--variant", variant,
                        "--with-oracle"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert 0 < rep["lower_value"] <= rep["oracle_value"] <= rep["upper_value"]

    @pytest.mark.parametrize("variant", ["plain", "l1", "l0"])
    def test_huge_center_has_finite_bounds(self, tmp_path, capsys, variant):
        # the bound values are about 1e199, but squaring u*x = 1e200 itself
        # overflowed and left the upper value at inf (exit 3)
        path = tmp_path / "big.json"
        path.write_text('{"v": [1e200], "groups": [[0]], "s": 1, "lambda0": 0, '
                        '"lambda1": 0.1, "lambda": 0.1}')
        assert run_cli(["bounds", str(path), "--variant", variant]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert 1e198 < rep["lower_value"] <= rep["upper_value"] < 1e200

    @pytest.mark.parametrize("n", [13, 100])
    @pytest.mark.parametrize("variant", ["plain", "l1"])
    def test_convex_oracle_past_the_limit(self, tmp_path, capsys, variant, n):
        # without a count term the oracle enumerates nothing, so the
        # enumeration limit does not apply
        inst = write_instance(tmp_path, seed=3, n=n, m=n // 2)
        assert run_cli(["bounds", str(inst), "--variant", variant,
                        "--with-oracle"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["lower_value"] <= rep["oracle_value"] <= rep["upper_value"]

    def test_without_oracle_field_is_null(self, tmp_path, capsys):
        inst = write_instance(tmp_path)
        assert run_cli(["bounds", str(inst)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["report"]["oracle_value"] is None


class TestCheckAndPipelines:
    def test_check_accepts_solve_record(self, tmp_path, capsys):
        inst = write_instance(tmp_path, lambda0=0.0, lambda1=0.2)
        rec = tmp_path / "rec.json"
        assert run_cli(["solve", str(inst), "--eps-abs", "1e-12", "--eps-rel",
                        "1e-10", "--out", str(rec)]) == 0
        assert run_cli(["check", str(inst), "--point", str(rec)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["report"]["stationary"] is True

    def test_check_accepts_bare_array(self, tmp_path, capsys):
        path = tmp_path / "min.json"
        path.write_text(MINIMAL)
        point = tmp_path / "pt.json"
        point.write_text("[1.0]\n")
        assert run_cli(["check", str(path), "--point", str(point)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["stationary"]

    def test_check_accepts_x_object(self, tmp_path, capsys):
        path = tmp_path / "min.json"
        path.write_text(MINIMAL)
        point = tmp_path / "pt.json"
        point.write_text('{"x": [0.5]}\n')
        assert run_cli(["check", str(path), "--point", str(point)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["stationary"] is False

    def test_check_length_mismatch(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(MINIMAL)
        point = tmp_path / "pt.json"
        point.write_text("[1.0, 2.0]\n")
        assert run_cli(["check", str(path), "--point", str(point)]) == 2

    @pytest.mark.parametrize("text", [
        '{"report": 5}',
        '["abc", 1, 2]',
        '[null, 1, 2]',
        '{"x": [1e400, 0, 0]}',
        '[1' + '0' * 400 + ', 0, 0]',
        '"abc"',
        '{"y": [1, 2, 3]}',
    ], ids=["report-not-object", "string-entry", "null-entry", "float-overflow",
            "int-overflow", "string", "object-without-x"])
    def test_check_malformed_point_is_validation_error(self, tmp_path, capsys, text):
        path = tmp_path / "inst.json"
        path.write_text('{"v": [1.0, 2.0, 3.0], "groups": [[0, 1], [1, 2]], "s": 1, '
                        '"lambda0": 0, "lambda1": 0.1, "lambda": 0}\n')
        point = tmp_path / "pt.json"
        point.write_text(text + "\n")
        assert run_cli(["check", str(path), "--point", str(point)]) == 2
        captured = capsys.readouterr()
        assert "point" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["bounds", "--variant", "l0"], ["oracle"], ["check", "--point", "{pt}"],
    ], ids=["bounds", "oracle", "check"])
    def test_check_names_what_a_record_lacks(self, tmp_path, capsys, argv):
        # a record of another command holds no point to check
        path = tmp_path / "min.json"
        path.write_text(MINIMAL)
        point = tmp_path / "pt.json"
        point.write_text("[1.0]\n")
        rec = tmp_path / "rec.json"
        argv = [a.format(pt=point) for a in argv]
        assert run_cli(argv + [str(path), "--out", str(rec)]) == 0
        assert run_cli(["check", str(path), "--point", str(rec)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: point: record has no report.x_final\n"
        assert captured.out == ""

    def test_check_point_dash_is_a_file(self, tmp_path, capsys, monkeypatch):
        # only an instance is read from stdin; --point - names a file
        path = tmp_path / "min.json"
        path.write_text(MINIMAL)
        (tmp_path / "-").write_text("[1.0]\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO("not read"))
        assert run_cli(["check", str(path), "--point", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["stationary"] is True

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read"), ("[1.0,", "invalid JSON in"),
    ], ids=["missing", "invalid-json"])
    def test_check_unreadable_point_names_the_file(self, tmp_path, capsys, text,
                                                   message):
        path = tmp_path / "min.json"
        path.write_text(MINIMAL)
        point = tmp_path / "pt.json"
        if text is not None:
            point.write_text(text + "\n")
        assert run_cli(["check", str(path), "--point", str(point)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message} {point}: ")
        assert captured.out == ""

    def test_gen_solve_check_pipeline(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        rec = tmp_path / "rec.json"
        assert run_cli(["gen", "--seed", "7", "--n", "6", "--m", "2",
                        "--out", str(inst)]) == 0
        assert run_cli(["solve", str(inst), "--out", str(rec)]) == 0
        assert run_cli(["check", str(inst), "--point", str(rec)]) == 0
        capsys.readouterr()

    def test_piped_gen_to_solve(self, capsys, monkeypatch):
        assert run_cli(["gen", "--seed", "7", "--n", "5", "--m", "2"]) == 0
        gen_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(gen_text))
        assert run_cli(["solve"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["instance"] == "chain-n5-m2-seed7"
        assert record["seed"] == 7

    def test_deterministic_bytes_across_runs(self, tmp_path, capsys):
        inst = write_instance(tmp_path, lambda0=0.1, lambda1=0.2)
        outputs = []
        for _ in range(2):
            assert run_cli(["solve", str(inst)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestGen:
    def test_gen_writes_parseable_instance(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli(["gen", "--seed", "3", "--n", "9", "--m", "3", "--mode",
                        "nested", "--lambda0", "0.2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["seed"] == 3
        assert data["lambda0"] == 0.2
        assert len(data["v"]) == 9

    def test_gen_usage_error(self):
        assert run_cli(["gen", "--n", "0"]) == 1

    @pytest.mark.parametrize("option, value", [
        ("--s", "-1"), ("--s", "0"), ("--s", "inf"), ("--lambda0", "nan"),
        ("--lambda1", "-2"), ("--lambda", "inf"), ("--lambda1", "x"),
    ])
    def test_gen_rejects_what_solve_would(self, capsys, option, value):
        # the message names the option typed, not the library's field
        assert run_cli(["gen", option, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: argument {option}: expected a ")
        assert captured.out == ""

    @pytest.mark.parametrize("low, high", [("3", "2"), ("0", "0")])
    def test_gen_rejects_size_ranges_it_cannot_honour(self, capsys, low, high):
        assert run_cli(["gen", "--min-size", low, "--max-size", high]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and captured.out == ""

    def test_gen_names_a_negative_seed(self, capsys):
        assert run_cli(["gen", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("usage error: argument --seed: expected a "
                                "nonnegative integer, got '-1'\n")
        assert captured.out == ""

    def test_gen_writes_the_s_typed(self, capsys):
        assert run_cli(["gen", "--s", "2.5"]) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 2.5

    def test_gen_caps_sizes_at_n(self, capsys):
        assert run_cli(["gen", "--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["groups"] == [[0], [0], [0]]
