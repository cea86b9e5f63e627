import io
import json
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pwlearn import (
    DomainError,
    cli,
    function_to_json,
    from_points,
    harness,
    lower_bound_partial,
    run_match,
    upper_bound_linint,
)
from pwlearn.harness import SWEEP_CSV_HEADER

from helpers import kill_the_trace_helper


def run_cli(args):
    return cli.main(args)


class TestMatch:
    def test_prints_result_json(self, capsys):
        code = run_cli(["match", "--epsilon", "0.25", "--stages", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == 0.25
        assert doc["stages"] == 3
        assert len(doc["per_stage"]) == 3
        assert doc["bounds"]["lower_partial"] == lower_bound_partial(0.25, 3)

    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            ["match", "--learner", "zero", "--epsilon", "0.3", "--stages", "3",
             "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y_hat,y,e,d,loss_term,cum_loss"
        assert len(lines) == 1 + 2**3  # header, trial 0, 7 charged trials

    def test_out_writes_the_match_records(self, tmp_path, monkeypatch, capsys):
        # The trace file is the match's records, its final grid and whatever
        # the grid does not fix of the predictions.
        real_run_match = cli.run_match
        results, written = [], []

        def spy(*args, **kwargs):
            results.append(real_run_match(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_match", spy)
        monkeypatch.setattr(cli, "write_trace_csv", lambda records, out: written.append(records))
        out = str(tmp_path / "trace.csv")
        assert run_cli(["match", "--epsilon", "0.25", "--stages", "3", "--out", out]) == 0
        capsys.readouterr()
        assert len(results) == len(written) == 1 and written[0] is results[0].records

    def test_unwritable_trace_path_exits_three_before_any_trial(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_match(*args, **kwargs):
            raise AssertionError("run_match was called")

        monkeypatch.setattr(cli, "run_match", no_match)
        out = tmp_path / "no" / "such" / "dir" / "t.csv"
        code = run_cli(["match", "--epsilon", "0.25", "--stages", "24", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:")
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the trace helper is forked")
    def test_a_trace_helper_that_dies_exits_three(self, tmp_path, monkeypatch, capsys):
        kill_the_trace_helper(monkeypatch)
        out = tmp_path / "t.csv"
        assert run_cli(["match", "--epsilon", "0.1", "--stages", "14", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "i/o error: the helper process ended early\n"
        assert len(captured.err.splitlines()) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_match_leaves_an_old_trace_whole(self, tmp_path, monkeypatch, capsys):
        def failing_match(*args, **kwargs):
            raise DomainError("no match")

        out = tmp_path / "t.csv"
        out.write_bytes(b"old trace\r\n")
        monkeypatch.setattr(cli, "run_match", failing_match)
        assert run_cli(["match", "--epsilon", "0.25", "--out", str(out)]) == 1
        capsys.readouterr()
        assert out.read_bytes() == b"old trace\r\n"

    def test_bad_flags_leave_no_trace_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(["match", "--epsilon", "0.7", "--out", str(out)]) == 1
        capsys.readouterr()
        assert not out.exists()

    def test_stage_ceiling_exits_one_with_message(self, capsys):
        code = run_cli(["match", "--epsilon", "0.25", "--stages", "25"])
        assert code == 1
        assert "24" in capsys.readouterr().err

    def test_epsilon_out_of_adversary_range(self, capsys):
        code = run_cli(["match", "--epsilon", "0.5", "--stages", "3"])
        assert code == 1
        assert "bounds" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        args = ["match", "--epsilon", "0.1", "--stages", "6"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["match", "--epsilon", "0.25", "--stages", "3", "--frobnicate"])
        assert info.value.code == 1

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"epsilon": 0.3, "stages": 2}')
        code = run_cli(
            ["match", "--epsilon", "0.1", "--stages", "5", "--config", str(config)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == 0.3
        assert doc["stages"] == 2

    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"frobnicate": 1}')
        code = run_cli(["match", "--epsilon", "0.1", "--config", str(config)])
        assert code == 1

    def test_missing_config_file_is_an_io_error(self, capsys):
        code = run_cli(["match", "--epsilon", "0.1", "--config", "/nonexistent.json"])
        assert code == 3


def config_run(tmp_path, capsys, text, argv):
    """Run argv with a --config file holding text; return (code, stdout, stderr)."""
    config = tmp_path / "cfg.json"
    config.write_text(text)
    code = run_cli(argv + ["--config", str(config)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (["match", "--epsilon", "0.25"], '{"stages": "14"}', "stages"),
            (["audit", "--stages", "4"], '{"runs": 1.5}', "runs"),
            (["sweep", "--epsilons", "0.25"], '{"learner": true}', "learner"),
            (["audit", "--stages", "4"], '{"runs": true}', "runs"),
            (["eval", "--function", "f.json", "--x", "0.5"], '{"x": false}', "x"),
            (["sweep", "--epsilons", "0.25"], '{"learner": "ridge"}', "learner"),
            (["sweep", "--learner", "zero"], '{"epsilons": [0.1, 0.2]}', "epsilons"),
        ],
        ids=[
            "int-given-str",
            "int-given-float",
            "choice-given-bool",
            "int-given-bool",
            "float-given-bool",
            "choice-not-listed",
            "str-given-list",
        ],
    )
    def test_mistyped_value_exits_one_naming_the_key(
        self, tmp_path, capsys, argv, text, key
    ):
        code, out, err = config_run(tmp_path, capsys, text, argv)
        assert code == 1
        assert f"config key {key!r}" in err
        assert "Traceback" not in err
        assert out == ""

    def test_keys_are_flag_names_and_match_the_flags_byte_for_byte(self, tmp_path, capsys):
        flags = ["audit", "--runs", "2", "--seed", "3", "--stages", "5", "--max-trials", "50"]
        assert run_cli(flags) == 0
        expected = capsys.readouterr().out
        text = '{"runs": 2, "seed": 3, "stages": 5, "max-trials": 50}'
        code, out, _ = config_run(tmp_path, capsys, text, ["audit"])
        assert code == 0
        assert out == expected

    def test_float_flag_takes_an_int(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(function_to_json(from_points([(0.0, 0.0), (1.0, 2.0)])))
        argv = ["eval", "--function", str(path), "--x", "0.5"]
        code, out, _ = config_run(tmp_path, capsys, '{"x": 1}', argv)
        assert code == 0
        assert out.splitlines()[0] == "2"

    def test_rejects_unknown_keys(self, tmp_path, capsys):
        code, _, err = config_run(tmp_path, capsys, '{"plot_style": "fancy"}', ["audit"])
        assert code == 1
        assert "plot_style" in err

    def test_rejects_bad_document(self, tmp_path, capsys):
        for text in ("[1, 2]", "{nope}"):
            code, _, err = config_run(tmp_path, capsys, text, ["audit"])
            assert code == 1
            assert "config JSON" in err


# JSON numbers no double holds, non-finite ones and non-numbers. A JSON integer
# of 401 digits once ended in an OverflowError traceback.
HOSTILE_NUMBERS = ["1" + "0" * 400, "NaN", "Infinity", "-Infinity", "1e400", "true", "null",
                   "[[0.5]]"]


@pytest.mark.parametrize("value", HOSTILE_NUMBERS)
@pytest.mark.parametrize("key", ["epsilon", "stages"])
def test_a_hostile_config_value_exits_one_with_one_line(key, value, tmp_path, capsys):
    code, out, err = config_run(tmp_path, capsys, f'{{"{key}": {value}}}',
                                ["match", "--epsilon", "0.1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and key in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", HOSTILE_NUMBERS)
@pytest.mark.parametrize("knot", ["[{}, 0]", "[1, {}]"])
def test_a_hostile_knot_number_exits_one_with_one_line(knot, value, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(f'{{"knots": [[0, 0], {knot.format(value)}]}}')
    assert run_cli(["eval", "--function", str(path), "--x", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: knot 1 ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_refusals_of_numbers_past_the_largest_double_name_where_they_are(tmp_path, capsys):
    big = HOSTILE_NUMBERS[0]
    code, _, err = config_run(tmp_path, capsys, f'{{"epsilon": {big}}}',
                              ["match", "--epsilon", "0.1"])
    assert code == 1
    assert err == "error: config key 'epsilon' must fit in a double, got a number past ±1.8e308\n"
    path = tmp_path / "f.json"
    path.write_text(f'{{"knots": [[0, 0], [1, {big}]]}}')
    assert run_cli(["eval", "--function", str(path), "--x", "0.5"]) == 1
    assert capsys.readouterr().err == (
        "error: knot 1 v must fit in a double, got a number past ±1.8e308\n"
    )


# Files json cannot read: bytes that are not UTF-8, nesting deeper than the
# parser recurses, and an integer of more digits than int() converts.
JSON_FAULTS = {
    "not-utf-8": b"\xff\xfe{}",
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "integer-of-5000-digits": b'{"knots": [[0, ' + b"1" * 5000 + b"]]}",
}


@pytest.mark.parametrize("fault", JSON_FAULTS)
@pytest.mark.parametrize("kind", ["config", "function"])
def test_a_file_json_cannot_read_exits_one_with_one_line(kind, fault, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(JSON_FAULTS[fault])
    argv = ["eval", "--function", str(path), "--x", "0.5"]
    if kind == "config":
        argv = ["match", "--epsilon", "0.1", "--stages", "3", "--config", str(path)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid {kind} JSON: ")
    assert captured.err.count("\n") == 1


# Parts for argv and for the JSON of config and function files. Every valid
# count is at most 6 (a budget: stages, runs), so no case runs long.
BIG = "1" + "0" * 400


def _part(valid, hostile):
    """valid three draws in four, hostile the fourth (a list is sampled from), so
    a case with several flags still often gets through."""
    valid, hostile = (st.sampled_from(p) if isinstance(p, list) else p for p in (valid, hostile))
    return st.integers(0, 3).flatmap(lambda k: valid if k else hostile)


REAL = _part(["0.1", "0.25", "0.5"], ["nan", "inf", "-inf", "1e400", "-0.0", "0", "1.5", "-1",
                                      "5e-324", BIG, "true", "null", "[[0.5]]", "text", "",
                                      # 1 + eps rounds to 2; 2^-52, the least eps that moves it
                                      "0.9999999999999999", "2.220446049250313e-16"])
COUNT = _part(["1", "2", "3", "6"], ["-1", "0", "2.5", "1e400", "nan", "null", "text", ""])
GRID = _part(["0.1", "0.1,0.25", "log:0.1:0.2:3"],
             ["nan,0.1", "inf", "-0.0", "1e400", "0.1,text", ",", "[[0.5]]", "log:nan:0.2:2",
              "log:0.1:inf:2", "log:0.1:0.2:-1", "log:0.1:0.2:" + BIG, "log:1e400:0.2:2",
              "log:0.1", "log:0.1:0.2:2.5", ""])
OUT = _part(["out.csv", ""], [".", "missing/out.csv"])
LEARNER = _part(["linint", "zero", "nearest"], ["ridge", "null", ""])
HOSTILE_JSON = ["NaN", "Infinity", "-Infinity", "1e400", "-0.0", "0", "-1", "2.5", "5e-324",
                "true", "false", "null", "[[0.5]]", "[]", "{}", '"text"', '""']
JSON_VALUE = _part(["0.1", "0.25", "2", "3", '"zero"', '"0.1,0.25"', '"out.csv"'], HOSTILE_JSON)
# Each subcommand's flags: (flag, argv value, given every time). A required
# flag is given every time, and so is a count whose default would run long
# (stages 14, runs 1000).
CLI_FLAGS = {
    "match": [("--learner", LEARNER, False), ("--epsilon", REAL, True),
              ("--stages", COUNT | st.just(BIG), True), ("--out", OUT, False)],
    "sweep": [("--learner", LEARNER, False), ("--epsilons", GRID, False),
              ("--epsilon-grid", GRID, False), ("--stages", COUNT | st.just(BIG), True),
              ("--out", OUT, False)],
    "bounds": [("--epsilon", REAL, False), ("--epsilons", GRID, False),
               ("--epsilon-grid", GRID, False), ("--partial-stages", COUNT | st.just(BIG), False),
               ("--out", OUT, False)],
    "audit": [("--runs", COUNT | st.just(BIG), True), ("--seed", COUNT | st.just(BIG), False),
              ("--stages", COUNT | st.just(BIG), True),
              ("--max-trials", COUNT | st.just(BIG), False), ("--out", OUT, False)],
    "eval": [("--function", _part(["f.json"], ["missing.json", "."]), True), ("--x", REAL, True)],
}


def _json_files(pairs):
    """A file's bytes: a JSON object of (key, value text) pairs drawn from
    pairs, a document that is no object, or a fault."""
    objects = st.lists(pairs, max_size=4).map(
        lambda kv: "{" + ", ".join(f'"{k}": {v}' for k, v in kv) + "}")
    return _part(objects.map(str.encode),
                 JSON_VALUE.map(str.encode) | st.sampled_from(list(JSON_FAULTS.values())))


@st.composite
def _cli_cases(draw):
    """argv for one subcommand, its config file's bytes (or None) and a function
    file's bytes."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    argv = [command]
    for flag, value, always in CLI_FLAGS[command]:
        if always or draw(st.booleans()):
            argv += [flag, draw(value)]
    keys = [flag[2:] for flag, _, _ in CLI_FLAGS[command]] + ["max_trials", "frobnicate"]
    config = draw(st.none() | _json_files(
        st.tuples(st.sampled_from(keys), JSON_VALUE | st.just(BIG))))
    number = _part(["0", "0.5", "1", "-2"], HOSTILE_JSON + [BIG])
    knot = st.lists(number, min_size=2, max_size=2).map(lambda uv: f"[{uv[0]}, {uv[1]}]")
    knots = st.lists(knot | JSON_VALUE, max_size=4).map(lambda k: f"[{', '.join(k)}]")
    function = draw(_json_files(st.tuples(_part(["knots"], ["text"]), knots | JSON_VALUE)))
    return argv, config, function


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_cli_cases())
def test_hostile_input_to_any_subcommand_exits_with_a_code_and_no_traceback(
    case, tmp_path, monkeypatch
):
    argv, config, function = case
    monkeypatch.chdir(tmp_path)  # every path the case names is relative
    (tmp_path / "f.json").write_bytes(function)
    if config is not None:
        (tmp_path / "cfg.json").write_bytes(config)
        argv = argv + ["--config", "cfg.json"]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


class TestSweep:
    def test_stdout_table(self, capsys):
        code = run_cli(["sweep", "--epsilons", "0.3,0.2", "--stages", "4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("epsilon,stages,total_loss")
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.2

    def test_file_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--epsilons", "0.25", "--stages", "4", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().count("\n") == 2

    def test_requires_a_grid(self, capsys):
        assert run_cli(["sweep", "--stages", "4"]) == 1

    def test_bad_epsilon_exits_one_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--epsilons", "0.2,0.7", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_rows_stream_to_stdout_as_their_matches_finish(self, monkeypatch, capsys):
        calls = []

        def second_match_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise DomainError("second match")
            return run_match(*args, **kwargs)

        monkeypatch.setattr(harness, "run_match", second_match_fails)
        assert run_cli(["sweep", "--epsilons", "0.3,0.2", "--stages", "4"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.2]
        assert captured.err == "error: second match\n"

    def test_rejects_out_of_range_epsilon(self, capsys):
        assert run_cli(["sweep", "--epsilons", "0.6", "--stages", "4"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--learner", "nearest", "--epsilons", "0.4,0.02", "--stages", "6"],
        ["bounds", "--epsilons", "0.3,0.7,0.001", "--partial-stages", "20"],
    ],
    ids=["sweep", "bounds"],
)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    assert run_cli(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


@pytest.mark.parametrize("command", ["sweep", "bounds"])
@pytest.mark.parametrize("spec", ["log:0.01:inf:3", "log:nan:0.3:3", "log:inf:0.3:2"])
def test_non_finite_log_grid_endpoint_exits_one_without_warnings(command, spec, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli([command, "--epsilon-grid", spec])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log grid endpoints must be positive and finite")
    assert "Warning" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--epsilon", "0.1", "--epsilons", "0.2"],
        ["bounds", "--epsilon", "0.1", "--epsilon-grid", "log:0.1:0.2:2"],
        ["sweep", "--epsilons", "0.1", "--epsilon-grid", "log:0.1:0.2:2"],
    ],
)
def test_two_epsilon_sources_exit_one(argv, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give only one of --epsilon, --epsilons, --epsilon-grid\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["match", "--epsilon", "1e-16", "--stages", "3"],
        ["sweep", "--epsilons", "0.1,1e-16", "--stages", "3"],
        ["bounds", "--epsilon", "1e-16"],
    ],
    ids=["match", "sweep", "bounds"],
)
def test_epsilon_too_small_for_one_plus_epsilon_exits_one_before_any_match(
    argv, tmp_path, monkeypatch, capsys
):
    def no_match(*args, **kwargs):
        raise AssertionError("a match was played")

    monkeypatch.setattr(cli, "run_match", no_match)
    monkeypatch.setattr(harness, "run_match", no_match)
    out = tmp_path / "out.csv"
    assert run_cli(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: epsilon 1e-16 is too small: 1 + epsilon rounds to 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "bounds"])
def test_huge_log_grid_exits_one_before_any_allocation(command, monkeypatch, capsys):
    def no_grid(*args):
        raise AssertionError("np.geomspace was called")

    monkeypatch.setattr(harness.np, "geomspace", no_grid)
    assert run_cli([command, "--epsilon-grid", "log:0.01:0.4:100000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: log grid size must lie in 0..1048576, got 100000000000"
    ]


class TestBounds:
    @pytest.mark.parametrize("stages", ["0", "1048577", "9223372036854775807"])
    def test_partial_stages_out_of_range_exits_one_before_any_row(
        self, stages, monkeypatch, capsys
    ):
        def no_row(*args):
            raise AssertionError("bound_report was called")

        monkeypatch.setattr(cli, "bound_report", no_row)
        assert run_cli(["bounds", "--epsilons", "0.25,0.7", "--partial-stages", stages]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --partial-stages must lie in 1..1048576, got {stages}"
        ]

    def test_single_epsilon_row(self, capsys):
        code = run_cli(["bounds", "--epsilon", "0.25"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "epsilon,upper,lower_closed,lower_partial_S,ratio_upper,ratio_lower"
        cells = lines[1].split(",")
        assert float(cells[1]) == upper_bound_linint(0.25)

    def test_epsilon_half_row_warns_and_fills_nan(self, capsys):
        code = run_cli(["bounds", "--epsilon", "0.5"])
        assert code == 0
        captured = capsys.readouterr()
        cells = captured.out.splitlines()[1].split(",")
        assert float(cells[1]) == (7.0 / 6.0) ** 0.25
        assert cells[2] == "nan"
        assert "warning" in captured.err

    def test_log_grid(self, capsys):
        code = run_cli(["bounds", "--epsilon-grid", "log:0.01:0.4:7"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8

    def test_epsilon_above_one_is_usage_error(self, capsys):
        assert run_cli(["bounds", "--epsilon", "1.5"]) == 1

    def test_file_output(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--epsilon", "0.25", "--out", str(out)]) == 0
        assert out.read_text().startswith("epsilon,upper")


class TestAudit:
    def test_small_audit_report(self, capsys):
        code = run_cli(
            ["audit", "--runs", "5", "--seed", "7", "--stages", "6",
             "--max-trials", "100"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 5
        assert doc["violations"] == []

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            ["audit", "--runs", "2", "--stages", "5", "--max-trials", "50",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["runs"] == 2

    def test_unwritable_report_path_exits_three_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_audit(*args, **kwargs):
            raise AssertionError("run_invariant_audit was called")

        monkeypatch.setattr(cli, "run_invariant_audit", no_audit)
        out = tmp_path / "no" / "such" / "dir" / "report.json"
        assert run_cli(["audit", "--runs", "1000", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:")
        assert "Traceback" not in err

    def test_failed_audit_leaves_an_old_report_whole(self, tmp_path, monkeypatch, capsys):
        def failing_audit(*args, **kwargs):
            raise DomainError("no audit")

        out = tmp_path / "report.json"
        out.write_bytes(b"old report\n")
        monkeypatch.setattr(cli, "run_invariant_audit", failing_audit)
        assert run_cli(["audit", "--runs", "2", "--out", str(out)]) == 1
        capsys.readouterr()
        assert out.read_bytes() == b"old report\n"

    def test_violations_exit_two_with_the_report_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "SLOPE_TOL", -1.0)
        out = tmp_path / "report.json"
        out.write_bytes(b"old report\n")
        argv = ["audit", "--runs", "2", "--stages", "2", "--max-trials", "20"]
        assert run_cli([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        report = json.loads(out.read_text())
        violations = report["violations"]
        assert len(violations) == 15
        assert all(": committed slope " in v for v in violations)
        assert captured.err == "\n".join(["invariant audit failed:", *violations]) + "\n"
        assert report["runs"] == 2 and report["adversary_stages"] == 2
        # Without --out the report goes nowhere: stdout stays empty.
        assert run_cli(argv) == 2
        assert capsys.readouterr() == (captured.out, captured.err)

    def test_bad_flags_leave_no_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["audit", "--runs", "-1", "--out", str(out)]) == 1
        capsys.readouterr()
        assert not out.exists()

    @pytest.mark.parametrize("max_trials", ["9223372036854775807", "10000000000000"])
    def test_max_trials_above_the_ceiling_exits_one_before_any_run(
        self, max_trials, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("audit_trace_run was called")

        monkeypatch.setattr(harness, "audit_trace_run", no_run)
        assert run_cli(["audit", "--runs", "1", "--max-trials", max_trials]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: max_trials must lie in 2..16777216")
        assert max_trials in err


    @pytest.mark.parametrize("where", ["argv", "config"])
    def test_runs_above_the_ceiling_exits_one_before_any_run(
        self, where, tmp_path, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("audit_trace_run was called")

        monkeypatch.setattr(harness, "audit_trace_run", no_run)
        argv = ["audit", "--stages", "3"]
        if where == "argv":
            argv += ["--runs", BIG]
        else:
            (tmp_path / "c.json").write_text(f'{{"runs": {BIG}}}')
            argv += ["--config", str(tmp_path / "c.json")]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: runs must lie in 0..1048576, got {BIG}"]


class TestEval:
    def test_prints_value_then_functionals(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(function_to_json(from_points([(0.0, 0.0), (1.0, 1.0)])))
        code = run_cli(["eval", "--function", str(path), "--x", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0.5"
        assert lines[1] == "energy = 1"
        assert lines[2] == "norm_1 = 1"
        assert lines[3] == "norm_2 = 1"
        assert lines[4] == "norm_inf = 1"

    def test_zero_function_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"knots": []}')
        code = run_cli(["eval", "--function", str(path), "--x", "0.3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "0"

    def test_missing_file_is_io_error(self, capsys):
        assert run_cli(["eval", "--function", "/nope.json", "--x", "0.5"]) == 3

    def test_malformed_function_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert run_cli(["eval", "--function", str(path), "--x", "0.5"]) == 1

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_non_finite_function_file_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(f'{{"knots": [[0.0, 0.0], [0.5, {text}], [1.0, 0.0]]}}')
        assert run_cli(["eval", "--function", str(path), "--x", "0.25"]) == 1
        value = float(text)
        assert capsys.readouterr().err == f"error: knot 1 v must lie in (-inf, inf), got {value!r}\n"

    def test_overflowing_rise_exits_one_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"knots": [[0.0, 1e308], [1.0, -1e308]]}')
        assert run_cli(["eval", "--function", str(path), "--x", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: knot rise from 1e+308 to -1e+308 at u=1.0 is not finite\n"
        )

    def test_overflowing_slope_exits_one_with_one_line(self, tmp_path, capsys):
        # Every value and rise is finite, but 1/5e-324 is not: the 1-norm and
        # the energy would read inf.
        path = tmp_path / "f.json"
        path.write_text('{"knots": [[0.0, 0.0], [5e-324, 1.0], [1.0, 0.0]]}')
        assert run_cli(["eval", "--function", str(path), "--x", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: slope of the segment from u=0.0 to u=5e-324 is not finite\n"
        )

    def test_x_outside_domain(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"knots": [[0.0, 0.0]]}')
        assert run_cli(["eval", "--function", str(path), "--x", "1.5"]) == 1
