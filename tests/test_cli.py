import json
import math

import pytest

from pwlearn import cli, function_to_json, from_points, lower_bound_partial, upper_bound_linint


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

    def test_rejects_out_of_range_epsilon(self, capsys):
        assert run_cli(["sweep", "--epsilons", "0.6", "--stages", "4"]) == 1


class TestBounds:
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

    def test_x_outside_domain(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"knots": [[0.0, 0.0]]}')
        assert run_cli(["eval", "--function", str(path), "--x", "1.5"]) == 1
