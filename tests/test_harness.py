import io
import math

import pytest

from pwlearn import (
    AuditFailure,
    DomainError,
    ExperimentConfig,
    derivative_norm,
    is_member,
    lower_bound_partial,
    parse_epsilon_grid,
    run_invariant_audit,
    run_sweep,
    sample_target,
    upper_bound_linint,
)
from pwlearn.harness import write_sweep_csv, SWEEP_CSV_HEADER


class TestSampleTarget:
    def test_membership_after_normalization(self):
        for seed in range(30):
            f = sample_target(2.0, 12, seed)
            assert is_member(f, 2.0, 0.0)
            assert derivative_norm(f, 2.0) <= 1.0

    def test_includes_endpoints_and_requested_knot_count(self):
        f = sample_target(2.0, 9, 123)
        assert len(f.us) == 9
        assert f.us[0] == 0.0
        assert f.us[-1] == 1.0

    def test_deterministic_in_the_seed(self):
        assert sample_target(2.0, 8, 77) == sample_target(2.0, 8, 77)
        assert sample_target(2.0, 8, 77) != sample_target(2.0, 8, 78)

    def test_sup_norm_variant(self):
        f = sample_target(math.inf, 6, 5)
        assert derivative_norm(f, math.inf) <= 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_target(0.5, 5, 0)
        with pytest.raises(DomainError):
            sample_target(2.0, 1, 0)


class TestParseEpsilonGrid:
    def test_comma_list(self):
        assert parse_epsilon_grid("0.4,0.2, 0.1") == [0.4, 0.2, 0.1]

    def test_log_grid(self):
        grid = parse_epsilon_grid("log:0.01:0.4:5")
        assert len(grid) == 5
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.4)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_degenerate_sizes(self):
        assert parse_epsilon_grid("log:0.1:0.4:0") == []
        assert parse_epsilon_grid("log:0.1:0.4:1") == [0.1]
        assert parse_epsilon_grid("") == []

    @pytest.mark.parametrize(
        "text", ["log:0:1:5", "log:0.1:0.4", "log:a:b:5", "0.1,zebra"]
    )
    def test_bad_specs(self, text):
        with pytest.raises(DomainError):
            parse_epsilon_grid(text)


class TestExperimentConfig:
    def test_stage_ceiling(self):
        config = ExperimentConfig(stages=25)
        with pytest.raises(DomainError, match="24"):
            config.validate()

    def test_sweep_epsilons_use_the_adversary_check(self):
        config = ExperimentConfig(epsilons=[0.2, 0.5], stages=4)
        with pytest.raises(DomainError, match="bounds subcommand"):
            config.validate()

    def test_bad_epsilon_stops_the_sweep_before_any_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = ExperimentConfig(epsilons=[0.2, 0.7], stages=4, out=str(out))
        with pytest.raises(DomainError):
            run_sweep(config)
        assert not out.exists()


class TestRunSweep:
    def test_rows_sorted_and_sandwiched(self):
        config = ExperimentConfig(epsilons=[0.25, 0.4, 0.1], stages=8, learner="linint")
        rows = run_sweep(config)
        assert [row.epsilon for row in rows] == [0.1, 0.25, 0.4]
        for row in rows:
            assert row.lower_partial == lower_bound_partial(row.epsilon, 8)
            assert row.upper_linint == upper_bound_linint(row.epsilon)
            assert row.lower_partial <= row.total_loss <= row.upper_linint
            assert row.loss_times_sqrt_eps == row.total_loss * math.sqrt(row.epsilon)

    def test_empty_grid(self):
        config = ExperimentConfig(epsilons=[], stages=8)
        assert run_sweep(config) == []

    def test_writes_csv_file_row_by_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = ExperimentConfig(epsilons=[0.3, 0.2], stages=6, out=str(out))
        rows = run_sweep(config)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.2
        # round-trip: the file reproduces the in-memory rows exactly
        for row, line in zip(rows, lines[1:]):
            assert line == ",".join(row.csv_fields())

    def test_deterministic(self):
        config = ExperimentConfig(epsilons=[0.2], stages=7)
        a = run_sweep(config)
        b = run_sweep(config)
        assert a == b
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_sweep_csv(a, buf_a)
        write_sweep_csv(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()


class TestInvariantAudit:
    def test_zero_runs_is_a_trivially_empty_report(self):
        report = run_invariant_audit(ExperimentConfig(runs=0))
        assert report.runs == 0
        assert report.trials_total == 0
        assert report.violations == []
        assert report.worst_e2_over_d == 0.0

    def test_small_audit_passes(self):
        config = ExperimentConfig(runs=25, seed=11, stages=8, max_trials=300)
        report = run_invariant_audit(config)
        assert report.violations == []
        assert report.runs == 25
        assert report.trials_total > 0
        assert 0.0 < report.worst_e2_over_d <= 1.0 + 1e-9
        assert report.worst_p2_loss <= 1.0 + 1e-9
        for r, bound in report.d_bounds.items():
            assert report.d_sums[r] <= bound + 1e-9
        assert report.max_abs_slope <= 1.0 + 1e-12
        assert report.max_j_probe < 0.25
        assert report.max_energy_residual <= 1e-10
        assert report.adversary_stages == 8

    def test_report_serializes(self):
        report = run_invariant_audit(ExperimentConfig(runs=0))
        doc = report.to_json_dict()
        assert doc["runs"] == 0
        assert doc["violations"] == []

    def test_audit_failure_carries_details(self):
        failure = AuditFailure("boom", violations=["a", "b"], report=None)
        assert failure.violations == ["a", "b"]
        assert failure.report is None
