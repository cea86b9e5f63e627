import io
import json
import math
import os
from dataclasses import astuple, replace

import numpy as np
import pytest
from helpers import worst_audit

from pwlearn import (
    AdversaryConfig,
    AuditFailure,
    DomainError,
    ExperimentConfig,
    UnknownKind,
    derivative_norm,
    is_member,
    kl_d_bound,
    make_learner,
    lower_bound_partial,
    parse_epsilon_grid,
    run_invariant_audit,
    run_match,
    run_sweep,
    sample_target,
    upper_bound_linint,
)
from pwlearn import cli, harness
from pwlearn.harness import write_sweep_csv, SWEEP_CSV_HEADER


class StubRng:
    """Hands out the given draws in order, recording each random() size."""

    def __init__(self, draws, integers=()):
        self.draws, self.integers_left, self.sizes = draws, list(integers), []

    def integers(self, low, high):
        return self.integers_left.pop(0)

    def random(self, size, out=None):
        self.sizes.append(size)
        draw = np.array(self.draws.pop(0), dtype=float)
        if out is None:
            return draw
        out[...] = draw
        return out

    def normal(self, loc, scale, size):
        return np.zeros(size)


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

    def test_a_draw_with_a_repeat_or_an_interior_zero_is_redrawn(self):
        rng = StubRng([[0.5, 0.25, 0.5], [0.75, 0.0, 0.25], [0.75, 0.5, 0.25]])
        f = harness._sample_target_rng(2.0, 5, rng)
        assert f.us == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert rng.sizes == [3, 3, 3] and rng.draws == []

    def test_a_trace_run_with_a_repeated_input_is_drawn_again_at_the_same_size(self):
        # Two knots (no interior draw), then 3 inputs: the first draw repeats 0.5.
        rng = StubRng([[], [0.5, 0.25, 0.5], [0.5, 0.25, 0.75]], integers=[2, 3])
        account, _, _, first_x = harness.audit_trace_run(rng, 10)
        assert rng.sizes == [0, 3, 3] and rng.draws == [] and rng.integers_left == []
        assert account.trials == 2 and first_x == 0.5

    def test_nan_norm_order_is_refused(self):
        with pytest.raises(DomainError, match="norm order"):
            sample_target(math.nan, 4, 0)


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
        "text",
        ["log:0:1:5", "log:0.1:0.4", "log:a:b:5", "0.1,zebra",
         "log:0.01:inf:3", "log:nan:0.3:3", "log:inf:inf:2"],
    )
    def test_bad_specs(self, text):
        with pytest.raises(DomainError):
            parse_epsilon_grid(text)

    def test_grid_size_ceiling_is_checked_before_any_allocation(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(np, "geomspace", lambda a, b, n: sizes.append(n) or [])
        assert parse_epsilon_grid(f"log:0.01:0.4:{1 << 20}") == []
        for n in ((1 << 20) + 1, 100_000_000_000, 9223372036854775807):
            with pytest.raises(DomainError, match="1048576"):
                parse_epsilon_grid(f"log:0.01:0.4:{n}")
        assert sizes == [1 << 20]


class TestExperimentConfig:
    def test_stage_ceiling(self):
        config = ExperimentConfig(stages=25)
        with pytest.raises(DomainError, match="24"):
            config.validate()

    def test_max_trials_ceiling_is_the_adversary_trial_ceiling(self):
        ExperimentConfig(max_trials=1 << 24).validate()
        for bad in (1, (1 << 24) + 1):
            with pytest.raises(DomainError, match="16777216"):
                ExperimentConfig(max_trials=bad).validate()

    def test_sweep_epsilons_use_the_adversary_check(self):
        config = ExperimentConfig(epsilons=[0.2, 0.5], stages=4)
        with pytest.raises(DomainError, match="bounds subcommand"):
            config.validate()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: AdversaryConfig(0.1, 3.5),
            lambda: AdversaryConfig(0.1, "3"),
            lambda: AdversaryConfig(0.1, True),
            lambda: ExperimentConfig(stages=True).validate(),
            lambda: ExperimentConfig(stages=np.float64(3.0)).validate(),
            lambda: ExperimentConfig(runs=1.5).validate(),
            lambda: ExperimentConfig(runs=False).validate(),
            lambda: ExperimentConfig(max_trials=2.5).validate(),
            lambda: ExperimentConfig(seed=1.5).validate(),
            lambda: ExperimentConfig(seed=-1).validate(),
        ],
        ids=[
            "adversary-float", "adversary-str", "adversary-bool", "stages-bool",
            "stages-np-float", "runs-float", "runs-bool", "max-trials-float",
            "seed-float", "seed-negative",
        ],
    )
    def test_non_integer_budget_is_refused_where_it_enters(self, make):
        with pytest.raises(DomainError):
            make()

    def test_numpy_integer_budget_is_stored_as_int(self):
        config = ExperimentConfig(stages=np.int64(3), runs=np.int32(2), max_trials=np.int64(9))
        config.validate()
        assert [type(v) for v in (config.stages, config.runs, config.max_trials)] == [int] * 3
        result = run_match(make_learner("zero"), AdversaryConfig(0.1, np.int64(3)))
        assert type(result.stages) is int
        assert json.loads(json.dumps(result.to_json_dict()))["stages"] == 3


class TestRunSweep:
    def test_rows_sorted_and_sandwiched(self):
        config = ExperimentConfig(epsilons=[0.25, 0.4, 0.1], stages=8, learner="linint")
        rows = list(run_sweep(config))
        assert [row.epsilon for row in rows] == [0.1, 0.25, 0.4]
        for row in rows:
            assert row.lower_partial == lower_bound_partial(row.epsilon, 8)
            assert row.upper_linint == upper_bound_linint(row.epsilon)
            assert row.lower_partial <= row.total_loss <= row.upper_linint
            assert row.loss_times_sqrt_eps == row.total_loss * math.sqrt(row.epsilon)

    def test_empty_grid(self):
        config = ExperimentConfig(epsilons=[], stages=8)
        assert list(run_sweep(config)) == []

    def test_unknown_learner_is_refused_before_anything_is_written(self):
        buf = io.StringIO()
        config = ExperimentConfig(learner="bogus", epsilons=[0.1])
        with pytest.raises(UnknownKind, match="unknown learner kind 'bogus'"):
            write_sweep_csv(run_sweep(config), buf)
        assert buf.getvalue() == ""

    def test_writes_csv_file_row_by_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = ExperimentConfig(epsilons=[0.3, 0.2], stages=6)
        rows = list(run_sweep(config))
        write_sweep_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.2
        # round-trip: the file reproduces the in-memory rows exactly
        for row, line in zip(rows, lines[1:]):
            assert tuple(float(cell) for cell in line.split(",")) == astuple(row)

    def test_deterministic(self):
        config = ExperimentConfig(epsilons=[0.2], stages=7)
        a = list(run_sweep(config))
        b = list(run_sweep(config))
        assert a == b
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_sweep_csv(a, buf_a)
        write_sweep_csv(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()


class TestInvariantAudit:
    def test_children_spawned_one_at_a_time_equal_spawning_all_at_once(self):
        one_at_a_time = np.random.SeedSequence(7)
        at_once = np.random.SeedSequence(7).spawn(50)
        for child in at_once:
            assert np.array_equal(
                one_at_a_time.spawn(1)[0].generate_state(4), child.generate_state(4)
            )

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


AUDIT = {"runs": 2, "seed": 3, "stages": 3, "max_trials": 20}
MATCHES = [(eps, kind) for eps in harness.DEFAULT_AUDIT_EPSILONS
           for kind in ("zero", "nearest", "linint")]


def _trace_runs():
    # The audit's trace runs, replayed from the children of its seed.
    children = np.random.SeedSequence(AUDIT["seed"]).spawn(AUDIT["runs"])
    return [harness.audit_trace_run(np.random.default_rng(c), AUDIT["max_trials"])
            for c in children]


def _matches():
    # The audit's adversary matches, each with the worst of its audits after
    # every trial, as the audit checks them.
    results = [run_match(make_learner(kind), AdversaryConfig(eps, AUDIT["stages"]))
               for eps, kind in MATCHES]
    return [(f"match eps={eps} learner={kind}", replace(result, audit=worst_audit(result)))
            for (eps, kind), result in zip(MATCHES, results)]


def _need(i):
    return 1 if i == 1 else 2 ** (i - 2)


def _failed_audit():
    with pytest.raises(AuditFailure) as info:
        run_invariant_audit(ExperimentConfig(**AUDIT))
    failure = info.value
    assert failure.report is not None
    assert failure.report.violations == failure.violations
    assert failure.report.runs == AUDIT["runs"]
    assert str(failure) == "invariant audit failed:\n" + "\n".join(failure.violations)
    return failure.violations


class TestAuditFailures:
    """Each violation the audit can report, forced by a tolerance set below
    any observed value or by a run_match whose result breaks the invariant."""

    def test_trace_sums_over_one(self, monkeypatch):
        monkeypatch.setattr(harness, "E2D_TOL", -1.0)
        want = []
        for k, (account, e2d, _, first_x) in enumerate(_trace_runs()):
            assert account.total > 0.0 and e2d > 0.0
            want += [f"run {k}: squared loss {account.total!r} exceeds 1 (first x={first_x!r})",
                     f"run {k}: sum e^2/d = {e2d!r} exceeds 1"]
        assert _failed_audit() == want

    def test_distance_sums_over_their_bounds(self, monkeypatch):
        monkeypatch.setattr(harness, "D_SUM_TOL", -10.0)
        want = [f"run {k}: sum d^{r} = {d_sum!r} exceeds {kl_d_bound(r)!r}"
                for k, (_, _, d_sums, _) in enumerate(_trace_runs())
                for r, d_sum in d_sums.items()]
        assert len(want) == AUDIT["runs"] * len(harness.D_EXPONENTS)
        assert _failed_audit() == want

    def test_energy_residual_and_slope(self, monkeypatch):
        monkeypatch.setattr(harness, "RESIDUAL_TOL", -1.0)
        monkeypatch.setattr(harness, "SLOPE_TOL", -1.0)
        want = []
        for label, result in _matches():
            a = result.audit
            want += [f"{label}: energy recursion residual {a.max_recursion_residual!r}",
                     f"{label}: committed slope {a.max_abs_slope!r}"]
        assert _failed_audit() == want

    def test_a_mid_stage_probe_energy_and_residual(self, monkeypatch):
        # One match's audit after trial 5, inside stage 3 (trials 4..7), and
        # so in no stage-end audit: both violations name that match alone.
        real, m, played = harness._trial_audits, 7, []

        def broken(result):
            audits = real(result)
            if len(played) == m:  # trial t of stage i is column t - i
                audits[:, 5 - 3] = 0.3, 1.0
            played.append(result)
            return audits

        monkeypatch.setattr(harness, "_trial_audits", broken)
        eps, kind = MATCHES[m]
        label = f"match eps={eps} learner={kind}"
        assert _failed_audit() == [f"{label}: energy recursion residual 1.0",
                                   f"{label}: probe energy 0.3 >= 1/4"]

    def test_probe_energy_quota_and_forced_loss(self, monkeypatch):
        real = harness.run_match

        def broken(learner, config, **kwargs):
            result = real(learner, config, **kwargs)
            return replace(
                result,
                audit=replace(result.audit, max_j_probe=0.25),
                per_stage=[replace(s, accepted=_need(s.i) - 1) for s in result.per_stage],
                total_loss=result.lower_partial / 2.0,
            )

        monkeypatch.setattr(harness, "run_match", broken)
        want = []
        for label, result in _matches():
            want.append(f"{label}: probe energy 0.25 >= 1/4")
            want += [f"{label}: stage {s.i} accepted {_need(s.i) - 1} < {_need(s.i)}"
                     for s in result.per_stage]
            want.append(f"{label}: loss {result.lower_partial / 2.0!r} below forced "
                        f"minimum {result.lower_partial!r}")
        assert _failed_audit() == want

    def test_every_violation_in_order(self, monkeypatch):
        for name in ("E2D_TOL", "D_SUM_TOL", "RESIDUAL_TOL", "SLOPE_TOL"):
            monkeypatch.setattr(harness, name, -10.0)

        def broken(learner, config, **kwargs):
            result = run_match(learner, config, **kwargs)
            return replace(
                result,
                audit=replace(result.audit, max_j_probe=math.nan),
                per_stage=[replace(s, accepted=0) for s in result.per_stage],
                total_loss=-1.0,
            )

        monkeypatch.setattr(harness, "run_match", broken)
        violations = _failed_audit()
        kinds = [v.split(": ", 1)[1].split(" ")[:2] for v in violations]
        per_run = [["squared", "loss"], *[["sum", f"d^{r}"] for r in harness.D_EXPONENTS],
                   ["sum", "e^2/d"]]
        per_match = [["energy", "recursion"], ["committed", "slope"], ["probe", "energy"],
                     *[["stage", str(i)] for i in range(1, AUDIT["stages"] + 1)],
                     ["loss", "-1.0"]]
        assert kinds == per_run * AUDIT["runs"] + per_match * len(MATCHES)


def _run_index(rng):
    # A trace run's generator comes from the k-th child of the audit's seed.
    return rng.bit_generator.seed_seq.spawn_key[-1]


def _patch_runs(monkeypatch, change):
    """Make harness.audit_trace_run call change(k, result) on run k's result."""
    real = harness.audit_trace_run
    monkeypatch.setattr(harness, "audit_trace_run",
                        lambda rng, max_trials: change(_run_index(rng), real(rng, max_trials)))


# Two CPUs (a helper plays the odd runs), one CPU and no fork (one process).
PATHS = {"two CPUs": ({0, 1}, True), "one CPU": ({0}, True), "no fork": ({0, 1}, False)}
SMALL_AUDIT = ["audit", "--seed", "5", "--stages", "3", "--max-trials", "60"]
SMALL_CONFIG = {"seed": 5, "stages": 3, "max_trials": 60}


def _take_path(monkeypatch, path, forks):
    cpus, has_fork = PATHS[path]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    if has_fork:
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    else:
        monkeypatch.delattr(os, "fork")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the audit's helper is forked")
class TestAuditDealer:
    """run_invariant_audit with its trace runs dealt to a forked helper."""

    @pytest.mark.parametrize("runs", [0, 1, 2, 3, 7])
    def test_every_path_gives_the_same_report_and_stdout(self, runs, monkeypatch, capsys):
        seen = {}
        for path in PATHS:
            forks = []
            with monkeypatch.context() as m:
                _take_path(m, path, forks)
                report = run_invariant_audit(ExperimentConfig(runs=runs, **SMALL_CONFIG))
                assert cli.main([*SMALL_AUDIT, "--runs", str(runs)]) == 0
            assert len(forks) == (2 if path == "two CPUs" and runs >= 2 else 0)
            seen[path] = report, capsys.readouterr()
            _no_child_left()
        (report, out), *others = seen.values()
        assert all(o == (report, out) for o in others)
        assert report.runs == runs and out.err == ""
        assert json.loads(out.out) == json.loads(json.dumps(report.to_json_dict()))

    @pytest.mark.parametrize("path", PATHS)
    def test_violations_of_an_even_and_an_odd_run_come_out_in_run_order(
        self, path, monkeypatch, capsys
    ):
        def over_one(k, result):
            account, e2d, d_sums, first_x = result
            return (replace(account, total=2.0), e2d, d_sums, first_x) if k in (2, 5) else result

        _patch_runs(monkeypatch, over_one)
        _take_path(monkeypatch, path, [])
        assert cli.main([*SMALL_AUDIT, "--runs", "7"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and lines[0] == "invariant audit failed:"
        assert [line.split(": ")[0] for line in lines[1:]] == ["run 2", "run 5"]
        assert all(": squared loss 2.0 exceeds 1 (first x=" in line for line in lines[1:])
        _no_child_left()

    def test_a_helper_that_dies_raises_and_the_cli_exits_three(self, monkeypatch, capsys):
        parent = os.getpid()

        def dies(k, result):
            if os.getpid() != parent and k == 3:
                os._exit(1)
            return result

        _patch_runs(monkeypatch, dies)
        _take_path(monkeypatch, "two CPUs", [])
        with pytest.raises(OSError, match="helper process ended early"):
            run_invariant_audit(ExperimentConfig(runs=7, **SMALL_CONFIG))
        _no_child_left()
        assert cli.main([*SMALL_AUDIT, "--runs", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "i/o error: the helper process ended early\n"
        _no_child_left()

    # Run 3 is the helper's, run 2 this process's own.
    @pytest.mark.parametrize("bad_run", [3, 2])
    def test_a_refused_run_raises_its_error_here(self, bad_run, monkeypatch):
        def refused(k, result):
            if k == bad_run:
                raise DomainError(f"run {k} refused in process {os.getpid()}")
            return result

        _patch_runs(monkeypatch, refused)
        forks = []
        _take_path(monkeypatch, "two CPUs", forks)
        with pytest.raises(DomainError) as info:
            run_invariant_audit(ExperimentConfig(runs=7, **SMALL_CONFIG))
        assert type(info.value) is DomainError and len(forks) == 1
        raised_in = int(str(info.value).rsplit(" ", 1)[1])
        assert str(info.value) == f"run {bad_run} refused in process {raised_in}"
        assert (raised_in == os.getpid()) == (bad_run % 2 == 0)
        _no_child_left()

    def test_an_error_while_folding_the_runs_reaps_the_helper(self, monkeypatch):
        monkeypatch.setattr(harness, "E2D_TOL", None)  # 1.0 + None raises in the fold
        _take_path(monkeypatch, "two CPUs", [])
        with pytest.raises(TypeError) as info:
            run_invariant_audit(ExperimentConfig(runs=7, **SMALL_CONFIG))
        # Reaped while the error still holds the audit's frame and its iterator.
        assert info.tb is not None
        _no_child_left()
