import io
import math

import numpy as np
import pytest

from pwlearn import (
    DegenerateInput,
    DomainError,
    DuplicateConflict,
    LinintLearner,
    NearestLearner,
    TrialRecord,
    UnknownKind,
    ZeroLearner,
    derivative_norm,
    evaluate,
    from_points,
    kl_d_bound,
    kl_invariants,
    make_learner,
    run_trials,
    write_trace_csv,
)
from pwlearn.learner import TRACE_HEADER

from helpers import random_function


def target_sequence(rng, target, m):
    xs = rng.random(m)
    while np.unique(xs).size != m:
        xs = rng.random(m)
    return [(float(x), evaluate(target, float(x))) for x in xs]


class TestLinintPredict:
    """The one-shot oracle for LININT: interpolate the bag of observations."""

    def test_empty_history_predicts_zero(self):
        assert evaluate(from_points([]), 0.3) == 0.0

    def test_single_observation_extends_constantly(self):
        assert evaluate(from_points([(0.5, 0.3)]), 0.25) == 0.3

    def test_chord_midpoint(self):
        assert evaluate(from_points([(0.0, 0.0), (1.0, 1.0)]), 0.5) == 0.5

    def test_domain_check_applies_even_to_empty_history(self):
        with pytest.raises(DomainError):
            evaluate(from_points([]), 1.5)
        with pytest.raises(DomainError):
            LinintLearner().predict(1.5)

    def test_agrees_with_stateful_learner_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            target = random_function(rng)
            history = [
                (float(x), evaluate(target, float(x))) for x in rng.random(15)
            ]
            learner = LinintLearner()
            for x, y in history:
                learner.observe(x, y)
            oracle = from_points(history)
            for x in rng.random(30):
                x = float(x)
                assert learner.predict(x) == evaluate(oracle, x)


class TestMakeLearner:
    def test_zero(self):
        learner = make_learner("zero")
        learner.observe(0.2, 5.0)
        assert learner.predict(0.7) == 0.0

    def test_nearest_picks_closest(self):
        learner = make_learner("nearest")
        learner.observe(0.2, 5.0)
        learner.observe(0.9, 1.0)
        assert learner.predict(0.3) == 5.0

    def test_nearest_tie_goes_to_smaller_coordinate(self):
        learner = make_learner("nearest")
        learner.observe(0.2, 5.0)
        learner.observe(0.4, 7.0)
        assert learner.predict(0.3) == 5.0
        assert learner.predict(0.0) == 5.0
        assert learner.predict(1.0) == 7.0

    def test_nearest_repeated_input_keeps_latest_label(self):
        learner = make_learner("nearest")
        learner.observe(0.2, 5.0)
        learner.observe(0.6, 1.0)
        learner.observe(0.2, -3.0)
        assert learner.predict(0.2) == -3.0
        assert learner.predict(0.3) == -3.0
        assert learner.predict(0.0) == -3.0

    def test_nearest_before_any_observation(self):
        assert make_learner("nearest").predict(0.5) == 0.0

    def test_linint_interpolates(self):
        learner = make_learner("linint")
        learner.observe(0.25, 1.0)
        learner.observe(0.75, 3.0)
        assert learner.predict(0.5) == 2.0

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            make_learner("oracle")

    def test_kind_labels(self):
        assert isinstance(make_learner("zero"), ZeroLearner)
        assert isinstance(make_learner("nearest"), NearestLearner)
        assert isinstance(make_learner("linint"), LinintLearner)


class TestLinintLearner:
    def test_answers_observed_points_exactly(self):
        learner = LinintLearner()
        pts = [(0.1, 0.123456), (0.9, -4.2), (0.4, 1e-17)]
        for x, y in pts:
            learner.observe(x, y)
        for x, y in pts:
            assert learner.predict(x) == y

    def test_re_observing_same_pair_is_fine(self):
        learner = LinintLearner()
        learner.observe(0.5, 1.0)
        learner.observe(0.5, 1.0)
        assert learner.predict(0.5) == 1.0

    def test_conflicting_label_raises(self):
        learner = LinintLearner()
        learner.observe(0.5, 1.0)
        with pytest.raises(DuplicateConflict):
            learner.observe(0.5, 2.0)

    def test_history_function(self):
        learner = LinintLearner()
        learner.observe(0.75, 3.0)
        learner.observe(0.25, 1.0)
        assert learner.history() == from_points([(0.25, 1.0), (0.75, 3.0)])


class TestRunTrials:
    def test_single_error_squared(self):
        records, account = run_trials(ZeroLearner(), [(1.0, 0.0), (0.5, 0.25)], p=2.0)
        assert account.total == 0.0625
        assert account.trials == 1
        assert records[0] == TrialRecord(0, 1.0, None, 0.0, None, None, None)
        assert records[1].e == 0.25
        assert records[1].d == 0.5
        assert records[1].loss_term == 0.0625

    def test_linint_exact_on_zero_function(self):
        seq = [(0.2, 0.0), (0.8, 0.0), (0.5, 0.0), (0.1, 0.0)]
        _, account = run_trials(LinintLearner(), seq, p=1.5)
        assert account.total == 0.0

    def test_distance_is_minimum_over_all_earlier_inputs(self):
        seq = [(0.0, 0.0), (1.0, 0.0), (0.4, 0.0), (0.45, 0.0)]
        records, _ = run_trials(ZeroLearner(), seq, p=2.0)
        assert [r.d for r in records[1:]] == [1.0, 0.4, pytest.approx(0.05)]

    def test_repeated_coordinate_gets_zero_distance(self):
        records, _ = run_trials(ZeroLearner(), [(0.5, 1.0), (0.5, 1.0)], p=2.0)
        assert records[1].d == 0.0

    def test_rejects_bad_exponent_and_coordinates(self):
        with pytest.raises(DomainError):
            run_trials(ZeroLearner(), [(0.5, 0.0)], p=1.0)
        with pytest.raises(DomainError):
            run_trials(ZeroLearner(), [(1.5, 0.0)], p=2.0)

    def test_empty_sequence(self):
        records, account = run_trials(ZeroLearner(), [], p=2.0)
        assert records == []
        assert account.total == 0.0
        assert account.trials == 0

    def test_conflict_propagates_from_learner(self):
        with pytest.raises(DuplicateConflict):
            run_trials(LinintLearner(), [(0.5, 1.0), (0.5, 2.0)], p=2.0)

    def test_nan_label_is_rejected(self):
        seq = [(0.5, 0.0), (0.25, math.nan), (0.75, 0.0)]
        for kind in ("zero", "nearest", "linint"):
            with pytest.raises(DomainError, match="not finite"):
                run_trials(make_learner(kind), seq, p=2.0)

    def test_nan_prediction_is_rejected(self):
        class NanLearner(ZeroLearner):
            def predict(self, x):
                return math.nan

        with pytest.raises(DomainError, match="not finite"):
            run_trials(NanLearner(), [(0.5, 0.0), (0.25, 0.0)], p=2.0)

    def test_cumulative_loss_never_decreases(self):
        rng = np.random.default_rng(5)
        target = random_function(rng)
        seq = target_sequence(rng, target, 200)
        records, account = run_trials(make_learner("nearest"), seq, p=1.25)
        cum = 0.0
        for rec in records[1:]:
            assert rec.loss_term >= 0.0
            cum += rec.loss_term
        assert cum == pytest.approx(account.total, rel=1e-15)


class TestKlInvariants:
    def test_direct_arithmetic(self):
        records = [
            TrialRecord(0, 1.0, None, 0.0, None, None, None),
            TrialRecord(1, 0.5, 0.1, 0.0, 0.1, 0.5, 0.01),
        ]
        e2d, dsum = kl_invariants(records, 2.0)
        assert e2d == pytest.approx(0.02)
        assert dsum == pytest.approx(0.25)

    def test_rejects_repeated_coordinate(self):
        records, _ = run_trials(ZeroLearner(), [(0.5, 1.0), (0.5, 1.0)], p=2.0)
        with pytest.raises(DegenerateInput):
            kl_invariants(records, 2.0)

    def test_rejects_small_exponent(self):
        with pytest.raises(DomainError):
            kl_invariants([], 1.0)

    def test_error_sum_bounded_by_one_for_linint(self):
        # Holds for any target with derivative 2-norm <= 1 and any distinct
        # input sequence; exercised over random targets and orderings.
        rng = np.random.default_rng(17)
        for _ in range(60):
            target = random_function(rng)
            norm = derivative_norm(target, 2.0)
            if norm > 1.0:
                target = from_points(
                    (u, v / norm) for u, v in target.knots
                )
            m = int(rng.integers(2, 400))
            seq = target_sequence(rng, target, m)
            style = rng.integers(0, 4)
            if style == 1:
                seq.sort()
            elif style == 2:
                seq.sort(reverse=True)
            elif style == 3:
                seq.sort(key=lambda pair: abs(pair[0] - 0.5))
            records, _ = run_trials(LinintLearner(), seq, p=2.0)
            e2d, _ = kl_invariants(records, 2.0)
            assert e2d <= 1.0 + 1e-9

    def test_distance_sum_bounded_for_any_sequence(self):
        rng = np.random.default_rng(29)
        for r in (1.1, 1.5, 2.0, 3.0, 7.0):
            bound = kl_d_bound(r)
            for _ in range(40):
                m = int(rng.integers(2, 500))
                seq = [(float(x), 0.0) for x in rng.random(m)]
                records, _ = run_trials(ZeroLearner(), seq, p=2.0)
                _, dsum = kl_invariants(records, r)
                assert dsum <= bound + 1e-9

    def test_distance_sum_near_tight_on_dyadic_fill(self):
        # x0=0, x1=1, then all dyadic midpoints level by level: the sum of
        # d^r approaches 1 + 1/(2^r - 2) from below.
        seq = [(0.0, 0.0), (1.0, 0.0)]
        for level in range(1, 11):
            n = 1 << level
            seq.extend((k / n, 0.0) for k in range(1, n, 2))
        records, _ = run_trials(ZeroLearner(), seq, p=2.0)
        # Residual tail after 10 levels shrinks like 2^((1-r)*levels).
        for r, slack in ((1.5, 0.05), (2.0, 1e-3), (3.0, 1e-6)):
            _, dsum = kl_invariants(records, r)
            bound = kl_d_bound(r)
            assert dsum <= bound + 1e-9
            assert dsum >= bound - slack

    def test_squared_loss_at_most_one_for_linint(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            target = random_function(rng)
            norm = derivative_norm(target, 2.0)
            if norm > 1.0:
                target = from_points((u, v / norm) for u, v in target.knots)
            seq = target_sequence(rng, target, int(rng.integers(2, 300)))
            _, account = run_trials(LinintLearner(), seq, p=2.0)
            assert account.total <= 1.0 + 1e-9


def test_linint_consistency_with_revealed_targets():
    # Once every knot of the generating function has been observed, the
    # learner answers all observed points exactly.
    rng = np.random.default_rng(53)
    for _ in range(20):
        g = random_function(rng, max_knots=10)
        seq = [(u, v) for u, v in g.knots]
        extra = [
            (float(x), evaluate(g, float(x))) for x in rng.random(20)
        ]
        learner = LinintLearner()
        run_trials(learner, seq + extra, p=2.0)
        for x, y in seq + extra:
            assert learner.predict(x) == y


class TestTraceCsv:
    def test_format_and_round_trip(self):
        records, account = run_trials(
            ZeroLearner(), [(1.0, 0.0), (0.5, 0.25), (0.1, 0.7)], p=1.25
        )
        buf = io.StringIO()
        write_trace_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        first = lines[1].split(",")
        assert first == ["0", "1", "", "0", "", "", "", ""]
        cum = 0.0
        for rec, line in zip(records[1:], lines[2:]):
            cells = line.split(",")
            assert float(cells[1]) == rec.x
            assert float(cells[2]) == rec.y_hat
            assert float(cells[3]) == rec.y
            assert float(cells[4]) == rec.e
            assert float(cells[5]) == rec.d
            assert float(cells[6]) == rec.loss_term
            cum += rec.loss_term
            assert float(cells[7]) == cum
        assert cum == account.total

    def test_writes_to_path(self, tmp_path):
        records, _ = run_trials(ZeroLearner(), [(1.0, 0.0), (0.5, 0.25)], p=2.0)
        out = tmp_path / "trace.csv"
        write_trace_csv(records, out)
        assert out.read_text().startswith("t,x,y_hat,y,e,d,loss_term,cum_loss")
