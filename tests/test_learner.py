import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sortedcontainers import SortedList

from pwlearn import (
    AdversaryConfig,
    DegenerateInput,
    DomainError,
    DuplicateConflict,
    LEARNER_KINDS,
    LinintLearner,
    NearestLearner,
    Trace,
    UnknownKind,
    ZeroLearner,
    derivative_norm,
    evaluate,
    from_points,
    kl_d_bound,
    kl_invariants,
    make_learner,
    run_match,
    run_trials,
    write_trace_csv,
)
from pwlearn import harness
from pwlearn import learner as learner_module
from pwlearn.learner import TRACE_HEADER, scalar_predictions, write_csv

from helpers import (
    audit_trace_run_oracle, csv_writer_table, csv_writer_trace, kill_the_trace_helper,
    kl_invariants_oracle, linint_history, linked_list_neighbours, random_function,
    run_trials_oracle,
)


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
        assert LEARNER_KINDS == ("linint", "zero", "nearest")
        assert [make_learner(kind).kind for kind in LEARNER_KINDS] == list(LEARNER_KINDS)
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
        assert linint_history(learner) == from_points([(0.25, 1.0), (0.75, 3.0)])


class TestRunTrials:
    def test_single_error_squared(self):
        trace, account = run_trials(ZeroLearner(), [(1.0, 0.0), (0.5, 0.25)], p=2.0)
        assert account.total == 0.0625
        assert account.trials == 1
        assert len(trace) == 2
        assert (trace.x[0], trace.y[0]) == (1.0, 0.0)
        for column in (trace.y_hat, trace.e, trace.d, trace.loss_term):
            assert math.isnan(column[0])
        assert trace.e[1] == 0.25
        assert trace.d[1] == 0.5
        assert trace.loss_term[1] == 0.0625

    def test_linint_exact_on_zero_function(self):
        seq = [(0.2, 0.0), (0.8, 0.0), (0.5, 0.0), (0.1, 0.0)]
        _, account = run_trials(LinintLearner(), seq, p=1.5)
        assert account.total == 0.0

    def test_distance_is_minimum_over_all_earlier_inputs(self):
        seq = [(0.0, 0.0), (1.0, 0.0), (0.4, 0.0), (0.45, 0.0)]
        trace, _ = run_trials(ZeroLearner(), seq, p=2.0)
        assert trace.d[1:].tolist() == [1.0, 0.4, pytest.approx(0.05)]

    def test_repeated_coordinate_gets_zero_distance(self):
        trace, _ = run_trials(ZeroLearner(), [(0.5, 1.0), (0.5, 1.0)], p=2.0)
        assert trace.d[1] == 0.0

    def test_rejects_bad_exponent_and_coordinates(self):
        with pytest.raises(DomainError):
            run_trials(ZeroLearner(), [(0.5, 0.0)], p=1.0)
        with pytest.raises(DomainError):
            run_trials(ZeroLearner(), [(1.5, 0.0)], p=2.0)

    @pytest.mark.parametrize("pairs", [[("a", 1.0)], [(1j, 0.0)], [[0.1, 0.2], [0.3]]],
                             ids=["text", "complex", "ragged"])
    def test_rejects_pairs_that_are_not_reals(self, pairs):
        # numpy's own ValueError or TypeError would name no argument.
        with pytest.raises(DomainError, match=r"expected \(x, y\) pairs of real numbers: "):
            run_trials(ZeroLearner(), pairs, p=2.0)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2,), (2, 2, 2)])
    def test_rejects_an_array_of_anything_but_pairs(self, shape):
        with pytest.raises(DomainError, match=rf"expected \(x, y\) pairs, got an array of shape"):
            run_trials(ZeroLearner(), np.zeros(shape), p=2.0)

    def test_empty_sequence(self):
        trace, account = run_trials(ZeroLearner(), [], p=2.0)
        assert len(trace) == 0
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
        trace, account = run_trials(make_learner("nearest"), seq, p=1.25)
        cum = 0.0
        for term in trace.loss_term[1:].tolist():
            assert term >= 0.0
            cum += term
        assert cum == pytest.approx(account.total, rel=1e-15)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["x", "y"])
    def test_non_finite_input_is_rejected_before_any_prediction(self, bad, column):
        learner = CountingLearner()
        seq = [(0.5, 0.0), (0.25, 1.0), (0.75, 0.0)]
        seq[2] = (bad, 0.0) if column == "x" else (0.75, bad)
        with pytest.raises(DomainError, match="trial 2: .* not finite"):
            run_trials(learner, seq, p=2.0)
        assert learner.calls == 0

    def test_coordinate_outside_unit_interval_names_the_trial(self):
        learner = CountingLearner()
        with pytest.raises(DomainError, match="trial 1: .* outside"):
            run_trials(learner, [(0.5, 0.0), (1.5, 0.0)], p=2.0)
        assert learner.calls == 0

    @pytest.mark.parametrize("kind", ["zero", "linint"])
    def test_overflowing_loss_term_is_a_domain_error(self, kind):
        # zero runs the scalar loop, a fresh linint the offline path.
        with pytest.raises(DomainError, match="overflows"):
            run_trials(make_learner(kind), [(0.5, 0.0), (0.25, 1e300)], p=2.0)

    @pytest.mark.parametrize(
        "y_hat, labels, message",
        [(1e300, [1.0], "overflows"), (math.inf, [1.0], "total loss inf is not finite"),
         # Two finite terms of 1e308 whose total overflows.
         (0.0, [1e154, 1e154], "total loss inf is not finite; labels and predictions must be")],
    )
    def test_huge_prediction_is_a_domain_error_without_warnings(self, y_hat, labels, message):
        class FixedLearner(ZeroLearner):
            def predict(self, x):
                return y_hat

        pairs = [(0.5, 0.0), *zip((0.25, 0.75), labels)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                run_trials(FixedLearner(), pairs, p=2.0)


class CountingLearner(ZeroLearner):
    def __init__(self):
        self.calls = 0

    def predict(self, x):
        self.calls += 1
        return 0.0


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
finite_pairs = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1e6, max_value=1e6),
)


@given(st.lists(finite_pairs, min_size=1, max_size=20), st.data())
def test_any_non_finite_value_is_refused_at_its_trial(pairs, data):
    k = data.draw(st.integers(0, len(pairs) - 1))
    bad = data.draw(non_finite)
    x, y = pairs[k]
    pairs[k] = data.draw(st.sampled_from([(bad, y), (x, bad)]))
    learner = CountingLearner()
    with pytest.raises(DomainError, match=f"trial {k}: .* not finite"):
        run_trials(learner, pairs, p=2.0)
    assert learner.calls == 0


class ScalarLinint(LinintLearner):
    """Not exactly LinintLearner, so run_trials drives it through the scalar loop."""


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _bisect_distances(xs):
    """d as the per-trial SortedList scan computed it: the nearer of the
    bisect_left neighbours among the earlier inputs, the left one on ties."""
    seen = SortedList()
    out = []
    for t, x in enumerate(xs):
        if t:
            i = seen.bisect_left(x)
            d_left = x - seen[i - 1] if i > 0 else None
            d_right = seen[i] - x if i < len(seen) else None
            if d_left is None:
                out.append(d_right)
            elif d_right is None:
                out.append(d_left)
            else:
                out.append(d_left if d_left <= d_right else d_right)
        seen.add(x)
    return out


def _arrange(seq, order):
    if order == "sorted":
        return sorted(seq)
    if order == "reversed":
        return sorted(seq, reverse=True)
    if order == "centre-out":
        return sorted(seq, key=lambda pair: abs(pair[0] - 0.5))
    return seq


def _dyadic_fill(levels):
    xs = [0.0, 1.0]
    for level in range(1, levels + 1):
        n = 1 << level
        xs.extend(k / n for k in range(1, n, 2))
    return xs


@pytest.fixture
def offline_calls(monkeypatch):
    """Counts run_trials' trips through the offline LININT path: the number of
    inputs each filled its learner with."""
    calls = []
    real = learner_module._fill

    def spy(learner, knots):
        calls.append(len(knots()[0]))
        return real(learner, knots)

    monkeypatch.setattr(learner_module, "_fill", spy)
    return calls


class TestOfflineLinint:
    """The offline path against the scalar predict/observe loop, bit for bit."""

    def _check_against_scalar_loop(self, seq, p, offline_calls):
        fast, slow = LinintLearner(), ScalarLinint()
        fast_trace, fast_account = run_trials(fast, seq, p=p)
        slow_trace, slow_account = run_trials(slow, seq, p=p)
        assert offline_calls == [len(seq)]
        for column in fields(Trace):
            name = column.name
            assert _same_bits(getattr(fast_trace, name), getattr(slow_trace, name)), name
        assert fast_account == slow_account
        xs, ys = [x for x, _ in seq], [y for _, y in seq]
        oracle = scalar_predictions(LinintLearner(), xs, ys)
        assert _same_bits(fast_trace.y_hat[1:], oracle[1:])
        # The bulk-filled state is what observing every pair leaves, and it is
        # the learner's own: writing over the trace leaves it be.
        fast_trace.x[:] = fast_trace.y[:] = math.nan
        assert list(fast._xs) == list(slow._xs)
        assert list(fast._vals.items()) == list(slow._vals.items())
        for x, y in seq:
            assert fast.predict(x) == y

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 500, 2000])
    @pytest.mark.parametrize("order", ["sorted", "reversed", "centre-out", "random"])
    def test_equals_scalar_loop(self, n, order, offline_calls):
        rng = np.random.default_rng(n)
        target = random_function(rng)
        seq = _arrange(target_sequence(rng, target, n), order)
        self._check_against_scalar_loop(seq, 2.0, offline_calls)

    def test_equals_scalar_loop_on_dyadic_fill(self, offline_calls):
        rng = np.random.default_rng(3)
        target = random_function(rng)
        seq = [(x, evaluate(target, x)) for x in _dyadic_fill(10)]
        self._check_against_scalar_loop(seq, 1.25, offline_calls)

    def test_repeats_take_the_scalar_loop(self, offline_calls):
        seq = [(0.5, 1.0), (0.25, 0.0), (0.5, 1.0), (0.75, 2.0)]
        trace, _ = run_trials(LinintLearner(), seq, p=2.0)
        assert offline_calls == []
        assert trace.d[2] == 0.0
        assert trace.y_hat[2] == 1.0
        assert trace.y_hat[3] == 1.0

    def test_conflicting_repeat_still_raises(self, offline_calls):
        with pytest.raises(DuplicateConflict):
            run_trials(LinintLearner(), [(0.5, 1.0), (0.25, 0.0), (0.5, 2.0)], p=2.0)
        assert offline_calls == []

    def test_learner_with_history_takes_the_scalar_loop(self, offline_calls):
        learner = LinintLearner()
        learner.observe(0.5, 1.0)
        trace, _ = run_trials(learner, [(0.25, 0.0), (0.75, 2.0)], p=2.0)
        assert offline_calls == []
        assert trace.y_hat[1] == 1.0

    @pytest.mark.parametrize("kind", ["zero", "nearest"])
    def test_other_kinds_take_the_scalar_loop(self, kind, offline_calls):
        run_trials(make_learner(kind), [(0.25, 0.0), (0.75, 2.0)], p=2.0)
        assert offline_calls == []

    def test_distances_match_the_bisect_scan_with_repeats_and_signed_zeros(self):
        rng = np.random.default_rng(8)
        grid = [-0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
        for _ in range(200):
            xs = [grid[k] for k in rng.integers(0, len(grid), int(rng.integers(1, 12)))]
            trace, _ = run_trials(ZeroLearner(), [(x, 0.0) for x in xs], p=2.0)
            want = _bisect_distances(xs)
            got = trace.d[1:].tolist()
            assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]

    @pytest.mark.parametrize("n", [5, 64, 1000, 4096])
    def test_a_repeat_among_distinct_inputs_takes_the_stable_sort(self, n, offline_calls):
        # The default argsort breaks ties differently from the stable one, so
        # one repeated pair, or runs of signed zeros, must send run_trials to
        # the stable sort, and linint to the scalar loop.
        rng = np.random.default_rng(n)
        xs = rng.random(n)
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        xs[j] = xs[i]
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        signed = np.where(rng.random(n) < 0.2, 0.5, zeros)
        for inputs in (xs, signed):
            pairs = [(x, x) for x in inputs.tolist()]
            trace, _ = run_trials(LinintLearner(), pairs, p=2.0)
            want = _bisect_distances(inputs.tolist())
            assert [v.hex() for v in trace.d[1:].tolist()] == [v.hex() for v in want]
        assert offline_calls == []

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 1000, 4096])
    @pytest.mark.parametrize("kind", ["random", "sorted", "reversed", "dyadic"])
    def test_distinct_inputs_give_the_stable_sort_trace(self, n, kind, offline_calls):
        # Distinct inputs have one sorting order, whichever sort finds it:
        # d from the stable-sort linked-list oracle, the predictions from the
        # scalar loop, every column by its bits.
        rng = np.random.default_rng(n)
        if kind == "dyadic":
            xs = rng.permutation(n) / 4096.0
        else:
            xs = _neighbour_inputs(kind, n, rng)
        ys = np.sin(7.0 * xs)
        trace, _ = run_trials(LinintLearner(), np.column_stack((xs, ys)), p=2.0)
        assert offline_calls == [n]
        left, right, _ = linked_list_neighbours(xs)
        dl = np.where(left < 0, math.inf, xs - xs[left])
        dr = np.where(right < 0, math.inf, xs[right] - xs)
        d = np.where(dl <= dr, dl, dr)
        y_hat = np.array(scalar_predictions(LinintLearner(), xs.tolist(), ys.tolist()))
        e = np.abs(y_hat - ys)
        want = {"d": d, "y_hat": y_hat, "e": e, "loss_term": [math.pow(v, 2.0) for v in e]}
        for name, column in want.items():
            got = [v.hex() for v in getattr(trace, name)[1:].tolist()]
            assert got == [float(v).hex() for v in column[1:]], name


def _neighbour_inputs(kind, n, rng):
    if kind == "random":
        return rng.random(n)
    if kind == "sorted":
        return np.sort(rng.random(n))
    if kind == "reversed":
        return np.sort(rng.random(n))[::-1].copy()
    if kind == "coarse-grid":
        return rng.integers(0, 9, n) / 8.0
    # Signed zeros compare equal, so only a stable sort keeps the earlier one
    # on the left; inputs of 0.5 mixed in give the zeros a right neighbour.
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return np.where(rng.random(n) < 0.2, 0.5, zeros)


def _chain(n):
    # Trial 0 holds the largest input and every later trial a larger one than
    # the trial before, so trial 0's left chain is n - 1 lanes long.
    return np.concatenate(([1.0], np.arange(n - 1) / n))


@pytest.fixture
def chain_walks(monkeypatch):
    """Counts _earlier_neighbours' trips through the scalar chain walk."""
    calls = []
    real = learner_module._walk_chains

    def spy(cand, when, moving):
        calls.append(len(moving))
        return real(cand, when, moving)

    monkeypatch.setattr(learner_module, "_walk_chains", spy)
    return calls


class TestEarlierNeighbours:
    """Pointer jumping against the linked-list oracle, array for array."""

    def _check(self, xs):
        left, right, order = linked_list_neighbours(xs)
        got = learner_module._earlier_neighbours(order)
        for name, g, w in zip(("left", "right"), got, (left, right)):
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 2000, 5000])
    @pytest.mark.parametrize(
        "kind", ["random", "sorted", "reversed", "coarse-grid", "signed-zeros"]
    )
    def test_equals_linked_list_oracle(self, n, kind):
        self._check(_neighbour_inputs(kind, n, np.random.default_rng(n)))

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_long_chain_is_finished_by_the_scalar_walk(self, n, chain_walks):
        self._check(_chain(n))
        assert chain_walks == [1]

    def test_random_order_needs_no_scalar_walk(self, chain_walks):
        self._check(np.random.default_rng(5).random(5000))
        assert chain_walks == []


class TestKlInvariants:
    def test_direct_arithmetic(self):
        nan = math.nan
        trace = Trace(
            x=np.array([1.0, 0.5]),
            y_hat=np.array([nan, 0.1]),
            y=np.array([0.0, 0.0]),
            e=np.array([nan, 0.1]),
            d=np.array([nan, 0.5]),
            loss_term=np.array([nan, 0.01]),
        )
        e2d, dsum = kl_invariants(trace, 2.0)
        assert e2d == pytest.approx(0.02)
        assert dsum == pytest.approx(0.25)

    def test_rejects_repeated_coordinate(self):
        trace, _ = run_trials(ZeroLearner(), [(0.5, 1.0), (0.5, 1.0)], p=2.0)
        with pytest.raises(DegenerateInput):
            kl_invariants(trace, 2.0)

    def test_rejects_small_exponent(self):
        with pytest.raises(DomainError):
            kl_invariants([], 1.0)

    @staticmethod
    def _with_d(*d):
        # A hand-built trace with the given charged distances; run_trials
        # never makes one outside (0, 1].
        n = len(d) + 1
        column = np.full(n, 0.25)
        return Trace(column, column, column, column, np.array([math.nan, *d]), column)

    @pytest.mark.parametrize(
        "d, trial",
        [((-0.4, 0.4), 1), ((0.4, -0.4), 2), ((0.5, math.nan), 2), ((1e200,), 1),
         ((0.25, 1.0 + 2.0**-52), 2), ((math.inf, 0.5), 1), ((-math.inf,), 1)],
    )
    @pytest.mark.parametrize("r", [(2.0,), (1.5,), (1.5, 2.0, 3.0)])
    def test_refuses_a_d_that_is_not_a_distance(self, d, trial, r):
        with pytest.raises(DomainError, match=f"trial {trial}: d=.* is not a distance"):
            kl_invariants(self._with_d(*d), *r)

    def test_a_zero_d_is_refused_first_as_a_repeat(self):
        for d in ((math.nan, 0.0), (-0.4, -0.0), (0.5, 0.0, 1e200)):
            with pytest.raises(DegenerateInput, match="repeated input coordinate at trial"):
                kl_invariants(self._with_d(*d), 1.5)

    def test_a_d_of_one_is_a_distance(self):
        assert kl_invariants(self._with_d(1.0, 0.5), 2.0) == (0.0625 / 1.0 + 0.0625 / 0.5, 1.25)

    def test_a_huge_error_gives_an_infinite_sum_without_warnings(self):
        trace = replace(self._with_d(0.5, 0.25), e=np.array([math.nan, 1e200, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kl_invariants(trace, 2.0) == (math.inf, 0.3125)

    def test_several_exponents_in_one_call_equal_separate_calls(self):
        rng = np.random.default_rng(19)
        exponents = (1.5, 2.0, 3.0, 1.1, 7.0)
        for m in (2, 3, 17, 500):
            seq = [(float(x), float(y)) for x, y in rng.random((m, 2))]
            trace, _ = run_trials(LinintLearner(), seq, p=2.0)
            got = kl_invariants(trace, *exponents)
            want = [kl_invariants(trace, r) for r in exponents]
            assert [v.hex() for v in got] == [
                want[0][0].hex(), *(d_sum.hex() for _, d_sum in want)
            ]
            assert kl_invariants(trace, r=2.0) == want[1]
        repeated, _ = run_trials(ZeroLearner(), [(0.5, 1.0), (0.25, 0.0), (0.5, 1.0)], p=2.0)
        for args in ((2.0,), (2.0, 3.0), (1.5, 2.0, 3.0)):
            with pytest.raises(DegenerateInput, match="trial 2"):
                kl_invariants(repeated, *args)
        for args in ((1.0,), (2.0, 1.0), (2.0, 3.0, math.nan)):
            with pytest.raises(DomainError, match="exponent"):
                kl_invariants(trace, args[-1])
            with pytest.raises(DomainError, match="exponent"):
                kl_invariants(trace, *args)

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
            trace, _ = run_trials(LinintLearner(), seq, p=2.0)
            e2d, _ = kl_invariants(trace, 2.0)
            assert e2d <= 1.0 + 1e-9

    def test_distance_sum_bounded_for_any_sequence(self):
        rng = np.random.default_rng(29)
        for r in (1.1, 1.5, 2.0, 3.0, 7.0):
            bound = kl_d_bound(r)
            for _ in range(40):
                m = int(rng.integers(2, 500))
                seq = [(float(x), 0.0) for x in rng.random(m)]
                trace, _ = run_trials(ZeroLearner(), seq, p=2.0)
                _, dsum = kl_invariants(trace, r)
                assert dsum <= bound + 1e-9

    def test_distance_sum_near_tight_on_dyadic_fill(self):
        # x0=0, x1=1, then all dyadic midpoints level by level: the sum of
        # d^r approaches 1 + 1/(2^r - 2) from below.
        seq = [(0.0, 0.0), (1.0, 0.0)]
        for level in range(1, 11):
            n = 1 << level
            seq.extend((k / n, 0.0) for k in range(1, n, 2))
        trace, _ = run_trials(ZeroLearner(), seq, p=2.0)
        # Residual tail after 10 levels shrinks like 2^((1-r)*levels).
        for r, slack in ((1.5, 0.05), (2.0, 1e-3), (3.0, 1e-6)):
            _, dsum = kl_invariants(trace, r)
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


@pytest.fixture(params=[1, 7, 64, 4096], ids=lambda size: f"block={size}")
def block(request, monkeypatch):
    """run_trials and kl_invariants working in blocks of the given size (4,096,
    the default, left as it is)."""
    monkeypatch.setattr(learner_module, "_BLOCK", request.param)
    return request.param


def _outcome(call, *args):
    """call(*args), or the type and message of the pwlearn error it raised."""
    try:
        return call(*args)
    except (DomainError, DegenerateInput) as exc:
        return type(exc), str(exc)


class TestBlocks:
    """run_trials and kl_invariants in blocks against the whole-array oracles:
    every column by its bytes, every total by its bits, every refusal by its
    message."""

    def _check(self, make, sequence, exponents=(1.5, 2.0, 3.0)):
        fast, slow = make(), make()
        got = _outcome(run_trials, fast, sequence, 2.0)
        want = _outcome(run_trials_oracle, slow, sequence, 2.0)
        if isinstance(want[0], type):
            assert got == want
            return
        for column in fields(Trace):
            name = column.name
            assert getattr(got[0], name).tobytes() == getattr(want[0], name).tobytes(), name
        assert got[1].total.hex() == want[1].total.hex() and got[1] == want[1]
        got_sums = _outcome(kl_invariants, got[0], *exponents)
        want_sums = _outcome(kl_invariants_oracle, want[0], *exponents)
        if isinstance(want_sums[0], type):
            assert got_sums == want_sums
        else:
            assert [v.hex() for v in got_sums] == [v.hex() for v in want_sums]
        if type(fast) is not ZeroLearner:
            assert list(fast._xs) == list(slow._xs)
            assert list(fast._vals.items()) == list(slow._vals.items())

    def _sizes(self, block):
        # Whole blocks, a block and a bit, and a trace shorter than one block.
        return [0, 1, 2, 3, 2 * block + 1, 2 * block + 2] if block < 4096 else [5, 9000]

    @pytest.mark.parametrize("layout", ["pairs", "columns"])
    def test_fresh_linint(self, block, layout):
        rng = np.random.default_rng(block)
        for n in self._sizes(block):
            xs = rng.random(n)
            ys = np.sin(9.0 * xs)
            if layout == "pairs":
                self._check(LinintLearner, list(zip(xs.tolist(), ys.tolist())))
            else:
                self._check(LinintLearner, np.array([xs, ys]).T)

    @pytest.mark.parametrize("kind", ["zero", "nearest"])
    def test_loop_learner(self, block, kind):
        rng = np.random.default_rng(block)
        for n in self._sizes(block):
            self._check(lambda: make_learner(kind), rng.random((n, 2)))

    @pytest.mark.parametrize("kind", ["zero", "linint"])
    def test_repeated_inputs(self, block, kind):
        # Repeats, signed zeros among them, give d = 0 and DegenerateInput in
        # kl_invariants; a linint that sees one repeat with its label plays
        # the scalar loop.
        rng = np.random.default_rng(block)
        for n in self._sizes(block):
            xs = np.where(rng.random(n) < 0.5, -0.0, rng.integers(0, 5, n) / 4.0)
            self._check(lambda: make_learner(kind), np.array([xs, xs * xs]).T)

    @pytest.mark.parametrize("kind", ["zero", "linint"])
    def test_a_d_outside_the_unit_interval_names_its_trial(self, block, kind):
        rng = np.random.default_rng(block)
        n = self._sizes(block)[-1]
        trace, _ = run_trials(make_learner(kind), rng.random((n, 2)), 2.0)
        for t in (1, n // 2, n - 1):
            d = trace.d.copy()
            d[t] = 2.0
            bad = replace(trace, d=d)
            assert _outcome(kl_invariants, bad, 2.0) == _outcome(kl_invariants_oracle, bad, 2.0)
            assert _outcome(kl_invariants, bad, 2.0)[1].startswith(f"trial {t}: d=2.0 ")

    @pytest.mark.parametrize("kind", ["zero", "linint"])
    @pytest.mark.parametrize("labels", ["one huge last", "all large"])
    def test_an_overflowing_loss(self, block, kind, labels):
        # A loss term that overflows in the last block, after finite ones, and
        # terms each finite whose total overflows.
        rng = np.random.default_rng(block)
        n = self._sizes(block)[-1]
        pairs = rng.random((n, 2))
        if labels == "one huge last":
            pairs[n - 1, 1] = 1e300
        else:
            pairs[:, 1] = 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._check(lambda: make_learner(kind), pairs)

    @pytest.mark.parametrize("first", ["nan", "overflow"])
    def test_the_first_refused_block_names_the_problem(self, block, first):
        # A NaN prediction and a loss term that overflows, in different
        # blocks: the earlier one in trial order is the one refused.
        n = self._sizes(block)[-1]
        nan_at, huge_at = (1, n - 1) if first == "nan" else (n - 1, 1)

        class NanOnce(ZeroLearner):
            def predict(self, x):
                return math.nan if x == pairs[nan_at, 0] else 0.0

        pairs = np.random.default_rng(block).random((n, 2))
        pairs[huge_at, 1] = 1e300
        message = "total loss nan is not finite" if first == "nan" else "a loss term .* overflows"
        with pytest.raises(DomainError, match=message):
            run_trials(NanOnce(), pairs, 2.0)


def test_an_audit_trace_run_equals_the_whole_array_path():
    # Same draws, same sums: 50 seeded runs of up to 10,000 trials, of one
    # block and of several.
    sizes = []
    for seed in range(50):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = harness.audit_trace_run(rng, 10_000)
        want = audit_trace_run_oracle(oracle_rng, 10_000)
        account, e2d, d_sums, first_x = got
        assert account == want[0] and account.total.hex() == want[0].total.hex()
        assert [e2d.hex(), *(v.hex() for v in d_sums.values())] == [
            want[1].hex(), *(v.hex() for v in want[2].values())
        ]
        assert list(d_sums) == list(want[2]) and first_x == want[3]
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        sizes.append(account.trials + 1)
    assert min(sizes) <= 4096 < max(sizes)


@pytest.mark.parametrize("layout", ["columns", "pairs"])
def test_a_trace_run_holds_at_most_96_bytes_a_trial(layout):
    # The audit's layout, contiguous columns that run_trials takes as they
    # are, and (n, 2) pairs, whose columns it copies: 73 and 89 B a trial on
    # numpy 2.4, against 129 for both when the trace was built whole.
    n = 1 << 18
    xs = np.random.default_rng(3).random(n)
    pairs = np.array([xs, np.sin(9.0 * xs)])
    pairs = pairs.T if layout == "columns" else pairs.T.copy()
    del xs
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        trace, _ = run_trials(LinintLearner(), pairs, 2.0)
        kl_invariants(trace, *harness.D_EXPONENTS)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 96 * n


class TestTraceCsv:
    def test_format_and_round_trip(self):
        trace, account = run_trials(
            ZeroLearner(), [(1.0, 0.0), (0.5, 0.25), (0.1, 0.7)], p=1.25
        )
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        first = lines[1].split(",")
        assert first == ["0", "1", "", "0", "", "", "", ""]
        assert len(lines) == 1 + len(trace)
        cum = 0.0
        for t, line in enumerate(lines[2:], start=1):
            cells = line.split(",")
            assert int(cells[0]) == t
            assert float(cells[1]) == trace.x[t]
            assert float(cells[2]) == trace.y_hat[t]
            assert float(cells[3]) == trace.y[t]
            assert float(cells[4]) == trace.e[t]
            assert float(cells[5]) == trace.d[t]
            assert float(cells[6]) == trace.loss_term[t]
            cum += trace.loss_term[t]
            assert float(cells[7]) == cum
        assert cum == account.total

    def test_writes_to_path(self, tmp_path):
        trace, _ = run_trials(ZeroLearner(), [(1.0, 0.0), (0.5, 0.25)], p=2.0)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
        assert out.read_text().startswith("t,x,y_hat,y,e,d,loss_term,cum_loss")

    def test_chunked_rows_match_the_csv_writer_oracle(self, tmp_path):
        # Row counts on both sides of each 4096-row chunk boundary.
        rng = np.random.default_rng(61)
        for n in (0, 1, 2, 4095, 4096, 4097, 4098, 8193):
            columns = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-30, 30, (6, n))
            columns[:, :1] = math.nan  # trial 0's uncharged fields
            columns[5] = np.abs(columns[5])
            _assert_same_csv(Trace(*columns), tmp_path)

    @pytest.mark.parametrize(
        "value",
        [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e17, math.nan, math.inf, -math.inf],
    )
    def test_special_values_match_the_csv_writer_oracle(self, tmp_path, value):
        rng = np.random.default_rng(67)
        columns = rng.random((6, 9))
        columns[:, 3:6] = value  # a run of three in every column, trial 0's too
        columns[:, 0] = value
        _assert_same_csv(Trace(*columns), tmp_path)

    def test_leading_negative_zero_terms_sum_to_positive_zero(self, tmp_path):
        columns = np.zeros((6, 5))
        columns[5] = [math.nan, -0.0, -0.0, 0.5, -0.0]
        _assert_same_csv(Trace(*columns), tmp_path)

    def test_signed_zeros_stay_apart_in_runs(self, tmp_path):
        # Adjacent and alternating runs of 0.0 and -0.0, which a float
        # comparison would merge.
        column = np.zeros(1 + 4096)
        column[1000:2000] = -0.0
        column[2000:2020:2] = -0.0
        column[3000:] = -0.0
        _assert_kernel_gives_the_row_bytes(column[1:])
        columns = np.tile(column, (6, 1))
        columns[:, 0] = math.nan
        columns[1, 1:] = -column[1:]
        _assert_same_csv(Trace(*columns), tmp_path)

    def test_runs_of_nan_and_inf(self, tmp_path):
        # A NaN of another payload has the same text.
        other_nan = np.array(0x7FF8000000000001, dtype=np.int64).view(float)
        column = np.full(1 + 4096, 0.25)
        column[10:2500] = math.nan
        column[2500:2600] = other_nan
        column[2600:3500] = math.inf
        column[3500:3600] = -math.inf
        _assert_kernel_gives_the_row_bytes(column[1:])
        _assert_same_csv(Trace(*np.tile(column, (6, 1))), tmp_path)

    def test_run_across_the_chunk_boundary(self, tmp_path):
        rng = np.random.default_rng(71)
        columns = rng.random((6, 1 + 4096 + 300))
        columns[:, 4000:4300] = 0.125  # rows 3,999 to 4,298 of 4,096-row chunks
        columns[:, 0] = math.nan
        _assert_same_csv(Trace(*columns), tmp_path)

    @pytest.mark.parametrize("runs", [2047, 2048, 2049])
    def test_one_long_run_then_runs_of_one_row(self, tmp_path, runs):
        # 4,096 rows in one chunk.
        values = np.random.default_rng(runs).random(runs)
        lengths = np.ones(runs, dtype=int)
        lengths[0] = 4096 - (runs - 1)
        column = np.concatenate(([math.nan], np.repeat(values, lengths)))
        _assert_kernel_gives_the_row_bytes(column[1:])
        _assert_same_csv(Trace(*np.tile(column, (6, 1))), tmp_path)

    def test_final_chunk_of_one_row(self, tmp_path):
        columns = np.full((6, 1 + 4096 + 1), -0.0)
        columns[:, 0] = math.nan
        columns[:, -1] = 0.0
        _assert_same_csv(Trace(*columns), tmp_path)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the trace helper is forked")
class TestTraceHelper:
    """write_trace_csv with a forked helper formatting every other chunk."""

    # 1 chunk (no helper), 2 chunks less a row, exactly and plus a row, 3
    # chunks and many.
    @pytest.mark.parametrize("rows", [4097, 8192, 8193, 8194, 3 * 4096 + 1, 6 * 4096 + 37])
    def test_trace_of_run_trials(self, rows, tmp_path, monkeypatch):
        xs = np.random.default_rng(rows).permutation(rows) / rows
        trace, _ = run_trials(LinintLearner(), np.column_stack((xs, np.sin(7 * xs))), p=1.3)
        _assert_dealt_like_one_process(trace, tmp_path, monkeypatch)

    # 1 chunk (no helper), 2 chunks and 4.
    @pytest.mark.parametrize("stages", [12, 13, 14])
    def test_trace_of_a_match(self, stages, tmp_path, monkeypatch):
        result = run_match(make_learner("nearest"), AdversaryConfig(0.1, stages))
        _assert_dealt_like_one_process(result.records, tmp_path, monkeypatch)

    # Writes: the header, trial 0, then chunks 0 to 7, one write each; 9
    # fails on chunk 7, the helper's last.
    @pytest.mark.parametrize("writes", [2, 3, 5, 9])
    def test_a_failed_write_raises_and_leaves_no_child(self, writes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        result = run_match(make_learner("linint"), AdversaryConfig(0.1, 15))
        out = _FailingStream(writes)
        with pytest.raises(OSError, match="disk full"):
            write_trace_csv(result.records, out)
        assert out.writes == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_helper_that_raises_relays_its_error_after_the_rows_before(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent, chunk_text = os.getpid(), learner_module._chunk_text

        def failing_chunk_text(block):
            if os.getpid() != parent:
                raise ValueError("no text for this chunk")
            return chunk_text(block)

        monkeypatch.setattr(learner_module, "_chunk_text", failing_chunk_text)
        result = run_match(make_learner("linint"), AdversaryConfig(0.1, 14))
        want = io.StringIO()
        csv_writer_trace(result.records, want)
        out = io.StringIO()
        with pytest.raises(ValueError, match="no text for this chunk"):
            write_trace_csv(result.records, out)
        # The header, trial 0 and chunk 0: chunk 1 is the helper's first.
        assert out.getvalue().splitlines(True) == want.getvalue().splitlines(True)[: 2 + 4096]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_helper_that_dies_raises_and_leaves_no_child(self, tmp_path, monkeypatch):
        kill_the_trace_helper(monkeypatch)
        result = run_match(make_learner("linint"), AdversaryConfig(0.1, 14))
        with pytest.raises(OSError, match="helper process ended early"):
            write_trace_csv(result.records, tmp_path / "trace.csv")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class _FailingStream(io.StringIO):
    """A stream whose write raises OSError after the given number of writes."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        if not self.writes:
            raise OSError("disk full")
        self.writes -= 1
        return super().write(text)


def _assert_dealt_like_one_process(trace, tmp_path, monkeypatch):
    """With two CPUs, one CPU and no fork, write_trace_csv gives the oracle's
    bytes (so the same bytes each time) to a path and to a stream, flushing
    after the header, trial 0 and each chunk, forks a helper for each write
    of two chunks or more on two CPUs only, and leaves no child behind."""
    want = io.StringIO()
    csv_writer_trace(trace, want)
    want = want.getvalue().splitlines(True)
    flushed_lines = [1, *range(2, len(want), 4096), len(want)]
    forks = []
    fork = os.fork
    for cpus, has_fork in (({0, 1}, True), ({0}, True), ({0, 1}, False)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        if has_fork:
            monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        else:
            monkeypatch.delattr(os, "fork")
        forks.clear()
        stream, path = _FlushLog(), tmp_path / "trace.csv"
        write_trace_csv(trace, stream)
        write_trace_csv(trace, path)
        assert stream.getvalue().splitlines(True) == want
        assert [text.count("\n") for text in stream.flushed] == flushed_lines
        assert path.read_bytes().decode("ascii").splitlines(True) == want
        assert len(forks) == (2 if len(cpus) == 2 and has_fork and len(trace) > 4097 else 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_csv(trace, tmp_path):
    """write_trace_csv gives the oracle's bytes, to a path and to a stream.
    Both compare lines with their ends, so a failure names the first row that
    differs without a text diff of the whole CSV."""
    _assert_same_stream(trace)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trace_csv(trace, got)
    csv_writer_trace(trace, want)
    assert got.read_bytes().splitlines(True) == want.read_bytes().splitlines(True)


def _assert_same_stream(trace):
    got, want = io.StringIO(), io.StringIO()
    write_trace_csv(trace, got)
    csv_writer_trace(trace, want)
    assert got.getvalue().splitlines(True) == want.getvalue().splitlines(True)


def _assert_kernel_gives_the_row_bytes(values):
    """A float64 column as a trace chunk, through the kernel and through
    _row_text, its oracle: the same bytes, compared line by line."""
    t = range(1, 1 + len(values))
    got = learner_module._chunk_text((t, values), "\r\n")
    want = "".join(learner_module._row_text(row) for row in zip(t, values.tolist()))
    assert got.splitlines(True) == want.splitlines(True)


@settings(max_examples=20)
@given(
    n=st.integers(4090, 4100),
    switch=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_columns_from_three_values_match_the_csv_writer_oracle(n, switch, seed):
    # Each row keeps the value above it, or with probability switch[k] draws
    # again from 0.0, -0.0 and NaN, so values come in runs of every length and
    # runs cross the chunk boundary.
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, math.nan])
    draws = rng.integers(0, 3, (6, n))
    redraw = rng.random((6, n)) < np.array(switch)[:, None]
    redraw[:, 0] = True
    index = np.maximum.accumulate(np.where(redraw, np.arange(n), 0), axis=1)
    _assert_same_stream(Trace(*pool[np.take_along_axis(draws, index, axis=1)]))


def _kernel_lines(values):
    """Each value's row from the kernel, as a one-column trace chunk from t = 0,
    next to its row from "%.17g" % v."""
    got = learner_module._chunk_text((range(len(values)), values), "\n").splitlines()
    return got, [f"{t},{'%.17g' % v}" for t, v in enumerate(values.tolist())]


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_kernel_gives_percent_text_for_every_bit_pattern(bits):
    got, want = _kernel_lines(np.array(bits, dtype=np.uint64).view(np.float64))
    assert got == want


def _with_neighbours(values, ulps=2):
    values = np.asarray(values, dtype=float)
    out = [values]
    for way in (-math.inf, math.inf):
        step = values
        for _ in range(ulps):
            step = np.nextafter(step, way)
            out.append(step)
    return np.concatenate(out)


_POWERS = [float(f"1e{k}") for k in range(-120, 21)]
_NAN_BITS = [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]
_KERNEL_EDGES = {
    # 10^E ± 1–2 ulp, E = -120 .. 20, and the 17-digit round-ups 9.99…95e±k.
    "powers of ten": _with_neighbours(_POWERS),
    "9.99999999999999995e±k": _with_neighbours(
        [float(f"9.99999999999999995e{k}") for k in range(-120, 21)]
    ),
    # (2k+1)·2^-j: 17-digit ties wherever |v|·10^q has the fraction ½, which
    # beyond q = 22 (|v| < 1e-6) only m·2^-24 and m·2^-25 have.
    "dyadic ties": np.concatenate((
        np.ldexp(2.0 * np.arange(1, 3000).repeat(40) + 1, -np.tile(np.arange(1, 81, 2), 2999)),
        np.ldexp(np.arange(1.0, 17.0, 2.0), -24), np.ldexp([1.0, 3.0], -25),
    )),
    "specials": np.array(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf]
        + np.array(_NAN_BITS, dtype=np.uint64).view(np.float64).tolist()
    ),
    # Where the kernel's lanes end (1e-99, 1e17) and %g's notation turns
    # (E = -5 / -4, 16 / 17).
    "boundaries": _with_neighbours([1e-99, 1e-100, 1e-5, 1e-4, 1e16, 1e17]),
}


def _decided(values):
    return learner_module._digits(values, learner_module._words()["ten"])[2]


@pytest.mark.parametrize("values", _KERNEL_EDGES.values(), ids=_KERNEL_EDGES)
def test_kernel_gives_percent_text_at_the_edges(values):
    flipped = (values.view(np.uint64) ^ np.uint64(1 << 63)).view(np.float64)  # -values
    for column in (values, flipped):
        got, want = _kernel_lines(column)
        assert got == want
    # The kernel itself decides every value from 1e-99 up to 1e17.
    a = np.abs(values)
    assert _decided(values)[(1e-99 <= a) & (a < 1e17)].all()


def _near_ties():
    """Doubles v = m·2^-(q+k), 2^52 <= m < 2^53, where X = v·10^q lies in
    [10^16, 10^17) with the fraction ½ ± 2^-k, k >= 44: m·5^q ≡ 2^(k-1) ± 1
    (mod 2^k). The kernel's sum is within 5e-15 of X's fraction, so it cannot
    tell which way these round."""
    out = []
    for q, k, sign in product(range(23, 30), range(44, 60), (1, -1)):
        m = ((1 << (k - 1)) + sign) * pow(5**q, -1, 1 << k) % (1 << k)
        for m in range(m, 1 << 53, 1 << k):
            if m >= 1 << 52 and 10**16 << k <= m * 5**q < 10**17 << k:
                out.append(math.ldexp(m, -(q + k)))
    return np.array(out)


def test_kernel_leaves_what_it_cannot_decide_to_percent():
    values = _near_ties()
    assert len(values) >= 8 and not _decided(values).any()
    got, want = _kernel_lines(values)
    assert got == want


@pytest.mark.parametrize("stages", [17, 20])
@pytest.mark.parametrize("kind", ["zero", "nearest", "linint"])
def test_no_value_of_a_match_trace_is_left_to_percent(kind, stages):
    # _digits leaves a value to "%.17g" only where it cannot decide it; a
    # match's trace has none, so the kernel formats every value of it.
    result = run_match(make_learner(kind), AdversaryConfig(0.1, stages))
    ten = learner_module._words()["ten"]
    for t, *columns in learner_module._trace_blocks(result.records):
        assert all(learner_module._digits(v, ten)[2].all() for v in columns), t


def test_importing_the_cli_builds_no_kernel_table():
    # The kernel's tables are built on first use, never at import.
    code = (
        "import io, pwlearn.cli, pwlearn.learner as m; print(len(m._WORDS)); "
        "trace = m.run_trials(m.ZeroLearner(), [(0.5, 1.0), (0.25, 2.0)], 2.0)[0]; "
        "m.write_trace_csv(trace, io.StringIO()); print(len(m._WORDS))"
    )
    path = [str(Path(learner_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    before, after = out.stdout.split()
    assert before == "0" and after != "0"


class _FlushLog(io.StringIO):
    """A stream that keeps the text written by each flush."""

    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308]


@st.composite
def _tables(draw):
    """A header and blocks of float, int, bool and text columns. A float
    column is a list or a float64 or float32 array, an int column a list, a
    range or an int64 array, a bool column a list or an array, and values
    come in runs. A one-column table
    has no empty text, which csv.writer alone would quote."""
    kind = st.sampled_from(["float", "int", "bool", "text"])
    kinds = draw(st.lists(kind, min_size=1, max_size=5))
    header = [f"c{k}" for k in range(len(kinds))]
    cell = {
        "float": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
        "int": st.integers(-(2**70), 2**70),
        "bool": st.booleans(),
        "text": st.text(
            st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
            min_size=len(kinds) == 1,
            max_size=6,
        ),
    }
    blocks = []
    for n in draw(st.lists(st.integers(1, 300), max_size=4)):
        block = []
        for kind in kinds:
            runs = draw(st.lists(st.tuples(cell[kind], st.integers(1, 80)), min_size=1, max_size=8))
            column = [v for v, length in runs for _ in range(length)]
            column = [column[k % len(column)] for k in range(n)]
            shape = draw(st.sampled_from(["list", "array", "other"]))
            if kind == "float" and shape != "list":
                with np.errstate(over="ignore"):  # a float32 of a huge float is inf
                    column = np.array(column, dtype=np.float64 if shape == "array" else np.float32)
            elif kind == "int" and shape == "array" and all(-(2**63) <= v < 2**63 for v in column):
                column = np.array(column, dtype=np.int64)
            elif kind == "int" and shape == "other":
                column = range(column[0], column[0] + n)
            elif kind == "bool" and shape != "list":
                column = np.array(column)
            block.append(column)
        blocks.append(block)
    return header, blocks


@settings(max_examples=60, deadline=None)
@given(table=_tables(), end=st.sampled_from(["\r\n", "\n"]))
# A NUL in text and ints past 2^63, which a numpy array of the column would lose.
@example(table=(["c0", "c1"], [[[0.0], ["\x00"]]]), end="\r\n")
@example(table=(["c0"], [[[-1, 2**63]]]), end="\n")
# A trace chunk's columns, which write_trace_csv would give to the kernel.
@example(table=(["c0", "c1"], [[range(3), np.array([0.5, -0.0, 1e-7])]]), end="\n")
# Numpy scalars other than float64: a float32 is written as its double, an
# int or a bool as str gives it, not through %.17g, which loses an int's digits.
@example(table=(["c0"], [[np.array([1, 1, 1, 1, 1, 1, 2, 2], dtype=np.float32)]]), end="\n")
@example(
    table=(["c0", "c1", "c2"], [[
        np.array([0.5, 0.5, 0.1], dtype=np.float32),
        np.array([1, 2, 3], dtype=np.int32),
        np.array([True, True, False]),
    ]]),
    end="\r\n",
)
@example(table=(["c0"], [[np.array([2**60 + 1] * 5, dtype=np.int64)]]), end="\n")
def test_write_csv_matches_the_csv_writer_oracle_and_flushes_per_block(table, end):
    header, blocks = table
    got = _FlushLog()
    # write_csv takes each block's rows, a numpy column's values as numpy
    # scalars; the oracle takes each numpy column as the same column as a list.
    write_csv(got, header, [list(zip(*b)) for b in blocks], end)
    listed = [[c.tolist() if isinstance(c, np.ndarray) else c for c in b] for b in blocks]
    want = csv_writer_table(io.StringIO(), header, listed, end)
    assert got.getvalue() == want[-1]
    assert got.flushed == want


@given(st.floats())
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
def test_percent_format_is_format_for_every_float(v):
    # _row_text's % and the oracles' format give the same text.
    assert "%.17g" % v == format(v, ".17g")


def _pow_or_overflow(pow_, v, p):
    try:
        return struct.pack("<d", pow_(v, p))
    except OverflowError:
        return "overflow"


POW_EXPONENTS = st.one_of(
    st.sampled_from([1.02, 1.1, 1.37, 1.5, 2.0, 3.0]),
    st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
)


@given(st.floats(min_value=0.0), POW_EXPONENTS)
@example(math.inf, 1.5)
@example(math.nan, 1.1)
@example(0.0, 1.1)
@example(1e300, 2.0)
@example(5e-324, 1.02)
def test_math_pow_has_the_bits_of_float_pow(v, p):
    # math.pow is the oracle for _pow_terms' loss terms and d^r; it must agree
    # with float ** bit for bit, overflow included.
    assert _pow_or_overflow(math.pow, v, p) == _pow_or_overflow(float.__pow__, v, p)


@given(
    st.lists(st.one_of(st.floats(min_value=0.0), st.just(math.nan)), max_size=30),
    POW_EXPONENTS,
)
@example([0.0, 5e-324, 2.2e-308, 1e300, math.inf, math.nan], 2.0)
@example([5e-324, 0.5, math.inf, math.nan], 1.02)
@example([1e200, 1e-200], 1.5)
def test_pow_terms_has_the_bits_of_math_pow(vs, p):
    want = [_pow_or_overflow(math.pow, v, p) for v in vs]
    if "overflow" in want:
        with pytest.raises(OverflowError):
            learner_module._pow_terms(np.array(vs, dtype=float), p)
    else:
        got = learner_module._pow_terms(np.array(vs, dtype=float), p)
        assert [struct.pack("<d", t) for t in got.tolist()] == want


def test_pow_terms_refuses_a_power_that_is_not_real():
    # math.pow raises ValueError here; a NaN term must not pass silently.
    with pytest.raises(FloatingPointError):
        learner_module._pow_terms(np.array([0.25, -0.5]), 1.5)
    assert learner_module._pow_terms(np.array([-0.5]), 2.0).tolist() == [math.pow(-0.5, 2.0)]


def test_pow_terms_has_the_bits_of_math_pow_on_every_range():
    # 8 exponents over 4 ranges of 50,000 values: the unit interval, small
    # errors, log-uniform magnitudes far into overflow and odd dyadics.
    rng = np.random.default_rng(20240611)
    n = 50_000
    ranges = [
        rng.random(n),
        rng.random(n) * 1e-4,
        np.exp(rng.uniform(-700.0, 700.0, n)),
        (2.0 * rng.integers(0, 1 << 20, n) + 1.0) / 2.0**21,
    ]
    for values in ranges:
        for p in (1.001, 1.02, 1.1, 1.37, 1.45, 1.5, 2.0, 3.0):
            want = []
            for v in values.tolist():
                try:
                    want.append(math.pow(v, p))
                except OverflowError:
                    want.append(math.inf)
            want = np.array(want)
            fits = want < math.inf
            if not fits.all():
                with pytest.raises(OverflowError):
                    learner_module._pow_terms(values, p)
            got = learner_module._pow_terms(values[fits], p)
            assert np.array_equal(got.view(np.int64), want[fits].view(np.int64))


@pytest.mark.parametrize("size", [1, 7, 64, 4096])
@pytest.mark.parametrize("start", [0.0, 0.1, 3.7e250])
def test_the_carry_has_the_bits_of_a_python_loop(size, start):
    # Terms from 1e-300 to 1e300, carried block by block from start (0.0 or a
    # carried total), against += one float at a time.
    rng = np.random.default_rng(size)
    terms = 10.0 ** rng.uniform(-300.0, 300.0, 5 * size + 3)
    want = start
    for term in terms.tolist():
        want += term
    got = start
    for a in range(0, len(terms), size):
        got = learner_module._carry(got, terms[a : a + size].copy())
    assert type(got) is float and got.hex() == want.hex()


@pytest.mark.parametrize("other", [math.inf, math.nan])
def test_pow_terms_overflows_beside_inf_and_nan(other):
    # One finite lane overflows; the others hold inf or NaN, which pass through.
    values = np.array([0.5, other, 1e300, other, 0.25])
    with pytest.raises(OverflowError):
        learner_module._pow_terms(values, 2.0)
    rest = values[[0, 1, 4]]  # no finite lane overflows
    got = learner_module._pow_terms(rest, 2.0).tolist()
    assert [t.hex() for t in got] == [math.pow(v, 2.0).hex() for v in rest.tolist()]
