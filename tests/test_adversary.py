import io
import json
import math
import tracemalloc
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from helpers import (
    DictAdversary, check_trial_audit, columnar_match, committed_function, dict_energy, played,
    proposals, respond_stage, trial_audits, worst_audit,
)

from pwlearn import (
    MAX_STAGES,
    AdversaryConfig,
    AdversaryState,
    DomainError,
    Learner,
    LinintLearner,
    NearestLearner,
    SequenceError,
    Trace,
    ZeroLearner,
    audit_energy,
    derivative_norm,
    dyadic_x,
    evaluate,
    from_points,
    kl_invariants,
    lower_bound_partial,
    make_learner,
    perturbation,
    run_match,
    stage_of,
    upper_bound_linint,
    write_trace_csv,
)
from pwlearn import adversary as adversary_module, pwl
from pwlearn.adversary import _recursion_residual, _trial_audits
from pwlearn.learner import _fresh

EPS_GRID = (0.4, 0.25, 0.1, 0.05, 0.02)


class TestSchedule:
    def test_first_trials(self):
        assert dyadic_x(1) == 0.5
        assert dyadic_x(2) == 0.25
        assert dyadic_x(3) == 0.75
        assert dyadic_x(4) == 0.125

    def test_stages(self):
        assert stage_of(1) == 1
        assert stage_of(2) == 2
        assert stage_of(3) == 2
        assert stage_of(2**10) == 11
        assert stage_of(2**10 - 1) == 10

    def test_rejects_trial_zero(self):
        with pytest.raises(DomainError):
            stage_of(0)
        with pytest.raises(DomainError):
            dyadic_x(0)

    def test_coordinates_are_exact_dyadics(self):
        # x_t = (2j+1)/2^i exactly: scaling by 2^i recovers an odd integer.
        for t in list(range(1, 200)) + [2**20, 2**20 + 12345]:
            i = stage_of(t)
            scaled = dyadic_x(t) * (1 << i)
            assert scaled == int(scaled)
            assert int(scaled) % 2 == 1

    def test_stage_inputs_fill_the_dyadic_grid(self):
        # After stages 1..6 the inputs plus the anchors are exactly the k/64 grid.
        seen = {0.0, 1.0}
        for t in range(1, 2**6):
            x = dyadic_x(t)
            assert 0.0 < x < 1.0
            assert x not in seen
            seen.add(x)
        n = 1 << 6
        assert seen == {k / n for k in range(n + 1)}


class TestPerturbation:
    def test_formula_value(self):
        assert perturbation(1, 0.25) == pytest.approx(
            math.sqrt(0.25) * 0.75**0.5 / 4.0, rel=1e-15
        )
        assert perturbation(1, 0.25) == pytest.approx(0.10825317547305482)

    def test_decays_geometrically_in_stage(self):
        for eps in EPS_GRID:
            values = [perturbation(i, eps) for i in range(1, 40)]
            assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_grows_with_epsilon_at_stage_one(self):
        assert perturbation(1, 0.25) > perturbation(1, 0.01)

    def test_validation(self):
        with pytest.raises(DomainError):
            perturbation(0, 0.25)
        with pytest.raises(DomainError):
            perturbation(1, 0.5)
        with pytest.raises(DomainError):
            perturbation(1, 0.0)


class TestConfig:
    def test_epsilon_range_is_exclusive(self):
        AdversaryConfig(0.49, 1)
        with pytest.raises(DomainError):
            AdversaryConfig(0.5, 1)
        with pytest.raises(DomainError):
            AdversaryConfig(0.0, 1)
        with pytest.raises(DomainError):
            AdversaryConfig(-0.1, 1)

    def test_epsilon_too_small_to_move_the_loss_exponent(self):
        # 2^-52 is the smallest epsilon whose 1 + epsilon exceeds 1.
        AdversaryConfig(2.0**-52, 1)
        for eps in (1e-16, 2.0**-53, 5e-324):
            with pytest.raises(DomainError, match=r"too small: 1 \+ epsilon rounds to 1"):
                AdversaryConfig(eps, 1)

    def test_stage_budget(self):
        with pytest.raises(DomainError):
            AdversaryConfig(0.25, 0)

    def test_numpy_float_epsilon_is_stored_as_a_float(self):
        # A float32 epsilon once mixed float32 and float64 arithmetic in the
        # match: a total off in the 8th digit and a result json refused.
        eps = np.float32(0.1)
        config = AdversaryConfig(eps, 4)
        assert type(config.epsilon) is float and config.epsilon == float(eps)
        result = run_match(make_learner("linint"), config)
        same = run_match(make_learner("linint"), AdversaryConfig(float(eps), 4))
        assert result.total_loss.hex() == same.total_loss.hex()
        assert type(result.epsilon) is float and type(result.upper_linint) is float
        assert json.dumps(result.to_json_dict()) == json.dumps(same.to_json_dict())

    def test_stage_ceiling(self):
        AdversaryConfig(0.25, MAX_STAGES)
        with pytest.raises(DomainError, match=str(MAX_STAGES)):
            AdversaryConfig(0.25, MAX_STAGES + 1)


class TestRespond:
    def test_first_trial_accepts_positive_perturbation(self):
        state = AdversaryState(AdversaryConfig(0.25, 1))
        y, accepted = state.respond(1, 0.0)  # tie: prediction equals base 0
        assert accepted
        assert y == perturbation(1, 0.25)

    def test_takes_the_far_side_of_the_prediction(self):
        state = AdversaryState(AdversaryConfig(0.25, 1))
        y, _ = state.respond(1, 10.0)
        assert y == -perturbation(1, 0.25)

    def test_out_of_order_trials_rejected(self):
        state = AdversaryState(AdversaryConfig(0.25, 2))
        with pytest.raises(SequenceError):
            state.respond(2, 0.0)
        state.respond(1, 0.0)
        with pytest.raises(SequenceError):
            state.respond(3, 0.0)
        with pytest.raises(SequenceError):
            state.respond(1, 0.0)

    def test_accepted_reveal_is_far_from_prediction(self):
        rng = np.random.default_rng(3)
        for eps in (0.4, 0.1):
            state = AdversaryState(AdversaryConfig(eps, 8))
            for t in range(1, 2**8):
                y_hat = float(rng.normal(0.0, 0.2))
                y, accepted = state.respond(t, y_hat)
                if accepted:
                    assert abs(y - y_hat) >= perturbation(stage_of(t), eps) * (1 - 1e-12)

    def test_rejected_trials_split_probe_from_committed(self):
        # The stage's proposals keep the proposed label even when the
        # revealed label is the interpolated one.
        state = AdversaryState(AdversaryConfig(0.25, 8))
        split = []
        for t in range(1, 2**8):
            x = dyadic_x(t)
            _, accepted = state.respond(t, 0.0)
            k = int(x / state.h)  # x_t's index on the stage's view of the grid
            assert stage_of(t) == state.stage
            if not accepted:
                split.append(x)
                assert proposals(state)[k // 2] != state.committed[k]
            else:
                assert proposals(state)[k // 2] == state.committed[k]
        assert split, "expected at least one rejected trial at eps=0.25, S=8"

    def test_rejection_keeps_committed_function_unchanged(self):
        state = AdversaryState(AdversaryConfig(0.25, 8))
        for t in range(1, 2**8):
            x = dyadic_x(t)
            before = committed_function(state)
            value_before = evaluate(before, x)
            _, accepted = state.respond(t, 0.0)
            if not accepted:
                assert state.committed[int(x / state.h)] == value_before
                assert evaluate(committed_function(state), x) == value_before

    def test_stage_must_start_at_a_boundary(self):
        state = AdversaryState(AdversaryConfig(0.25, 3))
        state.respond(1, 0.0)
        state.respond(2, 0.0)
        with pytest.raises(SequenceError):
            respond_stage(state, np.zeros(2))

    def test_no_trial_past_the_stage_budget(self):
        # The one grid is sized for the config's stages; either way of
        # playing stops at its last trial.
        single = AdversaryState(AdversaryConfig(0.25, 2))
        for t in range(1, 4):
            single.respond(t, 0.0)
        batch = AdversaryState(AdversaryConfig(0.25, 2))
        respond_stage(batch, np.zeros(1))
        respond_stage(batch, np.zeros(2))
        assert batch.grid.tobytes() == single.grid.tobytes()
        with pytest.raises(SequenceError, match="trial 4 is past the budget of 2 stages"):
            single.respond(4, 0.0)
        with pytest.raises(SequenceError, match="trial 4 is past the budget of 2 stages"):
            respond_stage(batch, np.zeros(4))
        assert (single.stage, single.next_t) == (batch.stage, batch.next_t) == (2, 4)

    @pytest.mark.parametrize("eps, stages", [(0.45, 1), (0.1, 9), (0.02, 12)])
    def test_respond_alone_charges_run_matchs_loss_and_keeps_its_predictions(self, eps, stages):
        # A state driven only by respond, as a library caller drives it: the
        # loss is charged at each stage's last trial, and the state ends with
        # run_match's total and trace column for the same learner.
        learner = LoopLinint()
        learner.predict(1.0)
        learner.observe(1.0, 0.0)
        state = AdversaryState(AdversaryConfig(eps, stages))
        charged = 0.0
        for t in range(1, 2**stages):
            x = dyadic_x(t)
            learner.observe(x, state.respond(t, learner.predict(x))[0])
            if t < state.stage_end:
                assert state.total_loss == charged
            charged = state.total_loss
        result = run_match(LoopLinint(), AdversaryConfig(eps, stages))
        assert state.total_loss.hex() == result.total_loss.hex()
        assert state.predictions.tobytes() == result.records.predictions.tobytes()

    def test_a_float32_prediction_is_compared_as_the_double_it_is(self):
        # A float32 compared with a float is rounded to float32; the fold at
        # the stage end compares the stored double. respond must compare the
        # same, or the label it returns is not the one left on the grid.
        stages = 6
        state, labels, split = AdversaryState(AdversaryConfig(0.1, stages)), [], 0
        for t in range(1, 2**stages):
            k, s = int(dyadic_x(t) * 2**stages), 1 << (stages - stage_of(t))
            base = 0.5 * (state.grid.item(k - s) + state.grid.item(k + s))  # stage-start knots
            y_hat = np.float32(base)
            split += bool(y_hat > base) != (float(y_hat) > base)
            labels.append((k, state.respond(t, y_hat)[0]))
        assert split
        assert [state.grid[k] for k, _ in labels] == [y for _, y in labels]

    def test_an_overflowing_loss_term_raises_at_the_stages_last_respond(self):
        state = AdversaryState(AdversaryConfig(0.25, 3))
        for t in range(1, 4):
            state.respond(t, 0.0)
        charged = state.total_loss
        for t in range(4, 7):
            state.respond(t, 1e300)
        assert state.total_loss == charged
        with pytest.raises(DomainError, match="a loss term in stage 3 overflows"):
            state.respond(7, 0.0)

    def test_a_nan_prediction_raises_at_the_stages_last_respond(self):
        state = AdversaryState(AdversaryConfig(0.25, 3))
        for t in range(1, 4):
            state.respond(t, 0.0)
        charged = state.total_loss
        for t in range(4, 7):
            state.respond(t, math.nan if t == 4 else 0.0)
        assert state.total_loss == charged and len(state.per_stage) == 2
        with pytest.raises(DomainError, match="total loss nan is not finite; predictions must be"):
            state.respond(7, 0.0)
        assert state.total_loss == charged and len(state.per_stage) == 2


class TestDictOracle:
    """The grid state against the dict-based adversary it replaced."""

    @pytest.mark.parametrize("eps", [0.45, 0.25, 0.1, 0.02])
    def test_every_trial_matches_bit_for_bit(self, eps):
        rng = np.random.default_rng(11)
        state, oracle = AdversaryState(AdversaryConfig(eps, 8)), DictAdversary(eps)
        for t in range(1, 2**8):
            # Mostly near the base, some exact ties at 0 early on.
            y_hat = 0.0 if t % 7 == 0 else float(rng.normal(0.0, 0.05))
            assert state.respond(t, y_hat) == oracle.respond(t, y_hat)
            audit = audit_energy(state)
            assert audit.j_probe == dict_energy(oracle.probe)
            assert audit.j_committed == dict_energy(oracle.committed)
            # Mid-stage the committed function holds exactly the knots so far.
            f = committed_function(state)
            assert list(zip(f.us, f.vs)) == sorted(oracle.committed.items())

    def test_before_any_trial(self):
        state = AdversaryState(AdversaryConfig(0.25, 1))
        f = committed_function(state)
        assert list(zip(f.us, f.vs)) == [(0.0, 0.0), (1.0, 0.0)]

    def test_whole_stage_matches_trial_by_trial(self):
        rng = np.random.default_rng(5)
        config = AdversaryConfig(0.1, 8)
        batch, single = AdversaryState(config), AdversaryState(config)
        predictions = np.full(2**8, math.nan)
        t = 1
        for i in range(1, 9):
            y_hat = predictions[2 ** (i - 1) : 2**i] = rng.normal(0.0, 0.05, size=2 ** (i - 1))
            respond_stage(batch, y_hat)
            y = batch.committed[1::2]
            # Read off the grid played so far, the audit after w trials is the
            # one taken right after trial w; the stage end's is end_audit.
            audits = trial_audits(played(batch, predictions))[-1]
            assert audits.shape == (2, len(y) - 1)
            for yh, y_t, column in zip(y_hat.tolist(), y.tolist(), [*audits.T, None], strict=True):
                assert single.respond(t, yh)[0] == y_t
                if column is not None:
                    check_trial_audit(column, single)
                t += 1
            assert batch.end_audit == audit_energy(single)
            assert batch.grid.tobytes() == single.grid.tobytes()
            assert proposals(batch).tobytes() == proposals(single).tobytes()
            assert vars(batch).keys() == vars(single).keys()
            for name, value in vars(single).items():
                if not isinstance(value, np.ndarray):
                    assert getattr(batch, name) == value, name

    @pytest.mark.parametrize("stages", [1, 12])
    def test_audits_at_the_first_stage_and_the_audit_cap(self, stages):
        # Every mid-stage audit of the last stage, of which stage 1 has none,
        # at the audit's 12-stage cap, with some trials rejected so that probe
        # and committed functions differ.
        config = AdversaryConfig(0.1, stages)
        batch, single = AdversaryState(config), AdversaryState(config)
        predictions = np.full(2**stages, math.nan)
        t = 1
        for i in range(1, stages + 1):
            y_hat = predictions[2 ** (i - 1) : 2**i] = np.full(2 ** (i - 1), -1.0)
            y_hat[::3] = 0.0
            respond_stage(batch, y_hat)
            audits = None
            if i == stages:
                audits = trial_audits(played(batch, predictions))[-1].T
            for k, yh in enumerate(y_hat.tolist()):
                single.respond(t, yh)
                t += 1
                if audits is not None and k < len(audits):
                    check_trial_audit(audits[k], single)
        assert len(audits) == 2 ** (stages - 1) - 1
        if stages > 1:
            assert (proposals(batch) != batch.committed[1::2]).any()

    @pytest.mark.parametrize("eps", [0.4999, 0.45, 0.25, 0.1, 0.001, 1e-12])
    def test_stage_bookkeeping_matches_the_dict_oracle(self, eps):
        # Acceptances, the incremental probe energy's maximum and the steepest
        # slope, read off the grid at the stage end, against the oracle's
        # per-trial sums; through respond and through the fold alike.
        rng = np.random.default_rng(31)
        config = AdversaryConfig(eps, 10)
        batch, single, oracle = AdversaryState(config), AdversaryState(config), DictAdversary(eps)
        t = 1
        rejected = 0
        for i in range(1, 11):
            # Near the base, some exact ties at 0, some far below.
            y_hat = rng.normal(0.0, perturbation(i, eps), size=2 ** (i - 1))
            y_hat[::5] = 0.0
            y_hat[2::7] = -1.0
            respond_stage(batch, y_hat)
            for yh in y_hat.tolist():
                y, accepted = single.respond(t, yh)
                assert oracle.respond(t, yh) == (y, accepted)
                rejected += not accepted
                t += 1
            for state in (batch, single):
                assert state.per_stage[-1].accepted == oracle.accepted
                assert state.max_energy_probe.hex() == oracle.max_energy_probe.hex()
                assert state.audit.max_abs_slope.hex() == oracle.max_abs_slope.hex()
        if eps in (0.25, 0.1):
            assert rejected

    @pytest.mark.parametrize("kind", ["zero", "nearest", "linint", "below"])
    @pytest.mark.parametrize("eps", [0.4999, 0.1, 1e-12])
    def test_each_stages_acceptances_and_labels_match_the_dict_oracle(self, kind, eps):
        # The fold counts acceptances off its mask: against the oracle replaying
        # the match's predictions, at the ends of epsilon's range and at 0.1, where
        # predicting far below rejects some trials. "below" plays trial by trial.
        learner = PredictsBelow() if kind == "below" else make_learner(kind)
        result, oracle = run_match(learner, AdversaryConfig(eps, 10)), DictAdversary(eps)
        y_hat, y = result.records.y_hat.tolist(), result.records.y.tolist()
        for stage in result.per_stage:
            for t in range(stage.trials, 2 * stage.trials):
                assert oracle.respond(t, y_hat[t])[0].hex() == y[t].hex()
            assert stage.accepted == oracle.accepted
        if (kind, eps) == ("below", 0.1):
            assert sum(s.accepted for s in result.per_stage) < 2**10 - 1

    @pytest.mark.parametrize(
        "eps, stages", [(0.45, 12), (0.25, 10), (0.1, 11), (0.02, 12), (0.001, 10)]
    )
    def test_every_stage_audit_matches_the_scalar_audit_and_the_dicts(self, eps, stages):
        rng = np.random.default_rng(23)
        config = AdversaryConfig(eps, stages)
        batch, single, oracle = AdversaryState(config), AdversaryState(config), DictAdversary(eps)
        batch_end = single_end = (0.0, 0.0, 0.0)  # before stage 1
        predictions = np.full(2**stages, math.nan)
        t = 1
        rejected = 0
        for i in range(1, stages + 1):
            y_hat = predictions[2 ** (i - 1) : 2**i]
            if i % 3 == 0:
                # Predictions near the base, some exact ties at 0.
                y_hat[:] = rng.normal(0.0, perturbation(i, eps), size=2 ** (i - 1))
                y_hat[::7] = 0.0
            else:
                # Far below: every proposal goes up, which steepens the
                # committed function; at eps 0.25 and 0.1 some trials are
                # then rejected, so probe and committed functions differ.
                y_hat[:] = -1.0
            respond_stage(batch, y_hat)
            audits = [*trial_audits(played(batch, predictions))[-1].T, None]
            for column, yh in zip(audits, y_hat.tolist(), strict=True):
                y, accepted = single.respond(t, yh)
                assert oracle.respond(t, yh) == (y, accepted)
                rejected += not accepted
                want = audit_energy(single)
                if column is not None:
                    check_trial_audit(column, single)
                # The dict oracle's from-scratch sums are slow past S = 9, so
                # it checks every trial of the first 9 stages, then a sample.
                if i <= 9 or t % 29 == 0 or t == 2**i - 1:
                    assert want.j_probe == dict_energy(oracle.probe)
                    assert want.j_committed == dict_energy(oracle.committed)
                t += 1
            # The stage start's probe energy is the last stage end's committed
            # energy: the old view's energy, summed afresh as _energy_sum sums it.
            start = pwl._energy_sum(2.0 * batch.h, batch.committed[::2])
            for state, stage_end in ((batch, batch_end), (single, single_end)):
                assert state.stage_start_energy.hex() == stage_end[1].hex() == start.hex()
            # The stage end, read off the grid's rises through respond and
            # the fold alike: the scalar audit right after the last trial and
            # the dicts' energies.
            batch_end, single_end = batch.end_audit, single.end_audit
            for stage_end in (batch_end, single_end):
                assert [v.hex() for v in stage_end] == [v.hex() for v in want]
                assert stage_end.j_probe == dict_energy(oracle.probe)
                assert stage_end.j_committed == dict_energy(oracle.committed)
        if eps in (0.25, 0.1):
            assert rejected


class LoopZero(ZeroLearner):
    pass


class LoopNearest(NearestLearner):
    pass


class LoopLinint(LinintLearner):
    pass


LOOP_TWINS = {"zero": LoopZero, "nearest": LoopNearest, "linint": LoopLinint}


class PredictsBelow(Learner):
    def predict(self, x):
        return -1.0

    def observe(self, x, y):
        pass


class TestStageAtATime:
    """run_match's stage-at-a-time path against the trial-by-trial loop, which
    a subclass of the same learner is forced through."""

    def _both(self, kind, eps, stages):
        config = AdversaryConfig(eps, stages)
        fast, slow = make_learner(kind), LOOP_TWINS[kind]()
        assert _fresh(fast) and not _fresh(slow)
        return fast, run_match(fast, config), slow, run_match(slow, config)

    @pytest.mark.parametrize("kind", ["zero", "nearest", "linint"])
    @pytest.mark.parametrize(
        "eps, stages",
        [(0.45, 1), (0.49, 2), (0.02, 3), (0.3, 5), (0.1, 7), (0.45, 10), (0.05, 12), (0.49, 14)],
    )
    def test_same_bits_as_the_loop(self, kind, eps, stages):
        fast, a, slow, b = self._both(kind, eps, stages)
        for column in fields(Trace):
            assert (
                getattr(a.records, column.name).tobytes()
                == getattr(b.records, column.name).tobytes()
            ), column.name
        assert a.total_loss == b.total_loss
        assert a.per_stage == b.per_stage
        assert a.audit == b.audit
        # The learner's state is its own: writing over the trace leaves it be.
        a.records.x[:] = a.records.y[:] = math.nan
        if kind != "zero":
            assert list(fast._vals.items()) == list(slow._vals.items())
            assert list(fast._xs) == list(slow._xs)
            # The filled learner goes on predicting as the loop's does.
            for x in (0.0, 0.3, 1.0 / 3.0, 0.999):
                assert fast.predict(x) == slow.predict(x)

    @pytest.mark.parametrize("kind", ["zero", "nearest", "linint"])
    @pytest.mark.parametrize("eps, stages", [(0.45, 4), (0.02, 7), (0.49, 10)])
    def test_per_trial_audit_same_bits_as_the_loop(self, kind, eps, stages):
        _, a, _, b = self._both(kind, eps, stages)
        assert _trial_audits(a).tobytes() == _trial_audits(b).tobytes()
        assert worst_audit(a) == worst_audit(b)

    @pytest.mark.parametrize(
        "kind, eps, stages",
        [("linint", 0.45, 5), ("zero", 0.45, 12), ("nearest", 0.25, 12), ("linint", 0.1, 12),
         ("zero", 0.25, 9)],
    )
    def test_loop_audits_equal_audit_energy_after_every_trial(self, kind, eps, stages):
        # The oracle: the loop learner played by hand, with the scalar audit
        # of the live state after every trial. (TestTrialAudits checks each
        # trial's column; this checks what run_invariant_audit reads.)
        config = AdversaryConfig(eps, stages)
        learner = LOOP_TWINS[kind]()
        learner.predict(1.0)
        learner.observe(1.0, 0.0)
        state = AdversaryState(config)
        audits = []
        rejected = 0
        for t in range(1, 2**stages):
            x = dyadic_x(t)
            y, accepted = state.respond(t, learner.predict(x))
            learner.observe(x, y)
            rejected += not accepted
            audits.append(audit_energy(state))
        stage_ends = [audits[2**i - 2] for i in range(1, stages + 1)]
        # The worst j_probe is a stage end's or the incremental one, with their
        # bits; the worst stage-end residual has the bits of the scalar audit's.
        want = (state.audit.max_abs_slope,
                max(state.max_energy_probe, *(a.j_probe for a in audits)),
                max(a.recursion_residual for a in stage_ends))
        j_probe_end = [a.j_probe.hex() for a in stage_ends]
        for learner in (make_learner(kind), LOOP_TWINS[kind]()):
            result = run_match(learner, config)
            worst = worst_audit(result)
            got = (worst.max_abs_slope, worst.max_j_probe, result.audit.max_recursion_residual)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert [s.j_probe_end.hex() for s in result.per_stage] == j_probe_end
        if eps in (0.25, 0.1):
            assert rejected

    @pytest.mark.parametrize("eps", [0.45, 0.1])
    def test_the_predictions_stay_as_predicted(self, eps):
        # The fold reads a trial-by-trial learner's predictions through a view
        # of the state's: whatever it computes from them must not land there.
        class Recording(LinintLearner):
            def predict(self, x):
                y_hat = super().predict(x)
                made.append(y_hat)
                return y_hat

        made = []
        result = run_match(Recording(), AdversaryConfig(eps, 10))
        assert result.records.predictions[1:].tobytes() == np.array(made[1:]).tobytes()

    def test_learner_with_history_plays_trial_by_trial(self):
        learner = make_learner("linint")
        learner.observe(0.5, 0.0)
        assert not _fresh(learner)


class TestTrialAudits:
    """_trial_audits, the audit after every trial of a finished match but the
    stage ends, against audit_energy on the match replayed through respond."""

    @pytest.mark.parametrize(
        "kind, eps, stages",
        [(kind, eps, stages) for kind in ("zero", "nearest", "linint")
         for eps in (0.45, 0.3, 0.1, 0.05, 0.02, 0.001) for stages in (1, 2, 5, 9)]
        + [("zero", 0.45, 12), ("nearest", 0.25, 12), ("linint", 0.1, 12)],
    )
    def test_every_trial_on_both_play_paths(self, kind, eps, stages):
        config = AdversaryConfig(eps, stages)
        for learner in (make_learner(kind), LOOP_TWINS[kind]()):
            result = run_match(learner, config)
            audits = _trial_audits(result)
            assert audits.shape == (2, 2**stages - stages - 1)
            state, ends = AdversaryState(config), []
            for t, y_hat in enumerate(result.records.y_hat[1:].tolist(), start=1):
                state.respond(t, y_hat)
                if t < state.stage_end:
                    check_trial_audit(audits[:, t - state.stage], state)
                else:  # a stage end: end_audit has the oracle's bits
                    assert state.end_audit == audit_energy(state)
                    ends.append(state.end_audit.j_probe)
            assert [s.j_probe_end for s in result.per_stage] == ends

    @pytest.mark.parametrize("eps", [0.45, 0.1, 0.001])
    def test_residuals_run_from_the_stage_start_energy(self, eps):
        # Each stage's residual row is the recursion residual of its j_probe
        # row after trials 1 .. n - 1, from the state's stage-start energy,
        # bit for bit.
        config = AdversaryConfig(eps, 10)
        result = run_match(make_learner("linint"), config)
        state = AdversaryState(config)
        for i, (j_probe, resid) in enumerate(trial_audits(result), start=1):
            respond_stage(state, result.records.y_hat[1 << (i - 1) : 1 << i])
            w = np.arange(1, 1 << (i - 1))
            want = _recursion_residual(eps, i, state.stage_start_energy, w, j_probe)
            assert resid.tobytes() == want.tobytes()


class TestRecordsAgainstColumns:
    """A match's records, read off the final grid and the predictions,
    against the six full columns of helpers.columnar_match, on both play
    paths; traces from S = 13 on run past the CSV writer's 4,096-row chunk."""

    @pytest.mark.parametrize("kind", ["zero", "nearest", "linint"])
    @pytest.mark.parametrize("eps", [0.45, 0.1, 0.02])
    def test_every_column_and_the_csv_have_the_oracle_bits(self, kind, eps):
        for stages in range(1, 15):
            config = AdversaryConfig(eps, stages)
            total, per_stage, audit, trace = columnar_match(make_learner(kind), config)
            want_csv = io.StringIO()
            write_trace_csv(trace, want_csv)
            for learner in (make_learner(kind), LOOP_TWINS[kind]()):
                result = run_match(learner, config)
                assert len(result.records) == len(trace) == 2**stages
                for column in fields(Trace):
                    got = getattr(result.records, column.name)
                    assert got.tobytes() == getattr(trace, column.name).tobytes(), column.name
                buf = io.StringIO()
                write_trace_csv(result.records, buf)
                assert buf.getvalue() == want_csv.getvalue()
                assert result.total_loss.hex() == total.hex()
                assert [
                    (s.i, s.trials, s.accepted, s.j_probe_end.hex()) for s in result.per_stage
                ] == [(s.i, s.trials, s.accepted, s.j_probe_end.hex()) for s in per_stage]
                want = [v.hex() for v in astuple(audit)]
                assert [v.hex() for v in astuple(result.audit)] == want

    @pytest.mark.parametrize("kind", ["zero", "nearest", "linint"])
    @pytest.mark.parametrize("loop", [False, True], ids=["fresh", "loop"])
    def test_any_window_of_rows_is_that_slice_of_the_columns(self, kind, loop):
        # Windows from trial 0 on, inside a stage and across stage boundaries,
        # as write_trace_csv's chunks are not aligned to stages.
        for stages in (1, 3, 7, 12):
            config = AdversaryConfig(0.1, stages)
            learner = LOOP_TWINS[kind]() if loop else make_learner(kind)
            records = run_match(learner, config).records
            trace = columnar_match(make_learner(kind), config)[3]
            n = 2**stages
            ends = [b + o for b in (0, *(2**j for j in range(stages + 1))) for o in (-1, 0, 1)]
            ends = sorted({b for b in ends if 0 <= b <= n})
            for start in ends:
                for stop in (b for b in ends if b >= start):
                    for column, got in zip(fields(Trace), records._rows(start, stop)):
                        want = getattr(trace, column.name)[start:stop]
                        assert got.tobytes() == want.tobytes(), (column.name, start, stop)

    def test_rows_past_the_end_are_clipped_as_a_trace_slices_them(self):
        records = run_match(make_learner("linint"), AdversaryConfig(0.1, 4)).records
        trace = Trace(*(getattr(records, column.name) for column in fields(Trace)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start, stop in ((14, 20), (0, 17), (15, 4096), (16, 20), (20, 30)):
                got, want = records._rows(start, stop), trace._rows(start, stop)
                assert [c.tobytes() for c in got] == [c.tobytes() for c in want], (start, stop)

    def test_kl_invariants_computes_each_row_of_the_records_at_most_twice(self, monkeypatch):
        # Reading a column of the records computes all of them, so a block
        # read column by column cost whole columns: 9 × the trace at S = 14.
        records = run_match(make_learner("linint"), AdversaryConfig(0.1, 14)).records
        trace = Trace(*(getattr(records, column.name) for column in fields(Trace)))
        rows, computed = adversary_module.MatchTrace._rows, []

        def counted(self, start, stop):
            columns = rows(self, start, stop)
            computed.append(len(columns[0]))
            return columns

        monkeypatch.setattr(adversary_module.MatchTrace, "_rows", counted)
        got = kl_invariants(records, 1.5, 2.0, 3.0)
        assert sum(computed) <= 2 * len(records)
        assert [v.hex() for v in got] == [v.hex() for v in kl_invariants(trace, 1.5, 2.0, 3.0)]

    def test_records_are_read_only_and_columns_are_fresh(self):
        for learner in (make_learner("linint"), LoopLinint()):
            records = run_match(learner, AdversaryConfig(0.1, 6)).records
            assert not records.grid.flags.writeable
            for column in fields(Trace):  # a computed column is the reader's own
                getattr(records, column.name)[1:] = math.nan
                assert not np.isnan(getattr(records, column.name)[1:]).any(), column.name
            with pytest.raises(AttributeError):
                records.cum_loss


class TestSmallBlocks:
    """run_match with the fold's blocks cut to 2^6 and 2^7 trials, so that
    every stage from the 8th or 9th on spans several blocks, against oracles
    taken at the default block of 4,096 trials, which holds any stage up to
    the 13th whole.
    Smaller blocks are not allowed: below 2^6 trials a block has fewer than
    128 energy terms, where np.sum adds in an unrolled loop instead of
    splitting pairwise, and the block sums miss the stage's bits."""

    @pytest.mark.parametrize("block", [1 << 6, 1 << 7])
    @pytest.mark.parametrize("kind", ["zero", "nearest", "linint", "loop"])
    @pytest.mark.parametrize("eps", [0.45, 0.1, 0.02])
    def test_same_bits_as_one_block(self, block, kind, eps, monkeypatch):
        stages = 12
        config = AdversaryConfig(eps, stages)
        learner = LoopLinint if kind == "loop" else lambda: make_learner(kind)
        total, per_stage, audit, trace = columnar_match(learner(), config)
        per_trial = _trial_audits(run_match(learner(), config))
        monkeypatch.setattr(adversary_module, "_BLOCK", block)
        result = run_match(learner(), config)
        for column in fields(Trace):
            got = getattr(result.records, column.name)
            assert got.tobytes() == getattr(trace, column.name).tobytes(), column.name
        assert result.total_loss.hex() == total.hex()
        assert [(s.i, s.trials, s.accepted, s.j_probe_end.hex()) for s in result.per_stage] == [
            (s.i, s.trials, s.accepted, s.j_probe_end.hex()) for s in per_stage
        ]
        assert [v.hex() for v in astuple(result.audit)] == [v.hex() for v in astuple(audit)]
        assert _trial_audits(result).tobytes() == per_trial.tobytes()
        # The dict oracle's per-trial bookkeeping, against a state played a
        # whole stage at a time on the same predictions.
        state, oracle = AdversaryState(config), DictAdversary(eps)
        y_hat = result.records.y_hat
        for i in range(1, stages + 1):
            stage = y_hat[1 << (i - 1) : 1 << i]
            respond_stage(state, stage)
            for t, yh in enumerate(stage.tolist(), start=1 << (i - 1)):
                oracle.respond(t, yh)
            assert state.per_stage[-1].accepted == oracle.accepted
            assert state.max_energy_probe.hex() == oracle.max_energy_probe.hex()
            assert state.audit.max_abs_slope.hex() == oracle.max_abs_slope.hex()
        assert state.grid.tobytes() == result.records.grid.tobytes()


RISES = [0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e154, -1e154, 0.5, -0.3, 1.0 / 3.0]


@pytest.mark.parametrize("i", range(1, MAX_STAGES + 1))
def test_the_fold_multiplies_by_the_exact_inverse_spacing(i):
    # At h = 2^-i, 1/h is exact, so multiplying by it rounds as dividing by h
    # does: 1e-160's square is subnormal and 1e154's overflows.
    h = 0.5**i
    rises = np.append(RISES, np.random.default_rng(i).uniform(-2.0 * h, 2.0 * h, 64))
    with np.errstate(over="ignore"):
        want = pwl._energy_terms(h, rises.copy()).tobytes()
        assert (rises * rises * (1.0 / h)).tobytes() == want
        assert adversary_module._energy_terms(h, rises.copy()).tobytes() == want
        assert (rises * 2.0 * rises * (1.0 / h)).tobytes() == (rises * 2.0 * rises / h).tobytes()


class TestAuditEnergy:
    def test_before_any_trial(self):
        audit = audit_energy(AdversaryState(AdversaryConfig(0.25, 1)))
        assert audit == (0.0, 0.0, 0.0)

    def test_stage_end_energy_bound(self):
        for eps in (0.4, 0.1):
            state = AdversaryState(AdversaryConfig(eps, 7))
            for t in range(1, 2**7):
                state.respond(t, 0.0)
                i = state.stage
                if t == 2**i - 1:
                    audit = audit_energy(state)
                    cap = (eps / 4.0) * sum((1 - eps) ** k for k in range(i + 1))
                    assert audit.j_probe <= cap + 1e-12

    def test_residual_tracks_closed_form_recursion(self):
        state = AdversaryState(AdversaryConfig(0.3, 7))
        for t in range(1, 2**7):
            state.respond(t, 1.0)
            assert audit_energy(state).recursion_residual <= 1e-10

    def test_committed_energy_never_exceeds_probe_energy(self):
        state = AdversaryState(AdversaryConfig(0.25, 8))
        for t in range(1, 2**8):
            state.respond(t, 0.0)
            audit = audit_energy(state)
            assert audit.j_committed <= audit.j_probe + 1e-12


class TestRunMatch:
    def test_single_stage_against_zero_learner(self):
        result = run_match(make_learner("zero"), AdversaryConfig(0.25, 1))
        assert len(result.records) == 2  # opening trial plus one charged trial
        assert result.records.x[0] == 1.0
        assert result.records.y[0] == 0.0
        assert result.per_stage[0].trials == 1
        assert result.per_stage[0].accepted == 1
        assert result.total_loss == perturbation(1, 0.25) ** 1.25

    def test_forced_loss_lower_bound_for_every_learner(self):
        for eps in EPS_GRID:
            for kind in ("zero", "nearest", "linint"):
                result = run_match(make_learner(kind), AdversaryConfig(eps, 10))
                assert result.total_loss >= lower_bound_partial(eps, 10)

    def test_linint_loss_between_bounds(self):
        result = run_match(make_learner("linint"), AdversaryConfig(0.25, 10))
        assert lower_bound_partial(0.25, 10) <= result.total_loss
        assert result.total_loss <= upper_bound_linint(0.25)

    def test_acceptance_counts_meet_stage_quota(self):
        for eps in EPS_GRID:
            result = run_match(make_learner("linint"), AdversaryConfig(eps, 11))
            for s in result.per_stage:
                assert s.trials == 2 ** (s.i - 1)
                need = 1 if s.i == 1 else 2 ** (s.i - 2)
                assert s.accepted >= need

    def test_membership_and_energy_caps(self):
        for eps in EPS_GRID:
            audit = worst_audit(run_match(make_learner("nearest"), AdversaryConfig(eps, 10)))
            assert audit.max_abs_slope <= 1.0 + 1e-12
            assert audit.max_j_probe < 0.25
            assert audit.max_recursion_residual <= 1e-10
            # The committed energy, at every stage end of a state played a
            # stage at a time as run_match plays the learner.
            state = AdversaryState(AdversaryConfig(eps, 10))
            for _ in range(10):
                state._play("nearest")
                end = state.end_audit
                assert end.j_committed <= end.j_probe + 1e-12

    def test_revealed_labels_realized_by_final_function(self):
        result = run_match(make_learner("linint"), AdversaryConfig(0.1, 8))
        # The records hold every committed knot but the anchor (0, 0).
        xs, ys = result.records.x.tolist(), result.records.y.tolist()
        f = from_points([(0.0, 0.0)] + list(zip(xs, ys)))
        assert len(f.us) == 2**8 + 1
        for x, y in zip(xs, ys):
            assert evaluate(f, x) == y
        assert evaluate(f, 1.0) == 0.0
        assert derivative_norm(f, math.inf) <= 1.0 + 1e-12

    def test_distances_match_brute_force(self):
        result = run_match(make_learner("zero"), AdversaryConfig(0.3, 6))
        xs = result.records.x.tolist()
        for t in range(1, len(xs)):
            brute = min(abs(xs[t] - x) for x in xs[:t])
            assert result.records.d[t] == brute

    def test_deterministic_bit_for_bit(self):
        a = run_match(make_learner("linint"), AdversaryConfig(0.05, 9))
        b = run_match(make_learner("linint"), AdversaryConfig(0.05, 9))
        for column in fields(Trace):
            assert (
                getattr(a.records, column.name).tobytes()
                == getattr(b.records, column.name).tobytes()
            )
        assert a.total_loss == b.total_loss
        assert a.per_stage == b.per_stage
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_trace_csv(a.records, buf_a)
        write_trace_csv(b.records, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_loss_account_consistency(self):
        result = run_match(make_learner("zero"), AdversaryConfig(0.2, 8))
        p = 1.2
        assert len(result.records) - 1 == 2**8 - 1
        total = sum(e**p for e in result.records.e[1:].tolist())
        assert result.total_loss == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_prediction_is_rejected(self, bad):
        class BadLearner(Learner):
            kind = "bad"

            def predict(self, x):
                return bad

            def observe(self, x, y):
                pass

        with pytest.raises(DomainError, match="not finite"):
            run_match(BadLearner(), AdversaryConfig(0.25, 4))

    def test_overflowing_loss_term_is_a_domain_error(self):
        class HugeLearner(Learner):
            kind = "huge"

            def predict(self, x):
                return 1e300

            def observe(self, x, y):
                pass

        with pytest.raises(DomainError, match="overflows"):
            run_match(HugeLearner(), AdversaryConfig(0.25, 4))

    @pytest.mark.parametrize(
        "y_hat, eps, message",
        [(1e300, 0.25, "overflows"), (math.inf, 0.25, "total loss inf is not finite"),
         # Finite terms of 1.7e307 whose total overflows in stage 4.
         (2e279, 0.1, "total loss inf is not finite; predictions must be")],
    )
    def test_huge_prediction_is_a_domain_error_without_warnings(self, y_hat, eps, message):
        class FixedLearner(Learner):
            kind = "fixed"

            def predict(self, x):
                return y_hat

            def observe(self, x, y):
                pass

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                run_match(FixedLearner(), AdversaryConfig(eps, 4))

    def test_a_nan_prediction_stops_the_match_at_its_stage_end(self):
        # The third prediction is trial 2's, in stage 2, which ends at trial 3:
        # the match stops there, not after all 2^18 trials.
        class NanThird(ZeroLearner):
            calls = 0

            def predict(self, x):
                self.calls += 1
                return math.nan if self.calls == 3 else 0.0

        learner = NanThird()
        with pytest.raises(DomainError, match=r"^total loss nan is not finite; predictions must be$"):
            run_match(learner, AdversaryConfig(0.1, 18))
        assert learner.calls <= 4

    def test_json_schema(self):
        result = run_match(make_learner("zero"), AdversaryConfig(0.25, 3))
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert set(doc) == {"epsilon", "stages", "total_loss", "per_stage", "bounds"}
        assert doc["epsilon"] == 0.25
        assert doc["stages"] == 3
        assert len(doc["per_stage"]) == 3
        assert set(doc["per_stage"][0]) == {"i", "trials", "accepted", "J_probe_end"}
        assert set(doc["bounds"]) == {"lower_partial", "upper_linint"}
        assert doc["bounds"]["lower_partial"] == lower_bound_partial(0.25, 3)
        assert doc["bounds"]["upper_linint"] == upper_bound_linint(0.25)


class _NullSink:
    def write(self, text):
        pass

    def flush(self):
        pass


# Traced peaks in grid bytes, from a warm start. At S = 16 a match, whose
# records are its final grid, measured 3.55 for every kind: the grid and one
# block's temporaries, each a quarter of a grid at that size. With its trace
# CSV it measured 5.57 (zero) and 5.37 (linint, nearest): the grid, then one
# 4,096-row chunk's byte slots, held twice while their NULs are squeezed out.
# Holding the predictions, any other trace column, the learner's fill arrays
# or a second copy of the grid adds a grid or more to one or both.
MATCH_PEAK_GRIDS = 4.0
TRACED_PEAK_GRIDS = 6.0
# At S = 20 a block's temporaries are a 64th of a grid each, and a match
# measured 1.16 grids for every kind. Holding the last stage's proposals
# (half a grid) or a built-in learner's predictions (a grid) would exceed it.
LONG_MATCH_PEAK_GRIDS = 1.25


def _traced_peaks(kind, stages, csv):
    """The traced peak of run_match at stages, after a warm-up match for
    first-call allocations, then, given csv, that of the match and its trace
    CSV written: in grid bytes."""
    grid_bytes = ((1 << stages) + 1) * 8
    run_match(make_learner(kind), AdversaryConfig(0.1, 2))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run_match(make_learner(kind), AdversaryConfig(0.1, stages))
        peaks = [tracemalloc.get_traced_memory()[1] - before]
        if csv:
            write_trace_csv(result.records, _NullSink())
            del result
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        if not tracing:
            tracemalloc.stop()
    return [peak / grid_bytes for peak in peaks]


@pytest.mark.parametrize("kind", ["zero", "nearest", "linint"])
def test_traced_peak_of_a_match_and_its_trace_csv(kind):
    match_peak, peak = _traced_peaks(kind, 16, csv=True)
    assert match_peak <= MATCH_PEAK_GRIDS, match_peak
    assert peak <= TRACED_PEAK_GRIDS, peak


@pytest.mark.parametrize("kind", ["zero", "linint"])
def test_traced_peak_of_a_long_match_is_about_its_grid(kind):
    (peak,) = _traced_peaks(kind, 20, csv=False)
    assert peak <= LONG_MATCH_PEAK_GRIDS, peak
