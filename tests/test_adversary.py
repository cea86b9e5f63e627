import io
import json
import math

import numpy as np
import pytest

from pwlearn import (
    MAX_STAGES,
    AdversaryConfig,
    AdversaryState,
    DomainError,
    SequenceError,
    audit_energy,
    dyadic_x,
    evaluate,
    lower_bound_partial,
    make_learner,
    perturbation,
    run_match,
    stage_of,
    upper_bound_linint,
    write_trace_csv,
)

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

    def test_stage_budget(self):
        with pytest.raises(DomainError):
            AdversaryConfig(0.25, 0)

    def test_stage_ceiling(self):
        AdversaryConfig(0.25, MAX_STAGES)
        with pytest.raises(DomainError, match=str(MAX_STAGES)):
            AdversaryConfig(0.25, MAX_STAGES + 1)


class TestRespond:
    def test_first_trial_accepts_positive_perturbation(self):
        state = AdversaryState(0.25)
        y, accepted = state.respond(1, 0.0)  # tie: prediction equals base 0
        assert accepted
        assert y == perturbation(1, 0.25)

    def test_takes_the_far_side_of_the_prediction(self):
        state = AdversaryState(0.25)
        y, _ = state.respond(1, 10.0)
        assert y == -perturbation(1, 0.25)

    def test_out_of_order_trials_rejected(self):
        state = AdversaryState(0.25)
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
            state = AdversaryState(eps)
            for t in range(1, 2**8):
                y_hat = float(rng.normal(0.0, 0.2))
                y, accepted = state.respond(t, y_hat)
                if accepted:
                    assert abs(y - y_hat) >= perturbation(stage_of(t), eps) * (1 - 1e-12)

    def test_rejected_trials_split_probe_from_committed(self):
        # The probe keeps the proposed label even when the revealed label is
        # the interpolated one.
        state = AdversaryState(0.25)
        split = []
        for t in range(1, 2**8):
            x = dyadic_x(t)
            _, accepted = state.respond(t, 0.0)
            if not accepted:
                split.append(x)
                assert state.probe[x] != state.committed[x]
            elif stage_of(t) == state.stage:
                assert state.probe[x] == state.committed[x]
        assert split, "expected at least one rejected trial at eps=0.25, S=8"

    def test_rejection_keeps_committed_function_unchanged(self):
        state = AdversaryState(0.25)
        for t in range(1, 2**8):
            x = dyadic_x(t)
            before = state.committed_function()
            value_before = evaluate(before, x)
            _, accepted = state.respond(t, 0.0)
            if not accepted:
                assert state.committed[x] == value_before


class TestAuditEnergy:
    def test_before_any_trial(self):
        audit = audit_energy(AdversaryState(0.25))
        assert audit == (0.0, 0.0, 0.0)

    def test_stage_end_energy_bound(self):
        for eps in (0.4, 0.1):
            state = AdversaryState(eps)
            for t in range(1, 2**7):
                state.respond(t, 0.0)
                i = state.stage
                if t == 2**i - 1:
                    audit = audit_energy(state)
                    cap = (eps / 4.0) * sum((1 - eps) ** k for k in range(i + 1))
                    assert audit.j_probe <= cap + 1e-12

    def test_residual_tracks_closed_form_recursion(self):
        state = AdversaryState(0.3)
        for t in range(1, 2**7):
            state.respond(t, 1.0)
            assert audit_energy(state).recursion_residual <= 1e-10

    def test_committed_energy_never_exceeds_probe_energy(self):
        state = AdversaryState(0.25)
        for t in range(1, 2**8):
            state.respond(t, 0.0)
            audit = audit_energy(state)
            assert audit.j_committed <= audit.j_probe + 1e-12


class TestRunMatch:
    def test_single_stage_against_zero_learner(self):
        result = run_match(make_learner("zero"), AdversaryConfig(0.25, 1))
        assert len(result.records) == 2  # opening trial plus one charged trial
        assert result.records[0].x == 1.0
        assert result.records[0].y == 0.0
        assert result.per_stage[0].trials == 1
        assert result.per_stage[0].accepted == 1
        assert result.total_loss == perturbation(1, 0.25) ** 1.25

    def test_forced_loss_lower_bound_for_every_learner(self):
        for eps in EPS_GRID:
            for kind in ("zero", "nearest", "linint"):
                result = run_match(
                    make_learner(kind),
                    AdversaryConfig(eps, 10),
                    collect_records=False,
                )
                assert result.total_loss >= lower_bound_partial(eps, 10)

    def test_linint_loss_between_bounds(self):
        result = run_match(
            make_learner("linint"), AdversaryConfig(0.25, 10), collect_records=False
        )
        assert lower_bound_partial(0.25, 10) <= result.total_loss
        assert result.total_loss <= upper_bound_linint(0.25)

    def test_acceptance_counts_meet_stage_quota(self):
        for eps in EPS_GRID:
            result = run_match(
                make_learner("linint"), AdversaryConfig(eps, 11), collect_records=False
            )
            for s in result.per_stage:
                assert s.trials == 2 ** (s.i - 1)
                need = 1 if s.i == 1 else 2 ** (s.i - 2)
                assert s.accepted >= need

    def test_membership_and_energy_caps(self):
        for eps in EPS_GRID:
            result = run_match(
                make_learner("nearest"),
                AdversaryConfig(eps, 10),
                collect_records=False,
                audit_per_trial=True,
            )
            audit = result.audit
            assert audit.max_abs_slope <= 1.0 + 1e-12
            assert audit.max_j_probe < 0.25
            assert audit.max_j_committed <= audit.max_j_probe + 1e-12
            assert audit.max_recursion_residual <= 1e-10

    def test_revealed_labels_realized_by_final_function(self):
        result = run_match(make_learner("linint"), AdversaryConfig(0.1, 8))
        f = result.final_function
        for rec in result.records:
            assert evaluate(f, rec.x) == rec.y
        # anchors are part of the committed function
        assert evaluate(f, 0.0) == 0.0
        assert evaluate(f, 1.0) == 0.0

    def test_distances_match_brute_force(self):
        result = run_match(make_learner("zero"), AdversaryConfig(0.3, 6))
        xs = [rec.x for rec in result.records]
        for k, rec in enumerate(result.records):
            if rec.t == 0:
                continue
            brute = min(abs(rec.x - x) for x in xs[:k])
            assert rec.d == brute

    def test_deterministic_bit_for_bit(self):
        a = run_match(make_learner("linint"), AdversaryConfig(0.05, 9))
        b = run_match(make_learner("linint"), AdversaryConfig(0.05, 9))
        assert a.records == b.records
        assert a.total_loss == b.total_loss
        assert a.per_stage == b.per_stage
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_trace_csv(a.records, buf_a)
        write_trace_csv(b.records, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_loss_account_consistency(self):
        result = run_match(make_learner("zero"), AdversaryConfig(0.2, 8))
        p = 1.2
        assert result.loss.p == pytest.approx(p)
        total = sum(rec.e**p for rec in result.records[1:])
        assert result.total_loss == pytest.approx(total, rel=1e-12)
        assert result.loss.trials == 2**8 - 1

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
