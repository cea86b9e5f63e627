"""Every integer count pwlearn takes in goes through one check.

For each entry point below, a bool and a float are refused as not integers,
and a value outside the count's range is refused with the range in the
message, all as DomainError; a numpy integer is accepted as the int it holds.
"""

import argparse

import numpy as np
import pytest

from pwlearn import (
    AdversaryConfig,
    DomainError,
    bound_report,
    cli,
    dyadic_x,
    from_points,
    integrate_energy_oracle,
    lower_bound_partial,
    parse_epsilon_grid,
    perturbation,
    run_invariant_audit,
    run_sweep,
    sample_target,
    stage_of,
)
from pwlearn.harness import audit_trace_run

DESK = " (2^24 trials is the desk-scale ceiling)"
POW2 = " (2^1023 is the largest power of 2 a double holds)"
TENT = from_points([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])


def _audited(**counts):
    # The least audit that plays: one trace run of two trials, 15 one-stage matches.
    return run_invariant_audit(**{"runs": 1, "stages": 1, "max_trials": 2, **counts})


def _bounds_command(n):
    args = argparse.Namespace(
        epsilon=0.7, epsilons=None, epsilon_grid=None, partial_stages=n, out=None
    )
    return cli._cmd_bounds(args)


# id: (call taking the count, name in the message, what the range message
# says, lowest and highest allowed value (None: no ceiling), a value that
# is allowed, a float that is refused)
ENTRY_POINTS = {
    "AdversaryConfig-stages": (
        lambda n: AdversaryConfig(0.1, n).stages, "stages", f"lie in 1..24{DESK}", 1, 24, 3, 3.0,
    ),
    "run_sweep-stages": (
        lambda n: next(run_sweep([0.1], stages=n)).stages, "stages", f"lie in 1..24{DESK}",
        1, 24, 3, 3.5,
    ),
    "run_invariant_audit-stages": (
        lambda n: _audited(stages=n).adversary_stages, "stages",
        "lie in 1..12 (the audit's cap on its adversary matches)", 1, 12, 3, 3.5,
    ),
    # The report has no seed: a numpy seed must give the int seed's report.
    "run_invariant_audit-seed": (
        lambda n: _audited(seed=n), "seed", "be nonnegative", 0, None, 7, 1.5,
    ),
    "run_invariant_audit-runs": (
        lambda n: _audited(runs=n).runs, "runs", "lie in 0..1048576", 0, 1 << 20, 2, 2.0,
    ),
    "run_invariant_audit-max_trials": (
        lambda n: _audited(max_trials=n).trials_total, "max_trials",
        f"lie in 2..16777216{DESK}", 2, 1 << 24, 9, 2.5,
    ),
    "lower_bound_partial": (
        lambda n: lower_bound_partial(0.25, n), "stage count", "lie in 1..1048576",
        1, 1 << 20, 10, 10.0,
    ),
    "bound_report-eps-0.3": (
        lambda n: bound_report(0.3, n).lower_partial, "stage count", "lie in 1..1048576",
        1, 1 << 20, 10, 2.0,
    ),
    # Past 0.5 no partial sum is computed, yet the count is checked the same.
    "bound_report-eps-0.7": (
        lambda n: bound_report(0.7, n).upper_linint, "stage count", "lie in 1..1048576",
        1, 1 << 20, 10, 2.0,
    ),
    "bounds-partial-stages": (
        _bounds_command, "--partial-stages", "lie in 1..1048576", 1, 1 << 20, 60, 60.0,
    ),
    "sample_target": (
        lambda n: sample_target(2.0, n, 0), "knot_count", "be at least 2", 2, None, 5, 2.5,
    ),
    "integrate_energy_oracle": (
        lambda n: integrate_energy_oracle(TENT, n), "subdivision count", "be at least 1",
        1, None, 8, 2.5,
    ),
    # 2.0 ** (i + 1) overflows past i = 1022.
    "perturbation": (
        lambda n: perturbation(n, 0.1), "stage index", f"lie in 1..1022{POW2}", 1, 1022, 1022, 1.5,
    ),
    "stage_of": (stage_of, "trial index", "be at least 1", 1, None, 5, 1.0),
    "dyadic_x": (dyadic_x, "trial index", "be at least 1", 1, None, 5, 2.0),
    "audit_trace_run": (
        lambda n: audit_trace_run(np.random.default_rng(0), n)[1], "max_trials",
        f"lie in 2..16777216{DESK}", 2, 1 << 24, 50, 50.0,
    ),
}


def _refused(call, value, message):
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_bool_and_float_are_not_integers(entry):
    call, name, _, _, _, _, bad_float = entry
    _refused(call, True, f"{name} must be an integer, got True")
    _refused(call, bad_float, f"{name} must be an integer, got {bad_float!r}")


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_values_outside_the_range_are_refused(entry):
    call, name, range_text, lo, hi, _, _ = entry
    _refused(call, lo - 1, f"{name} must {range_text}, got {lo - 1}")
    if hi is not None:
        _refused(call, hi + 1, f"{name} must {range_text}, got {hi + 1}")


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_numpy_integer_is_accepted_as_an_int(entry):
    call, _, _, _, _, ok, _ = entry
    result = call(np.int64(ok))
    assert result == call(ok)
    if isinstance(result, (int, np.integer)):
        assert type(result) is int


@pytest.mark.parametrize(
    "n, message",
    [(-1, "log grid size must lie in 0..1048576, got -1"),
     ((1 << 20) + 1, "log grid size must lie in 0..1048576, got 1048577")],
)
def test_log_grid_size_range(n, message):
    # The size is parsed from text, so only its range can be wrong.
    _refused(parse_epsilon_grid, f"log:0.1:0.2:{n}", message)


def test_perturbation_refuses_an_index_far_past_its_ceiling():
    _refused(lambda n: perturbation(n, 0.1), 1100,
             f"stage index must lie in 1..1022{POW2}, got 1100")
