"""Every real parameter pwlearn takes in goes through one check.

For each entry point below, None, text and a bool are refused as not real
numbers, NaN and a value just outside either end of the parameter's interval
are refused with the interval in the message, and an int too large for a
double is refused, all as DomainError; a numpy float in range is accepted as
the float it holds. The adversary's epsilon keeps the message that names the
bounds subcommand, whatever the reason it is refused.

The entries that take arrays of reals refuse text, bytes, bools, complex
numbers and other objects among them as DomainError naming the argument,
without a warning, and widen float32 and integer arrays to float64.
"""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pwlearn import (
    AdversaryConfig,
    DomainError,
    Error,
    ExperimentConfig,
    ZeroLearner,
    bound_report,
    check_proof_inequalities,
    derivative_norm,
    energy,
    energy_increment,
    evaluate_many,
    from_points,
    is_member,
    kl_d_bound,
    kl_invariants,
    lower_bound_closed_form,
    lower_bound_partial,
    perturbation,
    run_trials,
    sample_target,
    upper_bound_linint,
)

ADVERSARY = (
    "epsilon {!r} is outside the adversary's range (0, 0.5); "
    "use the bounds subcommand for that regime"
)
TENT = from_points([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])
FLAT = [(0.0, 0.0), (1.0, 0.0)]
PAIRS = [(0.5, 0.0), (0.25, 0.5), (0.75, -0.25)]
TRACE = run_trials(ZeroLearner(), PAIRS, 2.0)[0]
INF = math.inf


def _validated_epsilon(eps):
    config = ExperimentConfig(epsilons=[eps])
    config.validate()
    return config.epsilons[0]


# id: (call taking the real, name in the message (None: the adversary's
# message), the interval's ends lo and hi, its brackets, a value inside)
ENTRY_POINTS = {
    "AdversaryConfig": (lambda v: AdversaryConfig(v, 3).epsilon, None, 0.0, 0.5, "()", 0.1),
    "perturbation": (lambda v: perturbation(2, v), None, 0.0, 0.5, "()", 0.1),
    "ExperimentConfig": (_validated_epsilon, None, 0.0, 0.5, "()", 0.1),
    "upper_bound_linint": (upper_bound_linint, "epsilon", 0.0, 1.0, "()", 0.7),
    "lower_bound_partial": (
        lambda v: lower_bound_partial(v, 10), "epsilon", 0.0, 0.5, "()", 0.1,
    ),
    "lower_bound_closed_form": (lower_bound_closed_form, "epsilon", 0.0, 0.5, "()", 0.1),
    "bound_report": (lambda v: bound_report(v, 10).epsilon, "epsilon", 0.0, 1.0, "()", 0.7),
    "check_proof_inequalities": (
        lambda v: check_proof_inequalities([0.3, v]).min_slack, "grid value", 0.0, 1.0, "()",
        0.7,
    ),
    "kl_d_bound": (kl_d_bound, "exponent r", 1.0, INF, "(]", 2.5),
    "kl_invariants-r": (lambda v: kl_invariants(TRACE, v)[1], "exponent r", 1.0, INF, "(]", 1.5),
    "kl_invariants-more_r": (
        lambda v: kl_invariants(TRACE, 2.0, v)[2], "exponent r", 1.0, INF, "(]", 3.0,
    ),
    "run_trials": (
        lambda v: run_trials(ZeroLearner(), PAIRS, v)[1].total, "loss exponent", 1.0, INF,
        "(]", 1.5,
    ),
    "derivative_norm": (lambda v: derivative_norm(TENT, v), "norm order", 1.0, INF, "[]", 3.0),
    "is_member-q": (lambda v: is_member(TENT, v), "norm order", 1.0, INF, "[]", 3.0),
    "sample_target": (
        lambda v: energy(sample_target(v, 5, 0)), "norm order", 1.0, INF, "[]", 2.0,
    ),
    "is_member-tol": (lambda v: is_member(TENT, 2.0, v), "tolerance", 0.0, INF, "[)", 0.1),
    "energy_increment-tol": (
        lambda v: energy_increment(FLAT, 0.5, 1.0, tol=v), "tolerance", 0.0, INF, "[)", 0.1,
    ),
    "energy_increment-x": (lambda v: energy_increment(FLAT, v, 1.0), "x", -INF, INF, "()", 0.5),
    "energy_increment-y": (lambda v: energy_increment(FLAT, 0.5, v), "y", -INF, INF, "()", 0.75),
}


def _refused(entry, value, message):
    call, name = entry[:2]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == (ADVERSARY.format(value) if name is None else message)


def _outside(lo, hi, ends):
    # Just outside each end: an open end itself, the next double past a
    # closed one; nothing lies past a closed infinite end.
    values = []
    if ends[0] == "(" or lo > -INF:
        values.append(lo if ends[0] == "(" else math.nextafter(lo, -INF))
    if ends[1] == ")" or hi < INF:
        values.append(hi if ends[1] == ")" else math.nextafter(hi, INF))
    return values


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("value", [None, "0.1", True, np.True_, Decimal("0.1"), 0.5j])
def test_non_reals_are_refused(entry, value):
    _refused(entry, value, f"{entry[1]} must be a real number, got {value!r}")


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_nan_and_values_just_outside_are_refused(entry):
    _, name, lo, hi, ends, _ = entry
    interval = f"{ends[0]}{lo:g}, {hi:g}{ends[1]}"
    for value in (math.nan, *_outside(lo, hi, ends)):
        _refused(entry, value, f"{name} must lie in {interval}, got {value!r}")


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_closed_ends_are_accepted(entry):
    call, _, lo, hi, ends, _ = entry
    for end, bracket in ((lo, ends[0]), (hi, ends[1])):
        if bracket in "[]":
            call(end)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_an_int_too_large_for_a_double_is_refused(entry):
    for value in (10**400, -(10**400)):
        _refused(entry, value, f"{entry[1]} must fit in a double, got a number past ±1.8e308")


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_numpy_float_is_accepted_as_a_float(entry):
    call, inside = entry[0], entry[5]
    for value in (np.float32(inside), np.float64(inside)):
        result, expected = call(value), call(float(value))
        assert type(result) is type(expected) and result == expected


HOSTILE = st.one_of(
    st.floats(),
    st.sampled_from([
        -0.0, 5e-324, 2.2250738585072014e-308, 2.0**-52, 1e-16, 1e308, -1e308, INF, -INF,
        True, False, np.True_, None, "0.1", "nan", Decimal("0.1"), 1j, 10**400,
    ]),
    st.integers(-3, 3),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@settings(max_examples=40)
@given(value=HOSTILE)
def test_any_value_gives_a_finite_result_or_a_pwlearn_error(entry, value):
    call, inside = entry[0], entry[5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except Error:
            return
    assert type(result) is type(call(inside))
    assert math.isfinite(result)


# (entry, call taking the array, what it is given, the DomainError's message)
ARRAY_REFUSALS = [
    ("evaluate_many", lambda v: evaluate_many(TENT, v), ["0.5", b"0.25"],
     "evaluation points must be real numbers: got <U4 values"),
    ("evaluate_many", lambda v: evaluate_many(TENT, v), np.array([0.5 + 1j]),
     "evaluation points must be real numbers: got complex128 values"),
    ("evaluate_many", lambda v: evaluate_many(TENT, v), [0.5, None],
     "evaluation points must be real numbers: got object values"),
    ("evaluate_many", lambda v: evaluate_many(TENT, v), np.array([True, False]),
     "evaluation points must be real numbers: got bool values"),
    ("run_trials", lambda v: run_trials(ZeroLearner(), v, 2.0), [("0.5", "1"), ("0.25", True)],
     "expected (x, y) pairs of real numbers: got <U5 values"),
    ("run_trials", lambda v: run_trials(ZeroLearner(), v, 2.0), [(0.5, Decimal("1"))],
     "expected (x, y) pairs of real numbers: got object values"),
    ("run_trials", lambda v: run_trials(ZeroLearner(), v, 2.0), np.zeros((2, 2), complex),
     "expected (x, y) pairs of real numbers: got complex128 values"),
    ("run_trials", lambda v: run_trials(ZeroLearner(), v, 2.0), [(True, False)],
     "expected (x, y) pairs of real numbers: got bool values"),
    # numpy reads a bool among floats as a float.
    ("evaluate_many", lambda v: evaluate_many(TENT, v), [0.5, True],
     "evaluation points must be real numbers: got bool values"),
    ("evaluate_many", lambda v: evaluate_many(TENT, v), (0.5, np.False_),
     "evaluation points must be real numbers: got bool values"),
    ("run_trials", lambda v: run_trials(ZeroLearner(), v, 2.0), [(0.5, True), (0.25, 1.0)],
     "expected (x, y) pairs of real numbers: got bool values"),
    ("run_trials", lambda v: run_trials(ZeroLearner(), v, 2.0), [[0.5, 0.0], (np.True_, 1)],
     "expected (x, y) pairs of real numbers: got bool values"),
    ("from_points", from_points, [("0.5", 1), (0, 0)],
     "point 0 u must be a real number, got '0.5'"),
    ("from_points", from_points, [(0.0, 0.0), (0.5, 1j)],
     "point 1 v must be a real number, got 1j"),
    ("from_points", from_points, [(0.5, np.True_)],
     "point 0 v must be a real number, got np.True_"),
    ("from_points", from_points, [(Decimal("0.5"), 0.0)],
     "point 0 u must be a real number, got Decimal('0.5')"),
    ("from_points", from_points, [(0.5, 10**400)],
     "point 0 v must fit in a double, got a number past ±1.8e308"),
    # A 0-d array keeps its own dtype among the values.
    ("evaluate_many", lambda v: evaluate_many(TENT, v), [[0.5], [np.array(True)]],
     "evaluation points must be real numbers: got bool values"),
    ("run_trials", lambda v: run_trials(ZeroLearner(), v, 2.0),
     [(0.5, np.array(True)), (0.25, 1.0)],
     "expected (x, y) pairs of real numbers: got bool values"),
    ("from_points", from_points, [0.5], "point 0 must be a (u, v) pair, got 0.5"),
    ("from_points", from_points, 5, "expected (u, v) pairs, got 5"),
    ("from_points", from_points, [(0.0, 0.0), (1, 2, 3)],
     "point 1 must be a (u, v) pair, got (1, 2, 3)"),
    ("from_points", from_points, [(0.5,)], "point 0 must be a (u, v) pair, got (0.5,)"),
    # Two items unpack from each of these, but none is a (u, v) pair.
    ("from_points", from_points, [b"\x00\x01"], "point 0 must be a (u, v) pair, got b'\\x00\\x01'"),
    ("from_points", from_points, [(0.0, 0.0), bytearray(b"\x00\x01")],
     "point 1 must be a (u, v) pair, got bytearray(b'\\x00\\x01')"),
    ("from_points", from_points, ["01"], "point 0 must be a (u, v) pair, got '01'"),
    ("from_points", from_points, [{0.5: "a", 0.25: "b"}],
     "point 0 must be a (u, v) pair, got {0.5: 'a', 0.25: 'b'}"),
    ("from_points", from_points, [{0.5, 0.25}], "point 0 must be a (u, v) pair, got {0.5, 0.25}"),
]


@pytest.mark.parametrize("entry, call, values, message", ARRAY_REFUSALS,
                         ids=[f"{row[0]}-{k}" for k, row in enumerate(ARRAY_REFUSALS)])
def test_an_array_entry_refuses_what_is_not_real(entry, call, values, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            call(values)
    assert str(info.value) == message


def test_array_entries_widen_float32_and_int_arrays():
    xs = np.array([0.0, 0.25, 0.5, 1.0], dtype=np.float32)
    assert evaluate_many(TENT, xs).tobytes() == evaluate_many(TENT, xs.astype(float)).tobytes()
    ints = np.array([[0, 1], [1, 0], [0, 0]])
    got, want = run_trials(ZeroLearner(), ints, 2.0), run_trials(ZeroLearner(), ints * 1.0, 2.0)
    assert got[0].d.tobytes() == want[0].d.tobytes() and got[1] == want[1]
    points = [(np.float32(0.5), np.int64(1)), (0, np.float32(0.25))]
    assert from_points(points) == from_points([(0.5, 1.0), (0.0, 0.25)])


# Floats mixed with what is not a real number, in nested lists or object arrays.
LEAF = st.one_of(
    st.floats(),
    st.sampled_from([True, False, np.True_, None, "0.5", b"0.5", 0.5j, Decimal("0.5"), 10**400]),
)
NESTED = st.recursive(LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=8)


def _object_array(items):
    array = np.empty(len(items), dtype=object)
    for k, item in enumerate(items):
        array[k] = item
    return array


def _leaves(values):
    if isinstance(values, (list, np.ndarray)):
        return [leaf for item in values for leaf in _leaves(item)]
    return [values]


ARRAY_ENTRIES = {
    "evaluate_many": lambda v: evaluate_many(TENT, v),
    "run_trials": lambda v: run_trials(ZeroLearner(), v, 2.0),
    "from_points": from_points,
}


@pytest.mark.parametrize("call", ARRAY_ENTRIES.values(), ids=ARRAY_ENTRIES.keys())
@settings(max_examples=100)
@example(values=[[2.0]])  # a 2-D input's first bad point, read as a scalar
@example(values=[[0.5, True], [0.25, 1.0]])  # numpy reads the bool as 1.0
@given(values=st.lists(NESTED, max_size=4).flatmap(
    lambda items: st.sampled_from([items, _object_array(items)])))
def test_an_array_entry_returns_or_refuses_as_a_domain_error(call, values):
    # A value only when every entry is a float, and never a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(values)
        except DomainError:
            return
    assert all(type(leaf) is float for leaf in _leaves(values))
