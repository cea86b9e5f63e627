"""Adaptive adversary on the dyadic input schedule.

The adversary reveals labels that are consistent with a single function whose
slope never exceeds 1 in absolute value, while forcing any learner to absorb
a guaranteed amount of loss per stage. Stage i covers trials
t = 2^(i-1) .. 2^i - 1; the stage-i inputs are the odd multiples of 2^-i, so
every input is the exact midpoint of two already-committed knots at distance
exactly 2^-i.

A match of S stages holds one float64 array, the committed function at the
final spacing 2^-S: the anchors (0, 0) and (1, 0), then each label as it is
revealed (NaN before). Stage i works on the view grid[::2^(S-i)], whose odd
entries are its inputs, filled left to right between earlier knots. A
proposed label is base ± mag, base the midpoint of the stage-start knots
around the input, on the far side of the prediction: the grid and the
predictions fix every proposal (_proposals). The probe function is the view
with the proposals at the odd entries; its energy budget is what forces
acceptances. A trial is accepted when the proposed label keeps both adjacent
slopes at most 1; otherwise the midpoint value is revealed, which leaves the
committed function unchanged as a function.

No input inside a stage lies nearer to another stage input than the two
stage-start knots around it, so the built-in learners' predictions follow from
those knots. The state holds a match's predictions as MatchTrace does: a fresh
built-in learner's kind, played a stage at a time, or y_hat in trial order
from any other learner, played trial by trial through predict/respond/observe.
Five functions read a stage off the grid, each for its own use: respond plays
one trial; AdversaryState._fold reveals, charges, reads and records a whole
stage, a block of trials at a time; audit_energy, the scalar oracle, audits the live
state; _trial_audits reads j_probe and the residual after every mid-stage
trial off a finished match; MatchTrace._rows reads trace rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import pwl
from .bounds import _perturbation, lower_bound_partial, upper_bound_linint
from .errors import DomainError, SequenceError, _check_int, _check_not_tiny, _check_real
from .learner import (
    _BLOCK, TRACE_HEADER, Learner, ZeroLearner, _carry, _charge, _fill, _fresh,
    _midpoint_predictions, _pow_terms,
)

__all__ = [
    "MAX_STAGES",
    "AdversaryConfig",
    "AdversaryState",
    "EnergyAudit",
    "StageSummary",
    "MatchAudit",
    "MatchResult",
    "MatchTrace",
    "dyadic_x",
    "stage_of",
    "perturbation",
    "audit_energy",
    "run_match",
]

# Opening trial: presented to the learner before any loss is charged.
X0 = 1.0
Y0 = 0.0

# 2^24 trials is around 16M committed knots; past that, memory and runtime
# stop being desk-scale.
MAX_STAGES = 24
_DESK_SCALE = f" (2^{MAX_STAGES} trials is the desk-scale ceiling)"


def _check_epsilon(epsilon) -> float:
    try:
        eps = _check_real("epsilon", epsilon, 0.0, 0.5)
    except DomainError:
        raise DomainError(
            f"epsilon {epsilon!r} is outside the adversary's range (0, 0.5); "
            "use the bounds subcommand for that regime"
        ) from None
    return _check_not_tiny(eps)


@dataclass(frozen=True)
class AdversaryConfig:
    """Loss exponent offset and stage budget; a run covers 2^stages - 1 trials.

    Both are checked here, and a numpy number is stored as a Python one:
    epsilon in (0, 0.5) with 1 + epsilon > 1, stages in 1..MAX_STAGES.
    """

    epsilon: float
    stages: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))
        stages = _check_int("stages", self.stages, 1, MAX_STAGES, _DESK_SCALE)
        object.__setattr__(self, "stages", stages)


def stage_of(t: int) -> int:
    """Stage index of trial t >= 1: the unique i with 2^(i-1) <= t <= 2^i - 1."""
    return _check_int("trial index", t, 1).bit_length()


def dyadic_x(t: int) -> float:
    """Input coordinate of trial t >= 1: 1/2^i + j/2^(i-1) within stage i.

    The result is an exact dyadic double (odd numerator over 2^i).
    """
    i = stage_of(t)
    j = t - (1 << (i - 1))
    return 1.0 / (1 << i) + j / float(1 << (i - 1))


def perturbation(i: int, epsilon: float) -> float:
    """Proposed-label offset magnitude in stage i: sqrt(eps)*(1-eps)^(i/2)/2^(i+1)."""
    i = _check_int("stage index", i, 1, 1022, " (2^1023 is the largest power of 2 a double holds)")
    return _perturbation(i, _check_epsilon(epsilon))


class EnergyAudit(NamedTuple):
    j_probe: float
    j_committed: float
    recursion_residual: float


@dataclass(frozen=True)
class StageSummary:
    i: int
    trials: int
    accepted: int
    j_probe_end: float


@dataclass(frozen=True)
class MatchAudit:
    """Worst values over the stages recorded so far, which AdversaryState._fold
    folds in a stage at a time: the committed slope, the incremental probe
    energy and, at stage ends, the scratch probe energy and the residual;
    _trial_audits gives j_probe and the residual after the mid-stage trials."""

    max_abs_slope: float
    max_j_probe: float
    max_recursion_residual: float


class AdversaryState:
    """Mutable per-match state: the grid, the predictions in MatchTrace's form
    and the record of the stages finished. respond plays one trial, _play a
    whole stage. _fold alone records a finished stage: its loss in total_loss,
    its StageSummary in per_stage, its worst values in audit (a MatchAudit),
    max_energy_probe and end_audit (audit_energy at the stage end). A trial
    past the config's stage budget raises SequenceError."""

    def __init__(self, config: AdversaryConfig) -> None:
        self.epsilon = config.epsilon
        self.stages = config.stages
        self.grid = np.full((1 << config.stages) + 1, math.nan)
        self.grid[[0, -1]] = 0.0
        # The current stage's view of the grid; before stage 1, the anchors.
        self.committed = self.grid[:: 1 << config.stages]
        # A fresh built-in learner's kind, which _play sets, or y_hat in trial
        # order, which respond allocates at trial 1 (NaN for trial 0) and fills.
        self.predictions: str | np.ndarray = np.empty(0)
        self.total_loss = 0.0
        self.next_t = 1
        # Geometry of the current stage i, set once by _begin_stage: knot
        # spacing 2^-i, proposal offset, last trial 2^i - 1, trials so far.
        self.stage = self.stage_end = self.within = 0
        self.h, self.magnitude = 1.0, 0.0
        # end_audit's j_committed, from scratch, is the next stage's start probe
        # energy, which the incremental probe energy and the residual run from.
        self.end_audit = EnergyAudit(0.0, 0.0, 0.0)
        self.stage_start_energy = self.max_energy_probe = 0.0
        self.per_stage, self.audit = [], MatchAudit(0.0, 0.0, 0.0)

    def _begin_stage(self) -> None:
        # Summed afresh at the last stage end: no drift crosses a stage boundary.
        if self.stage == self.stages:
            raise SequenceError(f"trial {self.next_t} is past the budget of {self.stages} stages")
        self.stage_start_energy = self.end_audit.j_committed
        i = self.stage = self.stage + 1
        self.committed = self.grid[:: 1 << (self.stages - i)]
        self.h = 0.5**i
        self.magnitude = _perturbation(i, self.epsilon)
        self.stage_end = (1 << i) - 1
        self.within = 0

    def respond(self, t: int, y_hat: float) -> tuple[float, bool]:
        """Reveal the label for trial t given the learner's prediction.

        Returns (y_t, accepted). Accepted trials reveal the proposed label,
        which sits at distance >= perturbation(i, epsilon) from y_hat by the
        furthest-sign choice; rejected trials reveal the midpoint of the
        committed neighbors, leaving the committed function unchanged.
        y_hat joins predictions. The stage's last trial records the stage
        (_fold), raising DomainError if _charge refuses its loss.
        """
        if t != self.next_t:
            raise SequenceError(f"expected trial {self.next_t}, got {t}")
        if t > self.stage_end:
            self._begin_stage()
            if t == 1:
                self.predictions = np.full(1 << self.stages, math.nan)
        h = self.h
        # x_t = k·h; both neighbours are knots of earlier stages.
        k = 2 * self.within + 1
        committed = self.committed
        vl = committed.item(k - 1)
        vr = committed.item(k + 1)
        base = 0.5 * (vl + vr)
        mag = self.magnitude
        # Furthest of base +/- mag from the prediction as the double _fold
        # compares (a float32 compared with a float is rounded); ties take +.
        v = base - mag if float(y_hat) > base else base + mag
        accepted = abs(v - vl) <= h and abs(v - vr) <= h
        y = v if accepted else base
        committed[k] = y
        self.predictions[t] = y_hat
        self.within += 1
        self.next_t += 1
        if t == self.stage_end:
            self._fold()
        return y, accepted

    def _play(self, predictions: str | np.ndarray) -> None:
        """Play the next stage whole on predictions in MatchTrace's form: a
        fresh built-in learner's kind, or y_hat in trial order."""
        if self.next_t != self.stage_end + 1:
            raise SequenceError(f"a whole stage starts at a stage boundary; trial "
                                f"{self.next_t} is inside stage {self.stage}")
        self._begin_stage()
        self.predictions = predictions
        self._fold()

    def _fold(self) -> None:
        """Reveal, charge and read the stage just played, _BLOCK trials at a
        time, with respond's operations elementwise (a stage respond played
        gets the same labels again), and record it, for both ways of play.
        Trial w's input is the view's index 2w + 1, between stage-start knots
        2w and 2w + 2; _charge adds the loss terms in trial order, and a block
        it refuses raises before the stage is recorded."""
        i, h, mag, p = self.stage, self.h, self.magnitude, 1.0 + self.epsilon
        n = first = 1 << (i - 1)
        total, where = self.total_loss, f"in stage {i}"
        energy, accepted, steepest, sums = self.stage_start_energy, 0, 0.0, []
        for a in range(0, n, _BLOCK):
            block = self.committed[2 * a : 2 * min(a + _BLOCK, n) + 1]
            vl, y, vr = block[:-1:2], block[1::2], block[2::2]
            y_hat, base, v = _proposals(self.predictions, vl, vr, h, first + a, mag)
            # The probe's terms rise²/h; |rise| <= h iff term <= h, as h is a power of two.
            probe = _probe_terms(vl, v, vr, h, np.empty(len(block) - 1))
            ok = np.maximum(probe[::2], probe[1::2]) <= h
            y[:] = np.where(ok, v, base)
            # As many as y == v: a rejected y is base, never v = base ± mag, since
            # |base| < 1 (half an ulp at most 2^-54) and mag > 2^-52 for every config.
            accepted += int(np.count_nonzero(ok))
            e = np.subtract(y_hat, y)  # not in y_hat, a view of a loop's predictions
            total = _charge(total, np.abs(e, out=e), p, where, "predictions")
            del y_hat  # a block's predictions are not held past its loss
            # The probe is base at x until v is inserted, adding 2·(v − base)²/h to its
            # energy: a running sum in trial order from the stage start, largest last.
            d = np.subtract(v, base, out=base)  # then (d·2)·d·(1/h) in place
            energy = _carry(energy, np.multiply(np.multiply(d * 2.0, d, out=d), 1.0 / h, out=d))
            jp = np.add.reduce(probe)  # np.sum's own reduction
            rises = np.subtract(block[1:], block[:-1], out=probe)  # each segment has an input
            steepest = max(steepest, float(np.abs(rises, out=rises).max()))
            sums.append((float(jp), float(np.add.reduce(_energy_terms(h, rises)))))
        # np.sum splits the stage's 2n terms (n a power of two) into halves
        # down to the blocks: adding their sums pairwise gives _energy_sum's bits.
        while len(sums) > 1:
            sums = [(p0 + p1, c0 + c1) for (p0, c0), (p1, c1) in zip(sums[::2], sums[1::2])]
        jp, jc = sums[0]
        resid = _recursion_residual(self.epsilon, i, self.stage_start_energy, n, jp)
        self.total_loss, self.within, self.next_t = total, n, self.stage_end + 1
        self.max_energy_probe = max(self.max_energy_probe, energy)
        self.end_audit = EnergyAudit(jp, jc, resid)
        self.per_stage.append(StageSummary(i, n, accepted, jp))
        # max is exact: each worst value keeps the bits of the stage it comes from.
        stage_worst = (steepest / h, max(energy, jp), resid)
        self.audit = MatchAudit(*map(max, vars(self.audit).values(), stage_worst))


def _proposals(predictions, vl, vr, h, t, mag) -> tuple[np.ndarray, ...]:
    """(y_hat, base, v) of one stage's trials from t on, between stage-start
    knots vl and vr at spacing 2h, off predictions in MatchTrace's form and
    offset mag, with respond's operations elementwise."""
    if isinstance(predictions, str):
        # t is a power of two only at the stage's first trial.
        y_hat = _midpoint_predictions(predictions, vl, vr, h, slice(t & (t - 1) == 0))
    else:
        y_hat = predictions[t : t + len(vl)]
    base = np.add(vl, vr)
    base *= 0.5
    # Furthest of base +/- mag from the prediction; ties take +. x − m is x + (−m).
    v = np.where(y_hat > base, -mag, mag)
    return y_hat, base, np.add(v, base, out=v)


def _probe_terms(vl, v, vr, h, out) -> np.ndarray:
    # The probe's energy terms at spacing h, in place in out, from its rises
    # v − vl and vr − v around each proposal v, in coordinate order.
    np.subtract(v, vl, out=out[::2])
    np.subtract(vr, v, out=out[1::2])
    return _energy_terms(h, out)


def _energy_terms(h, rises) -> np.ndarray:
    # pwl._energy_terms in place at h = 2^-i, times the exact 1/h: x·(1/h) rounds as x/h.
    return np.multiply(np.multiply(rises, rises, out=rises), 1.0 / h, out=rises)


def _recursion_residual(epsilon: float, i: int, start, within, j_probe):
    # |J_probe - expected| after stage i's first `within` trials from the
    # stage-start energy; on arrays too, elementwise with the same operations.
    step = epsilon * (1.0 - epsilon) ** i / 2.0 ** (i + 1)
    return abs(j_probe - (start + within * step))


def audit_energy(state: AdversaryState) -> EnergyAudit:
    """Recompute both energies from the actual knots and compare the probe's
    against the closed-form recursion for the current stage.

    The expected probe energy after j in-stage trials is the stage-start
    energy plus j * eps*(1-eps)^i / 2^(i+1); the residual is the absolute
    difference between that and the scratch recomputation. end_audit gives
    these bits at a stage end, _trial_audits j_probe and the residual after
    mid-stage trials up to rounding; both are tested against this oracle.
    """
    # Before stage 1 nothing has been proposed: within = 0, so expected = 0.
    k = np.flatnonzero(~np.isnan(state.committed))  # the knots revealed so far
    du, w = np.diff(k * state.h), state.within
    knots = state.committed[::2]
    probe = state.committed.copy()  # the stage's view with the proposals so far
    probe[1 : 2 * w : 2] = _proposals(state.predictions, knots[:w], knots[1 : w + 1], state.h,
                                      state.next_t - w, state.magnitude)[2]
    j_probe = pwl._energy_sum(du, probe[k])
    resid = _recursion_residual(state.epsilon, state.stage, state.stage_start_energy, w, j_probe)
    return EnergyAudit(j_probe, pwl._energy_sum(du, state.committed[k]), resid)


def _trial_audits(result: MatchResult) -> np.ndarray:
    """audit_energy's j_probe and residual right after every trial of a
    finished match but the stage ends, whose audits end_audit gives: shape
    (2, 2^S - S - 1), stage i's trial t in column t - i. After w trials the
    probe's segments are the full probe's first 2w, then the stage-start
    knots' from the w-th on, whose terms sum to the stage-start energy less
    their first w: two prefix sums, recursive where audit_energy's is pairwise."""
    records, eps, stages = result.records, result.epsilon, result.stages
    audits = np.empty((2, (1 << stages) - stages - 1))
    for i in range(2, stages + 1):
        n, h = 1 << (i - 1), 0.5**i
        committed = records.grid[:: 1 << (stages - i)]
        vl, vr = committed[:-1:2], committed[2::2]
        v = _proposals(records.predictions, vl, vr, h, n, _perturbation(i, eps))[2]
        probe = np.cumsum(_probe_terms(vl, v, vr, h, np.empty(2 * n)))
        evens = pwl._energy_terms(2.0 * h, vr - vl)
        start = np.sum(evens)  # the state's stage_start_energy, bit for bit
        j_probe, resid = audits[:, n - i : 2 * n - 1 - i]  # trials n .. 2n - 2
        np.add(probe[1:-2:2], start - np.cumsum(evens)[:-1], out=j_probe)
        resid[:] = _recursion_residual(eps, i, start, np.arange(1, n), j_probe)
    return audits


def _time_order(stages: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Grid index, at spacing 2^-stages, of the input of each trial from start
    up to stop (every trial by default): trial 0 at x = 1, then stage i's
    inputs (2w+1)·2^-i left to right."""
    t = np.arange(start, 1 << stages if stop is None else stop)
    i = np.frexp(t)[1]  # the stage of trial t >= 1: its bit length
    return np.where(t > 0, (2 * t + 1 - (1 << i)) << (stages - i), 1 << stages)


@dataclass(frozen=True, eq=False)
class MatchTrace:
    """A match's trace as what fixes it: the final grid at spacing 2^-S
    (read-only), p and the predictions: a fresh built-in learner's kind, which
    with the grid fixes them, or y_hat in trial order, NaN for trial 0. Reading
    a Trace column computes it; write_trace_csv computes a chunk of rows at a time."""

    grid: np.ndarray
    p: float
    predictions: str | np.ndarray

    def __len__(self) -> int:
        return len(self.grid) - 1

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only when normal lookup fails: the computed columns.
        columns = TRACE_HEADER[1:7]  # Trace's fields
        if name not in columns:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self._rows(0, len(self))[columns.index(name)]

    def _rows(self, start: int, stop: int) -> tuple[np.ndarray, ...]:
        """Trace's columns for trials start .. min(stop, len) - 1: x = k·2^-S, y =
        grid[k] and d = 2^-i, k's lowest set bit s times 2^-S (NaN for trial 0, k =
        2^S). A stage-i trial was predicted off the knots at k ∓ s, the first at x = d."""
        n = len(self)
        k = _time_order(n.bit_length() - 1, start, min(stop, n))
        s, y = k & -k, self.grid[k]
        if isinstance(self.predictions, str):
            vr = self.grid[np.minimum(k + s, n)]  # trial 0's is out of play
            y_hat = _midpoint_predictions(self.predictions, self.grid[k - s], vr, s / n, k == s)
            y_hat[k == n] = math.nan
        else:
            y_hat = self.predictions[start:stop].copy()  # the reader's own, as every column
        e = np.abs(y_hat - y)
        d = np.where(k < n, s / n, math.nan)
        return k / n, y_hat, y, e, d, _pow_terms(e, self.p)


@dataclass(frozen=True)
class MatchResult:
    epsilon: float
    stages: int
    total_loss: float
    records: MatchTrace
    per_stage: list[StageSummary]
    audit: MatchAudit
    lower_partial: float
    upper_linint: float

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "stages": self.stages,
            "total_loss": self.total_loss,
            "per_stage": [
                {"i": s.i, "trials": s.trials, "accepted": s.accepted, "J_probe_end": s.j_probe_end}
                for s in self.per_stage
            ],
            "bounds": {"lower_partial": self.lower_partial, "upper_linint": self.upper_linint},
        }


def _knots(grid: np.ndarray) -> tuple[np.ndarray, ...]:
    # Every knot of a final grid but (0, 0): in time order, then in coordinate order.
    n = len(grid) - 1
    k = _time_order(n.bit_length() - 1)
    return k / n, grid[k], np.arange(1, n + 1) / n


def run_match(learner: Learner, config: AdversaryConfig) -> MatchResult:
    """Play the adversary against a learner for the full stage budget.

    Trial 0 presents (1, 0) with no loss charged; trials 1 .. 2^stages - 1
    alternate predict/respond at loss exponent p = 1 + epsilon. The state
    records each stage, its energy audit included, at its end; _trial_audits
    audits mid-stage trials off the finished match. A loss term that
    overflows, or a total loss that is not finite (a NaN or infinite
    prediction), raises DomainError at the end of its stage. ``records`` is
    the match's MatchTrace: the final grid and the state's predictions.

    A fresh learner of exact built-in type (zero, nearest, or linint with
    nothing observed) is played a stage at a time on its kind, and its state
    is filled from the final grid on its first use, equal to what observing
    each trial would leave. Every other learner is played trial by trial
    through predict, respond and observe. Both give the same bits.
    """
    eps = config.epsilon
    state = AdversaryState(config)
    by_stage = _fresh(learner)
    if not by_stage:
        learner.predict(X0)  # uncharged; the opening prediction is discarded
        learner.observe(X0, Y0)
    for i in range(1, config.stages + 1):
        if by_stage:
            state._play(learner.kind)
        else:  # trial by trial through predict, respond and observe
            xs = (2.0 * np.arange(1 << (i - 1)) + 1.0) * 0.5**i
            for t, x in enumerate(xs.tolist(), start=state.next_t):
                learner.observe(x, state.respond(t, learner.predict(x))[0])
    grid = state.grid
    grid.setflags(write=False)
    if by_stage and type(learner) is not ZeroLearner:
        _fill(learner, lambda: _knots(grid))
    return MatchResult(
        epsilon=eps,
        stages=config.stages,
        total_loss=state.total_loss,
        records=MatchTrace(grid, 1.0 + eps, state.predictions),
        per_stage=state.per_stage,
        audit=state.audit,
        lower_partial=lower_bound_partial(eps, config.stages),
        upper_linint=upper_bound_linint(eps),
    )
