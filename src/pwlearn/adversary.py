"""Adaptive adversary on the dyadic input schedule.

The adversary reveals labels that are consistent with a single function whose
slope never exceeds 1 in absolute value, while forcing any learner to absorb
a guaranteed amount of loss per stage. Stage i covers trials
t = 2^(i-1) .. 2^i - 1; the stage-i inputs are the odd multiples of 2^-i, so
every input is the exact midpoint of two already-committed knots at distance
exactly 2^-i.

Two functions are maintained, each as a float64 array on the dense level-i
grid k·2^-i, k = 0 .. 2^i:

* the committed function interpolates every revealed (x_t, y_t) plus the
  anchors (0, 0) and (1, 0);
* the probe function interpolates the *proposed* labels v_t of the current
  stage (regardless of acceptance) on top of the committed knots from earlier
  stages. Its energy budget is what forces acceptances.

A new stage spreads the committed grid onto the next level (the old knots at
the even indices); the stage's trials then fill the odd indices left to
right, so trial t's neighbours are the grid entries on either side of it.

A trial is accepted when the proposed label keeps both adjacent slopes at
most 1; otherwise the midpoint value is revealed, which leaves the committed
function unchanged as a function.

No input inside a stage lies nearer to another stage input than the two
stage-start knots around it, so the built-in learners' predictions for a whole
stage follow from the stage-start grid. run_match plays a fresh learner of
exact built-in type a stage at a time on the arrays; any other learner goes
through predict/respond/observe trial by trial. Either way play only writes
the grids: _end_stage reads a finished stage's acceptances, probe energy and
steepest slope off them, and _stage_audits its audits (the audit after trial
w reads only grid indices up to 2w, final once trial w is revealed).
audit_energy, the same audit from the live state, is the scalar oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import pwl
from .errors import DomainError, SequenceError, _check_int
from .learner import (
    Learner, Trace, ZeroLearner, _fill, _fresh, _midpoint_predictions, _pow_terms,
    _running_total,
)

__all__ = [
    "MAX_STAGES",
    "AdversaryConfig",
    "AdversaryState",
    "EnergyAudit",
    "StageSummary",
    "MatchAudit",
    "MatchResult",
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


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise DomainError(
            f"epsilon {epsilon!r} is outside the adversary's range (0, 0.5); "
            "use the bounds subcommand for that regime"
        )


@dataclass(frozen=True)
class AdversaryConfig:
    """Loss exponent offset and stage budget; a run covers 2^stages - 1 trials.

    Both are checked here: 0 < epsilon < 0.5 and stages an integer in
    1..MAX_STAGES (a numpy integer is stored as an int).
    """

    epsilon: float
    stages: int

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
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
    _check_epsilon(epsilon)
    return math.sqrt(epsilon) * (1.0 - epsilon) ** (i / 2.0) / 2.0 ** (i + 1)


class EnergyAudit(NamedTuple):
    j_probe: float
    j_committed: float
    recursion_residual: float


class AdversaryState:
    """Mutable per-match state: the committed and probe grids of the current
    stage. respond plays one trial and _respond_stage a whole stage; both only
    write the grids, and _end_stage reads each finished stage off them, so
    accepted (that stage's), max_abs_slope and max_energy_probe change once a stage."""

    def __init__(self, epsilon: float) -> None:
        _check_epsilon(epsilon)
        self.epsilon = epsilon
        # Before stage 1 the grid is the two anchors, x = 0 and x = 1.
        self.committed = np.zeros(2)
        self.probe = self.committed.copy()
        self.next_t = 1
        # Geometry of the current stage i, set once by _begin_stage: knot
        # spacing 2^-i, proposal offset, last trial 2^i - 1, trials so far.
        self.stage = 0
        self.h = 1.0
        self.magnitude = 0.0
        self.stage_end = 0
        self.within = 0
        self.accepted = 0
        # The probe energy at the stage start, from scratch; the incremental
        # probe energy runs from it, and both feed the recursion audit.
        self.stage_start_energy = 0.0
        self.max_energy_probe = self.max_abs_slope = 0.0

    def _begin_stage(self) -> None:
        # Spread the committed knots onto the next level's even indices; the
        # odd ones are this stage's inputs, NaN until revealed. The probe
        # starts as a copy, its energy summed afresh on the old grid so that
        # floating-point drift cannot cross stage boundaries.
        old = self.committed
        self.stage_start_energy = pwl._energy_sum(self.h, old)
        grid = np.full(2 * len(old) - 1, math.nan)
        grid[::2] = old
        self.committed = grid
        self.probe = grid.copy()
        i = self.stage = self.stage + 1
        self.h = 0.5**i
        self.magnitude = perturbation(i, self.epsilon)
        self.stage_end = (1 << i) - 1
        self.within = 0

    def _filled(self, within: int) -> np.ndarray:
        """Grid indices set after the stage's first `within` trials, in
        coordinate order: the trials fill the odd indices left to right, so
        they are every index up to 2·within, then the even indices (the
        earlier stages' knots) after it."""
        done = 2 * within if self.stage else 1
        return np.concatenate((np.arange(done + 1), np.arange(done + 2, len(self.committed), 2)))

    def respond(self, t: int, y_hat: float) -> tuple[float, bool]:
        """Reveal the label for trial t given the learner's prediction.

        Returns (y_t, accepted). Accepted trials reveal the proposed label,
        which sits at distance >= perturbation(i, epsilon) from y_hat by the
        furthest-sign choice; rejected trials reveal the midpoint of the
        committed neighbors, leaving the committed function unchanged.
        """
        if t != self.next_t:
            raise SequenceError(f"expected trial {self.next_t}, got {t}")
        if t > self.stage_end:
            self._begin_stage()
        h = self.h
        # x_t = k·h; both neighbours are knots of earlier stages.
        k = 2 * self.within + 1
        committed = self.committed
        vl = committed.item(k - 1)
        vr = committed.item(k + 1)
        base = 0.5 * (vl + vr)
        mag = self.magnitude
        # Furthest of base +/- mag from the prediction; ties take +.
        v = base - mag if y_hat > base else base + mag
        accepted = abs(v - vl) <= h and abs(v - vr) <= h
        y = v if accepted else base
        committed[k] = y
        self.probe[k] = v
        self.within += 1
        self.next_t += 1
        if t == self.stage_end:
            self._end_stage()
        return y, accepted

    def _respond_stage(self, y_hat: np.ndarray) -> None:
        """Reveal every label of the next stage at once, given all of its
        predictions in trial order. The grids end as respond on each trial in
        turn leaves them, with the same bits: each step is respond's
        operation, elementwise."""
        if self.next_t != self.stage_end + 1:
            raise SequenceError(
                f"a whole stage starts at a stage boundary; trial {self.next_t} is "
                f"inside stage {self.stage}"
            )
        self._begin_stage()
        committed, h, mag = self.committed, self.h, self.magnitude
        vl, vr = committed[:-1:2], committed[2::2]
        base = 0.5 * (vl + vr)
        v = np.where(y_hat > base, base - mag, base + mag)
        accepted = (np.abs(v - vl) <= h) & (np.abs(v - vr) <= h)
        committed[1::2] = np.where(accepted, v, base)
        self.probe[1::2] = v
        self.within = len(v)
        self.next_t = self.stage_end + 1
        del base, v, accepted  # before _end_stage's temporaries
        self._end_stage()

    def _end_stage(self) -> None:
        """Read the stage just played off its grids. Trial w's input is grid
        index 2w + 1, between the stage-start knots 2w and 2w + 2. The probe
        holds its proposal v, a magnitude away from base, and the committed
        grid its label: v if the trial was accepted, base if not."""
        committed, h = self.committed, self.h
        v = self.probe[1::2]
        self.accepted = int(np.count_nonzero(committed[1::2] == v))
        # The probe agrees with the committed function at both neighbours, so
        # its value there is base and the insertion of v grows its energy by
        # 2·(v − base)²/h: a running sum in trial order from the stage start.
        diff = v - 0.5 * (committed[:-1:2] + committed[2::2])
        increments = 2.0 * diff * diff / h
        energy = _running_total(np.concatenate(([self.stage_start_energy], increments)))
        # The increments are nonnegative, so the stage's last energy is its largest.
        self.max_energy_probe = max(self.max_energy_probe, energy)
        # Every segment of the grid has one of the stage's inputs at an end.
        slope = float(np.abs(committed[1:] - committed[:-1]).max()) / h
        self.max_abs_slope = max(self.max_abs_slope, slope)


def _recursion_residual(state: AdversaryState, within, j_probe):
    # |J_probe - expected| after the stage's first `within` trials; on arrays
    # too, elementwise with the same operations.
    eps = state.epsilon
    step = eps * (1.0 - eps) ** state.stage / 2.0 ** (state.stage + 1)
    return abs(j_probe - (state.stage_start_energy + within * step))


def audit_energy(state: AdversaryState) -> EnergyAudit:
    """Recompute both energies from the actual knots and compare the probe's
    against the closed-form recursion for the current stage.

    The expected probe energy after j in-stage trials is the stage-start
    energy plus j * eps*(1-eps)^i / 2^(i+1); the residual is the absolute
    difference between that and the scratch recomputation. run_match reads
    the same values, with the same bits, off a finished stage's grids
    (_stage_audits); this is the oracle those are tested against.
    """
    # Before stage 1 nothing has been proposed: within = 0, so expected = 0.
    k = state._filled(state.within)
    du = np.diff(k * state.h)
    j_probe = pwl._energy_sum(du, state.probe[k])
    j_committed = pwl._energy_sum(du, state.committed[k])
    return EnergyAudit(j_probe, j_committed, _recursion_residual(state, state.within, j_probe))


def _stage_audits(state: AdversaryState, per_trial: bool) -> np.ndarray:
    """audit_energy as it read right after each trial of the stage just
    played, or after its last trial only, with the same bits: rows j_probe,
    j_committed and residual, one column per audit.

    After w trials the knots in coordinate order are the grid indices 0..2w,
    then the even indices after 2w (see _filled). Their segments are the
    first 2w segments of the full grid followed by the even knots' segments
    from the w-th on (the w-th joins 2w and 2w + 2). So every audit sums a
    row of the same terms, in the same order, as _energy_sum does: the knot
    coordinates are multiples of h, so every run is h or 2h exactly.
    """
    last, h = state.within, state.h
    if per_trial:
        within = np.arange(1, last + 1)
        grids = np.stack((state.probe, state.committed))
        full = pwl._energy_terms(h, grids)
        sums = np.empty((2, last))
        # Audit w's row is row[:, last - w:]: full's first 2w terms, written
        # over the even knots' terms before their w-th, which stay in place.
        row = np.empty((2, 2 * last))
        row[:, last:] = pwl._energy_terms(2.0 * h, grids[:, ::2])
        for w in within.tolist():
            row[:, last - w : last + w] = full[:, : 2 * w]
            np.add.reduce(row[:, last - w :], axis=1, out=sums[:, w - 1])
    else:
        # After the last trial every grid index is filled.
        within = last
        sums = np.array([[pwl._energy_sum(h, grid)] for grid in (state.probe, state.committed)])
    return np.vstack((sums, _recursion_residual(state, within, sums[0])))


@dataclass(frozen=True)
class StageSummary:
    i: int
    trials: int
    accepted: int
    j_probe_end: float


@dataclass(frozen=True)
class MatchAudit:
    """Worst values observed over a whole match."""

    max_abs_slope: float
    max_j_probe: float
    max_j_committed: float
    max_recursion_residual: float


@dataclass(frozen=True)
class MatchResult:
    epsilon: float
    stages: int
    total_loss: float
    records: Optional[Trace]
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
                {
                    "i": s.i,
                    "trials": s.trials,
                    "accepted": s.accepted,
                    "J_probe_end": s.j_probe_end,
                }
                for s in self.per_stage
            ],
            "bounds": {
                "lower_partial": self.lower_partial,
                "upper_linint": self.upper_linint,
            },
        }


def _play_stage(learner: Learner, state: AdversaryState, xs: np.ndarray) -> np.ndarray:
    """One stage trial by trial through predict, respond and observe, as any
    learner but a fresh built-in one is played; returns the predictions."""
    y_hats: list[float] = []
    for t, x in enumerate(xs.tolist(), start=state.next_t):
        y_hat = learner.predict(x)
        learner.observe(x, state.respond(t, y_hat)[0])
        y_hats.append(y_hat)
    return np.array(y_hats, dtype=float)


def _time_order(stages: int) -> np.ndarray:
    """Grid index, at spacing 2^-stages, of every trial's input: trial 0 at
    x = 1, then stage i's inputs (2w+1)·2^-i left to right."""
    n = 1 << stages
    k = np.empty(n, dtype=np.intp)
    k[0] = n
    for i in range(1, stages + 1):
        first = 1 << (i - 1)
        k[first : 2 * first] = (2 * np.arange(first) + 1) << (stages - i)
    return k


def run_match(
    learner: Learner,
    config: AdversaryConfig,
    *,
    collect_records: bool = True,
    audit_per_trial: bool = False,
) -> MatchResult:
    """Play the adversary against a learner for the full stage budget.

    Trial 0 presents (1, 0) with no loss charged; trials 1 .. 2^stages - 1
    alternate predict/respond at loss exponent p = 1 + epsilon. Energy is
    audited from scratch at every stage boundary (and after every trial when
    ``audit_per_trial`` is set, which costs O(n) per trial). With
    ``collect_records=False`` only totals and audits are kept, which is the
    cheap mode for sweeps; otherwise ``records`` is the columnar Trace. A
    loss term that overflows, or a non-finite total loss (a NaN or infinite
    prediction), raises DomainError.

    A fresh learner of exact built-in type (zero, nearest, or linint with
    nothing observed) is played a stage at a time: its predictions come from
    the stage-start grid, _respond_stage reveals the stage, and the learner's
    state is filled in bulk at the end, equal to what observing each trial
    would leave. Every other learner is played trial by trial through
    predict, respond and observe. Both give the same bits. Whichever path
    played a stage, its labels are read off the committed grid and its
    audits off the finished grids (_stage_audits).
    """
    eps = config.epsilon
    p = 1.0 + eps
    state = AdversaryState(eps)
    by_stage = _fresh(learner)
    if not by_stage:
        learner.predict(X0)  # uncharged; the opening prediction is discarded
        learner.observe(X0, Y0)
    n = 1 << config.stages
    if collect_records:
        # Trace columns, trial 0 first; NaN marks its uncharged fields.
        y_hats, es, ds, terms_col = (np.full(n, math.nan) for _ in range(4))
    total = 0.0
    per_stage: list[StageSummary] = []
    max_resid = max_jp = max_jc = 0.0
    for i in range(1, config.stages + 1):
        first = 1 << (i - 1)
        h = 0.5**i
        if by_stage:
            y_hat = _midpoint_predictions(learner.kind, state.committed, h)
            state._respond_stage(y_hat)
        else:
            y_hat = _play_stage(learner, state, (2.0 * np.arange(first) + 1.0) * h)
        y = state.committed[1::2]
        j_probe, j_committed, residual = _stage_audits(state, audit_per_trial)
        e = np.abs(y_hat - y)
        try:
            terms = _pow_terms(e, p)
        except OverflowError:
            raise DomainError(
                f"a loss term in stage {i} overflows; predictions must be moderate"
            ) from None
        total = _running_total(np.append(total, terms))
        if collect_records:
            trials = slice(first, 2 * first)
            y_hats[trials] = y_hat
            es[trials] = e
            ds[trials] = h  # every neighbour is exactly 2^-i away
            terms_col[trials] = terms
        max_resid = max(max_resid, float(residual.max()))
        max_jp = max(max_jp, float(j_probe.max()))
        max_jc = max(max_jc, float(j_committed.max()))
        per_stage.append(StageSummary(i, state.within, state.accepted, float(j_probe[-1])))
    # One check per match: NaN and inf both survive the running sum.
    if not math.isfinite(total):
        raise DomainError(f"total loss {total!r} is not finite; predictions must be")
    fill = by_stage and type(learner) is not ZeroLearner
    records = None
    if fill or collect_records:
        # Trial t's input is k[t]·2^-stages on the final grid and its label the
        # grid value there; the learner and the trace each get their own arrays.
        k = _time_order(config.stages)
        spacing = 0.5**config.stages
        if fill:
            # The learner holds every knot but (0, 0), in time order.
            _fill(learner, k * spacing, state.committed[k], np.arange(1, n + 1) * spacing)
        if collect_records:
            records = Trace(k * spacing, y_hats, state.committed[k], es, ds, terms_col)
    from .bounds import lower_bound_partial, upper_bound_linint

    return MatchResult(
        epsilon=eps,
        stages=config.stages,
        total_loss=total,
        records=records,
        per_stage=per_stage,
        audit=MatchAudit(
            max_abs_slope=state.max_abs_slope,
            max_j_probe=max(state.max_energy_probe, max_jp),
            max_j_committed=max_jc,
            max_recursion_residual=max_resid,
        ),
        lower_partial=lower_bound_partial(eps, config.stages),
        upper_linint=upper_bound_linint(eps),
    )
