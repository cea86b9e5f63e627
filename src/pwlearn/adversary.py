"""Adaptive adversary on the dyadic input schedule.

The adversary reveals labels that are consistent with a single function whose
slope never exceeds 1 in absolute value, while forcing any learner to absorb
a guaranteed amount of loss per stage. Stage i covers trials
t = 2^(i-1) .. 2^i - 1; the stage-i inputs are the odd multiples of 2^-i, so
every input is the exact midpoint of two already-committed knots at distance
exactly 2^-i. All those coordinates are exact dyadic doubles, which makes
exact-equality dictionary lookups safe.

Two functions are maintained:

* the committed function interpolates every revealed (x_t, y_t) plus the
  anchors (0, 0) and (1, 0);
* the probe function interpolates the *proposed* labels v_t of the current
  stage (regardless of acceptance) on top of the committed knots from earlier
  stages. Its energy budget is what forces acceptances.

A trial is accepted when the proposed label keeps both adjacent slopes at
most 1; otherwise the midpoint value is revealed, which leaves the committed
function unchanged as a function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import pwl
from .errors import DomainError, SequenceError
from .learner import Learner, Trace

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


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise DomainError(
            f"epsilon {epsilon!r} is outside the adversary's range (0, 0.5); "
            "use the bounds subcommand for that regime"
        )


def _check_stages(stages: int) -> None:
    if not 1 <= stages <= MAX_STAGES:
        raise DomainError(
            f"stages must lie in 1..{MAX_STAGES} (2^{MAX_STAGES} trials is the "
            f"desk-scale ceiling), got {stages!r}"
        )


@dataclass(frozen=True)
class AdversaryConfig:
    """Loss exponent offset and stage budget; a run covers 2^stages - 1 trials.

    Both are checked here: 0 < epsilon < 0.5 and 1 <= stages <= MAX_STAGES.
    """

    epsilon: float
    stages: int

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        _check_stages(self.stages)


def stage_of(t: int) -> int:
    """Stage index of trial t >= 1: the unique i with 2^(i-1) <= t <= 2^i - 1."""
    if t < 1:
        raise DomainError(f"trial index must be >= 1, got {t!r}")
    return t.bit_length()


def dyadic_x(t: int) -> float:
    """Input coordinate of trial t >= 1: 1/2^i + j/2^(i-1) within stage i.

    The result is an exact dyadic double (odd numerator over 2^i).
    """
    i = stage_of(t)
    j = t - (1 << (i - 1))
    return 1.0 / (1 << i) + j / float(1 << (i - 1))


def perturbation(i: int, epsilon: float) -> float:
    """Proposed-label offset magnitude in stage i: sqrt(eps)*(1-eps)^(i/2)/2^(i+1)."""
    if i < 1:
        raise DomainError(f"stage index must be >= 1, got {i!r}")
    _check_epsilon(epsilon)
    return math.sqrt(epsilon) * (1.0 - epsilon) ** (i / 2.0) / 2.0 ** (i + 1)


def _dict_energy(knots: dict[float, float]) -> float:
    """Energy of the interpolant of a coordinate->value mapping, from scratch."""
    m = len(knots)
    us = np.fromiter(knots.keys(), dtype=float, count=m)
    vs = np.fromiter(knots.values(), dtype=float, count=m)
    order = np.argsort(us)
    return pwl._energy_sum(us[order], vs[order])


class EnergyAudit(NamedTuple):
    j_probe: float
    j_committed: float
    recursion_residual: float


class AdversaryState:
    """Mutable per-match state; strictly sequential, one trial at a time."""

    def __init__(self, epsilon: float) -> None:
        _check_epsilon(epsilon)
        self.epsilon = epsilon
        self.committed: dict[float, float] = {0.0: 0.0, 1.0: 0.0}
        self.probe: dict[float, float] = dict(self.committed)
        self.next_t = 1
        # Geometry of the current stage i, set once by _begin_stage: knot
        # spacing 2^-i, proposal offset, last trial 2^i - 1, acceptances so far.
        self.stage = 0
        self.h = 1.0
        self.magnitude = 0.0
        self.stage_end = 0
        self.within = 0
        self.accepted = 0
        # Incremental probe energy plus the scratch value it was rebased to at
        # the last stage boundary; both feed the recursion audit.
        self.energy_probe = 0.0
        self.stage_start_energy = 0.0
        self.max_energy_probe = 0.0
        self.max_abs_slope = 0.0

    def _begin_stage(self) -> None:
        # Probe resets to the committed function; its energy is recomputed
        # from scratch so floating-point drift cannot cross stage boundaries.
        self.probe = dict(self.committed)
        self.energy_probe = self.stage_start_energy = _dict_energy(self.probe)
        i = self.stage = self.stage + 1
        self.h = 0.5**i
        self.magnitude = perturbation(i, self.epsilon)
        self.stage_end = (1 << i) - 1
        self.within = 0
        self.accepted = 0

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
        # dyadic_x(t): the odd numerator 2t + 1 - 2^i over 2^i, exact.
        x = (2 * t - self.stage_end) * h
        # Both neighbors are knots of earlier stages: next_t enforces the schedule.
        committed = self.committed
        vl = committed[x - h]
        vr = committed[x + h]
        base = 0.5 * (vl + vr)
        mag = self.magnitude
        # Furthest of base +/- mag from the prediction; ties take +.
        v = base - mag if y_hat > base else base + mag
        accepted = abs(v - vl) <= h and abs(v - vr) <= h
        y = v if accepted else base
        committed[x] = y
        # The probe agrees with the committed function at left and right
        # (both are pre-stage knots), so its value at x is also base and the
        # midpoint insertion grows its energy by 2*(v-base)^2/h.
        self.probe[x] = v
        diff = v - base
        self.energy_probe += 2.0 * diff * diff / h
        if self.energy_probe > self.max_energy_probe:
            self.max_energy_probe = self.energy_probe
        slope_l = abs(y - vl) / h
        slope_r = abs(vr - y) / h
        biggest = slope_l if slope_l >= slope_r else slope_r
        if biggest > self.max_abs_slope:
            self.max_abs_slope = biggest
        self.within += 1
        self.accepted += accepted
        self.next_t += 1
        return y, accepted

    def committed_function(self) -> pwl.PiecewiseLinearFunction:
        return pwl.from_points(self.committed.items())


def audit_energy(state: AdversaryState) -> EnergyAudit:
    """Recompute both energies from the actual knots and compare the probe's
    against the closed-form recursion for the current stage.

    The expected probe energy after j in-stage trials is the stage-start
    energy plus j * eps*(1-eps)^i / 2^(i+1); the residual is the absolute
    difference between that and the scratch recomputation.
    """
    j_probe = _dict_energy(state.probe)
    j_committed = _dict_energy(state.committed)
    # Before stage 1 nothing has been proposed: within = 0, so expected = 0.
    eps = state.epsilon
    step = eps * (1.0 - eps) ** state.stage / 2.0 ** (state.stage + 1)
    expected = state.stage_start_energy + state.within * step
    return EnergyAudit(j_probe, j_committed, abs(j_probe - expected))


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
    learner_kind: str
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
    audited from scratch at every stage boundary (and every trial when
    ``audit_per_trial`` is set, which costs O(n) per trial). With
    ``collect_records=False`` only totals and audits are kept, which is the
    cheap mode for sweeps; otherwise ``records`` is the columnar Trace. A
    loss term that overflows, or a non-finite total loss (a NaN or infinite
    prediction), raises DomainError.
    """
    eps = config.epsilon
    p = 1.0 + eps
    state = AdversaryState(eps)
    learner.predict(X0)  # uncharged; the opening prediction is discarded
    learner.observe(X0, Y0)
    # Trace columns, trial 0 first; NaN marks its uncharged fields.
    xs, ys = [X0], [Y0]
    y_hats, es, ds, terms = [math.nan], [math.nan], [math.nan], [math.nan]
    total = 0.0
    per_stage: list[StageSummary] = []
    max_resid = 0.0
    max_jp = 0.0
    max_jc = 0.0
    for t in range(1, 1 << config.stages):
        x = dyadic_x(t)
        y_hat = learner.predict(x)
        y, _accepted = state.respond(t, y_hat)
        learner.observe(x, y)
        e = abs(y_hat - y)
        try:
            term = e**p
        except OverflowError:
            raise DomainError(
                f"loss term at trial {t} overflows; predictions must be moderate"
            ) from None
        total += term
        stage_end = t == state.stage_end
        if collect_records:
            # Neighbor distance is exactly 2^-stage; respond() asserts it.
            xs.append(x)
            y_hats.append(y_hat)
            ys.append(y)
            es.append(e)
            ds.append(state.h)
            terms.append(term)
        if audit_per_trial or stage_end:
            audit = audit_energy(state)
            if audit.recursion_residual > max_resid:
                max_resid = audit.recursion_residual
            if audit.j_probe > max_jp:
                max_jp = audit.j_probe
            if audit.j_committed > max_jc:
                max_jc = audit.j_committed
            if stage_end:
                per_stage.append(
                    StageSummary(
                        state.stage,
                        state.within,
                        state.accepted,
                        audit.j_probe,
                    )
                )
    # One check per match: NaN and inf both survive the running sum.
    if not math.isfinite(total):
        raise DomainError(f"total loss {total!r} is not finite; predictions must be")
    records = None
    if collect_records:
        records = Trace(*(np.array(c, dtype=float) for c in (xs, y_hats, ys, es, ds, terms)))
    from .bounds import lower_bound_partial, upper_bound_linint

    return MatchResult(
        epsilon=eps,
        stages=config.stages,
        learner_kind=getattr(learner, "kind", type(learner).__name__),
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
