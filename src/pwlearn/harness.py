"""Experiment orchestration: seeded target sampling, sweeps, and audits.

All randomness flows through numpy's default generator (PCG64) seeded from an
explicit 64-bit seed; per-run generators are derived with SeedSequence.spawn.
Identical config and seed therefore reproduce every output byte for byte.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import IO, Iterable, Iterator

import numpy as np

from . import pwl
from .adversary import (
    _DESK_SCALE, MAX_STAGES, AdversaryConfig, _check_epsilon, _trial_audits, run_match,
)
from .bounds import kl_d_bound
from .errors import AuditFailure, DegenerateInput, DomainError, _check_int, _check_real
from .learner import (
    LinintLearner, LossAccount, _dealt, _repeats, kl_invariants, make_learner, run_trials,
    write_csv,
)

__all__ = [
    "MAX_STAGES",
    "ExperimentConfig",
    "SweepRow",
    "SWEEP_CSV_HEADER",
    "AuditReport",
    "parse_epsilon_grid",
    "sample_target",
    "run_sweep",
    "audit_trace_run",
    "run_invariant_audit",
]

DEFAULT_AUDIT_EPSILONS = (0.4, 0.25, 0.1, 0.05, 0.02)
# Largest log:a:b:n grid; each point is a whole match or bound row.
MAX_GRID_SIZE = 1 << 20
# Most audit runs: 1,000 take about 1.7 s on two CPUs, 2^20 about half an hour.
MAX_RUNS = 1 << 20


@dataclass
class ExperimentConfig:
    """What run_sweep and run_invariant_audit read; nothing else is configurable."""

    learner: str = "linint"
    epsilons: list[float] = field(default_factory=list)
    stages: int = 14
    seed: int = 0
    runs: int = 1000
    max_trials: int = 10_000

    def validate(self) -> None:
        """Check every field: an unknown learner raises UnknownKind; the seed
        and budgets must be integers and each epsilon a real in (0, 0.5) (a
        numpy number is stored as a Python one, a bool is refused). runs is
        capped at MAX_RUNS, max_trials at 2^MAX_STAGES, the desk-scale ceiling."""
        make_learner(self.learner)
        # Checking every epsilon up front stops a sweep before its first match.
        self.stages = _check_int("stages", self.stages, 1, MAX_STAGES, _DESK_SCALE)
        self.epsilons = [_check_epsilon(eps) for eps in self.epsilons]
        self.seed = _check_int("seed", self.seed)
        self.runs = _check_int("runs", self.runs, 0, MAX_RUNS)
        self.max_trials = _check_max_trials(self.max_trials)


def _check_max_trials(max_trials: int) -> int:
    return _check_int("max_trials", max_trials, 2, 1 << MAX_STAGES, _DESK_SCALE)


def parse_epsilon_grid(text: str) -> list[float]:
    """Parse "log:a:b:n" (n log-spaced points from a to b) or a comma list."""
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise DomainError(f"bad grid spec {text!r}; expected log:a:b:n")
        try:
            a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise DomainError(f"bad grid spec {text!r}: {exc}") from exc
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise DomainError(f"log grid endpoints must be positive and finite, got {a!r}, {b!r}")
        _check_int("log grid size", n, 0, MAX_GRID_SIZE)
        return [float(e) for e in np.geomspace(a, b, n)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad epsilon list {text!r}: {exc}") from exc


def _sample_target_rng(
    q: float, knot_count: int, rng: np.random.Generator
) -> pwl.PiecewiseLinearFunction:
    # One sort a draw: a repeat, or an interior 0.0 next to the anchor, redraws.
    while True:
        us = np.sort(np.concatenate(([0.0, 1.0], rng.random(knot_count - 2))))
        if not _repeats(us):
            break
    vs = rng.normal(0.0, 1.0, size=knot_count)
    f = pwl.PiecewiseLinearFunction(tuple(us.tolist()), tuple(vs.tolist()))
    # One rescale makes the norm 1 up to rounding; repeat in case an ulp
    # spills over the membership line.
    for _ in range(4):
        norm = pwl.derivative_norm(f, q)
        if norm <= 1.0:
            break
        f = pwl.PiecewiseLinearFunction(f.us, tuple(v / norm for v in f.vs))
    return f


def sample_target(q: float, knot_count: int, seed) -> pwl.PiecewiseLinearFunction:
    """Draw a random function whose derivative q-norm is at most 1.

    Coordinates are knot_count sorted uniforms including 0 and 1; values are
    standard normal, rescaled by 1/norm whenever the norm exceeds 1. The seed
    fully determines the result (numpy PCG64). A q outside [1, inf] raises
    DomainError.
    """
    q = _check_real("norm order", q, 1.0, math.inf, "[]")
    knot_count = _check_int("knot_count", knot_count, 2)
    return _sample_target_rng(q, knot_count, np.random.default_rng(seed))


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    stages: int
    total_loss: float
    lower_partial: float
    upper_linint: float
    loss_times_sqrt_eps: float


SWEEP_CSV_HEADER = tuple(f.name for f in fields(SweepRow))


def write_sweep_csv(rows: Iterable[SweepRow], out: str | os.PathLike | IO[str]) -> None:
    """Write the sweep CSV, one flushed line per row; ``rows`` may be a
    generator that computes each row on demand."""
    write_csv(out, SWEEP_CSV_HEADER, ([astuple(row)] for row in rows))


def run_sweep(config: ExperimentConfig) -> Iterator[SweepRow]:
    """One adversary match per epsilon, with bound values attached.

    The config is validated at once; the rows then come out sorted by epsilon,
    each computed when it is asked for, so a writer can stream them.
    """
    config.validate()
    return (_sweep_row(config, eps) for eps in sorted(config.epsilons))


def _sweep_row(config: ExperimentConfig, eps: float) -> SweepRow:
    result = run_match(make_learner(config.learner), AdversaryConfig(eps, config.stages))
    return SweepRow(
        epsilon=eps,
        stages=config.stages,
        total_loss=result.total_loss,
        lower_partial=result.lower_partial,
        upper_linint=result.upper_linint,
        loss_times_sqrt_eps=result.total_loss * math.sqrt(eps),
    )


@dataclass
class AuditReport:
    """Worst observed values over the audited runs and matches.

    d_sums maps each tested exponent r to the worst observed sum of d^r;
    d_bounds carries the corresponding closed-form caps.
    """

    runs: int = 0
    trials_total: int = 0
    worst_e2_over_d: float = 0.0
    worst_p2_loss: float = 0.0
    d_sums: dict[float, float] = field(default_factory=dict)
    d_bounds: dict[float, float] = field(default_factory=dict)
    adversary_epsilons: list[float] = field(default_factory=list)
    adversary_stages: int = 0
    max_energy_residual: float = 0.0
    max_abs_slope: float = 0.0
    max_j_probe: float = 0.0
    violations: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


D_EXPONENTS = (1.5, 2.0, 3.0)

# Audit tolerances: sums pick up at most a few thousand rounding errors, so
# 1e-9 of absolute slack is generous; the energy recursion and slope caps are
# tighter because their arithmetic is (almost) exact.
E2D_TOL = 1e-9
D_SUM_TOL = 1e-9
RESIDUAL_TOL = 1e-10
SLOPE_TOL = 1e-12


def audit_trace_run(
    rng: np.random.Generator, max_trials: int
) -> tuple[LossAccount, float, dict[float, float], float]:
    """One Kimber & Long trace run drawn from rng: LININT at squared loss on a
    sampled target and 2..max_trials distinct inputs. Returns the loss account,
    sum e^2/d, {r: sum d^r} over D_EXPONENTS and the first input."""
    max_trials = _check_max_trials(max_trials)
    target = _sample_target_rng(2.0, int(rng.integers(2, 33)), rng)
    size = int(rng.integers(2, max_trials + 1))
    pairs = np.empty((2, size)).T  # contiguous columns, which run_trials takes as they are
    while True:  # kl_invariants refuses a repeat, which uniform doubles make rarely
        rng.random(size, out=pairs[:, 0])
        pairs[:, 1] = pwl.evaluate_many(target, pairs[:, 0])
        trace, account = run_trials(LinintLearner(), pairs, p=2.0)
        try:
            e2d, *d_sums = kl_invariants(trace, *D_EXPONENTS)
        except DegenerateInput:
            continue
        return account, e2d, dict(zip(D_EXPONENTS, d_sums)), float(pairs[0, 0])


def run_invariant_audit(config: ExperimentConfig) -> AuditReport:
    """Replay the trace and energy invariants at scale.

    Runs config.runs seeded matches of the interpolation learner against
    sampled targets (derivative 2-norm at most 1) on random distinct inputs,
    plus one adversary match per epsilon for each baseline learner. Raises
    AuditFailure listing every violated invariant; the report rides along on
    the exception.
    """
    config.validate()
    report = AuditReport(
        runs=config.runs,
        d_sums={r: 0.0 for r in D_EXPONENTS},
        d_bounds={r: kl_d_bound(r) for r in D_EXPONENTS},
    )
    if config.runs == 0:
        return report
    violations: list[str] = []
    # Spawning one child a run gives the children spawn(config.runs) would,
    # without holding them all; with two CPUs a helper plays every other run.
    seeds = np.random.SeedSequence(config.seed)
    runs = _dealt(
        (seeds.spawn(1)[0] for _ in range(config.runs)),
        config.runs,
        lambda seed: audit_trace_run(np.random.default_rng(seed), config.max_trials),
    )
    with closing(runs):
        for k, (account, e2d, d_sums, first_x) in enumerate(runs):
            report.trials_total += account.trials
            report.worst_p2_loss = max(report.worst_p2_loss, account.total)
            if account.total > 1.0 + E2D_TOL:
                violations.append(
                    f"run {k}: squared loss {account.total!r} exceeds 1 "
                    f"(first x={first_x!r})"
                )
            for r, d_sum in d_sums.items():
                report.d_sums[r] = max(report.d_sums[r], d_sum)
                if d_sum > report.d_bounds[r] + D_SUM_TOL:
                    violations.append(
                        f"run {k}: sum d^{r} = {d_sum!r} exceeds {report.d_bounds[r]!r}"
                    )
            report.worst_e2_over_d = max(report.worst_e2_over_d, e2d)
            if e2d > 1.0 + E2D_TOL:
                violations.append(f"run {k}: sum e^2/d = {e2d!r} exceeds 1")

    report.adversary_epsilons = list(DEFAULT_AUDIT_EPSILONS)
    # The cap is a standing decision on cost: in process on a 2-vCPU VM, the 15
    # matches and their per-trial audits take 0.04, 0.19 and 2.2 s at S = 12, 16, 20.
    stages = min(config.stages, 12)
    report.adversary_stages = stages
    plays = [(eps, kind) for eps in report.adversary_epsilons
             for kind in ("zero", "nearest", "linint")]
    for eps, kind in plays:
        label = f"match eps={eps} learner={kind}"
        result = run_match(make_learner(kind), AdversaryConfig(eps, stages))
        a = result.audit
        # The worst audit after any trial: the stage ends' and _trial_audits'.
        j_probe, resid = _trial_audits(result).max(axis=1, initial=0.0).tolist()
        max_j_probe = max(a.max_j_probe, j_probe)
        max_resid = max(a.max_recursion_residual, resid)
        report.max_energy_residual = max(report.max_energy_residual, max_resid)
        report.max_abs_slope = max(report.max_abs_slope, a.max_abs_slope)
        report.max_j_probe = max(report.max_j_probe, max_j_probe)
        if max_resid > RESIDUAL_TOL:
            violations.append(f"{label}: energy recursion residual {max_resid!r}")
        if a.max_abs_slope > 1.0 + SLOPE_TOL:
            violations.append(f"{label}: committed slope {a.max_abs_slope!r}")
        if not max_j_probe < 0.25:
            violations.append(f"{label}: probe energy {max_j_probe!r} >= 1/4")
        for s in result.per_stage:
            need = 1 if s.i == 1 else 2 ** (s.i - 2)
            if s.accepted < need:
                violations.append(f"{label}: stage {s.i} accepted {s.accepted} < {need}")
        if result.total_loss < result.lower_partial:
            violations.append(f"{label}: loss {result.total_loss!r} below forced "
                              f"minimum {result.lower_partial!r}")
    report.violations = violations
    if violations:
        raise AuditFailure(
            "invariant audit failed:\n" + "\n".join(violations),
            violations=violations,
            report=report,
        )
    return report

