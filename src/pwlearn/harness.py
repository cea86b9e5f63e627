"""Experiment orchestration: seeded target sampling, sweeps, and audits.

All randomness flows through numpy's default generator (PCG64) seeded from an
explicit 64-bit seed; per-run generators are derived with SeedSequence.spawn.
Identical config and seed therefore reproduce every output byte for byte.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

import numpy as np

from . import pwl
from .adversary import MAX_STAGES, AdversaryConfig, _check_epsilon, _check_stages, run_match
from .bounds import kl_d_bound
from .errors import AuditFailure, DomainError
from .learner import (
    LinintLearner, fmt_exact, kl_invariants, make_learner, open_out, run_trials
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
    "run_invariant_audit",
]

DEFAULT_AUDIT_EPSILONS = (0.4, 0.25, 0.1, 0.05, 0.02)


@dataclass
class ExperimentConfig:
    """What run_sweep and run_invariant_audit read; nothing else is configurable."""

    learner: str = "linint"
    epsilons: list[float] = field(default_factory=list)
    stages: int = 14
    seed: int = 0
    runs: int = 1000
    max_trials: int = 10_000
    out: Optional[str] = None

    def validate(self) -> None:
        # Checking every epsilon up front stops a sweep before its first match.
        _check_stages(self.stages)
        for eps in self.epsilons:
            _check_epsilon(eps)
        if self.runs < 0:
            raise DomainError(f"runs must be nonnegative, got {self.runs!r}")
        if self.max_trials < 2:
            raise DomainError(f"max_trials must be at least 2, got {self.max_trials!r}")


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
        if a <= 0.0 or b <= 0.0:
            raise DomainError("log grid endpoints must be positive")
        if n < 0:
            raise DomainError("log grid size must be nonnegative")
        if n == 0:
            return []
        if n == 1:
            return [a]
        return [float(e) for e in np.geomspace(a, b, n)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad epsilon list {text!r}: {exc}") from exc


def _distinct_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # Collisions among uniform doubles are vanishingly rare; redraw if one
    # happens anyway so downstream distance sums never divide by zero.
    while True:
        xs = rng.random(size)
        if np.unique(xs).size == size:
            return xs


def _sample_target_rng(
    q: float, knot_count: int, rng: np.random.Generator
) -> pwl.PiecewiseLinearFunction:
    interior = knot_count - 2
    while True:
        us = np.concatenate(([0.0, 1.0], _distinct_uniform(rng, interior)))
        if np.unique(us).size == knot_count:
            break
    us.sort()
    vs = rng.normal(0.0, 1.0, size=knot_count)
    f = pwl.from_points(zip(us, vs))
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
    fully determines the result (numpy PCG64).
    """
    if q != math.inf and q < 1.0:
        raise DomainError(f"norm order must be >= 1 or inf, got {q!r}")
    if knot_count < 2:
        raise DomainError(f"knot_count must be at least 2, got {knot_count!r}")
    return _sample_target_rng(q, knot_count, np.random.default_rng(seed))


SWEEP_CSV_HEADER = (
    "epsilon",
    "stages",
    "total_loss",
    "lower_partial",
    "upper_linint",
    "loss_times_sqrt_eps",
)


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    stages: int
    total_loss: float
    lower_partial: float
    upper_linint: float
    loss_times_sqrt_eps: float

    def csv_fields(self) -> list[str]:
        return [
            fmt_exact(self.epsilon),
            str(self.stages),
            fmt_exact(self.total_loss),
            fmt_exact(self.lower_partial),
            fmt_exact(self.upper_linint),
            fmt_exact(self.loss_times_sqrt_eps),
        ]


def write_sweep_csv(
    rows: Iterable[SweepRow], out: str | os.PathLike | IO[str]
) -> list[SweepRow]:
    """Write the sweep CSV, flushing after every line, and return the rows as a
    list; ``rows`` may be a generator that computes each row on demand."""
    written: list[SweepRow] = []
    with open_out(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        fh.flush()
        for row in rows:
            writer.writerow(row.csv_fields())
            fh.flush()
            written.append(row)
    return written


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """One adversary match per epsilon, with bound values attached.

    Rows come out sorted by epsilon. When config.out is set, each row is
    written and flushed as soon as it exists, so an interrupted sweep leaves
    the completed rows on disk.
    """
    config.validate()
    rows = (_sweep_row(config, eps) for eps in sorted(config.epsilons))
    return write_sweep_csv(rows, config.out) if config.out else list(rows)


def _sweep_row(config: ExperimentConfig, eps: float) -> SweepRow:
    result = run_match(
        make_learner(config.learner),
        AdversaryConfig(eps, config.stages),
        collect_records=False,
    )
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
        return {
            "runs": self.runs,
            "trials_total": self.trials_total,
            "worst_e2_over_d": self.worst_e2_over_d,
            "worst_p2_loss": self.worst_p2_loss,
            "d_sums": {str(r): v for r, v in self.d_sums.items()},
            "d_bounds": {str(r): v for r, v in self.d_bounds.items()},
            "adversary_epsilons": list(self.adversary_epsilons),
            "adversary_stages": self.adversary_stages,
            "max_energy_residual": self.max_energy_residual,
            "max_abs_slope": self.max_abs_slope,
            "max_j_probe": self.max_j_probe,
            "violations": list(self.violations),
        }


D_EXPONENTS = (1.5, 2.0, 3.0)

# Audit tolerances: sums pick up at most a few thousand rounding errors, so
# 1e-9 of absolute slack is generous; the energy recursion and slope caps are
# tighter because their arithmetic is (almost) exact.
E2D_TOL = 1e-9
D_SUM_TOL = 1e-9
RESIDUAL_TOL = 1e-10
SLOPE_TOL = 1e-12


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
    children = np.random.SeedSequence(config.seed).spawn(config.runs)
    for k in range(config.runs):
        rng = np.random.default_rng(children[k])
        knot_count = int(rng.integers(2, 33))
        target = _sample_target_rng(2.0, knot_count, rng)
        m = int(rng.integers(2, config.max_trials + 1))
        xs = _distinct_uniform(rng, m)
        seq = [(float(x), pwl.evaluate(target, float(x))) for x in xs]
        records, account = run_trials(LinintLearner(), seq, p=2.0)
        report.trials_total += account.trials
        if account.total > report.worst_p2_loss:
            report.worst_p2_loss = account.total
        if account.total > 1.0 + E2D_TOL:
            violations.append(
                f"run {k}: squared loss {account.total!r} exceeds 1 "
                f"(first x={seq[0][0]!r})"
            )
        for r in D_EXPONENTS:
            e2d, d_sum = kl_invariants(records, r)
            if d_sum > report.d_sums[r]:
                report.d_sums[r] = d_sum
            if d_sum > report.d_bounds[r] + D_SUM_TOL:
                violations.append(
                    f"run {k}: sum d^{r} = {d_sum!r} exceeds {report.d_bounds[r]!r}"
                )
        if e2d > report.worst_e2_over_d:
            report.worst_e2_over_d = e2d
        if e2d > 1.0 + E2D_TOL:
            violations.append(f"run {k}: sum e^2/d = {e2d!r} exceeds 1")

    report.adversary_epsilons = list(DEFAULT_AUDIT_EPSILONS)
    # Scratch-recomputing the probe energy every trial is O(n) per trial, so
    # the per-trial audit stays at a moderate stage budget.
    stages = min(config.stages, 12)
    report.adversary_stages = stages
    for eps in report.adversary_epsilons:
        for kind in ("zero", "nearest", "linint"):
            result = run_match(
                make_learner(kind),
                AdversaryConfig(eps, stages),
                collect_records=False,
                audit_per_trial=True,
            )
            a = result.audit
            label = f"match eps={eps} learner={kind}"
            if a.max_recursion_residual > report.max_energy_residual:
                report.max_energy_residual = a.max_recursion_residual
            if a.max_abs_slope > report.max_abs_slope:
                report.max_abs_slope = a.max_abs_slope
            if a.max_j_probe > report.max_j_probe:
                report.max_j_probe = a.max_j_probe
            if a.max_recursion_residual > RESIDUAL_TOL:
                violations.append(
                    f"{label}: energy recursion residual {a.max_recursion_residual!r}"
                )
            if a.max_abs_slope > 1.0 + SLOPE_TOL:
                violations.append(f"{label}: committed slope {a.max_abs_slope!r}")
            if not a.max_j_probe < 0.25:
                violations.append(f"{label}: probe energy {a.max_j_probe!r} >= 1/4")
            for s in result.per_stage:
                need = 1 if s.i == 1 else 2 ** (s.i - 2)
                if s.accepted < need:
                    violations.append(
                        f"{label}: stage {s.i} accepted {s.accepted} < {need}"
                    )
            if result.total_loss < result.lower_partial:
                violations.append(
                    f"{label}: loss {result.total_loss!r} below forced "
                    f"minimum {result.lower_partial!r}"
                )
    report.violations = violations
    if violations:
        raise AuditFailure(
            "invariant audit failed:\n" + "\n".join(violations),
            violations=violations,
            report=report,
        )
    return report

