"""Closed-form loss bounds and the auxiliary inequality checks.

Everything is kept in exact pre-asymptotic form; no O-constant is ever baked
in. The interesting regime is loss exponent p = 1 + eps with small eps, where
both bounds scale like 1/sqrt(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import (DivergenceError, DomainError, InequalityViolation, _check_int,
                     _check_not_tiny, _check_real)

__all__ = [
    "upper_bound_linint",
    "lower_bound_partial",
    "lower_bound_closed_form",
    "kl_d_bound",
    "check_proof_inequalities",
    "ProofInequalityReport",
    "BoundReport",
    "bound_report",
    "BOUNDS_CSV_HEADER",
]

_LOG2 = math.log(2.0)

# The partial sum is a Python loop of one term per stage; 2^20 terms take
# about half a second.
MAX_PARTIAL_STAGES = 1 << 20


def _perturbation(i: int, epsilon: float) -> float:
    """adversary.perturbation unchecked, for callers that check epsilon once for many i."""
    return math.sqrt(epsilon) * (1.0 - epsilon) ** (i / 2.0) / 2.0 ** (i + 1)


def upper_bound_linint(epsilon: float) -> float:
    """Worst-case total (1+eps)-loss of the interpolation learner against any
    target whose derivative has 2-norm at most 1.

    With p = 1+eps this is 1^(p/2) * (1 + 1/(2^(p/(2-p)) - 2))^(1 - p/2),
    the product of the two trace-sum bounds combined through Hoelder's
    inequality. It holds for any input sequence of any length.
    """
    epsilon = _check_not_tiny(_check_real("epsilon", epsilon, 0.0, 1.0))
    p = 1.0 + epsilon
    return kl_d_bound(p / (2.0 - p) if p < 2.0 else math.inf) ** (1.0 - p / 2.0)


def lower_bound_partial(epsilon: float, stages: int) -> float:
    """Forced loss over the first ``stages`` adversary stages:
    sum of 2^(k-2) * perturbation(k, eps)^(1+eps) for k = 1 .. stages.

    Stage k forces at least 2^(k-2) accepted trials, each costing at least
    perturbation(k, eps)^(1+eps); the terms here reuse the adversary's own
    perturbation values so empirical losses compare against the identical
    floating-point quantities.
    """
    epsilon = _check_real("epsilon", epsilon, 0.0, 0.5)  # once, not per term
    stages = _check_int("stage count", stages, 1, MAX_PARTIAL_STAGES)
    p = 1.0 + epsilon
    log_sqrt_eps = 0.5 * math.log(epsilon)
    log_1m = math.log1p(-epsilon)
    total = 0.0
    for k in range(1, stages + 1):
        if k <= 512:
            term = 2.0 ** (k - 2) * _perturbation(k, epsilon) ** p
        else:
            # 2^(k-2) alone overflows for k > 1076 although the term itself
            # only decays; deep tail terms go through log space instead.
            term = math.exp(
                (k - 2) * _LOG2 + p * (log_sqrt_eps + 0.5 * k * log_1m - (k + 1) * _LOG2)
            )
        total += term
    return total


def lower_bound_closed_form(epsilon: float) -> float:
    """Geometric-series value of the forced-loss sum over infinitely many
    stages: (1/2)*(sqrt(eps*(1-eps))/4)^(1+eps) / (1 - 2*(sqrt(1-eps)/2)^(1+eps)).

    Evaluated in log space with expm1/log1p: the denominator 1 - ratio
    vanishes linearly as eps -> 0, and a direct subtraction would lose the
    leading digits there.
    """
    epsilon = _check_real("epsilon", epsilon, 0.0, 0.5)
    p = 1.0 + epsilon
    log_first = math.log(0.5) + p * (
        0.5 * (math.log(epsilon) + math.log1p(-epsilon)) - math.log(4.0)
    )
    log_ratio = -epsilon * _LOG2 + p * 0.5 * math.log1p(-epsilon)
    if log_ratio >= 0.0:
        raise DivergenceError(
            f"series ratio is {math.exp(log_ratio)!r} >= 1 at epsilon={epsilon!r}"
        )
    denom = -math.expm1(log_ratio)  # 1 - ratio, without cancellation
    return math.exp(log_first) / denom


def kl_d_bound(r: float) -> float:
    """Upper bound 1 + 1/(2^r - 2) on the sum of d^r over any distinct
    input sequence in [0, 1]."""
    r = _check_real("exponent r", r, 1.0, math.inf, "(]")
    if r >= 1024.0:
        return 1.0
    return 1.0 + 1.0 / (2.0**r - 2.0)


@dataclass(frozen=True)
class ProofInequalityReport:
    """Worst-case slack of the two auxiliary inequalities over a grid.

    root_slack: min of (1-eps)^((1+eps)/2) - (1 - eps*(1+eps)), checked on
    grid points below 0.5. power_of_two_slack: min of (1+eps) - 2^eps,
    checked on the whole grid. Both are nonnegative on their ranges, with
    equality only in the eps -> 0 limit.
    """

    points_checked: int
    root_slack: float
    power_of_two_slack: float

    @property
    def min_slack(self) -> float:
        return min(self.root_slack, self.power_of_two_slack)


def check_proof_inequalities(grid: Iterable[float]) -> ProofInequalityReport:
    """Verify both auxiliary inequalities at every grid point.

    Raises InequalityViolation when any point comes out negative, which would
    indicate a transcription bug in the formulas rather than a math fact.
    """
    points = [_check_real("grid value", e, 0.0, 1.0) for e in grid]
    if not points:
        raise DomainError("inequality grid must be nonempty")
    root_slack = math.inf
    pow2_slack = math.inf
    bad: list[str] = []
    for eps in points:
        s2 = (1.0 + eps) - 2.0**eps
        pow2_slack = min(pow2_slack, s2)
        if s2 < 0.0:
            bad.append(f"(1+eps) - 2^eps = {s2!r} at eps={eps!r}")
        if eps < 0.5:
            s1 = (1.0 - eps) ** ((1.0 + eps) / 2.0) - (1.0 - eps * (1.0 + eps))
            root_slack = min(root_slack, s1)
            if s1 < 0.0:
                bad.append(
                    f"(1-eps)^((1+eps)/2) - (1-eps*(1+eps)) = {s1!r} at eps={eps!r}"
                )
    if bad:
        raise InequalityViolation("; ".join(bad))
    return ProofInequalityReport(
        points_checked=len(points),
        root_slack=root_slack,
        power_of_two_slack=pow2_slack,
    )


BOUNDS_CSV_HEADER = (
    "epsilon",
    "upper",
    "lower_closed",
    "lower_partial_S",
    "ratio_upper",
    "ratio_lower",
)


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one epsilon, plus the sqrt(eps)-scaled ratios: the
    bounds table's row, its fields in BOUNDS_CSV_HEADER order.

    ratio_upper and ratio_lower are upper*sqrt(eps) and
    lower_closed_form*sqrt(eps); both stay inside fixed positive bands as
    eps -> 0, which is the testable face of the 1/sqrt(eps) growth rate. For
    eps in [0.5, 1) the adversary's lower bound is undefined, and its three
    columns are NaN.
    """

    epsilon: float
    upper_linint: float
    lower_closed_form: float
    lower_partial: float
    ratio_upper: float
    ratio_lower: float


def bound_report(epsilon: float, partial_stages: int = 60) -> BoundReport:
    epsilon = _check_real("epsilon", epsilon, 0.0, 1.0)
    upper = upper_bound_linint(epsilon)
    # Checked for every epsilon, not only where the partial sum is computed.
    partial_stages = _check_int("stage count", partial_stages, 1, MAX_PARTIAL_STAGES)
    if epsilon < 0.5:
        lower = lower_bound_closed_form(epsilon)
        partial = lower_bound_partial(epsilon, partial_stages)
    else:
        lower = partial = math.nan
    root = math.sqrt(epsilon)
    return BoundReport(epsilon, upper, lower, partial, upper * root, lower * root)
