"""Online learners, the sequential trial loop, and trace-level invariants.

A learner answers predict(x) before each label is revealed, then sees the
label via observe(x, y). The prediction on trial 0 is uncharged; loss is the
sum of |prediction - label|^p over trials t >= 1.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence

from sortedcontainers import SortedList

from . import pwl
from .errors import DegenerateInput, DomainError, DuplicateConflict, UnknownKind

__all__ = [
    "LEARNER_KINDS",
    "Learner",
    "ZeroLearner",
    "NearestLearner",
    "LinintLearner",
    "TrialRecord",
    "LossAccount",
    "linint_predict",
    "make_learner",
    "run_trials",
    "kl_invariants",
    "write_trace_csv",
    "TRACE_HEADER",
]

LEARNER_KINDS = ("linint", "zero", "nearest")


def _check_coord(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"input coordinate {x!r} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One trial: input, prediction, revealed label, error, distance, loss term.

    Trial 0 is uncharged, so y_hat, e, d and loss_term are None there. For
    t >= 1, e = |y_hat - y| and d is the distance from x to the nearest
    earlier input (0.0 when the coordinate repeats).
    """

    t: int
    x: float
    y_hat: Optional[float]
    y: float
    e: Optional[float]
    d: Optional[float]
    loss_term: Optional[float]


@dataclass(frozen=True)
class LossAccount:
    """Accumulated sum of e^p over charged trials; p = 1 + epsilon."""

    p: float
    total: float
    trials: int


class Learner:
    """predict/observe protocol. observe may mutate state; predict must not."""

    kind = "base"

    def predict(self, x: float) -> float:
        raise NotImplementedError

    def observe(self, x: float, y: float) -> None:
        raise NotImplementedError


class ZeroLearner(Learner):
    """Always predicts 0."""

    kind = "zero"

    def predict(self, x: float) -> float:
        _check_coord(x)
        return 0.0

    def observe(self, x: float, y: float) -> None:
        _check_coord(x)


class NearestLearner(Learner):
    """Predicts the label of the closest observed input.

    Ties between the left and right neighbor go to the smaller coordinate.
    Repeated inputs keep the latest label. Predicts 0 before any observation.
    """

    kind = "nearest"

    def __init__(self) -> None:
        self._xs = SortedList()
        self._vals: dict[float, float] = {}

    def predict(self, x: float) -> float:
        _check_coord(x)
        vals = self._vals
        if not vals:
            return 0.0
        if x in vals:
            return vals[x]
        xs = self._xs
        i = xs.bisect_left(x)
        if i == 0:
            return vals[xs[0]]
        if i == len(xs):
            return vals[xs[-1]]
        lo, hi = xs[i - 1], xs[i]
        return vals[lo] if x - lo <= hi - x else vals[hi]

    def observe(self, x: float, y: float) -> None:
        _check_coord(x)
        if x not in self._vals:
            self._xs.add(x)
        self._vals[x] = y


class LinintLearner(Learner):
    """Predicts by linear interpolation of everything observed so far.

    Beyond the extreme observations the prediction is constant; before any
    observation it is 0. Observed points are answered exactly. Re-observing a
    coordinate with a different label raises DuplicateConflict, since no
    single target function could have produced the pair.
    """

    kind = "linint"

    def __init__(self) -> None:
        self._xs = SortedList()
        self._vals: dict[float, float] = {}

    def predict(self, x: float) -> float:
        _check_coord(x)
        vals = self._vals
        if not vals:
            return 0.0
        if x in vals:
            return vals[x]
        xs = self._xs
        i = xs.bisect_left(x)
        if i == 0:
            return vals[xs[0]]
        if i == len(xs):
            return vals[xs[-1]]
        u0, u1 = xs[i - 1], xs[i]
        v0, v1 = vals[u0], vals[u1]
        return v0 + (x - u0) * (v1 - v0) / (u1 - u0)

    def observe(self, x: float, y: float) -> None:
        _check_coord(x)
        old = self._vals.get(x)
        if old is None:
            self._vals[x] = y
            self._xs.add(x)
        elif old != y:
            raise DuplicateConflict(
                f"coordinate {x!r} was observed with value {old!r}, now {y!r}"
            )

    def history(self) -> pwl.PiecewiseLinearFunction:
        """The interpolant of everything observed so far."""
        return pwl.from_points(self._vals.items())


def linint_predict(history: Iterable[tuple[float, float]], x: float) -> float:
    """One-shot interpolation prediction from a bag of observed (x, y) pairs.

    Equivalent to what a fresh LinintLearner would predict after observing
    ``history`` in any order: 0 on empty history, otherwise the interpolant's
    value at x.
    """
    _check_coord(x)
    pairs = list(history)
    if not pairs:
        return 0.0
    return pwl.evaluate(pwl.from_points(pairs), x)


def make_learner(kind: str) -> Learner:
    if kind == "linint":
        return LinintLearner()
    if kind == "zero":
        return ZeroLearner()
    if kind == "nearest":
        return NearestLearner()
    raise UnknownKind(f"unknown learner kind {kind!r}; expected one of {LEARNER_KINDS}")


def run_trials(
    learner: Learner,
    sequence: Sequence[tuple[float, float]],
    p: float,
) -> tuple[list[TrialRecord], LossAccount]:
    """Drive predict/observe over (x, y) pairs, charging loss from trial 1 on.

    Repeated input coordinates are allowed (the learner should answer the
    known value); they show up as d = 0 in the records, which kl_invariants
    will reject.
    """
    if not p > 1.0:
        raise DomainError(f"loss exponent must exceed 1, got {p!r}")
    records: list[TrialRecord] = []
    seen = SortedList()
    total = 0.0
    for t, (x, y) in enumerate(sequence):
        _check_coord(x)
        y_hat = learner.predict(x)
        if t == 0:
            records.append(TrialRecord(0, x, None, y, None, None, None))
        else:
            e = abs(y_hat - y)
            i = seen.bisect_left(x)
            d_left = x - seen[i - 1] if i > 0 else None
            d_right = seen[i] - x if i < len(seen) else None
            if d_left is None:
                d = d_right
            elif d_right is None:
                d = d_left
            else:
                d = d_left if d_left <= d_right else d_right
            term = e**p
            total += term
            records.append(TrialRecord(t, x, y_hat, y, e, d, term))
        learner.observe(x, y)
        seen.add(x)
    return records, LossAccount(p=p, total=total, trials=max(len(records) - 1, 0))


def kl_invariants(
    records: Iterable[TrialRecord],
    r: float,
) -> tuple[float, float]:
    """Trace sums (sum of e^2/d, sum of d^r) over charged trials.

    Requires distinct input coordinates: a repeated input gives d = 0 and
    raises DegenerateInput instead of dividing by it.
    """
    if not r > 1.0:
        raise DomainError(f"exponent r must exceed 1, got {r!r}")
    sum_e2_over_d = 0.0
    sum_d_pow = 0.0
    for rec in records:
        if rec.t == 0:
            continue
        if rec.d == 0.0:
            raise DegenerateInput(
                f"repeated input coordinate at trial {rec.t} (x={rec.x!r})"
            )
        sum_e2_over_d += rec.e * rec.e / rec.d
        sum_d_pow += rec.d**r
    return sum_e2_over_d, sum_d_pow


TRACE_HEADER = ("t", "x", "y_hat", "y", "e", "d", "loss_term", "cum_loss")


def fmt_exact(value: float) -> str:
    """17 significant digits: the text round-trips any double exactly."""
    return format(value, ".17g")


@contextmanager
def open_out(out: str | os.PathLike | IO[str]) -> Iterator[IO[str]]:
    """Open a path for writing (newline="": line ends are written as given), or
    pass an open stream through."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield out


def write_trace_csv(records: Iterable[TrialRecord], out: str | os.PathLike | IO[str]) -> None:
    """Write the trial trace as CSV; trial 0 leaves uncharged fields empty."""
    with open_out(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        cum = 0.0
        for rec in records:
            if rec.t == 0:
                writer.writerow([rec.t, fmt_exact(rec.x), "", fmt_exact(rec.y), "", "", "", ""])
            else:
                cum += rec.loss_term
                writer.writerow(
                    [
                        rec.t,
                        fmt_exact(rec.x),
                        fmt_exact(rec.y_hat),
                        fmt_exact(rec.y),
                        fmt_exact(rec.e),
                        fmt_exact(rec.d),
                        fmt_exact(rec.loss_term),
                        fmt_exact(cum),
                    ]
                )
