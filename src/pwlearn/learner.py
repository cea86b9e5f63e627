"""Online learners, the sequential trial loop, and trace-level invariants.

A learner answers predict(x) before each label is revealed, then sees the
label via observe(x, y). The prediction on trial 0 is uncharged; loss is the
sum of |prediction - label|^p over trials t >= 1.

run_trials knows the whole (x, y) sequence in advance, so it finds every
trial's nearest earlier inputs offline by vector rounds of pointer jumping
(_earlier_neighbours; its oracle is the linked-list pass in tests/helpers.py).
A fresh LinintLearner on distinct inputs gets every prediction from them, with
no predict/observe call; every other learner runs the online loop,
scalar_predictions, the offline path's bit-for-bit reference. The trace, which
kl_invariants reads, is built 4,096 trials at a time, each block charged by
_charge, the loss rule of the adversary's blocks too (whose acceptance test reads
the probe's energy terms, taken first). One in-place carry, _carry, sums
the loss, the probe energy, the KL sums and cum_loss left to right. The adversary's
stage-at-a-time play and its trace predict through _midpoint_predictions; _fresh
is the one rule for which learners either offline path may stand in for.

_dealt works an iterator's items on two CPUs: with fork, a forked helper works
every other item (walking all, so both carry the same state) and pipes each
result back as one pickle, and the caller gets every result in item order, as
one process would give them. write_trace_csv deals it the trace's 4,096-row
chunks and harness.run_invariant_audit its trace runs. A chunk's text comes
from _chunk_text, a numpy kernel that gives every byte of "%.17g"; every
other CSV row takes _row_text, its oracle.
"""

from __future__ import annotations

import math
import os
import pickle
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from typing import IO, Callable, Iterator, Sequence

import numpy as np
from sortedcontainers import SortedList

from .errors import (
    DegenerateInput, DomainError, DuplicateConflict, UnknownKind, _check_real, _real_array,
)

__all__ = [
    "LEARNER_KINDS",
    "Learner",
    "ZeroLearner",
    "NearestLearner",
    "LinintLearner",
    "Trace",
    "LossAccount",
    "make_learner",
    "run_trials",
    "scalar_predictions",
    "kl_invariants",
    "write_csv",
    "write_trace_csv",
    "TRACE_HEADER",
]

# Trials every blocked pass takes at once, to stay in cache. Not below 2^6: np.sum adds fewer
# than 128 terms (a block of AdversaryState._fold has 2·_BLOCK) unrolled, not pairwise.
_BLOCK = 4096

def _check_coord(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"input coordinate {x!r} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-trial float64 columns, trial 0 first, one entry per trial.

    Trial 0 is uncharged, so y_hat, e, d and loss_term hold NaN there. For
    t >= 1, e = |y_hat - y| and d is the distance from x to the nearest
    earlier input (0.0 when the coordinate repeats). Traces compare by
    identity; compare their columns to compare contents.
    """

    x: np.ndarray
    y_hat: np.ndarray
    y: np.ndarray
    e: np.ndarray
    d: np.ndarray
    loss_term: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def _rows(self, start: int, stop: int) -> tuple[np.ndarray, ...]:
        # tuple() of a list: of a generator (as fields() makes) it fills CPython's free list.
        return tuple([getattr(self, name)[start:stop] for name in TRACE_HEADER[1:7]])


@dataclass(frozen=True)
class LossAccount:
    """Accumulated sum of e^p over charged trials; p = 1 + epsilon."""

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


class _Observed:
    """What NearestLearner and LinintLearner have observed: _vals maps each
    input to its label in observation order, and _xs holds the inputs sorted.
    _fill may leave both unbuilt until their first use."""

    def __init__(self) -> None:
        self._xs = SortedList()
        self._vals: dict[float, float] = {}

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails, so never once both exist.
        pending = self.__dict__.get("_pending")
        if pending is None or name not in ("_vals", "_xs"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        del self._pending
        xs, ys, x_sorted = pending()
        self._vals = dict(zip(xs.tolist(), ys.tolist()))
        self._xs = SortedList(x_sorted.tolist())
        return self.__dict__[name]


class NearestLearner(_Observed, Learner):
    """Predicts the label of the closest observed input.

    Ties between the left and right neighbor go to the smaller coordinate.
    Repeated inputs keep the latest label. Predicts 0 before any observation.
    """

    kind = "nearest"

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


class LinintLearner(_Observed, Learner):
    """Predicts by linear interpolation of everything observed so far.

    Beyond the extreme observations the prediction is constant; before any
    observation it is 0. Observed points are answered exactly. Re-observing a
    coordinate with a different label raises DuplicateConflict, since no
    single target function could have produced the pair.
    """

    kind = "linint"

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


_LEARNERS = {cls.kind: cls for cls in (LinintLearner, ZeroLearner, NearestLearner)}
LEARNER_KINDS = tuple(_LEARNERS)


def make_learner(kind: str) -> Learner:
    if kind not in LEARNER_KINDS:
        raise UnknownKind(f"unknown learner kind {kind!r}; expected one of {LEARNER_KINDS}")
    return _LEARNERS[kind]()


def _carry(total: float, terms: np.ndarray) -> float:
    # total + terms[0] + terms[1] + ..., a += loop's bits (not np.sum's), in place.
    terms[0] += total
    return float(np.add.accumulate(terms, out=terms)[-1])


def _pow_terms(values: np.ndarray, p: float) -> np.ndarray:
    """Every value ** p as a float64 array, with the bits of math.pow:
    np.float_power's float64 loop calls libm pow once per element, where
    np.power's SIMD loop differs in the last ulp. A finite value whose term
    overflows raises OverflowError, as math.pow does, and a negative one whose
    term is not real FloatingPointError; inf and NaN pass through."""
    with np.errstate(over="ignore", invalid="raise"):
        terms = np.float_power(values, p)
    if (np.isinf(terms) & np.isfinite(values)).any():
        raise OverflowError("math range error")
    return terms


def _charge(total: float, e, p: float, where: str, who: str) -> tuple[np.ndarray, float]:
    """A block's loss terms e**p (_pow_terms) and total carried through them left
    to right: both play loops' loss rule. A term that overflows, then a total that
    is not finite, raises DomainError naming where and who, with no numpy warning."""
    try:
        terms = _pow_terms(e, p)
    except OverflowError:
        raise DomainError(f"a loss term {where} overflows; {who} must be moderate") from None
    with np.errstate(over="ignore"):
        total = _carry(total, terms.copy())  # the terms are returned uncarried
    if not math.isfinite(total):
        raise DomainError(f"total loss {total!r} is not finite; {who} must be")
    return terms, total


def _repeats(sorted_values: np.ndarray) -> bool:
    """Whether sorted values hold two equal ones (0.0 == -0.0 counts)."""
    return bool((sorted_values[1:] == sorted_values[:-1]).any())


def _check_pairs(xs: np.ndarray, ys: np.ndarray) -> None:
    """Refuse a non-finite value or a coordinate outside [0, 1], naming the
    first bad trial. Every comparison fails on NaN, so NaN cannot pass."""
    finite = (np.abs(xs) < math.inf) & (np.abs(ys) < math.inf)
    bad = np.flatnonzero(~(finite & (0.0 <= xs) & (xs <= 1.0)))
    if bad.size:
        t = int(bad[0])
        what = "is not finite" if not finite[t] else "has x outside [0, 1]"
        raise DomainError(f"trial {t}: input ({float(xs[t])!r}, {float(ys[t])!r}) {what}")


def _earlier_neighbours(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every trial t, the trial holding the nearest earlier input on the left
    of x_t in input order and the one on the right (-1 where there is none),
    given a sorting order of the inputs, stable whenever an input repeats.

    These are all nearest smaller values over time in input order, found by
    pointer jumping. The trial indices in sorted-input order (an earlier equal
    input on the left) go into one array twice, as they are for the left side
    and reversed for the right, each copy between two sentinels that hold -1.
    Lane j's candidate cand[j] starts at the lane before it; a sentinel never
    moves. Every lane strictly between cand[j] and j holds a later trial than
    j, and while cand[j] holds a later trial too, cand[j] <- cand[cand[j]]
    keeps that so. When no lane moves, cand[j] holds j's nearest earlier trial
    on its side. A long chain moves one step a round, so after 2·log2(n) + 4
    rounds the lanes still moving walk their chains one at a time, in scan
    order, where every earlier lane is already final.
    """
    n = len(order)
    m = n + 2
    when = np.full(2 * m, -1, dtype=np.intp)
    when[1 : m - 1], when[m + 1 : -1] = order, order[::-1]
    cand = np.arange(-1, 2 * m - 1)
    moving = np.flatnonzero((when[:-1] > when[1:]) & (when[1:] >= 0)) + 1  # no sentinel
    for _ in range(2 * n.bit_length() + 4):
        if not moving.size:
            break
        jumped = cand[cand[moving]]
        cand[moving] = jumped
        moving = moving[when[jumped] > when[moving]]
    if moving.size:
        _walk_chains(cand, when, moving)
    nearest = when[cand]
    left = np.empty(n, dtype=np.intp)
    right = np.empty(n, dtype=np.intp)
    left[order] = nearest[1 : m - 1]
    right[order] = nearest[-2:m:-1]
    return left, right


def _walk_chains(cand: np.ndarray, when: np.ndarray, moving: np.ndarray) -> None:
    """Finish _earlier_neighbours' lanes that are still moving, one at a time in
    increasing lane order, by following candidates until one holds an earlier
    trial. Every lane before a moving one on its side is final by then, so
    each step skips a whole run of later trials."""
    c = cand.tolist()
    when_of = when.tolist()
    for j in moving.tolist():
        k, tj = c[j], when_of[j]
        while when_of[k] > tj:
            k = c[k]
        c[j] = k
    cand[moving] = [c[j] for j in moving.tolist()]


def _linint_predictions(x, u0, u1, v0, v1, no_left, no_right) -> np.ndarray:
    """LinintLearner.predict at inputs x, whose nearest earlier inputs are (u0, v0)
    on the left and (u1, v1) on the right: the chord between them, or beyond either
    end (where no_left or no_right) the near one's label. The chord does predict's
    operations in predict's order, so every value has the same bits."""
    with np.errstate(all="ignore"):  # np.where discards the lanes with no neighbour
        chord = v0 + (x - u0) * (v1 - v0) / (u1 - u0)
    return np.where(no_left, v1, np.where(no_right, v0, chord))


def _fresh(learner: Learner) -> bool:
    """Whether the offline paths may stand in for predict/observe: the learner
    is of exact built-in type (a subclass may override either) and has
    observed nothing."""
    if type(learner) is ZeroLearner:
        return True
    return type(learner) in (NearestLearner, LinintLearner) and not learner._vals


def _midpoint_predictions(kind: str, vl: np.ndarray, vr: np.ndarray, h, first) -> np.ndarray:
    """A fresh built-in learner's predictions at midpoints x between knots
    labelled vl at x - h and vr at x + h, when it has observed every knot at
    that spacing 2h but the one at x = 0 and nothing nearer to any midpoint.
    nearest's neighbours tie, and ties go left; linint uses predict's chord in
    predict's order, not 0.5·(vl + vr). first indexes the midpoints at x = h:
    with no knot observed at 0, both extend vr as a constant there. h is a
    scalar, or an array of one per midpoint."""
    if kind == "zero":
        return np.zeros(len(vl))
    if kind == "nearest":
        y_hat = vl.copy()
    else:
        # x - u0 = h and u1 - u0 = 2h exactly.
        y_hat = vl + h * (vr - vl) / (2.0 * h)
    y_hat[first] = vr[first]
    return y_hat


def _fill(learner: NearestLearner | LinintLearner, knots) -> None:
    """Leave a fresh learner as observing each (x, y) in time order would, for
    distinct inputs: on first use, _vals and _xs are built from knots(), the
    inputs and labels in time order and the inputs in increasing order."""
    del learner._vals, learner._xs
    learner._pending = knots


def scalar_predictions(
    learner: Learner, xs: Sequence[float], ys: Sequence[float]
) -> list[float]:
    """The online reference: predict x_t, then observe (x_t, y_t), trial by
    trial. Returns every prediction, trial 0's included."""
    predict = learner.predict
    observe = learner.observe
    y_hat = []
    for x, y in zip(xs, ys):
        y_hat.append(predict(x))
        observe(x, y)
    return y_hat


def run_trials(
    learner: Learner,
    sequence: Sequence[tuple[float, float]] | np.ndarray,
    p: float,
) -> tuple[Trace, LossAccount]:
    """Drive predict/observe over (x, y) pairs, charging loss from trial 1 on.

    ``sequence`` holds (x, y) pairs of reals, or is an (n, 2) float array,
    else DomainError. Every pair is checked before the first prediction: a
    non-finite value or an x outside [0, 1] raises DomainError naming the trial. Repeated input
    coordinates are allowed (the learner should answer the known value);
    they show up as d = 0 in the trace, which kl_invariants will reject. A
    loss term that overflows or a non-finite total loss raises DomainError
    (_charge) at the first block where it appears.

    d comes from a sorting order of the inputs, stable whenever an input
    repeats. A fresh LinintLearner on distinct inputs takes the offline path:
    its predictions come from the neighbours found for d, and its state is
    then filled in bulk, equal to what observing each pair would leave. Every
    other case runs scalar_predictions. The rest runs 4,096 trials at a time.
    x and y are a float64 array's columns if they are contiguous, else copies.
    """
    p = _check_real("loss exponent", p, 1.0, math.inf, "(]")
    pairs = _real_array("expected (x, y) pairs of real numbers", sequence)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DomainError(f"expected (x, y) pairs, got an array of shape {pairs.shape}")
    xs, ys = np.ascontiguousarray(pairs.T)
    _check_pairs(xs, ys)
    n = len(xs)
    order = np.argsort(xs)
    distinct = not _repeats(xs[order])
    if not distinct:
        order = np.argsort(xs, kind="stable")  # an earlier equal input first
    left, right = _earlier_neighbours(order)
    offline = distinct and type(learner) is LinintLearner and _fresh(learner)
    if offline:
        y_hat = np.empty(n)
        knots = (xs.copy(), ys.copy())  # the trace holds xs and ys
        _fill(learner, lambda: (*knots, np.sort(knots[0])))  # distinct: xs[order]
    else:
        y_hat = np.array(scalar_predictions(learner, xs.tolist(), ys.tolist()), dtype=float)
    e, d, loss_term = np.empty(n), np.empty(n), np.empty(n)
    y_hat[:1] = e[:1] = d[:1] = loss_term[:1] = math.nan
    total, where = 0.0, f"|y_hat - y|**{p!r}"
    for start in range(1, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        x, lb, rb = xs[block], left[block], right[block]
        u0, u1, no_left, no_right = xs[lb], xs[rb], lb < 0, rb < 0
        dl = np.where(no_left, math.inf, x - u0)
        dr = np.where(no_right, math.inf, u1 - x)
        d[block] = np.where(dl <= dr, dl, dr)
        if offline:
            y_hat[block] = _linint_predictions(x, u0, u1, ys[lb], ys[rb], no_left, no_right)
        np.abs(y_hat[block] - ys[block], out=e[block])
        loss_term[block], total = _charge(total, e[block], p, where, "labels and predictions")
    if not distinct:
        # A repeat's d is what a bisect_left over the earlier inputs gives: the
        # first equal input minus x, which keeps the sign of a zero difference.
        first = order[np.searchsorted(xs[order], xs, side="left")]
        repeat = first < np.arange(n)
        d[repeat] = xs[first[repeat]] - xs[repeat]
    trace = Trace(x=xs, y_hat=y_hat, y=ys, e=e, d=d, loss_term=loss_term)
    return trace, LossAccount(total=total, trials=max(n - 1, 0))


def kl_invariants(trace: Trace, r: float, *more_r: float) -> tuple[float, ...]:
    """Trace sums over charged trials: (sum of e^2/d, sum of d^r, then sum of
    d^r' for each further exponent r' in more_r). One call for several
    exponents checks d and computes e^2/d once. The sums run 4,096 trials at a time.

    Every exponent must exceed 1. Requires distinct input coordinates: a
    repeated input gives d = 0 and raises DegenerateInput instead of
    dividing by it; any other d outside (0, 1], NaN included, is no distance
    and raises DomainError naming its trial.
    """
    exponents = [_check_real("exponent r", q, 1.0, math.inf, "(]") for q in (r, *more_r)]
    d = trace.d[1:]
    bad = np.flatnonzero(~((0.0 < d) & (d <= 1.0)))  # both comparisons fail on NaN
    if bad.size:
        repeats = bad[d[bad] == 0.0]
        t = int(repeats[0] if repeats.size else bad[0]) + 1
        if repeats.size:
            raise DegenerateInput(
                f"repeated input coordinate at trial {t} (x={float(trace.x[t])!r})"
            )
        raise DomainError(f"trial {t}: d={float(trace.d[t])!r} is not a distance in (0, 1]")
    sums = [0.0] * (1 + len(exponents))
    with np.errstate(over="ignore"):  # a huge e gives an infinite sum, not a warning
        for start in range(1, len(trace), _BLOCK):
            e, d = trace._rows(start, start + _BLOCK)[3:5]  # a MatchTrace computes the block alone
            # d lies in (0, 1], so no power overflows and np.float_power is _pow_terms.
            for k, terms in enumerate((e * e / d, *(np.float_power(d, q) for q in exponents))):
                sums[k] = _carry(sums[k], terms)
    return tuple(sums)


TRACE_HEADER = ("t", "x", "y_hat", "y", "e", "d", "loss_term", "cum_loss")
_EXACT = "%.17g"  # fmt_exact's spec, shared with _row_text


def fmt_exact(value: float) -> str:
    """17 significant digits: the text round-trips any double exactly."""
    return _EXACT % value


@contextmanager
def open_out(out: str | os.PathLike | IO[str]) -> Iterator[IO[str]]:
    """Open a path for writing (newline="": line ends are written as given), or
    pass an open stream through."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield out


def write_csv(out: str | os.PathLike | IO[str], header, blocks, end: str = "\r\n") -> None:
    """Write a CSV table: the header, then each block of rows (_row_text),
    flushing after the header and after each block."""
    _write_texts(out, header, ("".join(_row_text(r, end) for r in rows) for rows in blocks), end)


def _write_texts(out, header, texts: Iterator[str], end: str = "\r\n") -> None:
    """write_csv's writer: the header, then each text, flushing after each."""
    with open_out(out) as fh:
        for text in chain([",".join(header) + end], texts):
            fh.write(text)
            fh.flush()
            del text  # before the next is asked for: never two chunk texts at once


def _row_text(row, end: str = "\r\n") -> str:
    """One CSV row: a float (numpy's too) as %.17g of its double, any other
    value as str gives it, and no field quoted, which no number needs."""
    cells = (_EXACT % v if isinstance(v, (float, np.floating)) else str(v) for v in row)
    return ",".join(cells) + end


_WORDS: dict[str, np.ndarray] = {}  # _chunk_text's tables, built on first use


def _words() -> dict[str, np.ndarray]:
    """_chunk_text's tables. A word is four ASCII bytes as a little-endian uint32:
    digits[r·10^4 + w] is w's four digits in full (r = 0), leading zeros NUL but
    0 as "0" (r = 1), or trailing zeros NUL (r = 2). The rest are indexed by e =
    E + 100, E = -100 .. 16: ten[:, e] is 10^q, q = 16 − E, as Veltkamp's split
    hi + lo of p1 = float(10^q) and p2 = 10^q − p1; point[e] is 10^L for the L
    digits of D after the point, shift[e] 10^(17 − L); mid[e + 117] is "." and
    the zeros before D's digits, mid[e] NUL; exp[e] is "e-XX" or NUL."""
    if not _WORDS:
        w = np.arange(10000)
        d = np.stack([w // 1000, w // 100 % 10, w // 10 % 10, w % 10], axis=1)
        lead = np.logical_or.accumulate(d != 0, axis=1) | (np.arange(4) == 3)
        trail = np.logical_or.accumulate(d[:, ::-1] != 0, axis=1)[:, ::-1]
        chars = (d + 48).astype(np.uint8)
        E = np.arange(-100, 17)
        L = np.where(E < -4, 16, np.minimum(16 - E, 17))
        tens = [10 ** (16 - x) for x in E.tolist()]
        p1 = np.array([float(x) for x in tens])
        hi = p1 * 134217729.0
        hi -= hi - p1
        mid = np.frombuffer(b".\0\0\0.0\0\0.00\0.000", "<u4")[np.clip(-1 - E, 0, 3) * (E >= -4)]
        exp = [b"e-%02d" % -x if -100 < x < -4 else bytes(4) for x in E.tolist()]
        _WORDS.update(
            digits=np.stack([chars, chars * lead, chars * trail]).view("<u4").ravel(),
            ten=np.stack([hi, p1 - hi, [float(x - int(y)) for x, y in zip(tens, p1.tolist())]]),
            point=10**L, shift=10 ** (17 - L), mid=np.concatenate([mid * 0, mid]),
            exp=np.frombuffer(b"".join(exp), "<u4"),
        )
    return _WORDS


def _digits(v: np.ndarray, ten: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits %.17g gives each value of a float64 column:
    (D, e, ok), |v| = D·10^(E − 16) rounded, 10^16 <= D < 10^17, e = E + 100
    (int32), and D = 0, E = 0 for ±0. ok is False, and D = 0, E = 0, where
    %.17g must give the text: NaN, ±inf, |v| < 1e-99 or >= 1e17, and a
    rounding not decided here. With q = 16 − E, D is X = |v|·10^q in [10^16,
    10^17) rounded, ties to even. With 10^q = p1 + p2, Dekker's two-product
    gives |v|·p1 = h + l exactly, h >= 2^53 an even integer, so D = h +
    round(l + |v|·p2). For q <= 22, p2 = 0 and all is exact. Otherwise the sum
    is within 5e-15 of X − h, so a fraction within 1e-13 of ½, or an X within
    1e-13 of 10^16 or 10^17, is not decided, unless X is a tie (|v|·2^(q+1) an
    odd integer): nine doubles, m·2^-24 and m·2^-25, whose sum is exact. E
    starts at floor(log10 |v|) and moves until X lies in range."""
    a = np.abs(v)
    fast = (1e-99 <= a) & (a < 1e17)
    a[~fast] = 1.0
    e = np.minimum(np.floor(np.log10(a)), 16).astype(np.int32) + 100
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    for _ in range(3):
        hi, lo, p2 = (row.take(e) for row in ten)
        h = a * (hi + lo)
        r = (((a_hi * hi - h) + a_hi * lo + a_lo * hi) + a_lo * lo) + a * p2
        below, above = (h - 1e16) + r, (h - 1e17) + r
        moves = (above >= 0).view(np.int8) - (below < 0).view(np.int8)
        if not moves.any():
            break
        e = np.clip(e + moves, 0, 116)  # a lane that moves is not ok
    t = np.ldexp(a, 117 - e)
    tie = (np.floor(t) == t) & (np.floor(t * 0.5) != t * 0.5)
    near = (np.abs(r - np.floor(r) - 0.5) <= 1e-13) & ~tie
    near |= (np.abs(below) < 1e-13) | (np.abs(above) < 1e-13)
    D = h.astype(np.int64) + np.rint(r).astype(np.int64)
    top = D == 10**17
    D[top] = 10**16
    e += top
    ok = fast & (moves == 0) & ~(near & (p2 != 0)) & (e >= 1)
    D[~ok], e[~ok] = 0, 100
    return D, e, ok | (v == 0)


def _chunk_text(block: tuple, end: str = "\r\n") -> str:
    """_row_text's bytes for each row of a trace chunk, a range t in [0, 10^16)
    and float64 columns of its length, at a fraction of its cost: rows
    of NUL-padded byte slots, filled a field at a time with whole words from
    _words' tables, then one translate drops the NULs. t's slot is its digits;
    a float's is ",", the sign, the integer part, the mid word, the first
    fraction digit, four words of fraction and, if the column needs it, the
    exponent word (%g's fixed notation is -4 <= E < 17). A value _digits
    leaves to %.17g gets that text in its slot."""
    t, *floats = block
    w = _words()
    n, digits = len(t), w["digits"]
    cols = [(v, *_digits(v, w["ten"])) for v in floats]
    kt = (len(str(max(t[0], t[-1]))) + 3) // 4
    # Words of integer part (E + 1 digits at most), and whether E < -4 occurs.
    shapes = [((max(int(e.max()) - 100, 0) + 4) // 4, bool((e < 96).any())) for _, _, e, _ in cols]
    width = 4 * kt + sum(4 * k + 23 + 4 * x for k, x in shapes) + len(end)
    buf = bytearray(n * width)
    rows = np.frombuffer(buf, np.uint8).reshape(n, width)

    def put(table: np.ndarray, index: np.ndarray, at: int) -> None:
        np.ndarray(n, "<u4", buf, at, (width,))[...] = table[index]

    def put_int(values: np.ndarray, k: int, at: int) -> None:
        for j in range(k):  # right-aligned: leading zero words NUL, 0 as "0"
            top = values // 10 ** (4 * (k - 1 - j)) if j < k - 1 else values  # words 0 .. j
            index = top % 10000 + 10000 * (top < 10000) if j else top + 10000
            index[(top == 0) & (j < k - 1)] = 20000
            put(digits, index, at + 4 * j)

    put_int(np.arange(t.start, t.stop, t.step), kt, 0)
    at = 4 * kt
    for (v, D, e, ok), (k, x) in zip(cols, shapes):
        point = w["point"][e]
        whole = D // point
        rest = frac = (D - whole * point) * w["shift"][e]  # 17 digits, left-aligned
        rows[:, at] = 44
        rows[:, at + 1] = np.signbit(v) * np.uint8(45)
        put_int(whole, k, at + 2)
        m = at + 2 + 4 * k
        put(w["mid"], e + 117 * (frac != 0), m)
        for j, scale in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
            word = rest // scale
            rest = rest - word * scale
            if j:  # NUL from the last digit that is not 0 on
                word[rest == 0] += 20000
                put(digits, word, m + 1 + 4 * j)
            else:
                rows[:, m + 4] = (word + 48) * (frac != 0)
        if x:
            put(w["exp"], e, m + 21)
        size = 4 * k + 23 + 4 * x
        if (bad := np.flatnonzero(~ok)).size:  # their text after the ","
            texts = b"".join((_EXACT % f).encode().ljust(size - 1, b"\0") for f in v[bad].tolist())
            rows[bad, at + 1 : at + size] = np.frombuffer(texts, np.uint8).reshape(len(bad), -1)
        at += size
    rows[:, at:] = np.frombuffer(end.encode(), np.uint8)
    del rows, cols
    text = buf.translate(None, b"\0")
    del buf
    return text.decode("ascii")


def write_trace_csv(trace: Trace, out: str | os.PathLike | IO[str]) -> None:
    """Write the trial trace, a Trace or a match's records (MatchTrace), as
    CSV, one block per 4,096-row chunk, its text from _chunk_text; trial 0's
    row (_row_text) leaves uncharged fields empty. With fork and two CPUs, two
    chunks or more are formatted by two processes."""
    first = [_row_text((0, x, "", y, "", "", "", "")) for x, _, y, *_ in zip(*trace._rows(0, 1))]
    chunks = _dealt(_trace_blocks(trace), len(range(1, len(trace), _BLOCK)), _chunk_text)
    with closing(chunks):
        _write_texts(out, TRACE_HEADER, chain(first, chunks))


def _trace_blocks(trace: Trace) -> Iterator[tuple]:
    n, cum = len(trace), 0.0
    # One chunk of columns at a time: a long trace never exists as Python
    # floats or text all at once, nor a match's records as columns.
    for start in range(1, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        columns = trace._rows(start, stop)
        cums = columns[-1].copy()  # a Trace's columns are views of it
        cum = _carry(cum, cums)
        yield (range(start, stop), *columns, cums)


def _dealt(items: Iterator, count: int, work: Callable) -> Iterator:
    """work(item) for each of the count items, in item order. With fork and two
    CPUs, and two items or more, a forked helper walks every item (so both
    carry the same state) and works items 1, 3, 5, ...: it sends each result
    pickled, length first, and this process reads each pickle whole and loads
    it at its item's turn. An exception the helper's work raises is sent the
    same way with a negative length, and raised here at its item's turn.
    Closing the iterator closes the pipe (EPIPE ends the helper) and reaps it."""
    cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    if count < 2 or not hasattr(os, "fork") or len(cpus) < 2:
        yield from map(work, items)
        return
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe, open(write_fd, "wb") as sink:
        pid = os.fork()
        if not pid:  # the helper: it leaves only through os._exit, also on error
            try:
                pipe.close()
                for item in islice(items, 1, None, 2):
                    try:
                        data, sign = pickle.dumps(work(item)), 1
                    except Exception as exc:  # sent on, for the parent to raise
                        data, sign = pickle.dumps(exc), -1
                    sink.write((sign * len(data)).to_bytes(8, "little", signed=True) + data)
                    sink.flush()
                    if sign < 0:
                        break
                os._exit(0)
            finally:
                os._exit(1)
        sink.close()
        try:
            for i, item in enumerate(items):
                if i % 2 == 0:
                    yield work(item)
                    continue
                size = int.from_bytes(_read(pipe, 8), "little", signed=True)
                if size < 0:
                    raise pickle.loads(_read(pipe, -size))
                yield pickle.loads(_read(pipe, size))
        finally:
            pipe.close()
            os.waitpid(pid, 0)


def _read(pipe: IO[bytes], size: int) -> bytes:
    if len(data := pipe.read(size)) < size:
        raise OSError("the helper process ended early")
    return data

