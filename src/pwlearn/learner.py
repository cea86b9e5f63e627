"""Online learners, the sequential trial loop, and trace-level invariants.

A learner answers predict(x) before each label is revealed, then sees the
label via observe(x, y). The prediction on trial 0 is uncharged; loss is the
sum of |prediction - label|^p over trials t >= 1.

run_trials knows the whole (x, y) sequence in advance, so it finds every
trial's nearest earlier inputs offline, in a few vector rounds of pointer
jumping over the trial indices in input order (_earlier_neighbours, whose
oracle is the linked-list pass in tests/helpers.py). For a fresh
LinintLearner on distinct inputs it computes every prediction from them
without calling predict/observe. The online predict/observe loop
(scalar_predictions) serves every other learner and is the reference the
offline path must match bit for bit. The adversary's stage-at-a-time play
takes its predictions from _midpoint_predictions; _fresh is the one rule for
which learners either offline path may stand in for.

_dealt works an iterator's items on two CPUs: with fork, a forked helper works
every other item (walking all, so both carry the same state) and pipes each
result back, and the caller gets every result in item order, as one process
would give them. write_trace_csv deals it the trace's 4,096-row chunks and
harness.run_invariant_audit its trace runs.
"""

from __future__ import annotations

import math
import os
import pickle
from contextlib import closing, contextmanager
from dataclasses import dataclass, fields
from itertools import chain, islice
from typing import IO, Callable, Iterator, Sequence

import numpy as np
from sortedcontainers import SortedList

from .errors import DegenerateInput, DomainError, DuplicateConflict, UnknownKind, _check_real

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
        return tuple(getattr(self, f.name)[start:stop] for f in fields(self))


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


def _running_total(values) -> float:
    # Left to right, the same bits as a += loop: cumsum adds in order, where
    # np.sum (pairwise) and builtin sum (compensated on 3.12) would not.
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


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
    Lane j's candidate cand[j] starts at the lane before it. Every lane
    strictly between cand[j] and j holds a later trial than j, and while
    cand[j] holds a later trial too, cand[j] <- cand[cand[j]] keeps that so.
    When no lane moves, cand[j] holds j's nearest earlier trial on its side.
    A long chain moves one step a round, so after 2·log2(n) + 4 rounds the
    lanes still moving walk their chains one at a time, in scan order, where
    every earlier lane is already final.
    """
    n = len(order)
    m = n + 2
    trial_at = np.concatenate(([-1], order, [-1]))
    when = np.concatenate((trial_at, trial_at[::-1]))
    cand = np.arange(-1, 2 * m - 1)
    ends = [0, m - 1, m, 2 * m - 1]
    cand[ends] = ends
    moving = np.flatnonzero(when[cand] > when)
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


def _linint_predictions(
    xs: np.ndarray, ys: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """LinintLearner.predict at every trial from its nearest earlier inputs:
    the chord between them, or the label of the one on the near side beyond
    either end. The chord uses predict's operations in predict's order, so
    every value has the same bits. Trial 0's entry is meaningless."""
    # Lanes with a missing neighbour index -1; np.where discards them.
    with np.errstate(all="ignore"):
        u0, v0 = xs[left], ys[left]
        u1, v1 = xs[right], ys[right]
        chord = v0 + (xs - u0) * (v1 - v0) / (u1 - u0)
    return np.where(left < 0, v1, np.where(right < 0, v0, chord))


def _fresh(learner: Learner) -> bool:
    """Whether the offline paths may stand in for predict/observe: the learner
    is of exact built-in type (a subclass may override either) and has
    observed nothing."""
    if type(learner) is ZeroLearner:
        return True
    return type(learner) in (NearestLearner, LinintLearner) and not learner._vals


def _midpoint_predictions(kind: str, grid: np.ndarray, h: float) -> np.ndarray:
    """A fresh built-in learner's predictions at the midpoints (2w+1)·h,
    w = 0, 1, ..., of a grid of labels at spacing 2h, when it has observed
    every grid knot but the one at x = 0 and nothing nearer to any midpoint.

    Midpoint w lies between grid knots w and w + 1. nearest's neighbours tie,
    and ties go left; linint uses predict's chord in predict's order, not
    0.5·(vl + vr). With no knot observed at x = 0, both extend grid[1] as a
    constant at x = h."""
    vl, vr = grid[:-1], grid[1:]
    if kind == "zero":
        return np.zeros(len(vl))
    if kind == "nearest":
        y_hat = vl.copy()
    else:
        # x - u0 = h and u1 - u0 = 2h exactly.
        y_hat = vl + h * (vr - vl) / (2.0 * h)
    y_hat[0] = grid[1]
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

    ``sequence`` holds (x, y) pairs, or is an (n, 2) float array. Every pair
    is checked before the first prediction: a non-finite value or an x
    outside [0, 1] raises DomainError naming the trial. Repeated input
    coordinates are allowed (the learner should answer the known value);
    they show up as d = 0 in the trace, which kl_invariants will reject. A
    loss term that overflows or a non-finite total loss raises DomainError.

    d comes from a sorting order of the inputs, stable whenever an input
    repeats. A fresh LinintLearner on distinct inputs takes the offline path:
    its predictions come from the neighbours found for d, and its state is
    then filled in bulk, equal to what observing each pair would leave. Every
    other case runs scalar_predictions.
    """
    p = _check_real("loss exponent", p, 1.0, math.inf, "(]")
    pairs = np.asarray(sequence, dtype=float)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DomainError(f"expected (x, y) pairs, got an array of shape {pairs.shape}")
    xs = pairs[:, 0].copy()
    ys = pairs[:, 1].copy()
    _check_pairs(xs, ys)
    n = len(xs)
    order = np.argsort(xs)
    distinct = not _repeats(xs[order])
    if not distinct:
        order = np.argsort(xs, kind="stable")  # an earlier equal input first
    x_sorted = xs[order]
    left, right = _earlier_neighbours(order)
    dl = np.where(left < 0, math.inf, xs - xs[left])
    dr = np.where(right < 0, math.inf, xs[right] - xs)
    d = np.where(dl <= dr, dl, dr)
    if not distinct:
        # A repeat's d is what a bisect_left over the earlier inputs gives: the
        # first equal input minus x, which keeps the sign of a zero difference.
        first = order[np.searchsorted(x_sorted, xs, side="left")]
        repeat = first < np.arange(n)
        d[repeat] = xs[first[repeat]] - xs[repeat]
    if distinct and type(learner) is LinintLearner and _fresh(learner):
        y_hat = _linint_predictions(xs, ys, left, right)
        knots = (xs.copy(), ys.copy(), x_sorted)  # the trace holds xs and ys
        _fill(learner, lambda: knots)
    else:
        y_hat = np.array(scalar_predictions(learner, xs.tolist(), ys.tolist()), dtype=float)
    y_hat[:1] = d[:1] = math.nan
    e = np.abs(y_hat - ys)
    loss_term = np.full(n, math.nan)
    try:
        loss_term[1:] = _pow_terms(e[1:], p)
    except OverflowError:
        raise DomainError(
            f"a loss term |y_hat - y|**{p!r} overflows; labels and predictions must be moderate"
        ) from None
    total = _running_total(loss_term[1:])
    if not math.isfinite(total):
        raise DomainError(f"total loss {total!r} is not finite; labels and predictions must be")
    trace = Trace(x=xs, y_hat=y_hat, y=ys, e=e, d=d, loss_term=loss_term)
    return trace, LossAccount(total=total, trials=max(n - 1, 0))


def kl_invariants(trace: Trace, r: float, *more_r: float) -> tuple[float, ...]:
    """Trace sums over charged trials: (sum of e^2/d, sum of d^r, then sum of
    d^r' for each further exponent r' in more_r). One call for several
    exponents checks d and computes e^2/d once.

    Every exponent must exceed 1. Requires distinct input coordinates: a
    repeated input gives d = 0 and raises DegenerateInput instead of
    dividing by it; any other d outside (0, 1], NaN included, is no distance
    and raises DomainError naming its trial.
    """
    exponents = [_check_real("exponent r", q, 1.0, math.inf, "(]") for q in (r, *more_r)]
    e, d = trace.e[1:], trace.d[1:]
    bad = np.flatnonzero(~((0.0 < d) & (d <= 1.0)))  # both comparisons fail on NaN
    if bad.size:
        repeats = bad[d[bad] == 0.0]
        t = int(repeats[0] if repeats.size else bad[0]) + 1
        if repeats.size:
            raise DegenerateInput(
                f"repeated input coordinate at trial {t} (x={float(trace.x[t])!r})"
            )
        raise DomainError(f"trial {t}: d={float(trace.d[t])!r} is not a distance in (0, 1]")
    return (_running_total(e * e / d), *(_running_total(_pow_terms(d, q)) for q in exponents))


TRACE_HEADER = ("t", "x", "y_hat", "y", "e", "d", "loss_term", "cum_loss")
_CSV_CHUNK = 4096
_EXACT = "%.17g"  # fmt_exact's spec, shared with write_csv


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
    """Write a CSV table: the header, then each block of equal-length columns
    through one row template, flushing after the header and after each block.
    Floats are written %.17g, ints and text as str gives them (a numpy column
    as its .tolist()), and no field is quoted, which no number needs."""
    _write_texts(out, header, (t for c in blocks for t in (_block_text(c, end), None)), end)


def _write_texts(out, header, texts: Iterator[str | None], end: str = "\r\n") -> None:
    """write_csv's writer: the header, then each text; a None ends a block."""
    with open_out(out) as fh:
        for text in chain([",".join(header) + end, None], texts):
            if text is None:
                fh.flush()
            else:
                fh.write(text)


def _block_text(columns, end: str = "\r\n") -> str:
    slots, cells = zip(*map(_exact_cells, columns))
    row = ",".join(slots) + end
    return "".join(map(row.__mod__, zip(*cells)))


def write_trace_csv(trace: Trace, out: str | os.PathLike | IO[str]) -> None:
    """Write the trial trace, a Trace or a match's records (MatchTrace), as
    CSV, one block per chunk of rows; trial 0 leaves uncharged fields empty.
    With fork and two CPUs, two chunks or more are formatted by two processes."""
    blocks = _trace_blocks(trace)
    # Each chunk's texts come one-shot, so none is held once written: not
    # while the block is flushed, nor while the next chunk is made.
    first = [iter([_block_text(columns)]) for columns in islice(blocks, 1)]  # trial 0's row
    chunks = _dealt(blocks, len(range(1, len(trace), _CSV_CHUNK)),
                    lambda columns: iter([_block_text(columns)]),
                    lambda texts: next(texts).encode("ascii"),
                    lambda pieces: (piece.decode("ascii") for piece in pieces))
    with closing(chunks):
        texts = (t for chunk in chain(first, chunks) for t in chain(chunk, [None]))
        _write_texts(out, TRACE_HEADER, texts)


def _trace_blocks(trace: Trace) -> Iterator[tuple]:
    n = len(trace)
    if n:
        x, _, y, *_ = trace._rows(0, 1)
        yield ((0,), x, ("",), y, *[("",)] * 4)
    cum = 0.0
    # One chunk of columns at a time: a long trace never exists as Python
    # floats or text all at once, nor a match's records as columns.
    for start in range(1, n, _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, n)
        columns = trace._rows(start, stop)
        # The bits of cum += term: cumsum adds left to right, from cum.
        cums = np.cumsum(np.append(cum, columns[-1]))
        cum = cums[-1]
        yield (range(start, stop), *columns, cums[1:])


def _dealt(items: Iterator, count: int, work: Callable, dump: Callable = pickle.dumps,
           load: Callable = lambda pieces: pickle.loads(b"".join(pieces))) -> Iterator:
    """work(item) for each of the count items, in item order. With fork and two
    CPUs, and two items or more, a forked helper walks every item (so both
    carry the same state) and works items 1, 3, 5, ...: it sends each result
    as dump(result), length first, and this process hands its bytes to load
    64 KB at a time, which must read them before the next result is asked for.
    An exception the helper's work raises is pickled back and raised here at
    its item's turn. Closing the iterator closes the pipe (EPIPE ends the
    helper) and reaps it."""
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
                        data, sign = dump(work(item)), 1
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
                yield load(_read(pipe, min(size - s, 1 << 16)) for s in range(0, size, 1 << 16))
        finally:
            pipe.close()
            os.waitpid(pid, 0)


def _read(pipe: IO[bytes], size: int) -> bytes:
    if len(data := pipe.read(size)) < size:
        raise OSError("the trace helper process ended early")
    return data


def _exact_cells(values) -> tuple[str, Sequence]:
    """One column of a block as a row-template slot and its cells. A range
    takes a %d slot. Any other column but a float64 array takes a %s slot,
    its floats (a numpy column's .tolist() values) as %.17g text and its ints
    and text as they are. A float64 array with fewer runs of equal values than
    half its rows formats each run's value once and repeats the text in a %s
    slot, any other goes to %.17g as Python floats. Runs end where the bits
    change: a float comparison merges 0.0 and -0.0 and splits a run of NaN."""
    if isinstance(values, range):
        return "%d", values
    if isinstance(values, np.ndarray) and values.dtype != np.float64:
        values = values.tolist()
    if not isinstance(values, np.ndarray):
        return "%s", [_EXACT % v if isinstance(v, float) else v for v in values]
    bits = values.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (len(starts) + 1) >= len(values):
        return _EXACT, values.tolist()
    starts = np.append(0, starts)
    texts = np.array([_EXACT % v for v in values[starts].tolist()], dtype=object)
    return "%s", np.repeat(texts, np.diff(starts, append=len(values))).tolist()
