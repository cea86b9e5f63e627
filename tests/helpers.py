"""Shared generators for randomized tests, the adversary's dict oracle, the
columnar match trace, the table and trace CSV oracles, the
nearest-earlier-neighbour oracle, the functions a learner or the adversary
has built so far, and a trace helper that dies."""

import csv
import math
import os

import numpy as np

from pwlearn import (
    AdversaryState, MatchAudit, StageSummary, Trace, audit_energy, dyadic_x, evaluate,
    from_points, perturbation, stage_of,
)
from pwlearn import learner as learner_module
from pwlearn.adversary import _play_stage
from pwlearn.learner import (
    TRACE_HEADER, _fresh, _midpoint_predictions, _pow_terms, _running_total, open_out,
)
from pwlearn.pwl import _energy_sum


def random_function(rng, max_knots=20, min_gap=0.0):
    """Random knot set; optionally reject coordinate gaps below min_gap."""
    while True:
        k = int(rng.integers(2, max_knots + 1))
        us = np.sort(rng.random(k))
        if np.unique(us).size != k:
            continue
        if min_gap and (
            np.diff(us).min() < min_gap or us[0] < min_gap or 1 - us[-1] < min_gap
        ):
            continue
        vs = rng.normal(0.0, 1.0, size=k)
        return from_points(zip(us, vs))


def random_midpoint_insertion(rng):
    """Dyadic knot set plus a midpoint insertion (S, x, y).

    Midpoints of dyadic knots are exact doubles, so the equidistance
    hypothesis holds exactly. The inserted value is kept at least 0.25 away
    from the function, and levels stay at most 6, so the energy difference
    (which cancels two O(energy) quantities) retains enough digits to be
    compared at 1e-10 relative.
    """
    while True:
        level = int(rng.integers(2, 7))
        n = 1 << level
        take = rng.random(n + 1) < 0.5
        us = [k / n for k in range(n + 1) if take[k]]
        if len(us) < 2:
            continue
        vs = rng.normal(0.0, 0.5, size=len(us))
        S = list(zip(us, (float(v) for v in vs)))
        j = int(rng.integers(0, len(us) - 1))
        x = (us[j] + us[j + 1]) / 2.0
        base = evaluate(from_points(S), x)
        magnitude = 0.25 + abs(float(rng.normal(0.0, 1.0)))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return S, x, base + math.copysign(magnitude, sign)


def linint_history(learner):
    """The interpolant of everything a LinintLearner has observed so far."""
    return from_points(learner._vals.items())


def committed_function(state):
    """The interpolant of the adversary's committed knots set so far."""
    k = np.flatnonzero(~np.isnan(state.committed))
    return from_points(zip((k * state.h).tolist(), state.committed[k].tolist()))


def dict_energy(knots):
    """Energy of the interpolant of a coordinate->value mapping, from scratch:
    the dict-and-argsort summation the adversary's grid must match bit for
    bit."""
    m = len(knots)
    us = np.fromiter(knots.keys(), dtype=float, count=m)
    vs = np.fromiter(knots.values(), dtype=float, count=m)
    order = np.argsort(us)
    us = us[order]
    return _energy_sum(us[1:] - us[:-1], vs[order])


class DictAdversary:
    """The adversary's respond on coordinate->value dicts, one trial at a
    time, with its bookkeeping trial by trial: the incremental probe energy
    from the stage start, its maximum, the steepest committed slope and the
    stage's acceptances. The oracle for the grid-based AdversaryState, which
    reads the bookkeeping off its grid once a stage is finished."""

    def __init__(self, epsilon):
        self.epsilon = epsilon
        self.committed = {0.0: 0.0, 1.0: 0.0}
        self.probe = dict(self.committed)
        self.stage = 0
        self.energy = self.max_energy_probe = self.max_abs_slope = 0.0
        self.accepted = 0

    def respond(self, t, y_hat):
        i = stage_of(t)
        if i > self.stage:
            self.stage = i
            self.probe = dict(self.committed)
            self.energy = dict_energy(self.committed)
            self.accepted = 0
        x, h = dyadic_x(t), 0.5**i
        vl, vr = self.committed[x - h], self.committed[x + h]
        base = 0.5 * (vl + vr)
        mag = perturbation(i, self.epsilon)
        v = base - mag if y_hat > base else base + mag
        accepted = abs(v - vl) <= h and abs(v - vr) <= h
        y = v if accepted else base
        self.committed[x] = y
        self.probe[x] = v
        # The probe is base at x before the insertion of v.
        diff = v - base
        self.energy += 2.0 * diff * diff / h
        self.max_energy_probe = max(self.max_energy_probe, self.energy)
        self.max_abs_slope = max(self.max_abs_slope, abs(y - vl) / h, abs(vr - y) / h)
        self.accepted += accepted
        return y, accepted


def columnar_match(learner, config):
    """A match played as run_match plays it, with its trace built as six full
    columns filled a stage at a time, trial 0 first, and its audits from
    audit_energy at each stage end: (total_loss, per_stage, MatchAudit,
    Trace). The oracle for run_match's records, which hold only the final
    grid and the predictions, and for its totals and audits."""
    eps, stages = config.epsilon, config.stages
    p = 1.0 + eps
    state = AdversaryState(config)
    by_stage = _fresh(learner)
    if not by_stage:
        learner.predict(1.0)
        learner.observe(1.0, 0.0)
    n = 1 << stages
    y_hats, es, ds, terms_col = (np.full(n, math.nan) for _ in range(4))
    k = np.full(n, n)  # grid index of each trial's input at spacing 2^-stages
    total = max_jp = max_jc = max_resid = 0.0
    per_stage = []
    for i in range(1, stages + 1):
        first, h = 1 << (i - 1), 0.5**i
        if by_stage:
            y_hat = _midpoint_predictions(learner.kind, state.committed, h)
            state._respond_stage(y_hat)
        else:
            y_hat = _play_stage(learner, state, (2.0 * np.arange(first) + 1.0) * h)
        y = state.committed[1::2]
        e = np.abs(y_hat - y)
        terms = _pow_terms(e, p)
        total = _running_total(np.append(total, terms))
        trials = slice(first, 2 * first)
        y_hats[trials], es[trials], ds[trials], terms_col[trials] = y_hat, e, h, terms
        k[trials] = (2 * np.arange(first) + 1) << (stages - i)
        audit = audit_energy(state)
        max_jp = max(max_jp, audit.j_probe)
        max_jc = max(max_jc, audit.j_committed)
        max_resid = max(max_resid, audit.recursion_residual)
        per_stage.append(StageSummary(i, state.within, state.accepted, audit.j_probe))
    audit = MatchAudit(state.max_abs_slope, max(state.max_energy_probe, max_jp), max_jc, max_resid)
    trace = Trace(k * 0.5**stages, y_hats, state.grid[k], es, ds, terms_col)
    return total, per_stage, audit, trace


def csv_writer_trace(trace, out):
    """The trace CSV written by csv.writer, one format(v, ".17g") call per
    field and a running cum += term: the oracle write_trace_csv must match
    byte for byte."""

    def fmt_exact(value):
        return format(value, ".17g")

    with open_out(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        n = len(trace)
        if n:
            x0, y0 = float(trace.x[0]), float(trace.y[0])
            writer.writerow([0, fmt_exact(x0), "", fmt_exact(y0), "", "", "", ""])
        columns = (trace.x, trace.y_hat, trace.y, trace.e, trace.d, trace.loss_term)
        cum = 0.0
        for t, x, y_hat, y, e, d, term in zip(range(1, n), *(c[1:].tolist() for c in columns)):
            cum += term
            writer.writerow(
                [t, *(fmt_exact(v) for v in (x, y_hat, y, e, d, term, cum))]
            )


def csv_writer_table(out, header, blocks, end="\r\n"):
    """A table written by csv.writer, one format(v, ".17g") call per float field
    and str for every other, returning the text written by the header and by
    each block: the oracle write_csv must match byte for byte, and the points
    where it must flush."""
    flushed = []
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(header)
    flushed.append(out.getvalue())
    for columns in blocks:
        for row in zip(*columns):
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
        flushed.append(out.getvalue())
    return flushed


def kill_the_trace_helper(monkeypatch):
    """Force write_trace_csv's helper on for any trace of two chunks or more,
    and make it exit 1 when it formats its first chunk."""
    parent, block_text = os.getpid(), learner_module._block_text

    def dying_block_text(*args):
        if os.getpid() != parent:
            os._exit(1)
        return block_text(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(learner_module, "_block_text", dying_block_text)


def linked_list_neighbours(xs):
    """For every trial t, the trial holding the nearest earlier input on the left
    of x_t in input order and the one on the right (-1 where there is none),
    plus the stable sorting order of the inputs: the oracle for
    learner._earlier_neighbours.

    Sort the inputs once (stably, so an earlier equal input sits on the left),
    then unlink the trials from a doubly linked list in that order, latest
    first. When trial t is unlinked, only earlier trials remain, so its two
    list neighbours are its nearest earlier inputs.
    """
    n = len(xs)
    order = np.argsort(xs, kind="stable")
    # Trial t sits at list position pos[t] in 1..n; 0 and n + 1 are sentinels.
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(1, n + 1)
    prev = list(range(-1, n + 1))
    nxt = list(range(1, n + 3))
    lefts: list[int] = []
    rights: list[int] = []
    for i in reversed(pos.tolist()):
        lo = prev[i]
        hi = nxt[i]
        nxt[lo] = hi
        prev[hi] = lo
        lefts.append(lo)
        rights.append(hi)
    trial_at = np.concatenate(([-1], order, [-1]))
    return trial_at[lefts[::-1]], trial_at[rights[::-1]], order
