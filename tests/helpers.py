"""Shared generators for randomized tests, the adversary's dict oracle, a
whole stage played from its predictions, a stage's proposals so far, a
match's audits after every trial and their rounding bound, the columnar
match trace, the table and trace CSV oracles, the nearest-earlier-neighbour
oracle, the whole-array run_trials and kl_invariants oracles, the functions
a learner or the adversary has built so far, and a trace helper that dies."""

import csv
import math
import os
from dataclasses import replace

import numpy as np

from pwlearn import (
    AdversaryState, DegenerateInput, DomainError, LinintLearner, LossAccount, MatchAudit,
    MatchResult, MatchTrace, StageSummary, Trace, audit_energy, dyadic_x, evaluate,
    evaluate_many, from_points, perturbation, stage_of,
)
from pwlearn import learner as learner_module
from pwlearn.adversary import _proposals, _trial_audits
from pwlearn.errors import _check_real
from pwlearn.harness import D_EXPONENTS, _sample_target_rng
from pwlearn.learner import (
    TRACE_HEADER, _check_pairs, _earlier_neighbours, _fill, _fresh, _linint_predictions,
    _midpoint_predictions, _pow_terms, _repeats, open_out, scalar_predictions,
)
from pwlearn.pwl import _energy_sum


def cumulative_sum(values):
    """0.0 + values[0] + values[1] + ..., left to right as one np.cumsum: the
    loss and trace sums' oracle, sharing no code with the package's carry."""
    return float(np.cumsum(np.append(0.0, values))[-1])


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


def respond_stage(state, y_hat):
    """Play the next stage through the state's blocked fold, given all of its
    predictions at once in trial order: the state's predictions become an
    array with y_hat from the stage's first trial on, NaN before."""
    state._play(np.append(np.full(state.next_t, math.nan), y_hat))


def proposals(state):
    """The proposals of the current stage's trials so far, rebuilt from the
    state's stage-start knots and predictions as the state rebuilds them."""
    w, knots = state.within, state.committed[::2]
    return _proposals(state.predictions, knots[:w], knots[1 : w + 1], state.h,
                      state.next_t - w, state.magnitude)[2]


def played(state, predictions):
    """The match played on state so far, up to a stage end, as _trial_audits
    reads it: the stages so far on the last one's view of the grid, and the
    predictions in trial order (trial 0's unread), with placeholder totals."""
    records = MatchTrace(state.committed, 1.0 + state.epsilon, predictions)
    return MatchResult(state.epsilon, state.stage, 0.0, records, [], None, 0.0, 0.0)


def trial_audits(result):
    """_trial_audits' rows of a finished match split by stage: for stage i,
    j_probe and residual after each of its trials 2^(i-1) .. 2^i - 2, one
    column per trial (none for stage 1)."""
    stops = [(1 << i) - i - 1 for i in range(1, result.stages)]
    return np.split(_trial_audits(result), stops, axis=1)


def check_trial_audit(column, state):
    """Check _trial_audits' column for the state's last trial, w of a stage
    of n, against audit_energy(state): each of j_probe and the residual lies
    within γ_k·(J + 2A) of the oracle's, k = 4w + 2n, where J is the oracle's
    j_probe and A the state's stage_start_energy.

    Both sum the same nonnegative terms, bit for bit: the probe's first 2w,
    of sum P, then the stage-start knots' from the w-th on, of sum A − E,
    where A sums all n of those and E their first w. Only the order of the
    additions differs. A sum that passes each term through at most m
    roundings is Σ x_i(1 + θ_i) with |θ_i| ≤ γ_m = m·u/(1 − m·u) (Higham,
    Accuracy and Stability of Numerical Algorithms, Lemma 3.1 and §4.2).
    _trial_audits adds P's terms in a cumsum (2w − 1 additions), A's (n − 1),
    E's in a cumsum (w − 1), then forms P + (A − E) (2 more): within
    γ_{3w+n−1}·(P + A + E) of the exact value. audit_energy adds its 2w +
    n − w terms (n + w − 1 additions): within γ_{n+w−1}·(P + A − E). As
    γ_a + γ_b ≤ γ_{a+b}, they differ by at most γ_{4w+2n−2}·(P + A + E),
    and P + A + E ≤ J + 2A since E ≤ A. J and A are read rounded, each
    within a relative γ_{n+w} of the exact, and J + 2A rounds once more;
    while k·(n + w)·u < 1/4, the two additions k counts past 4w + 2n − 2
    cover both. The residual is |j_probe − expected| with one expected for
    both, which lies within a factor 2 of j_probe, so that subtraction is
    exact (Sterbenz): residuals differ by at most what the j_probes do."""
    want, w, n = audit_energy(state), state.within, 1 << (state.stage - 1)
    u, k = 2.0**-53, 4 * w + 2 * n
    bound = k * u / (1.0 - k * u) * (want.j_probe + 2.0 * state.stage_start_energy)
    assert abs(column[0] - want.j_probe) <= bound, (state.next_t - 1, column[0], want)
    assert abs(column[1] - want.recursion_residual) <= bound, (state.next_t - 1, column[1], want)


def worst_audit(result):
    """result's MatchAudit with the worst of every trial's j_probe and
    residual folded in, as run_invariant_audit checks a match."""
    jp, resid = _trial_audits(result).max(axis=1, initial=0.0).tolist()
    a = result.audit
    return replace(a, max_j_probe=max(a.max_j_probe, jp),
                   max_recursion_residual=max(a.max_recursion_residual, resid))


def columnar_match(learner, config):
    """A match played as run_match plays it, with its trace built as six full
    columns filled a stage at a time, trial 0 first, and its audits from
    audit_energy at each stage end: (total_loss, per_stage, MatchAudit,
    Trace). The oracle for run_match's records, which hold only the final
    grid and, unless the grid fixes them, the predictions, and for its
    totals and audits."""
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
    max_jp = max_resid = 0.0
    per_stage = []
    for i in range(1, stages + 1):
        first, h = 1 << (i - 1), 0.5**i
        if by_stage:
            knots = state.committed  # the last stage's view, at spacing 2h
            y_hat = _midpoint_predictions(learner.kind, knots[:-1], knots[1:], h, slice(0, 1))
            respond_stage(state, y_hat)
        else:
            y_hat = []
            for t, x in enumerate(((2.0 * np.arange(first) + 1.0) * h).tolist(), start=first):
                y_hat.append(learner.predict(x))
                learner.observe(x, state.respond(t, y_hat[-1])[0])
            y_hat = np.array(y_hat, dtype=float)
        y = state.committed[1::2]
        e = np.abs(y_hat - y)
        terms = _pow_terms(e, p)
        trials = slice(first, 2 * first)
        y_hats[trials], es[trials], ds[trials], terms_col[trials] = y_hat, e, h, terms
        k[trials] = (2 * np.arange(first) + 1) << (stages - i)
        audit = audit_energy(state)
        max_jp = max(max_jp, audit.j_probe)
        max_resid = max(max_resid, audit.recursion_residual)
        per_stage.append(StageSummary(i, state.within, state.per_stage[-1].accepted, audit.j_probe))
    audit = MatchAudit(state.audit.max_abs_slope, max(state.max_energy_probe, max_jp), max_resid)
    trace = Trace(k * 0.5**stages, y_hats, state.grid[k], es, ds, terms_col)
    return cumulative_sum(terms_col[1:]), per_stage, audit, trace


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
    parent, chunk_text = os.getpid(), learner_module._chunk_text

    def dying_chunk_text(*args):
        if os.getpid() != parent:
            os._exit(1)
        return chunk_text(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(learner_module, "_chunk_text", dying_chunk_text)


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


def run_trials_oracle(learner, sequence, p):
    """learner.run_trials as it was before it worked in blocks: every column
    built whole and the loss summed by one cumsum. The oracle run_trials must
    match column for column and bit for bit."""
    p = _check_real("loss exponent", p, 1.0, math.inf, "(]")
    try:
        pairs = np.asarray(sequence, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected (x, y) pairs of real numbers: {exc}") from None
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
        y_hat = _linint_predictions(
            xs, xs[left], xs[right], ys[left], ys[right], left < 0, right < 0
        )
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
    with np.errstate(over="ignore"):  # refused below, with no numpy warning
        total = cumulative_sum(loss_term[1:])
    if not math.isfinite(total):
        raise DomainError(f"total loss {total!r} is not finite; labels and predictions must be")
    trace = Trace(x=xs, y_hat=y_hat, y=ys, e=e, d=d, loss_term=loss_term)
    return trace, LossAccount(total=total, trials=max(n - 1, 0))


def kl_invariants_oracle(trace, r, *more_r):
    """learner.kl_invariants as it was before it read the trace in blocks:
    each sum one cumsum over the whole column."""
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
    return (cumulative_sum(e * e / d), *(cumulative_sum(_pow_terms(d, q)) for q in exponents))


def audit_trace_run_oracle(rng, max_trials):
    """harness.audit_trace_run on the whole-array oracles, its inputs and
    labels stacked into a copy as it drew them before."""
    target = _sample_target_rng(2.0, int(rng.integers(2, 33)), rng)
    size = int(rng.integers(2, max_trials + 1))
    while True:
        xs = rng.random(size)
        pairs = np.column_stack((xs, evaluate_many(target, xs)))
        trace, account = run_trials_oracle(LinintLearner(), pairs, p=2.0)
        try:
            e2d, *d_sums = kl_invariants_oracle(trace, *D_EXPONENTS)
        except DegenerateInput:
            continue
        return account, e2d, dict(zip(D_EXPONENTS, d_sums)), float(xs[0])
