"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines as they
happen. The heavy fixtures (a 1000-run trace batch and a 15-match adversary
set) are shared across criteria; the whole module takes about 8 s on a
2-vCPU machine: about 3 s for the trace batch, 2.5 s for the adversary set
and 2 s for the energy oracles.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from pwlearn import (
    AdversaryConfig,
    check_proof_inequalities,
    energy,
    energy_increment,
    from_points,
    integrate_energy_oracle,
    kl_d_bound,
    lower_bound_closed_form,
    lower_bound_partial,
    make_learner,
    perturbation,
    run_match,
    upper_bound_linint,
)
from pwlearn.harness import audit_trace_run

from helpers import random_function, random_midpoint_insertion

BATCH_SEED = 20240810
BATCH_RUNS = 1000
D_EXPONENTS = (1.5, 2.0, 3.0)

EPS_GRID = (0.4, 0.25, 0.1, 0.05, 0.02)
STAGES = 14
LEARNERS = ("zero", "nearest", "linint")

# Measured once on this implementation (deterministic): the ratio
# max/min of loss*sqrt(eps) over EPS_GRID at S=14 with the interpolation
# learner came out 2.366817726481469. Frozen with outward rounding; it must
# not regress.
FROZEN_SCALING_FACTOR = 2.3669


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def kl_batch():
    """1000 seeded interpolation-learner runs against sampled targets.

    Every run uses a fresh target with derivative 2-norm at most 1 and a
    random distinct input sequence; one run in eight stretches to up to 10^4
    trials, the rest stay at up to 1500; the batch takes about 3 s on a
    2-vCPU machine.
    """
    children = np.random.SeedSequence(BATCH_SEED).spawn(BATCH_RUNS)
    worst_e2d = 0.0
    worst_d = {r: 0.0 for r in D_EXPONENTS}
    worst_p2 = 0.0
    trials_total = 0
    longest = 0
    for k, child in enumerate(children):
        max_trials = 10_000 if k % 8 == 0 else 1_500
        account, e2d, d_sums, _ = audit_trace_run(np.random.default_rng(child), max_trials)
        trials_total += account.trials
        longest = max(longest, account.trials)
        worst_p2 = max(worst_p2, account.total)
        for r in D_EXPONENTS:
            worst_d[r] = max(worst_d[r], d_sums[r])
        worst_e2d = max(worst_e2d, e2d)
    return SimpleNamespace(
        runs=BATCH_RUNS,
        trials_total=trials_total,
        longest=longest,
        worst_e2d=worst_e2d,
        worst_d=worst_d,
        worst_p2=worst_p2,
    )


@pytest.fixture(scope="module")
def matches():
    """One S=14 adversary match per (learner, epsilon)."""
    out = {}
    for eps in EPS_GRID:
        for kind in LEARNERS:
            out[kind, eps] = run_match(make_learner(kind), AdversaryConfig(eps, STAGES))
    return out


def test_criterion_1_kl_error_invariant(kl_batch):
    ok = kl_batch.worst_e2d <= 1.0 + 1e-9
    line = _report(
        1,
        "sum e^2/d <= 1 over seeded runs",
        ok,
        f"worst = {kl_batch.worst_e2d:.12g} over {kl_batch.runs} runs, "
        f"{kl_batch.trials_total} trials (longest {kl_batch.longest})",
    )
    assert ok, line


def test_criterion_2_distance_sum_bound(kl_batch):
    details = []
    ok = True
    for r in D_EXPONENTS:
        bound = kl_d_bound(r)
        worst = kl_batch.worst_d[r]
        ok = ok and worst <= bound + 1e-9
        details.append(f"r={r}: worst {worst:.9g} vs bound {bound:.9g}")
    line = _report(2, "sum d^r within closed-form cap", ok, "; ".join(details))
    assert ok, line


def test_criterion_3_sandwich_at_desk_scale(matches):
    details = []
    ok = True
    for eps in EPS_GRID:
        result = matches["linint", eps]
        lower = lower_bound_partial(eps, STAGES)
        upper = upper_bound_linint(eps)
        inside = lower * (1 - 1e-9) <= result.total_loss <= upper * (1 + 1e-9)
        ok = ok and inside
        details.append(f"eps={eps}: {lower:.6g} <= {result.total_loss:.6g} <= {upper:.6g}")
    line = _report(3, "loss sandwiched between closed forms", ok, "; ".join(details))
    assert ok, line


def test_criterion_4_inverse_sqrt_scaling(matches):
    scaled = [matches["linint", eps].total_loss * math.sqrt(eps) for eps in EPS_GRID]
    factor = max(scaled) / min(scaled)
    ok = factor <= FROZEN_SCALING_FACTOR
    line = _report(
        4,
        "loss*sqrt(eps) variation within frozen factor",
        ok,
        f"factor = {factor:.10g} vs frozen {FROZEN_SCALING_FACTOR}",
    )
    assert ok, line


def test_criterion_5_adversary_soundness(matches):
    problems = []
    for (kind, eps), result in matches.items():
        audit = result.audit
        if audit.max_abs_slope > 1.0 + 1e-12:
            problems.append(f"{kind}/{eps}: slope {audit.max_abs_slope!r}")
        if not audit.max_j_probe < 0.25:
            problems.append(f"{kind}/{eps}: probe energy {audit.max_j_probe!r}")
        for s in result.per_stage:
            need = 1 if s.i == 1 else 2 ** (s.i - 2)
            if s.accepted < need:
                problems.append(
                    f"{kind}/{eps}: stage {s.i} accepted {s.accepted} < {need}"
                )
        forced = sum(
            2 ** (k - 2) * perturbation(k, eps) ** (1 + eps)
            for k in range(1, STAGES + 1)
        )
        if result.total_loss < forced:
            problems.append(
                f"{kind}/{eps}: loss {result.total_loss!r} < forced {forced!r}"
            )
    ok = not problems
    line = _report(
        5,
        "adversary soundness (slope, energy, quotas, forced loss)",
        ok,
        f"{len(matches)} matches clean" if ok else "; ".join(problems),
    )
    assert ok, line


def test_criterion_6_energy_oracles():
    rng = np.random.default_rng(BATCH_SEED + 6)
    worst_rel = 0.0
    for _ in range(10_000):
        S, x, y = random_midpoint_insertion(rng)
        inc = energy_increment(S, x, y)
        direct = energy(from_points(S + [(x, y)])) - energy(from_points(S))
        rel = abs(inc - direct) / max(abs(inc), abs(direct))
        worst_rel = max(worst_rel, rel)
    ok_inc = worst_rel <= 1e-10
    worst_oracle = 0.0
    for _ in range(25):
        f = random_function(rng, max_knots=12, min_gap=1 / 32)
        exact = energy(f)
        approx = integrate_energy_oracle(f, 10**6)
        worst_oracle = max(worst_oracle, abs(approx - exact) / exact)
    ok_oracle = worst_oracle <= 1e-4
    ok = ok_inc and ok_oracle
    line = _report(
        6,
        "incremental energy vs direct difference and quadrature oracle",
        ok,
        f"worst increment rel = {worst_rel:.3g} (1e4 insertions); "
        f"worst oracle rel = {worst_oracle:.3g} (n=1e6)",
    )
    assert ok, line


def test_criterion_7_series_identity_at_sixty_terms():
    grid = np.linspace(0.01, 0.49, 50)
    failures = []
    worst = 0.0
    for eps in grid:
        eps = float(eps)
        closed = lower_bound_closed_form(eps)
        partial = lower_bound_partial(eps, 60)
        rel = abs(closed - partial) / closed
        worst = max(worst, rel)
        if rel > 1e-9:
            failures.append((eps, rel))
    ok = not failures
    detail = f"worst rel = {worst:.3g} over 50 points"
    if failures:
        # The series ratio 2^(-eps)*(1-eps)^((1+eps)/2) tends to 1 as eps->0,
        # so a fixed 60-term truncation cannot reach 1e-9 below the crossover
        # near eps = 0.2455 (eps = 0.01 alone would need about 1726 terms).
        detail = (
            f"{len(failures)}/50 grid points exceed 1e-9; worst rel = {worst:.3g} "
            f"at eps = {failures[0][0]:.4g}; first failing points: "
            + ", ".join(f"{e:.4g} (rel {r:.2g})" for e, r in failures[:3])
            + "; truncation error is ratio^60 with ratio -> 1 as eps -> 0, so "
            "60 terms only suffice for eps above roughly 0.2455"
        )
    line = _report(7, "60-term partial sum vs closed form at 1e-9", ok, detail)
    assert ok, line


def test_criterion_8_squared_loss_regime(kl_batch):
    ok = kl_batch.worst_p2 <= 1.0 + 1e-9
    line = _report(
        8,
        "total squared loss at most 1",
        ok,
        f"worst = {kl_batch.worst_p2:.12g} over {kl_batch.runs} runs",
    )
    assert ok, line


def test_criterion_9_proof_inequalities():
    grid = np.linspace(1e-9, 0.5 - 1e-9, 10_000)
    report = check_proof_inequalities(grid)
    ok = report.min_slack >= 0.0
    line = _report(
        9,
        "auxiliary inequalities nonnegative on a 1e4 grid",
        ok,
        f"min slack = {report.min_slack:.3g} "
        f"(root: {report.root_slack:.3g}, power-of-two: {report.power_of_two_slack:.3g})",
    )
    assert ok, line
