#!/usr/bin/env python3
"""Benchmark of the pwlearn CLI: closed-loop workloads, output checks, layer trace.

Run from the repository root (Python 3.10+, numpy, sortedcontainers):

    python3 perfbench/run.py --workload match-trace --seed 1 --seconds 30 --trace 0

A workload is a fixed list of ``pwlearn`` CLI calls (operations) whose argv
is generated from ``--seed``; the program sees only that argv. One client in
one thread calls ``pwlearn.cli.main(argv)`` in-process with stdout captured,
and the next call starts only when the previous one has returned and its
output has been checked. One pass runs the list once. Passes repeat for as
near ``--seconds`` as whole passes allow; at least one runs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass and reports per-layer call counts and self times;
the traced pass wraps the public functions of each module at the attribute
its caller looks up. The last line of stdout is the JSON result; the lines
before it record the environment, the argv, the output digest and every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_PROBES = 5
# reference_work() time that reported times are scaled to.
NOMINAL_REF_S = 0.25

# Full and tiny (warm-up and smoke-test) sizes of each workload.
MATCH_STAGES = {False: 17, True: 6}
SWEEP_STAGES = {False: 16, True: 6}
AUDIT_RUNS = {False: 200, True: 5}
AUDIT_STAGES = {False: 10, True: 6}
SWEEP_LEARNERS = ("zero", "nearest", "linint")
SWEEP_EPSILONS = 4
EPSILON_RANGE = (0.02, 0.45)

TRACE_HEADER = ["t", "x", "y_hat", "y", "e", "d", "loss_term", "cum_loss"]
SWEEP_HEADER = [
    "epsilon",
    "stages",
    "total_loss",
    "lower_partial",
    "upper_linint",
    "loss_times_sqrt_eps",
]
# The same slack the program's own audit allows on the committed slope.
SLOPE_TOL = 1e-12


class CheckError(Exception):
    """An operation's output broke one of the checks below."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def reference_work() -> float:
    """Time a fixed piece of work that calls no pwlearn code.

    A shared 2-vCPU cloud machine can change speed by a third from one
    minute to the next, and process CPU time moves with wall time. So
    every reported time is ``raw * NOMINAL_REF_S / ref``, where ``ref`` is
    the time of this work measured next to it: the seconds the same run
    would take where this work takes NOMINAL_REF_S. The work mirrors the
    program's hot loop: interpolate between bisected neighbours, charge a
    loss power, insert into a sorted list and a dict.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for rep in range(600):
        xs, vals = [], {}
        for i in range(1, 513):
            x = (i * 0.6180339887498949 + rep * 0.1) % 1.0
            k = bisect.bisect_left(xs, x)
            y_hat = 0.0
            if 0 < k < len(xs):
                u0, u1 = xs[k - 1], xs[k]
                y_hat = vals[u0] + (x - u0) * (vals[u1] - vals[u0]) / (u1 - u0)
            y = abs(x - 0.5)
            acc += abs(y_hat - y) ** 1.1
            xs.insert(k, x)
            vals[x] = y
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Op:
    """One CLI call, the check of its output, and the files it writes."""

    argv: list[str]
    # check(exit_code, stdout, stderr) raises CheckError or returns the
    # number of charged trials the call completed.
    check: Callable[[int, str, str], int]
    files: tuple[Path, ...] = ()


# ---------------------------------------------------------------- checks


def check_match(rc, out, err, *, stages, epsilon, trace_path):
    _require(rc == 0, f"match exited {rc}: {err.strip()[-300:]}")
    doc = json.loads(out)
    _require(doc["stages"] == stages, f"stages {doc['stages']!r} != {stages}")
    _require(doc["epsilon"] == epsilon, f"epsilon {doc['epsilon']!r} != {epsilon!r}")
    total = doc["total_loss"]
    lower = doc["bounds"]["lower_partial"]
    upper = doc["bounds"]["upper_linint"]
    _require(
        lower <= total <= upper,
        f"total_loss {total!r} outside [{lower!r}, {upper!r}]",
    )
    per_stage = doc["per_stage"]
    _require(
        [s["i"] for s in per_stage] == list(range(1, stages + 1)),
        "per_stage does not list stages 1..S",
    )
    for s in per_stage:
        i = s["i"]
        _require(s["trials"] == 1 << (i - 1), f"stage {i}: {s['trials']} trials")
        _require(
            4 * s["accepted"] >= 1 << i,
            f"stage {i}: accepted {s['accepted']} < 2^(i-2)",
        )
        _require(s["J_probe_end"] < 0.25, f"stage {i}: J_probe_end >= 1/4")

    # The committed function interpolates every revealed (x, y) plus the
    # anchors (0, 0) and (1, 0).
    xs = array("d", [0.0, 1.0])
    ys = array("d", [0.0, 0.0])
    cum = 0.0
    rows = 0
    with open(trace_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _require(next(reader, None) == TRACE_HEADER, "trace header differs")
        for t, row in enumerate(reader):
            _require(len(row) == 8 and int(row[0]) == t, f"trace row {t} malformed")
            xs.append(float(row[1]))
            ys.append(float(row[3]))
            if t:
                cum += float(row[6])
                _require(
                    float(row[7]) == cum,
                    f"trial {t}: cum_loss is not the running sum of loss_term",
                )
            rows += 1
    _require(rows == 1 << stages, f"trace has {rows} rows, expected {1 << stages}")
    _require(cum == total, f"re-summed loss {cum!r} != total_loss {total!r}")
    _require_slope_at_most_one(xs, ys)
    return (1 << stages) - 1


def _require_slope_at_most_one(xs: array, ys: array) -> None:
    u = np.frombuffer(xs)
    v = np.frombuffer(ys)
    _require(bool(np.all((u >= 0.0) & (u <= 1.0))), "trace input outside [0, 1]")
    order = np.argsort(u, kind="stable")
    u, v = u[order], v[order]
    du, dv = np.diff(u), np.diff(v)
    same = du == 0.0
    _require(not np.any(dv[same] != 0.0), "one input revealed with two labels")
    slope = np.abs(dv[~same]) / du[~same]
    worst = float(slope.max()) if slope.size else 0.0
    _require(worst <= 1.0 + SLOPE_TOL, f"committed slope {worst!r} exceeds 1")


def check_sweep(rc, out, err, *, learner, epsilons, stages):
    _require(rc == 0, f"sweep exited {rc}: {err.strip()[-300:]}")
    rows = list(csv.reader(io.StringIO(out)))
    _require(bool(rows) and rows[0] == SWEEP_HEADER, "sweep header differs")
    body = rows[1:]
    _require(
        [float(r[0]) for r in body] == sorted(epsilons),
        "sweep rows do not match the requested epsilons",
    )
    for r in body:
        total, lower, upper = float(r[2]), float(r[3]), float(r[4])
        _require(int(r[1]) == stages, f"row {r[0]}: stages {r[1]}")
        _require(lower <= total, f"{learner} eps={r[0]}: loss {total!r} < {lower!r}")
        # upper_linint bounds the interpolation learner only; the zero
        # learner's loss is far above it by design.
        if learner == "linint":
            _require(total <= upper, f"linint eps={r[0]}: loss {total!r} > {upper!r}")
    return len(body) * ((1 << stages) - 1)


def check_audit(rc, out, err, *, runs, stages):
    _require(rc == 0, f"audit exited {rc}: {err.strip()[-300:]}")
    doc = json.loads(out)
    _require(doc["violations"] == [], f"violations: {doc['violations'][:3]}")
    _require(doc["runs"] == runs, f"runs {doc['runs']!r} != {runs}")
    _require(doc["adversary_stages"] == stages, "adversary_stages differs")
    _require(doc["trials_total"] >= runs, "fewer charged trials than runs")
    # Every audited epsilon is played by the zero, nearest and linint learners.
    matches = 3 * len(doc["adversary_epsilons"])
    return doc["trials_total"] + matches * ((1 << stages) - 1)


# ------------------------------------------------------------- workloads


def _draw_epsilon(rng: random.Random) -> float:
    return round(rng.uniform(*EPSILON_RANGE), 6)


def match_trace_ops(rng: random.Random, tiny: bool, tmp: Path) -> list[Op]:
    stages = MATCH_STAGES[tiny]
    eps = _draw_epsilon(rng)
    path = tmp / "trace.csv"
    argv = ["match", "--learner", "linint", "--stages", str(stages)]
    argv += ["--epsilon", repr(eps), "--out", str(path)]
    check = functools.partial(
        check_match, stages=stages, epsilon=eps, trace_path=path
    )
    return [Op(argv, check, (path,))]


def sweep_learners_ops(rng: random.Random, tiny: bool, tmp: Path) -> list[Op]:
    stages = SWEEP_STAGES[tiny]
    eps = [_draw_epsilon(rng) for _ in range(SWEEP_EPSILONS)]
    grid = ",".join(repr(e) for e in eps)
    return [
        Op(
            ["sweep", "--learner", kind, "--stages", str(stages), "--epsilons", grid],
            functools.partial(check_sweep, learner=kind, epsilons=eps, stages=stages),
        )
        for kind in SWEEP_LEARNERS
    ]


def audit_ops(rng: random.Random, tiny: bool, tmp: Path) -> list[Op]:
    runs, stages = AUDIT_RUNS[tiny], AUDIT_STAGES[tiny]
    argv = ["audit", "--runs", str(runs), "--seed", str(rng.randrange(1 << 32))]
    argv += ["--stages", str(stages)]
    return [Op(argv, functools.partial(check_audit, runs=runs, stages=stages))]


WORKLOADS = {
    "match-trace": match_trace_ops,
    "sweep-learners": sweep_learners_ops,
    "audit": audit_ops,
}


# --------------------------------------------------------------- tracing


class Tracer:
    """Per-layer call counts and self times, aggregated in memory.

    A layer's self time is its wrapper's duration minus the durations of the
    wrapped calls made inside it. Spans are summed per layer rather than
    kept one by one, because one audit pass makes millions of layer calls.
    """

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self._children = [0.0]  # time spent in wrapped callees, per open span
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        stat = self.layers.setdefault(name, [0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                children[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner
            if after is not None:
                after(self.counts, result, args, kwargs)
            return result

        return traced

    def install(self, pwlearn_modules: dict) -> list[str]:
        """Wrap every target; return the targets that no longer exist."""
        missing = []
        for owner_path, attr, layer, after in TRACE_TARGETS:
            module, _, cls = owner_path.partition(".")
            owner = pwlearn_modules[module]
            if cls:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            self.layers.setdefault(layer, [0, 0.0])
            if original is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, after))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def _count_stages(counts, result, args, kwargs):
    for s in result.per_stage:
        counts["accepted"] += s.accepted
        counts["stage_trials"] += s.trials


def _count_run_trials(counts, result, args, kwargs):
    counts["learner.run_trials.trials"] += result[1].trials


def _count_trace_bytes(counts, result, args, kwargs):
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    if isinstance(out, (str, os.PathLike)):
        counts["learner.write_trace_csv.bytes"] += os.path.getsize(out)


# (owner, attribute, layer, count hook). Each function is wrapped where its
# caller looks it up, so cli.run_match and harness.run_match are wrapped
# separately and both count as adversary.run_match. Methods are wrapped on
# the class, so callers still see the real learner and adversary types.
TRACE_TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "run_sweep", "harness.run_sweep", None),
    ("cli", "run_invariant_audit", "harness.run_invariant_audit", None),
    ("cli", "run_match", "adversary.run_match", _count_stages),
    ("harness", "run_match", "adversary.run_match", _count_stages),
    ("adversary.AdversaryState", "respond", "adversary.AdversaryState.respond", None),
    ("adversary", "audit_energy", "adversary.audit_energy", None),
    *(
        (f"learner.{cls}", method, f"learner.{cls}.{method}", None)
        for cls in ("ZeroLearner", "NearestLearner", "LinintLearner")
        for method in ("predict", "observe")
    ),
    ("harness", "run_trials", "learner.run_trials", _count_run_trials),
    ("harness", "kl_invariants", "learner.kl_invariants", None),
    ("cli", "write_trace_csv", "learner.write_trace_csv", _count_trace_bytes),
    ("pwl", "evaluate", "pwl.evaluate", None),
    ("pwl", "from_points", "pwl.from_points", None),
]
LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in TRACE_TARGETS))
COUNTERS = ("learner.write_trace_csv.bytes", "learner.run_trials.trials")


# ------------------------------------------------------------ the loop


@dataclass
class PassResult:
    wall: float
    trials: int
    digests: list[str]
    failed: list[bool]
    ref: float = 0.0  # median reference_work() time around this pass's calls
    trace: Optional[dict] = None


def _call(cli, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def _digest(stdout: str, files: tuple[Path, ...]) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in filter(Path.exists, files):
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def run_pass(
    cli, ops: list[Op], tracer: Optional[Tracer] = None, calibrate: bool = False
) -> PassResult:
    """One pass over ``ops``; with ``calibrate``, reference_work() is timed
    before every call and after the last one."""
    res = PassResult(0.0, 0, [], [])
    refs = []
    for op in ops:
        if calibrate:
            refs.append(reference_work())
        try:
            dt, rc, out, err = _call(cli, op.argv)
        except Exception:  # a crash is one failed operation; keep measuring
            print(f"error: pwlearn {' '.join(op.argv)} raised:", file=sys.stderr)
            traceback.print_exc()
            res.failed.append(True)
            res.digests.append("")
            continue
        res.wall += dt
        try:
            res.trials += op.check(rc, out, err)
            res.failed.append(False)
        except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            print(f"check failed: pwlearn {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            res.failed.append(True)
        res.digests.append(_digest(out, op.files))
    if calibrate:
        refs.append(reference_work())
        res.ref = statistics.median(refs)
    if tracer is not None:
        res.trace = _trace_snapshot(tracer, res.wall)
    return res


def _trace_snapshot(tracer: Tracer, wall: float) -> dict:
    snap = {}
    for layer in LAYERS:
        calls, self_s = tracer.layers[layer]
        snap[f"{layer}.calls"] = calls
        snap[f"{layer}.self_s"] = self_s
    for name in COUNTERS:
        snap[name] = tracer.counts[name]
    staged = tracer.counts["stage_trials"]
    snap["adversary.accept_ratio"] = tracer.counts["accepted"] / staged if staged else 0.0
    snap["trace.unattributed_s"] = wall - sum(s for _, s in tracer.layers.values())
    return snap


def measure_setup(args) -> tuple[float, float]:
    """Median time from starting a fresh interpreter on this script until it
    has imported pwlearn and generated the workload's argv, and the median
    reference_work() time measured before each start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_work())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
        times.append(dt)
    return statistics.median(times), statistics.median(refs)


def environment(load_start) -> dict:
    import sortedcontainers

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next(
            (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
            cpu,
        )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sortedcontainers": sortedcontainers.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def import_pwlearn() -> dict:
    """Import the package from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        from pwlearn import adversary, cli, harness, learner, pwl
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pwlearn from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: pwlearn was imported from {cli.__file__}, not {SRC}")
    return {"cli": cli, "harness": harness, "adversary": adversary,
            "learner": learner, "pwl": pwl}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: S=6 and 5 audit runs")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(cli, modules, ops, warm_ops, seconds, trace):
    """Run the warm-up, then passes for about ``seconds``.

    Returns all passes, the untraced ones, the traced ones, and the trace
    targets that were not found.
    """
    passes = [run_pass(cli, warm_ops)]
    untraced, traced, missing = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, ops, calibrate=True))
        passes.append(untraced[-1])
        if trace:
            tracer = Tracer()
            missing = tracer.install(modules)
            try:
                traced.append(run_pass(cli, ops, tracer))
            finally:
                tracer.uninstall()
            passes.append(traced[-1])
        # Stop when one more pass would more likely end past the deadline
        # than before it, so the measured time is as near ``seconds`` as
        # whole passes allow.
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(untraced)) >= seconds:
            return passes, untraced, traced, missing


def check_determinism(reference: list[str], passes: list[PassResult]) -> None:
    """Every pass must reproduce the reference pass byte for byte."""
    for res in passes:
        for k, digest in enumerate(res.digests):
            if digest != reference[k] and not res.failed[k]:
                print(f"check failed: operation {k} output differs between passes",
                      file=sys.stderr)
                res.failed[k] = True


def end_to_end_metrics(setup: tuple[float, float], untraced: list[PassResult]) -> dict:
    """End-to-end metrics, with times scaled as reference_work() describes."""
    setup_raw, setup_ref = setup
    wall = [r.wall * NOMINAL_REF_S / r.ref for r in untraced]
    return {
        "setup_s": _metric(setup_raw * NOMINAL_REF_S / setup_ref, "s"),
        "wall_s": _metric(statistics.median(wall), "s"),
        "trials_per_s": _metric(
            # A pass whose every call crashed has no wall time and no trials.
            statistics.median(r.trials / w if w else 0.0 for r, w in zip(untraced, wall)),
            "1/s",
        ),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def layer_metrics(traced: list[PassResult], untraced: list[PassResult]) -> dict:
    """Counts come from the first traced pass and must repeat in the others;
    times are medians over the traced passes."""
    first = traced[0].trace
    for res in traced[1:]:
        if any(res.trace[k] != v for k, v in first.items() if not k.endswith("_s")):
            print("check failed: layer counts differ between traced passes",
                  file=sys.stderr)
            res.failed = [True] * len(res.failed)
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            out[name] = _metric(statistics.median(r.trace[name] for r in traced), "s")
        elif name.endswith(".bytes"):
            out[name] = _metric(value, "B")
        elif name.endswith("_ratio"):
            out[name] = _metric(value, "ratio")
        else:
            out[name] = _metric(value, "count")
    out["trace.overhead_ratio"] = _metric(
        statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in untraced),
        "ratio",
    )
    return out


def main(argv=None) -> int:
    load_start = os.getloadavg()
    args = _parse_args(argv)
    modules = import_pwlearn()
    tmp = TMP / str(os.getpid())
    make_ops = WORKLOADS[args.workload]
    ops = make_ops(random.Random(args.seed), args.tiny, tmp)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = None if args.trace else measure_setup(args)
    warm_ops = make_ops(random.Random(args.seed), True, tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        passes, untraced, traced, missing = measure(
            modules["cli"], modules, ops, warm_ops, args.seconds, args.trace
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()
    reference = untraced[0].digests
    check_determinism(reference, untraced[1:] + traced)
    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(setup, untraced)
    attempted = sum(len(r.failed) for r in passes)
    failed = sum(sum(r.failed) for r in passes)

    print("env " + json.dumps(environment(load_start)))
    for k, op in enumerate(ops):
        print(f"op {k}: sha256={reference[k]} pwlearn {' '.join(op.argv)}")
    combined = hashlib.sha256("".join(reference).encode()).hexdigest()
    print(f"digest {args.workload} seed={args.seed} sha256={combined}")
    print(f"passes untraced={len(untraced)} traced={len(traced)}")
    if missing:
        print("trace: not found, reported as zero: " + ", ".join(missing))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"raw setup_s {setup[0]!r} s")
        print(f"raw wall_s {statistics.median(r.wall for r in untraced)!r} s")
        print(f"raw reference_work {statistics.median(r.ref for r in untraced)!r} s")
        # Also carried by attempted/failed below; never a metric, since it is
        # 0 whenever the program is correct.
        print(f"metric failed_frac {failed / attempted!r} 1")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
