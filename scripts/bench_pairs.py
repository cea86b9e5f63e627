#!/usr/bin/env python3
"""Before/after benchmark pairs: the parent revision against the working tree.

Run from the repository root, with the change uncommitted on top of its
parent:

    python3 scripts/bench_pairs.py --out BENCH_7.json

HEAD's files are unpacked with ``git archive`` under ``.perfbench_tmp/`` and
removed afterwards. For every workload, ``perfbench/run.py --trace 0`` runs
PAIRS times on each side, on seeds SEED, SEED + 1, ..., the two sides taking
turns to go first. Each run's final JSON line, digest line and ``env`` line
are kept. Then ``--trace 1`` runs LAYER_RUNS times per side and workload, on
seeds SEED, SEED + 1, ..., the sides again taking turns: each layer row keeps
every run's value and their median, since one traced run alone moves a layer
self time by more than a change could.

Then KERNEL_RUNS cProfile'd passes per side and workload, in a fresh
interpreter each and again taking turns, give the calls and self time of
each function in KERNELS: each kernel row keeps every run's values and their
medians, which locate where a change moved a workload's time.

Then each CLI command in CLI_COMMANDS runs CLI_RUNS times per side in a
fresh interpreter, the sides again taking turns to go first: every run's wall
time, CPU time and peak RSS (both from wait4, so they include any child the
command reaped, such as the trace CSV's helper), exit code and the SHA-256 of
its stdout, of its stderr and of any file it writes are kept, with each
side's median wall time, CPU time and peak RSS. A row named in ONE_CPU runs
pinned to one CPU, and records whether its bytes equal those of its twin row
run on every CPU. One more untimed run per
side, under tracemalloc, gives the command's traced peak (Python and numpy
allocations from the CLI's start, imports excluded), which repeats to a few
KB where RSS also reads heap placement. A row names the exit code it expects
(refusal rows expect 1); any other code stops the script. The row's bytes
are the same only if every run of both sides has the same digests.
Last, the tier-1 suite runs once per side: its wall time and its pass and
fail counts. A failing test does not stop the script; the counts say what
failed.

The output JSON holds, per workload and end-to-end metric, the median and
quartiles of each side and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import os
import pstats
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("match-trace", "sweep-learners", "audit")
PAIRS = 10
SEED = 11  # the first pair's; pair k runs on SEED + k
SECONDS = 1.0  # perfbench --seconds
CLI_RUNS = 3  # per side and CLI command; one run alone lets an outlier read as a change
LAYER_RUNS = 3  # traced perfbench runs per side and workload
KERNEL_RUNS = 3  # cProfile'd passes per side and workload
# Kernel row name: the function's name in cProfile's statistics.
KERNELS = {
    "_stage_audits": "_stage_audits",
    "_earlier_neighbours": "_earlier_neighbours",
    "_pow_terms": "_pow_terms",
    "evaluate_many": "evaluate_many",
    "run_trials": "run_trials",
    "ndarray.argsort": "<method 'argsort' of 'numpy.ndarray' objects>",
    "_sample_target_rng": "_sample_target_rng",
    "_respond_stage": "_respond_stage",
    "_end_stage": "_end_stage",
    "_midpoint_predictions": "_midpoint_predictions",
    "write_csv": "write_csv",
    # One block's CSV text: in this process only, not in a forked helper.
    "_block_text": "_block_text",
}

# (name, argv after "python -m pwlearn.cli", expected exit code); "{tmp}" is a
# scratch directory.
CLI_COMMANDS = (
    ("audit --runs 1000 --seed 7", ["audit", "--runs", "1000", "--seed", "7"], 0),
    # The same audit pinned to one CPU, where it plays every run in one process.
    ("audit --runs 1000 --seed 7, one CPU", ["audit", "--runs", "1000", "--seed", "7"], 0),
    # Runs of up to 10^5 trials, which perfbench's workloads do not reach.
    ("audit --runs 20 --seed 7 --max-trials 100000",
     ["audit", "--runs", "20", "--seed", "7", "--max-trials", "100000"], 0),
    ("match --epsilon 0.1 --stages 20", ["match", "--epsilon", "0.1", "--stages", "20"], 0),
    # The stage budget's ceiling, where the adversary's grid is 128 MB.
    ("match --learner linint --epsilon 0.1 --stages 24",
     ["match", "--learner", "linint", "--epsilon", "0.1", "--stages", "24"], 0),
    ("match --learner zero --epsilon 0.1 --stages 24",
     ["match", "--learner", "zero", "--epsilon", "0.1", "--stages", "24"], 0),
    ("match --epsilon 0.1 --stages 20 --out",
     ["match", "--epsilon", "0.1", "--stages", "20", "--out", "{tmp}/trace.csv"], 0),
    # zero's y_hat column is one run: the writer's run path at scale.
    ("match --learner zero --epsilon 0.1 --stages 20 --out",
     ["match", "--learner", "zero", "--epsilon", "0.1", "--stages", "20",
      "--out", "{tmp}/trace.csv"], 0),
    # The sweep and bounds tables, through the same writer as the trace.
    ("sweep --epsilon-grid log:0.01:0.4:8 --stages 16 --out",
     ["sweep", "--epsilon-grid", "log:0.01:0.4:8", "--stages", "16",
      "--out", "{tmp}/sweep.csv"], 0),
    # About 3·10^6 loss terms through run_match's pow, with no CSV.
    ("sweep --learner zero --epsilons 0.02,0.1,0.45 --stages 20",
     ["sweep", "--learner", "zero", "--epsilons", "0.02,0.1,0.45", "--stages", "20"], 0),
    ("bounds --epsilon-grid log:1e-4:0.49:2000 --out",
     ["bounds", "--epsilon-grid", "log:1e-4:0.49:2000", "--out", "{tmp}/bounds.csv"], 0),
    # Refusals: out-of-range counts exit 1 with the same message on both sides.
    ("match --epsilon 0.1 --stages 25", ["match", "--epsilon", "0.1", "--stages", "25"], 1),
    ("audit --runs 1 --max-trials 1", ["audit", "--runs", "1", "--max-trials", "1"], 1),
    ("bounds --epsilons 0.7 --partial-stages 0",
     ["bounds", "--epsilons", "0.7", "--partial-stages", "0"], 1),
    # 1 + epsilon rounds to 1: refused with one stderr line. Code without that
    # refusal also exits 1, but with a ZeroDivisionError traceback after the
    # match, so against such a parent this row's stderr bytes differ.
    ("match --epsilon 1e-16", ["match", "--epsilon", "1e-16"], 1),
    # Real-number refusals: NaN gets the adversary's message, which names the
    # bounds subcommand; bounds names the upper bound's interval (0, 1).
    ("match --epsilon nan", ["match", "--epsilon", "nan"], 1),
    ("bounds --epsilon 1.5", ["bounds", "--epsilon", "1.5"], 1),
)

# Rows whose command runs pinned to one CPU, each with the row run on every
# CPU whose bytes it must repeat.
ONE_CPU = {"audit --runs 1000 --seed 7, one CPU": "audit --runs 1000 --seed 7"}


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _sides(parent: Path, k: int) -> tuple:
    """(side, checkout) for both sides in the order of round k: the parent
    goes first in even rounds, the change in odd ones."""
    order = (("parent", parent), ("change", ROOT))
    return order if k % 2 == 0 else order[::-1]


def _bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in a checkout: its env, digest and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    env = next(line[4:] for line in lines if line.startswith("env "))
    digest = next(line for line in lines if line.startswith("digest "))
    return {
        "seed": seed,
        "env": json.loads(env),
        "digest": digest.rsplit("sha256=", 1)[1],
        "result": json.loads(lines[-1]),
    }


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare_workload(parent: Path, workload: str, metrics: list[dict]) -> dict:
    runs = {"parent": [], "change": []}
    for k in range(PAIRS):
        for side, checkout in _sides(parent, k):
            runs[side].append(_bench(checkout, workload, SEED + k, 0))
            r = runs[side][-1]
            print(f"{workload} seed={SEED + k} {side}: "
                  f"wall_s={r['result']['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
    out = {
        "digests_equal": all(a["digest"] == b["digest"]
                             for a, b in zip(runs["parent"], runs["change"])),
        "failed": {side: sum(r["result"]["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": {},
        "runs": runs,
    }
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r["result"]["metrics"][name]["value"] for r in rs]
                  for side, rs in runs.items()}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        out["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": _summary(values["parent"]),
            "change": _summary(values["change"]),
            "wins": wins,
            "n": PAIRS,
        }
    return out


def compare_layers(parent: Path, workload: str) -> dict:
    """LAYER_RUNS traced runs per side, alternating: per side, each layer's
    median and its value in every run, plus every run's digest and env."""
    runs = {"parent": [], "change": []}
    for k in range(LAYER_RUNS):
        for side, checkout in _sides(parent, k):
            runs[side].append(_bench(checkout, workload, SEED + k, 1))
    out: dict = {"seeds": [SEED + k for k in range(LAYER_RUNS)]}
    for side, rs in runs.items():
        names = rs[0]["result"]["metrics"]
        values = {name: [r["result"]["metrics"][name]["value"] for r in rs] for name in names}
        out[side] = {
            "layers": {name: {"median": statistics.median(vs), "runs": vs}
                       for name, vs in values.items()},
            "digests": [r["digest"] for r in rs],
            "env": [r["env"] for r in rs],
        }
    return out


def profile_kernels(workload: str, seed: int) -> dict:
    """One cProfile'd pass of a perfbench workload, in-process, in the checkout
    that is the working directory: {kernel: {"calls", "self_s"}}, summed over
    every function of that name. The workload's own checks must pass."""
    sys.path.insert(0, "perfbench")
    import run as perfbench

    cli = perfbench.import_pwlearn()["cli"]
    tmp = perfbench.TMP / f"kernels-{os.getpid()}"
    tmp.mkdir(parents=True)
    profile = cProfile.Profile()
    try:
        for op in perfbench.WORKLOADS[workload](random.Random(seed), False, tmp):
            profile.enable()
            _, rc, out, err = perfbench._call(cli, op.argv)
            profile.disable()
            op.check(rc, out, err)
    finally:
        shutil.rmtree(tmp)
        with contextlib.suppress(OSError):
            perfbench.TMP.rmdir()
    rows = {name: {"calls": 0, "self_s": 0.0} for name in KERNELS}
    by_label = {label: name for name, label in KERNELS.items()}
    for (_, _, label), (_, calls, self_s, _, _) in pstats.Stats(profile).stats.items():
        if label in by_label:
            rows[by_label[label]]["calls"] += calls
            rows[by_label[label]]["self_s"] += self_s
    return rows


def compare_kernels(parent: Path, workload: str) -> dict:
    """KERNEL_RUNS profiled passes per side, alternating, each in a fresh
    interpreter: per side and kernel, the median calls and self time and
    every run's values."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench_pairs; "
            "print(json.dumps(bench_pairs.profile_kernels(sys.argv[2], int(sys.argv[3]))))")
    runs = {"parent": [], "change": []}
    for k in range(KERNEL_RUNS):
        for side, checkout in _sides(parent, k):
            cmd = [sys.executable, "-c", code, str(ROOT / "scripts"), workload, str(SEED + k)]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"bench_pairs: kernel profile of {workload} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
            runs[side].append(json.loads(proc.stdout.splitlines()[-1]))
    out: dict = {"seeds": [SEED + k for k in range(KERNEL_RUNS)]}
    for side, rs in runs.items():
        out[side] = {
            name: {key: statistics.median(r[name][key] for r in rs) for key in ("calls", "self_s")}
            | {"runs": [r[name] for r in rs]}
            for name in KERNELS
        }
    return out


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def time_cli(checkout: Path, argv: list[str], tmp: Path, expected: int,
             one_cpu: bool = False) -> dict:
    """Run one CLI command in a fresh interpreter, on one CPU if one_cpu: wall
    time, CPU time (user plus system, reaped children included), peak RSS,
    exit code and the SHA-256 of stdout, of stderr and of every file it wrote
    into tmp. An exit code other than expected stops the script."""
    tmp.mkdir(parents=True)
    try:
        argv = [a.replace("{tmp}", str(tmp)) for a in argv]
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "pwlearn.cli", *argv],
                                    cwd=checkout, env=env, stdout=out, stderr=err,
                                    preexec_fn=_pin_to_one_cpu if one_cpu else None)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != expected:
            sys.exit(f"bench_pairs: pwlearn {' '.join(argv)} in {checkout} exited "
                     f"{proc.returncode}, expected {expected}:\n"
                     f"{(tmp / 'stderr').read_text()[-2000:]}")
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode,
            "sha256": {p.name: _sha256(p) for p in sorted(tmp.iterdir())},
        }
    finally:
        shutil.rmtree(tmp)


# Runs a CLI command, argv[2:], with tracemalloc on from the CLI's start and
# writes the traced peak in bytes to the file argv[1], also when the command
# ends in an uncaught exception (which then exits 1 with its traceback).
_TRACED_CLI = """import sys, tracemalloc
from pwlearn.cli import main
tracemalloc.start()
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
finally:
    with open(sys.argv[1], "w") as fh:
        fh.write(str(tracemalloc.get_traced_memory()[1]))
sys.exit(code)
"""


def traced_peak(checkout: Path, argv: list[str], tmp: Path, expected: int,
                one_cpu: bool = False) -> int:
    """One untimed run of a CLI command in a fresh interpreter under
    tracemalloc, on one CPU if one_cpu: its traced peak in bytes. An exit code
    other than expected stops the script."""
    tmp.mkdir(parents=True)
    try:
        argv = [a.replace("{tmp}", str(tmp)) for a in argv]
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        peak = tmp / "traced_peak"
        proc = subprocess.run([sys.executable, "-c", _TRACED_CLI, str(peak), *argv],
                              cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=_pin_to_one_cpu if one_cpu else None)
        if proc.returncode != expected:
            sys.exit(f"bench_pairs: traced pwlearn {' '.join(argv)} in {checkout} exited "
                     f"{proc.returncode}, expected {expected}:\n{proc.stderr[-2000:]}")
        return int(peak.read_text())
    finally:
        shutil.rmtree(tmp)


def time_tier1(checkout: Path) -> dict:
    """Run the tier-1 suite in a checkout: wall time and the counts from
    pytest's summary line. Failures are counted, not fatal."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary,
            **counts, "failed_tests": failed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="where to write the JSON summary")
    args = p.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = _git("rev-parse", "HEAD")
    parent = TMP / f"parent-{commit[:12]}"
    parent.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    try:
        report = {
            "parent": {"commit": commit},
            "change": {"dirty": bool(_git("status", "--porcelain"))},
            "pairs": PAIRS,
            "seeds": [SEED + k for k in range(PAIRS)],
            "seconds": SECONDS,
            "workloads": {w: compare_workload(parent, w, metrics) for w in WORKLOADS},
        }
        report["layers"] = {w: compare_layers(parent, w) for w in WORKLOADS}
        report["kernels"] = {w: compare_kernels(parent, w) for w in WORKLOADS}
        cli = report["cli"] = {}
        for name, cli_argv, expected in CLI_COMMANDS:
            runs = {"parent": [], "change": []}
            for k in range(CLI_RUNS):
                for side, checkout in _sides(parent, k):
                    runs[side].append(time_cli(checkout, cli_argv, TMP / f"cli-{os.getpid()}",
                                               expected, name in ONE_CPU))
            sides = cli[name] = {
                side: {key: statistics.median(r[key] for r in rs)
                       for key in ("wall_s", "cpu_s", "peak_rss_mb")} | {"runs": rs}
                for side, rs in runs.items()
            }
            for side, checkout in _sides(parent, 0):
                sides[side]["traced_peak_bytes"] = traced_peak(
                    checkout, cli_argv, TMP / f"cli-{os.getpid()}", expected, name in ONE_CPU)
            digests = [r["sha256"] for rs in runs.values() for r in rs]
            sides["same_bytes"] = all(d == digests[0] for d in digests)
            print(f"{name}: median parent {sides['parent']['wall_s']:.2f} s, "
                  f"{sides['parent']['cpu_s']:.2f} s CPU, "
                  f"{sides['parent']['peak_rss_mb']:.1f} MB RSS, "
                  f"{sides['parent']['traced_peak_bytes']:,} B traced; change "
                  f"{sides['change']['wall_s']:.2f} s, "
                  f"{sides['change']['cpu_s']:.2f} s CPU, "
                  f"{sides['change']['peak_rss_mb']:.1f} MB RSS, "
                  f"{sides['change']['traced_peak_bytes']:,} B traced; same bytes "
                  f"{sides['same_bytes']}", file=sys.stderr)
        for name, twin in ONE_CPU.items():
            cli[name]["same_bytes_as"] = {twin: cli[name]["same_bytes"] and cli[twin]["same_bytes"]
                                          and cli[name]["change"]["runs"][0]["sha256"]
                                          == cli[twin]["change"]["runs"][0]["sha256"]}
        tier1 = report["tier1"] = {}
        for side, checkout in (("parent", parent), ("change", ROOT)):
            tier1[side] = time_tier1(checkout)
            print(f"tier-1 {side}: {tier1[side]['summary']}", file=sys.stderr)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
