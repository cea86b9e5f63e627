#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (S=6, 5 audit runs).

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it runs the benchmark once untraced and twice traced, and
checks that:

* every operation's output check passed;
* the printed metric names are exactly the end-to-end (untraced) or
  per-layer (traced) names in BENCHMARK.json;
* the exact counts (calls, bytes, trials, accept ratio) repeat across the
  two traced runs;
* the output digest is the same traced and untraced.

Finally it runs the benchmark in a directory that holds only BENCHMARK.json
and the benchmark's own files, where it must fail without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def is_exact_count(name: str) -> bool:
    return not name.endswith("_s") and name != "trace.overhead_ratio"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        plain, digest = result(run(ROOT, workload, 0))
        traced = [result(run(ROOT, workload, 1)) for _ in range(2)]
        for res, _ in [(plain, digest), *traced]:
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload}: failed checks {res}")
        if set(plain["metrics"]) != set(end_to_end):
            problems.append(f"{workload}: end-to-end names {list(plain['metrics'])}")
        (first, d1), (second, d2) = traced
        if set(first["metrics"]) != set(per_layer):
            problems.append(f"{workload}: per-layer names {list(first['metrics'])}")
        for name in filter(is_exact_count, per_layer):
            a, b = first["metrics"][name], second["metrics"][name]
            if a != b:
                problems.append(f"{workload}: {name} is {a} then {b}")
        if not digest == d1 == d2:
            problems.append(f"{workload}: digests differ: {digest} {d1} {d2}")
        print(f"{workload}: {digest}")

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or "\"metrics\"" in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
