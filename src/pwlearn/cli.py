"""Command-line front end.

Subcommands: ``match`` (one adversary match), ``sweep`` (matches over an
epsilon grid), ``bounds`` (closed-form bound table), ``audit`` (large-scale
invariant audit), ``eval`` (evaluate a function file).

Exit codes: 0 success, 1 usage error, 2 invariant/audit failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple
from typing import Optional

from . import pwl
from .adversary import AdversaryConfig, run_match
from .bounds import BOUNDS_CSV_HEADER, MAX_PARTIAL_STAGES, bound_report
from .errors import AuditFailure, DomainError, Error, InequalityViolation, _check_int, _check_real
from .harness import (
    ExperimentConfig,
    parse_epsilon_grid,
    run_invariant_audit,
    run_sweep,
    write_sweep_csv,
)
from .learner import LEARNER_KINDS, fmt_exact, make_learner, open_out, write_csv, write_trace_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_IO = 3


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage errors are 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _finish(parser: argparse.ArgumentParser, func) -> None:
    # A subcommand's last flag, --config, whose keys are looked up in flags, and func.
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="JSON file whose keys override the corresponding flags",
    )
    parser.set_defaults(
        func=func, flags={a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    )


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="pwlearn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="run one adversary match")
    p.add_argument("--learner", choices=LEARNER_KINDS, default="linint")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--stages", type=int, default=14)
    p.add_argument("--out", metavar="PATH", help="write the trial trace CSV here")
    _finish(p, _cmd_match)

    p = sub.add_parser("sweep", help="adversary matches over an epsilon grid")
    p.add_argument("--learner", choices=LEARNER_KINDS, default="linint")
    p.add_argument("--epsilons", metavar="LIST", help="comma-separated epsilons")
    p.add_argument("--epsilon-grid", metavar="SPEC", help="log:a:b:n grid")
    p.add_argument("--stages", type=int, default=14)
    p.add_argument("--out", metavar="PATH", help="write the sweep CSV here")
    _finish(p, _cmd_sweep)

    p = sub.add_parser("bounds", help="closed-form bound table")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--epsilons", metavar="LIST")
    p.add_argument("--epsilon-grid", metavar="SPEC", help="log:a:b:n grid")
    p.add_argument("--partial-stages", type=int, default=60)
    p.add_argument("--out", metavar="PATH")
    _finish(p, _cmd_bounds)

    p = sub.add_parser("audit", help="large-scale invariant audit")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--max-trials", type=int, default=10_000)
    p.add_argument("--out", metavar="PATH", help="write the report JSON here")
    _finish(p, _cmd_audit)

    p = sub.add_parser("eval", help="evaluate a function file")
    p.add_argument("--function", metavar="PATH", required=True)
    p.add_argument("--x", type=float, required=True)
    _finish(p, _cmd_eval)

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """The value, checked against its flag: an int flag takes an integer, a float
    flag a finite real number, an untyped flag a string (bools pass none); then
    the choices."""
    name = f"config key {key!r}"
    if action.type is float:
        value = _check_real(name, value)
    elif action.type is int:
        value = _check_int(name, value, -math.inf)
    elif type(value) is not str:
        raise DomainError(f"{name} must be a str, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise DomainError(f"{name} must be one of {list(action.choices)}, got {value!r}")
    return value


def _apply_config_file(args: argparse.Namespace) -> None:
    with open(args.config, "rb") as fh:
        doc = pwl._parse_json("config", fh.read())
    if not isinstance(doc, dict):
        raise DomainError("config JSON must be an object")
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in args.flags:
            raise DomainError(f"unknown config key {key!r}")
        setattr(args, dest, _config_value(args.flags[dest], key, value))


def _cmd_match(args: argparse.Namespace) -> int:
    config = AdversaryConfig(args.epsilon, args.stages)
    if args.out:
        # Like sweep: bad flags leave no file, an unwritable path plays no
        # trial. Append mode leaves an old trace whole until the write.
        open(args.out, "a").close()
    result = run_match(make_learner(args.learner), config)
    if args.out:
        write_trace_csv(result.records, args.out)
    json.dump(result.to_json_dict(), sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def _grid_from_args(args: argparse.Namespace) -> list[float]:
    sources = []
    if getattr(args, "epsilon", None) is not None:  # bounds only
        sources.append([args.epsilon])
    if args.epsilons:
        sources.append(parse_epsilon_grid(args.epsilons))
    if args.epsilon_grid:
        sources.append(parse_epsilon_grid(args.epsilon_grid))
    if len(sources) > 1:
        raise DomainError("give only one of --epsilon, --epsilons, --epsilon-grid")
    if not sources:
        raise DomainError("an epsilon grid is required (--epsilons or --epsilon-grid)")
    return sources[0]


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        learner=args.learner,
        epsilons=_grid_from_args(args),
        stages=args.stages,
    )
    write_sweep_csv(run_sweep(config), args.out or sys.stdout)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    epsilons = _grid_from_args(args)
    stages = _check_int("--partial-stages", args.partial_stages, 1, MAX_PARTIAL_STAGES)
    rows = []
    for eps in epsilons:
        rows.append(astuple(bound_report(eps, stages)))
        if not eps < 0.5:
            print(
                f"warning: epsilon {eps!r} is outside (0, 0.5); the adversary "
                "lower bound is undefined there and its columns are nan",
                file=sys.stderr,
            )
    write_csv(args.out or sys.stdout, BOUNDS_CSV_HEADER, [rows], "\n")
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        runs=args.runs,
        seed=args.seed,
        stages=args.stages,
        max_trials=args.max_trials,
    )
    if args.out:
        # As match does: bad flags leave no file, an unwritable path runs no
        # audit, and an old report stays whole until it is rewritten.
        config.validate()
        open(args.out, "a").close()
    try:
        report = run_invariant_audit(config)
    except AuditFailure as exc:
        print(str(exc), file=sys.stderr)
        if args.out and exc.report is not None:
            _write_report(exc.report, args.out)
        return EXIT_AUDIT
    _write_report(report, args.out or sys.stdout)
    return EXIT_OK


def _write_report(report, out) -> None:
    with open_out(out) as fh:
        fh.write(json.dumps(report.to_json_dict(), indent=2) + "\n")


def _cmd_eval(args: argparse.Namespace) -> int:
    f = pwl.load_function(args.function)
    value = pwl.evaluate(f, args.x)
    print(fmt_exact(value))
    print(f"energy = {fmt_exact(pwl.energy(f))}")
    print(f"norm_1 = {fmt_exact(pwl.derivative_norm(f, 1.0))}")
    print(f"norm_2 = {fmt_exact(pwl.derivative_norm(f, 2.0))}")
    print(f"norm_inf = {fmt_exact(pwl.derivative_norm(f, math.inf))}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args)
        return args.func(args)
    except (AuditFailure, InequalityViolation) as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
