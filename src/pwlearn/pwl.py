"""Piecewise-linear functions on [0, 1].

A function is defined by knots (u, v) with strictly increasing u. Between
consecutive knots it follows the chord, outside the knot span it is constant,
and the empty knot list is the zero function. Everything here is pure: a
function value is immutable after construction and safe to share.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, DuplicateConflict, PreconditionError

__all__ = [
    "PiecewiseLinearFunction",
    "from_points",
    "evaluate",
    "energy",
    "integrate_energy_oracle",
    "derivative_norm",
    "is_member",
    "energy_increment",
    "function_from_json",
    "function_to_json",
    "load_function",
    "save_function",
]


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Knot coordinates and values, sorted by coordinate."""

    us: tuple[float, ...]
    vs: tuple[float, ...]

    @property
    def knots(self) -> list[tuple[float, float]]:
        return list(zip(self.us, self.vs))

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def from_points(points: Iterable[tuple[float, float]]) -> PiecewiseLinearFunction:
    """Build a function from unordered (u, v) pairs.

    Pairs are sorted by u; exact duplicate pairs collapse to one knot. Pairs
    that share u but disagree on v raise DuplicateConflict rather than
    silently keeping one of them, since a function cannot take two values at
    one point. The empty input yields the zero function.
    """
    pairs = sorted((float(u), float(v)) for u, v in points)
    us: list[float] = []
    vs: list[float] = []
    for u, v in pairs:
        if not 0.0 <= u <= 1.0:
            raise DomainError(f"knot coordinate {u!r} outside [0, 1]")
        if us and u == us[-1]:
            if v != vs[-1]:
                raise DuplicateConflict(
                    f"conflicting values {vs[-1]!r} and {v!r} at u={u!r}"
                )
            continue
        us.append(u)
        vs.append(v)
    return PiecewiseLinearFunction(tuple(us), tuple(vs))


def evaluate(f: PiecewiseLinearFunction, x: float) -> float:
    """Value of f at x, with constant extension outside the knot span.

    Exact knot hits return the stored value (no arithmetic), which keeps
    interpolation exact at observed points.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"evaluation point {x!r} outside [0, 1]")
    us = f.us
    if not us:
        return 0.0
    if x <= us[0]:
        return f.vs[0]
    if x >= us[-1]:
        return f.vs[-1]
    k = bisect.bisect_left(us, x)  # us[k-1] < x <= us[k]
    if us[k] == x:
        return f.vs[k]
    u0, u1 = us[k - 1], us[k]
    v0, v1 = f.vs[k - 1], f.vs[k]
    return v0 + (x - u0) * (v1 - v0) / (u1 - u0)


def _energy_sum(us: np.ndarray, vs: np.ndarray) -> float:
    # The one energy summation: numpy's pairwise sum of rise^2/run over
    # sorted knot arrays (0.0 for fewer than two knots).
    dv = np.diff(vs)
    return float(np.sum(dv * dv / np.diff(us)))


def energy(f: PiecewiseLinearFunction) -> float:
    """Integral of the squared derivative: sum of rise^2/run over segments."""
    return _energy_sum(np.asarray(f.us, dtype=float), np.asarray(f.vs, dtype=float))


def integrate_energy_oracle(f: PiecewiseLinearFunction, n: int) -> float:
    """Riemann-sum estimate of the squared-derivative integral on n uniform cells.

    Slopes come from difference quotients across each cell (the derivative at
    the cell midpoint wherever f is linear across the cell), and evaluation
    goes through numpy's interpolation rather than evaluate(), so this stays
    an independent check on energy().
    """
    if n < 1:
        raise DomainError(f"subdivision count must be at least 1, got {n!r}")
    if len(f.us) <= 1:
        return 0.0
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.interp(xs, np.asarray(f.us), np.asarray(f.vs))
    dx = np.diff(xs)
    slopes = np.diff(ys) / dx
    return float(np.sum(slopes * slopes * dx))


def _pow(base: float, exp: float) -> float:
    # Python raises on float overflow in ** instead of returning inf.
    try:
        return base**exp
    except OverflowError:
        return math.inf


def derivative_norm(f: PiecewiseLinearFunction, q: float) -> float:
    """q-norm of the derivative; q may be math.inf for the sup norm.

    Flat extensions outside the knot span contribute slope 0, so only the
    segments between knots matter. Functions with at most one knot have
    derivative 0 everywhere.
    """
    if q != math.inf and q < 1.0:
        raise DomainError(f"norm order must be >= 1 or inf, got {q!r}")
    m = len(f.us)
    if m <= 1:
        return 0.0
    if q == math.inf:
        worst = 0.0
        for k in range(m - 1):
            s = abs(f.vs[k + 1] - f.vs[k]) / (f.us[k + 1] - f.us[k])
            if s > worst:
                worst = s
        return worst
    total = 0.0
    for k in range(m - 1):
        du = f.us[k + 1] - f.us[k]
        s = abs(f.vs[k + 1] - f.vs[k]) / du
        total += _pow(s, q) * du
    return _pow(total, 1.0 / q)


def is_member(f: PiecewiseLinearFunction, q: float, tol: float = 0.0) -> bool:
    """Whether the derivative's q-norm is at most 1, up to a relative slack."""
    return derivative_norm(f, q) <= 1.0 + tol


def energy_increment(
    S,
    x: float,
    y: float,
    *,
    tol: float = 1e-12,
) -> float:
    """Energy gained by adding the knot (x, y) when x bisects its neighbors.

    Requires x to lie strictly between two adjacent knots and be equidistant
    from them (checked to absolute tolerance ``tol``); under that hypothesis
    the gain is exactly 2*(y - f(x))^2 / d with d the distance to either
    neighbor. Dyadic midpoints satisfy the hypothesis exactly in doubles, so
    the tolerance only matters for user-supplied data.

    ``S`` may be a PiecewiseLinearFunction or any iterable of (u, v) pairs.
    """
    f = S if isinstance(S, PiecewiseLinearFunction) else from_points(S)
    us = f.us
    if not us:
        raise PreconditionError("knot list is empty")
    k = bisect.bisect_left(us, x)
    if k == 0 or k == len(us):
        raise PreconditionError(
            f"x={x!r} lies outside the knot span; no pair of nearest knots brackets it"
        )
    if us[k] == x:
        raise PreconditionError(f"x={x!r} coincides with an existing knot")
    a = x - us[k - 1]
    b = us[k] - x
    if abs(a - b) > tol:
        raise PreconditionError(
            f"x={x!r} is not equidistant from its bracketing knots "
            f"({us[k - 1]!r}, {us[k]!r}): gaps {a!r} vs {b!r}"
        )
    d = a if a <= b else b
    e = y - evaluate(f, x)
    return 2.0 * e * e / d


def function_to_json(f: PiecewiseLinearFunction) -> str:
    return json.dumps({"knots": [[u, v] for u, v in zip(f.us, f.vs)]})


def function_from_json(text: str) -> PiecewiseLinearFunction:
    """Parse {"knots": [[u, v], ...]}; construction rules match from_points."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid function JSON: {exc}") from exc
    if not isinstance(doc, dict) or "knots" not in doc:
        raise DomainError('function JSON must be an object with a "knots" list')
    entries = doc["knots"]
    if not isinstance(entries, list):
        raise DomainError('"knots" must be a list of [u, v] pairs')
    pairs = []
    for entry in entries:
        ok = (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and all(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                for c in entry
            )
        )
        if not ok:
            raise DomainError(f"bad knot entry {entry!r}; expected [u, v] numbers")
        pairs.append((float(entry[0]), float(entry[1])))
    return from_points(pairs)


def load_function(path: str | os.PathLike) -> PiecewiseLinearFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(fh.read())


def save_function(f: PiecewiseLinearFunction, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(function_to_json(f))
        fh.write("\n")
