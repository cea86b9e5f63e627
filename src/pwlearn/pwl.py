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

from .errors import (
    DomainError, DuplicateConflict, PreconditionError, _check_int, _check_real, _real, _real_array,
)

__all__ = [
    "PiecewiseLinearFunction",
    "from_points",
    "evaluate",
    "evaluate_many",
    "energy",
    "integrate_energy_oracle",
    "derivative_norm",
    "is_member",
    "energy_increment",
    "function_from_json",
    "function_to_json",
    "load_function",
]


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Knot coordinates and values, sorted by coordinate. Construction refuses
    unequal lengths, coordinates not strictly increasing in [0, 1] and values,
    rises or slopes that are not finite: DomainError, or DuplicateConflict for
    a coordinate repeated with another value."""

    us: tuple[float, ...]
    vs: tuple[float, ...]

    def __post_init__(self) -> None:
        us, vs = self.us, self.vs
        if len(us) != len(vs):
            raise DomainError(f"{len(us)} knot coordinates but {len(vs)} values")
        u0, v0 = -math.inf, 0.0
        for u, v in zip(us, vs):
            # From v0 = 0, finite rises make every value finite; NaN fails every test.
            if not abs(v - v0) < math.inf:
                what = f"rise from {v0!r} to {v!r}" if abs(v) < math.inf else f"value {v!r}"
                raise DomainError(f"knot {what} at u={u!r} is not finite")
            if not u0 < u <= 1.0:
                if u == u0 and v != v0:
                    raise DuplicateConflict(f"conflicting values {v0!r} and {v!r} at u={u!r}")
                why = "outside [0, 1]" if not 0.0 <= u <= 1.0 else f"after {u0!r}: must increase"
                raise DomainError(f"knot coordinate {u!r} {why}")
            if not abs(v - v0) / (u - u0) < math.inf:
                raise DomainError(f"slope of the segment from u={u0!r} to u={u!r} is not finite")
            u0, v0 = u, v
        if us and not 0.0 <= us[0]:
            raise DomainError(f"knot coordinate {us[0]!r} outside [0, 1]")

    @property
    def knots(self) -> list[tuple[float, float]]:
        return list(zip(self.us, self.vs))

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def from_points(points: Iterable[tuple[float, float]]) -> PiecewiseLinearFunction:
    """Build a function from unordered (u, v) pairs.

    A point that is not a pair of reals, text, bytes, a dict or a set among
    them, raises DomainError. Pairs are sorted by u, exact duplicates collapse
    to one knot, and the constructor checks the rest: pairs that share u but
    disagree on v raise DuplicateConflict (a function takes one value at a
    point), and a coordinate outside [0, 1] or a value, rise or slope that is
    not finite raises DomainError. The empty input yields the zero function.
    """
    try:
        numbered = enumerate(points)
    except TypeError:
        raise DomainError(f"expected (u, v) pairs, got {points!r}") from None
    pairs = []
    for k, point in numbered:
        try:
            if isinstance(point, (str, bytes, bytearray, memoryview, dict, set, frozenset)):
                raise TypeError  # two items unpack, but make no (u, v) pair
            u, v = point
        except (TypeError, ValueError):
            raise DomainError(f"point {k} must be a (u, v) pair, got {point!r}") from None
        pairs.append((_real(f"point {k} u", u), _real(f"point {k} v", v)))
    pairs.sort()
    kept = [pair for k, pair in enumerate(pairs) if not k or pair != pairs[k - 1]]
    us, vs = zip(*kept) if kept else ((), ())
    return PiecewiseLinearFunction(us, vs)


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


def evaluate_many(f: PiecewiseLinearFunction, xs) -> np.ndarray:
    """evaluate(f, x) for every x in xs, as a float64 array, with the same bits.

    The same rules in one pass: constant beyond the end knots, the stored
    value on a knot hit, otherwise the chord with evaluate's operations in
    evaluate's order. An x outside [0, 1] (NaN included) or not real raises DomainError.
    """
    xs = _real_array("evaluation points must be real numbers", xs)
    bad = np.flatnonzero(~((0.0 <= xs) & (xs <= 1.0)))
    if bad.size:
        raise DomainError(f"evaluation point {float(xs.flat[bad[0]])!r} outside [0, 1]")
    us = np.asarray(f.us, dtype=float)
    vs = np.asarray(f.vs, dtype=float)
    if len(us) < 2:
        return np.full(xs.shape, vs[0] if len(vs) else 0.0)
    # us[k-1] < x <= us[k] for us[0] < x <= us[-1]; beyond either end k stays
    # at 1 or len(us) - 1, and the end rules below overwrite those lanes.
    k = np.searchsorted(us[1:-1], xs, side="left") + 1
    u0, u1 = us[k - 1], us[k]
    v0, v1 = vs[k - 1], vs[k]
    with np.errstate(over="ignore", invalid="ignore"):
        out = v0 + (xs - u0) * (v1 - v0) / (u1 - u0)
    out = np.where(xs == u1, v1, out)
    out = np.where(xs >= us[-1], vs[-1], out)
    return np.where(xs <= us[0], vs[0], out)


def _energy_terms(du: np.ndarray | float, dv: np.ndarray) -> np.ndarray:
    # rise^2/run of every segment, given the runs du (an array, or one spacing
    # for a uniform grid) and the rises dv, in place in dv.
    dv *= dv
    dv /= du
    return dv


def _energy_sum(du: np.ndarray | float, vs: np.ndarray) -> float:
    # The one energy summation: numpy's pairwise sum of the segment terms
    # (0.0 for fewer than two knots) of np.diff's rises, without its overhead.
    # The adversary's stage ends sum the same terms with these bits.
    return float(np.sum(_energy_terms(du, vs[1:] - vs[:-1])))


def energy(f: PiecewiseLinearFunction) -> float:
    """Integral of the squared derivative: sum of rise^2/run over segments."""
    return _energy_sum(np.diff(np.asarray(f.us, dtype=float)), np.asarray(f.vs, dtype=float))


def integrate_energy_oracle(f: PiecewiseLinearFunction, n: int) -> float:
    """Riemann-sum estimate of the squared-derivative integral on n uniform cells.

    Slopes come from difference quotients across each cell (the derivative at
    the cell midpoint wherever f is linear across the cell), and evaluation
    goes through numpy's interpolation rather than evaluate(), so this stays
    an independent check on energy().
    """
    n = _check_int("subdivision count", n, 1)
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
    derivative 0 everywhere. A q outside [1, inf] raises DomainError.
    """
    q = _check_real("norm order", q, 1.0, math.inf, "[]")
    m = len(f.us)
    if q == math.inf:
        slopes = (abs(f.vs[k + 1] - f.vs[k]) / (f.us[k + 1] - f.us[k]) for k in range(m - 1))
        return max(slopes, default=0.0)
    total = 0.0
    for k in range(m - 1):
        du = f.us[k + 1] - f.us[k]
        s = abs(f.vs[k + 1] - f.vs[k]) / du
        total += _pow(s, q) * du
    return _pow(total, 1.0 / q)


def is_member(f: PiecewiseLinearFunction, q: float, tol: float = 0.0) -> bool:
    """Whether the derivative's q-norm is at most 1, up to a relative slack.
    A tolerance outside [0, inf) raises DomainError."""
    tol = _check_real("tolerance", tol, 0.0, math.inf, "[)")
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
    A non-finite x or y or a tolerance outside [0, inf) raises DomainError
    before any arithmetic; so does an increment too large for a double.
    """
    x, y = _check_real("x", x), _check_real("y", y)
    tol = _check_real("tolerance", tol, 0.0, math.inf, "[)")
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
    gain = 2.0 * e * e / d
    if gain == math.inf:
        raise DomainError(f"the energy increment of y={y!r} at x={x!r} overflows")
    return gain


def function_to_json(f: PiecewiseLinearFunction) -> str:
    return json.dumps({"knots": [[u, v] for u, v in zip(f.us, f.vs)]})


def _parse_json(what: str, data: bytes | str):
    """A file's bytes, which must be UTF-8, or text, as JSON. Bytes that are not
    UTF-8, text that is not JSON, nesting too deep to parse and an integer of
    too many digits to convert all raise DomainError "invalid {what} JSON: ..."."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError is a ValueError
        raise DomainError(f"invalid {what} JSON: {exc}") from exc


def function_from_json(text: str | bytes) -> PiecewiseLinearFunction:
    """Parse {"knots": [[u, v], ...]} from text or UTF-8 bytes; construction
    rules match from_points."""
    doc = _parse_json("function", text)
    if not isinstance(doc, dict) or "knots" not in doc:
        raise DomainError('function JSON must be an object with a "knots" list')
    entries = doc["knots"]
    if not isinstance(entries, list):
        raise DomainError('"knots" must be a list of [u, v] pairs')
    pairs = []
    for k, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise DomainError(f"bad knot entry {entry!r}; expected [u, v] numbers")
        pairs.append([_check_real(f"knot {k} {c}", v) for c, v in zip(("u", "v"), entry)])
    return from_points(pairs)


def load_function(path: str | os.PathLike) -> PiecewiseLinearFunction:
    with open(path, "rb") as fh:
        return function_from_json(fh.read())
