"""Exception types shared across the package, and the count and real-number checks."""

import math
import numbers
import operator

import numpy as np


class Error(Exception):
    """Base class for all package-specific errors."""


class DomainError(Error, ValueError):
    """An argument lies outside its mathematical domain."""


def _check_int(name: str, value, lo: int = 0, hi: float = math.inf, why: str = "") -> int:
    """value as an int (a numpy integer becomes one) if it lies in lo..hi;
    otherwise DomainError. A bool, a float or a string is not an integer."""
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if not lo <= value <= hi:
        bound = (f"lie in {lo}..{hi}" if hi < math.inf
                 else "be nonnegative" if lo == 0 else f"be at least {lo}")
        raise DomainError(f"{name} must {bound}{why}, got {value!r}")
    return value


def _real(name: str, value) -> float:
    """value as a float, NaN and ±inf too, else DomainError: a bool, text or complex is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must fit in a double, got a number past ±1.8e308") from None


def _check_real(name: str, value, lo=-math.inf, hi=math.inf, ends: str = "()") -> float:
    """_real(name, value) if it lies in the interval lo..hi with brackets ends ("(]", ...)."""
    x = _real(name, value)
    if not ((lo < x or ends[0] == "[" and lo == x) and (x < hi or ends[1] == "]" and x == hi)):
        raise DomainError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")
    return x


def _check_not_tiny(eps: float) -> float:
    if 1.0 + eps == 1.0:
        raise DomainError(f"epsilon {eps!r} is too small: 1 + epsilon rounds to 1")
    return eps


def _real_array(what: str, values) -> np.ndarray:
    """values as float64 if numpy reads ints or floats, none of them a bool, else DomainError."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what}: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{what}: got {array.dtype} values")
    if isinstance(values, (list, tuple)) and array.size:  # an array's dtype says it all
        if any(getattr(c, "dtype", type(c)) == bool for c in np.asarray(values, dtype=object).flat):
            raise DomainError(f"{what}: got bool values")  # numpy's and 0-d arrays' by dtype
    return array.astype(float, copy=False)


class DuplicateConflict(Error, ValueError):
    """Two data points share a coordinate but disagree on the value."""


class PreconditionError(Error, ValueError):
    """A documented precondition of an operation was violated."""


class UnknownKind(Error, ValueError):
    """Requested a learner kind that does not exist."""


class DegenerateInput(Error, ValueError):
    """An input sequence repeats a coordinate where distinct points are required."""


class SequenceError(Error, RuntimeError):
    """Adversary trials were driven out of order, or its schedule invariant broke."""


class DivergenceError(Error, ArithmeticError):
    """A series ratio check failed; the closed form would not converge."""


class InequalityViolation(Error):
    """A numerically checked inequality came out negative."""


class AuditFailure(Error):
    """One or more audited invariants failed.

    ``violations`` lists every failure; ``report`` (when present) carries the
    full audit report for diagnostics.
    """

    def __init__(self, message, violations=(), report=None):
        super().__init__(message)
        self.violations = list(violations)
        self.report = report
