"""Exception types shared across the package, and the checks for integer counts
and float conversions.

Callers that only care about "bad input" can catch ValueError; the concrete
subclasses exist so that tests and the CLI can tell failure modes apart.
"""

import numbers


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition (sign, range, shape)."""


class InfeasibleOrderError(ValueError):
    """The subsampled-Gaussian RDP bound does not apply at this order.

    The message carries the violated inequality with its numeric values.
    """


class CompositionOrderError(ValueError):
    """RDP points with mismatched orders cannot be composed additively."""


class CalibrationInfeasibleError(RuntimeError):
    """No trade-off parameter in the search grid satisfies the constraints.

    The message reports the tightest (least violated) constraint seen.
    """


class DegenerateMechanismError(ValueError):
    """A de-biasing estimator is undefined (full randomization, p = 1)."""


class InvalidActionError(ValueError):
    """A game action is not valid in the current state (e.g. overspending)."""


class EnumerationBudgetError(RuntimeError):
    """Exhaustive policy enumeration would exceed the configured budget."""


class StepSizeError(RuntimeError):
    """Gradient descent diverged; the learning rate is too large."""


class SingularTargetError(ValueError):
    """A covariance that must be inverted is singular."""


class EvaluationError(ValueError):
    """A user-supplied callable returned a non-finite value."""


def require_count(name: str, value, minimum: int) -> int:
    """``value``; InvalidParameterError unless it is an integer >= ``minimum``
    (an integral float such as 2.0, or a bool, is not) and <= 2**53."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    if value > 2**53:  # the largest integer a float holds exactly
        raise InvalidParameterError(f"{name} must be at most 2**53, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an integer too long for Python to print."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"an integer of {abs(value).bit_length()} bits"


def require_float(name: str, value) -> float:
    """``float(value)``; InvalidParameterError, not OverflowError, for an
    integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} holds an integer beyond the float range") from None
