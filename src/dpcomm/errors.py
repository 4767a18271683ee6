"""Exception types shared across the package, and the checks for integer counts,
indices, seeds and float conversions.

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
    """Exhaustive policy enumeration would exceed the configured budget.

    The library does not raise it; only the tests' brute-force oracle does."""


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


def require_index(name: str, value, size: int) -> int:
    """``value``; InvalidParameterError unless it is an integer in [0, ``size``)
    (a bool, a negative index or an integral float is not)."""
    require_count(name, value, 0)
    if value >= size:
        raise InvalidParameterError(f"{name} index {value} out of range for {size} agents")
    return value


def require_seed(name: str, value) -> int:
    """``value``; InvalidParameterError unless it is a nonnegative integer. Any
    size is accepted (the CLI takes 64-bit seeds), numpy integers included; a
    bool, an integral float or a string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise InvalidParameterError(
            f"{name} must be a nonnegative integer, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an integer too long for Python to print."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"an integer of {abs(value).bit_length()} bits"


def require_float(name: str, value) -> float:
    """``float(value)``; InvalidParameterError naming ``name`` for an integer
    beyond the float range and for a value that is not a number at all (a
    non-numeric string, None, a list)."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} holds an integer beyond the float range") from None
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a number, got {_shown(value)}") from None


def require_float_in(name: str, value, ok, rule: str) -> float:
    """``require_float(name, value)``; InvalidParameterError "``name`` must
    ``rule``, got <the float>" unless ``ok`` holds for the float."""
    value = require_float(name, value)
    if not ok(value):
        raise InvalidParameterError(f"{name} must {rule}, got {value}")
    return value


def require_iterable(name: str, value) -> tuple:
    """``tuple(value)``; InvalidParameterError naming ``name`` for a string or a
    value that cannot be iterated, such as a number or None."""
    try:
        if not isinstance(value, str):
            return tuple(value)
    except TypeError:
        pass
    raise InvalidParameterError(f"{name} must be a sequence, got {_shown(value)}")


def require_floats(name: str, value) -> tuple:
    """``value`` as a tuple of floats, each converted by ``require_float``."""
    return tuple(require_float(name, v) for v in require_iterable(name, value))


def require_float_array(name: str, value):
    """``value`` as a float numpy array; InvalidParameterError naming ``name``
    for an integer beyond the float range or an entry that is not a number."""
    import numpy as np  # here, so that importing this module does not load numpy

    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise InvalidParameterError(f"{name} holds an integer beyond the float range") from None
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be numbers, got {_shown(value)}") from None
