"""The diagonal descent and the diagonal KL, on Python floats, without numpy.

This module holds the one descent of a diagonal sender (``_diagonal_descent``)
and the one KL kernel for a diagonal post-noise message (``_diagonal_kl``).
``dpcomm sender`` runs the descent on its diagonal target, whose precision
times a vector is ``t_i * x_i``, and never loads numpy: its config gives only
``dim``, ``target_mean`` and ``target_variances``, so the checks and both
closed-form KLs are scalar work per coordinate too.
``aware_optimum_gd(mode="diagonal")`` runs the same loop on any target, with
numpy's precision product. ``gaussian_sender`` stays the library API (full
covariances, ``mode="full"``, the sampler), and the module is private.

The rules both modules share live here, and ``gaussian_sender`` imports them:
the eigenvalue floors, the sender-problem, step count and learning-rate
checks, the default step cap and learning rate (``dpcomm sender`` takes them
too), the bad-step rule with its ``StepSizeError`` messages, the stop rule
(``_settled``), which ``mode="full"`` follows too, and both optima's KLs.

Every sum is one correctly rounded ``math.fsum``. The tests hold the descent
to a numpy oracle: every check with its error type and message, the iterates
bit for bit, and the KLs within 1e-12 times max(1, |KL|), since numpy sums
pairwise from 8 terms and its vectorized ``log`` is not always correctly
rounded where ``math.log`` is.
"""

from __future__ import annotations

import math
import sys
from operator import eq, mul
from typing import NamedTuple

from .errors import (InvalidParameterError, SingularTargetError, StepSizeError, require_count,
                     require_float, require_float_in)

_EIG_FLOOR = -1e-12       # times max(1, largest eigenvalue): a covariance eigenvalue above
                          # this is rounding and is projected to >= 0
_TARGET_MIN_EIG = 1e-9    # smallest eigenvalue of a target covariance
_EPS = sys.float_info.epsilon
_GD_STEPS = 5000          # a descent's default step cap
_GD_LEARNING_RATE = 0.1   # a descent's default learning rate


def _check_dimension(shape: tuple, dim: int) -> None:
    """InvalidParameterError unless a covariance of ``shape`` fits a mean of
    ``dim`` >= 1 entries."""
    if shape != (dim, dim):
        raise InvalidParameterError(f"covariance shape {shape} does not match dimension {dim}")
    if dim == 0:
        raise InvalidParameterError("dimension must be at least 1, got 0")


def _not_finite_error(mean: list, cov: list) -> InvalidParameterError:
    return InvalidParameterError(
        f"mean and covariance must be finite, got mean {mean} and covariance {cov}")


def _check_lowest_eigenvalue(lowest: float, largest: float) -> None:
    """InvalidParameterError below the floor, which scales with the largest
    eigenvalue: ``eigh`` rounds a zero eigenvalue of a matrix with entries near
    s to about s * 1e-16 of either sign."""
    if lowest < _EIG_FLOOR * max(1.0, largest):
        raise InvalidParameterError(f"covariance has negative eigenvalue {lowest:.3g}")


def _check_noise_var(noise_var) -> float:
    """A channel noise variance as a float; InvalidParameterError unless finite and >= 0."""
    return require_float_in("noise_var", noise_var, lambda v: 0 <= v < math.inf,
                            "be finite and >= 0")


def _sender_problem(variances, noise_var) -> float:
    """The checks ``SenderProblem`` makes on a target with eigenvalues ``variances``
    (a list or a 1-D array) and a noise variance; returns the noise variance."""
    noise_var = _check_noise_var(noise_var)
    lowest, largest = min(variances), float(max(variances))  # float: no numpy overflow warning
    if lowest < _TARGET_MIN_EIG:
        raise InvalidParameterError(f"target covariance must be positive-definite (min "
                                    f"eigenvalue {lowest:.3g} < {_TARGET_MIN_EIG})")
    if not math.isfinite(largest + noise_var):  # a post-noise variance would overflow
        raise InvalidParameterError(f"noise_var plus the largest target variance must be "
                                    f"finite, got {noise_var} + {largest}")
    return noise_var


def _singular(lowest: float, largest: float, dim: int) -> bool:
    """Whether a covariance is singular to working precision: its smallest
    eigenvalue is at most d * eps times its largest."""
    return lowest <= dim * _EPS * largest


def _descent_params(steps, learning_rate) -> tuple[int, float]:
    """The step count and learning rate of a descent, checked."""
    require_count("steps", steps, 1)
    return steps, require_float_in("learning_rate", learning_rate, lambda v: 0 <= v < math.inf,
                                   "be finite and >= 0")


def _bad_steps(value: float, prev: float, bad_steps: int, mean, sent) -> int:
    """Consecutive bad steps after a step from KL ``prev`` to ``value``.

    Raises StepSizeError at the 10th bad step (a rise or a NaN), or when the
    step overflowed the iterate (``mean`` or the post-noise ``sent``, each an
    iterable of floats).
    """
    # A non-finite iterate gives a non-finite KL, so only then is it looked for.
    if not math.isfinite(value) and not (all(map(math.isfinite, mean))
                                         and all(map(math.isfinite, sent))):
        raise StepSizeError("a step overflowed the iterate; reduce the learning rate")
    if not (math.isnan(value) or value > prev):
        return 0
    if bad_steps + 1 >= 10:
        raise StepSizeError(
            f"objective increased for {bad_steps + 1} consecutive steps; reduce the learning rate"
        )
    return bad_steps + 1


def _settled(mean, old_mean, spread, old_spread) -> bool:
    """Whether a step left the mean and the spread (the variances, or the
    flattened covariance factor of ``mode="full"``; lists or 1-D arrays) ``==``,
    entry by entry, to the iterate before it, so every later step would repeat
    it. Exact: a step reads only the mean and the spread; no iterate holds a
    -0.0 (a descent starts at zeros and ones, or the identity, and ``x - y`` is
    -0.0 only when ``x`` is); an unchanged iterate repeats its KL, so no later
    step changes the bad-step count either; and NaN != NaN."""
    return all(map(eq, mean, old_mean)) and all(map(eq, spread, old_spread))


def _fsum(values) -> float:
    """``math.fsum``, or +inf where its terms overflow it: finite terms whose sum
    leaves the float range, or products that overflowed to +inf and -inf.
    Every sum here is of terms >= 0, or a quadratic form of a positive-definite
    precision, so its value is >= 0."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.inf


class _Target(NamedTuple):
    """A checked diagonal target: its mean and its variances, clipped at 0 as
    ``GaussianMessageDist`` stores its eigenvalues."""

    mean: list[float]
    variances: list[float]


def _diagonal_target(mean, variances) -> _Target:
    """The checks ``GaussianMessageDist.from_diagonal(mean, variances)`` makes,
    with its errors."""
    mean = [require_float("mean", value) for value in mean]
    variances = [require_float("variances", value) for value in variances]
    _check_dimension((len(variances), len(variances)), len(mean))
    if not all(map(math.isfinite, mean + variances)):
        cov = [[v if i == j else 0.0 for j in range(len(variances))]
               for i, v in enumerate(variances)]
        raise _not_finite_error(mean, cov)
    _check_lowest_eigenvalue(min(0.0, *variances), max(0.0, *variances))  # as _clipped_eigh
    return _Target(mean, [v if v > 0.0 else 0.0 for v in variances])


def _target_terms(variances: list[float]) -> tuple[list[float], float]:
    """Inverse diagonal and log-determinant of a checked diagonal target;
    SingularTargetError unless it is positive-definite."""
    if _singular(min(variances), max(variances), len(variances)):
        raise SingularTargetError("q covariance must be positive-definite")
    return [1.0 / v for v in variances], _fsum(map(math.log, variances))


def _diagonal_kl(target_inv: list, logdet_q: float, quad: float, sent: list) -> float:
    """The KL against a target of a message with post-noise variances ``sent``,
    where ``target_inv`` is the diagonal of the target's precision and ``quad``
    the precision's quadratic form in the message's mean minus the target's."""
    # Python's min() is NaN or <= 0 unless every variance is > 0; a NaN elsewhere,
    # which only an overflowed iterate holds, makes the KL NaN.
    if not min(sent) > 0.0:
        return math.inf
    trace = _fsum(map(mul, sent, target_inv))
    return 0.5 * (logdet_q - _fsum(map(math.log, sent)) + trace + quad - len(sent))


def _closed_form_kls(variances: list[float], noise_var: float) -> tuple[float, float]:
    """``oblivious_optimum(problem).kl`` and ``aware_optimum(problem).kl`` for a
    target with checked eigenvalues ``variances``, in whose eigenbasis both are
    diagonal and match the target's mean."""
    target_inv, logdet_q = _target_terms(variances)
    oblivious = [v + noise_var for v in variances]
    aware = [max(v - noise_var, 0.0) + noise_var for v in variances]
    return (_diagonal_kl(target_inv, logdet_q, 0.0, oblivious),
            _diagonal_kl(target_inv, logdet_q, 0.0, aware))


def _diagonal_descent(target_mean: list, target_inv: list, logdet_q: float, precision,
                      noise_var: float, steps: int, learning_rate: float):
    """Projected gradient descent of a diagonal sender's post-noise KL, at one
    checked noise variance: the one diagonal descent, which ``dpcomm sender``
    and ``aware_optimum_gd(mode="diagonal")`` both run.

    ``target_inv`` and ``logdet_q`` are the target's ``_diagonal_kl`` terms,
    and ``precision(x)`` is the target's precision times the list ``x``, as a
    list: ``t_i * x_i`` for a diagonal target. ``steps`` and ``learning_rate``
    were checked by ``_descent_params``. Returns the mean, the variances, the
    final KL and the number of steps run, or raises StepSizeError by
    ``_bad_steps``. It stops at the first step that ``_settled`` accepts,
    after at most ``steps`` steps: on ``configs/sender.json`` after 1, 627,
    667 and 736 of 6000.
    """
    d = len(target_mean)
    mean = [0.0] * d
    variances = [1.0] * d
    sent = [v + noise_var for v in variances]
    diff = [m - t for m, t in zip(mean, target_mean)]
    grad = precision(diff)  # the KL's gradient in the mean
    prev = _diagonal_kl(target_inv, logdet_q, _fsum(map(mul, diff, grad)), sent)
    bad = 0
    for step in range(1, steps + 1):
        old_mean, old_variances = mean, variances
        mean = [m - learning_rate * g for m, g in zip(old_mean, grad)]
        variances = [v - learning_rate * (0.5 * (t - (1.0 / s if s else math.inf)))
                     for v, t, s in zip(old_variances, target_inv, sent)]
        variances = [0.0 if v < 0.0 else v for v in variances]  # np.maximum(v, 0.0)
        sent = [v + noise_var for v in variances]
        diff = [m - t for m, t in zip(mean, target_mean)]
        grad = precision(diff)
        value = _diagonal_kl(target_inv, logdet_q, _fsum(map(mul, diff, grad)), sent)
        bad = _bad_steps(value, prev, bad, mean, sent)
        prev = value
        if _settled(mean, old_mean, variances, old_variances):
            break
    return mean, variances, prev, step
