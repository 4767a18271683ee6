"""Renyi-DP bookkeeping and noise calibration for private message senders.

The model: an agent clips its message function to l2 norm C (sensitivity
2C between neighbouring inputs), applies it to a uniformly-without-replacement
subsample of its local data (rate gamma1), adds isotropic Gaussian noise of
variance sigma^2, and sends the result to a sampled subset of the other
agents (rate gamma2, N agents in total). ``calibrate_step`` solves for the
smallest sigma^2 that makes one such round (epsilon, delta)-DP;
``calibrate_episode`` does the same for T composed rounds.

All accounting runs through three textbook facts:

  * Gaussian mechanism:      (alpha, alpha * Delta^2 / (2 sigma^2))-RDP
  * subsampled Gaussian:     (alpha, 3.5 * gamma^2 * Delta^2 * alpha / sigma^2)-RDP,
                             valid only when sigma'^2 = sigma^2/Delta^2 >= 0.7 and
                             alpha <= (2/3) * sigma'^2 * ln(1/(gamma*alpha*(1+sigma'^2))) + 1
  * composition/conversion:  rhos add at equal alpha; (alpha, rho)-RDP implies
                             (rho + ln(1/delta)/(alpha-1), delta)-DP.

Everything here is a pure function of its inputs; no shared mutable state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    CalibrationInfeasibleError,
    CompositionOrderError,
    InfeasibleOrderError,
    InvalidParameterError,
    require_count,
    require_float,
    require_float_in,
)

#: Search grid for the budget-split parameter beta in (0, 1).
BETA_GRID = tuple(b / 100.0 for b in range(1, 100))

#: Minimum normalized noise for the subsampled-Gaussian bound to apply.
MIN_SIGMA_PRIME_SQ = 0.7
_SIGMA_PRIME_CONDITION = f"sigma'^2 >= {MIN_SIGMA_PRIME_SQ}"
_ORDER_CONDITION = "alpha <= order bound"


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) pair requested by one agent."""

    epsilon: float
    delta: float

    def __post_init__(self):
        # A subnormal epsilon makes beta * epsilon round to 0 in the calibrator.
        epsilon = require_float_in("epsilon", self.epsilon,
                                   lambda v: sys.float_info.min <= v < math.inf,
                                   "be finite and a normal float > 0")
        delta = require_float_in("delta", self.delta, lambda v: 0.0 < v < 1.0, "be in (0,1)")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class RdpPoint:
    """An (order alpha, divergence rho) Renyi-DP guarantee."""

    alpha: float
    rho: float

    def __post_init__(self):
        alpha = require_float_in("alpha", self.alpha, lambda v: 1.0 < v < math.inf,
                                 "be finite and > 1")
        rho = require_float_in("rho", self.rho, lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class MechanismParams:
    """Static parameters of one agent's private communication mechanism."""

    clip_norm: float          # C
    sample_rate_data: float   # gamma1
    sample_rate_agents: float # gamma2
    num_agents: int           # N
    episode_len: int = 1      # T, used only by calibrate_episode

    def __post_init__(self):
        # A subnormal C^2 would make (2C)^2 and 4 * C^2 round apart.
        clip_norm = _with_normal_square("clip_norm", self.clip_norm)
        object.__setattr__(self, "clip_norm", clip_norm)
        for name in ("sample_rate_data", "sample_rate_agents"):
            rate = require_float_in(name, getattr(self, name), lambda v: 0.0 < v < 1.0,
                                    "be in (0,1)")
            object.__setattr__(self, name, rate)
        require_count("num_agents", self.num_agents, 1)
        require_count("episode_len", self.episode_len, 1)

    @property
    def sensitivity(self) -> float:
        """l2 sensitivity of the clipped message function (2C)."""
        return 2.0 * self.clip_norm

    @property
    def compose_copies(self) -> int:
        """Messages composed per step: ceil(gamma2 * N), rounded up so a
        fractional recipient count never under-counts the composition."""
        return math.ceil(self.sample_rate_agents * self.num_agents)


@dataclass(frozen=True)
class CalibrationResult:
    """Solved noise variance plus the (alpha, beta) witness."""

    sigma_sq: float
    alpha: float
    beta: float
    sigma_prime_sq: float
    feasible: bool


def gaussian_rdp(sensitivity: float, sigma: float, alpha: float) -> RdpPoint:
    """RDP of the Gaussian mechanism: rho = alpha * Delta^2 / (2 sigma^2).

    A ratio Delta/sigma whose square leaves the float range gives a rho
    beyond it, which is rejected, naming the inputs it came from.
    """
    sensitivity = require_float_in("sensitivity", sensitivity, lambda v: v > 0, "be positive")
    sigma = require_float_in("sigma", sigma, lambda v: v > 0, "be positive")
    alpha = require_float("alpha", alpha)
    ratio = sensitivity / sigma
    rho = alpha / 2.0 * ratio * ratio
    if rho == math.inf:
        raise InvalidParameterError(
            f"rho = alpha * sensitivity^2 / (2 sigma^2) exceeds the float range at "
            f"sensitivity = {sensitivity!r}, sigma = {sigma!r}, alpha = {alpha!r}")
    return RdpPoint(alpha, rho)


def _with_normal_square(name: str, value) -> float:
    """``value`` as a float; InvalidParameterError naming ``name`` unless it is
    > 0 and its square is a finite, normal float."""
    return require_float_in(
        name, value, lambda v: v > 0 and sys.float_info.min <= v * v <= sys.float_info.max,
        "be > 0 with a finite, normal square")


def _sigma_prime_sq(sigma_sq: float, sensitivity: float) -> float:
    """Normalized noise sigma'^2 = sigma^2 / Delta^2, from the variance."""
    return sigma_sq / sensitivity**2


def _invalidity(sigma_prime_sq: float, gamma: float, alpha: float) -> tuple[float, str] | None:
    """The validity region of the subsampled-Gaussian bound, in one place.

    Returns the condition that fails, as (margin, condition), or None when
    sigma'^2 >= MIN_SIGMA_PRIME_SQ and alpha <= the order bound both hold. The
    bound's log argument 1/(gamma*alpha*(1+sigma'^2)) can fall below 1, making
    the bound negative, which is plain infeasibility. The argument rounds to 0
    when the product overflows, and is NaN when an infinite alpha meets a
    variance that underflowed to 0: then no finite bound exists, and alpha
    misses it by inf.
    """
    if sigma_prime_sq < MIN_SIGMA_PRIME_SQ:
        return MIN_SIGMA_PRIME_SQ - sigma_prime_sq, _SIGMA_PRIME_CONDITION
    arg = 1.0 / (gamma * alpha * (1.0 + sigma_prime_sq))
    if not arg > 0.0:
        return math.inf, _ORDER_CONDITION
    bound = 2.0 * sigma_prime_sq * math.log(arg) / 3.0 + 1.0
    if alpha > bound:
        return alpha - bound, _ORDER_CONDITION
    return None


def _subsampled_rdp(sensitivity: float, sigma_sq: float, alpha: float, gamma: float) -> RdpPoint:
    """``subsampled_gaussian_rdp`` on the noise variance, for checked arguments."""
    invalid = _invalidity(_sigma_prime_sq(sigma_sq, sensitivity), gamma, alpha)
    if invalid is not None:
        raise InfeasibleOrderError(f"the subsampled-Gaussian RDP holds only if {invalid[1]}, "
                                   f"missed by {invalid[0]:.3g} at alpha = {alpha!r}")
    return RdpPoint(alpha, 3.5 * gamma**2 * sensitivity**2 * alpha / sigma_sq)


def subsampled_gaussian_rdp(sensitivity: float, sigma: float, alpha: float, gamma: float) -> RdpPoint:
    """RDP of the Gaussian mechanism run on a uniform subsample.

    rho = 3.5 * gamma^2 * Delta^2 * alpha / sigma^2, valid only when
    sigma'^2 = sigma^2 / Delta^2 >= 0.7 and alpha does not exceed
    (2/3) * sigma'^2 * ln(1/(gamma*alpha*(1+sigma'^2))) + 1.
    """
    # Both squares enter the bound, so neither may overflow or underflow.
    sensitivity = _with_normal_square("sensitivity", sensitivity)
    sigma = _with_normal_square("sigma", sigma)
    alpha = require_float_in("alpha", alpha, lambda v: 1.0 < v < math.inf, "be finite and > 1")
    gamma = require_float_in("gamma", gamma, lambda v: 0.0 < v < 1.0, "be in (0,1)")
    return _subsampled_rdp(sensitivity, sigma**2, alpha, gamma)


def compose(points: Sequence[RdpPoint] | Iterable[RdpPoint]) -> RdpPoint:
    """Compose RDP guarantees at a common order: rhos add.

    Uses exact (fsum) accumulation so composition is independent of how the
    list is partitioned.
    """
    points = list(points)
    if not points:
        raise CompositionOrderError("cannot compose an empty list of RDP points")
    alpha = points[0].alpha
    for pt in points[1:]:
        if pt.alpha != alpha:
            raise CompositionOrderError(
                f"all points must share one order; got {pt.alpha} != {alpha}"
            )
    return RdpPoint(alpha, math.fsum(pt.rho for pt in points))


def rdp_to_dp(point: RdpPoint, delta: float) -> PrivacyBudget:
    """Convert (alpha, rho)-RDP into (rho + ln(1/delta)/(alpha-1), delta)-DP."""
    delta = require_float_in("delta", delta, lambda v: 0.0 < v < 1.0, "be in (0,1)")
    return PrivacyBudget(point.rho + math.log(1.0 / delta) / (point.alpha - 1.0), delta)


def order_for_beta(budget: PrivacyBudget, beta: float) -> float:
    """Order pinned by the budget split: alpha = ln(1/delta)/(eps*(1-beta)) + 1."""
    return math.log(1.0 / budget.delta) / (budget.epsilon * (1.0 - beta)) + 1.0


def step_noise_variance(params: MechanismParams, budget: PrivacyBudget, alpha: float, beta: float) -> float:
    """Per-step noise variance 14 * k * gamma1^2 * C^2 * alpha / (beta * eps),
    with k = ceil(gamma2 * N) composed messages."""
    return (
        14.0
        * params.compose_copies
        * params.sample_rate_data**2
        * params.clip_norm**2
        * alpha
        / (beta * budget.epsilon)
    )


def _calibrate(budget: PrivacyBudget, params: MechanismParams, rounds: int) -> CalibrationResult:
    """Calibration over ``rounds`` composed rounds: 1 for a step, T for an episode."""
    best: CalibrationResult | None = None
    # The least-violated constraint across the grid, for the error path.
    tightest = None
    sensitivity = params.sensitivity
    for beta in BETA_GRID:
        alpha = order_for_beta(budget, beta)
        sigma_sq = step_noise_variance(params, budget, alpha, beta) * rounds
        sigma_prime_sq = _sigma_prime_sq(sigma_sq, sensitivity)
        invalid = _invalidity(sigma_prime_sq, params.sample_rate_data, alpha)
        if invalid is not None:
            if tightest is None or invalid[0] < tightest[0]:
                tightest = (*invalid, beta)
        elif best is None or sigma_sq < best.sigma_sq:
            best = CalibrationResult(sigma_sq, alpha, beta, sigma_prime_sq, True)
    if best is None:
        margin, condition, beta = tightest
        raise CalibrationInfeasibleError(
            "no beta in the search grid satisfies the constraints; tightest constraint: "
            f"{condition}, missed by {margin:.3g} at beta = {beta:.2f}")
    return best


def calibrate_step(budget: PrivacyBudget, params: MechanismParams) -> CalibrationResult:
    """Per-step noise variance: the smallest over the budget splits of BETA_GRID.

    Each beta pins one order, alpha = ``order_for_beta(budget, beta)``, and one
    variance, ``step_noise_variance``. The scan keeps the (beta, alpha,
    sigma^2) candidates that satisfy the subsampled-Gaussian feasibility
    constraints and returns the one minimizing sigma^2. That is not the
    smallest variance meeting the budget, which may need an order no beta
    pins, and it need not fall as epsilon grows: for C = 1.42, gamma1 = 0.119,
    gamma2 = 0.924, N = 13 and delta = 3.72e-5, epsilon 21.99 gives sigma^2
    5.88 (beta 0.06) and epsilon 39.36 gives 8.35 (beta 0.02). Raises
    CalibrationInfeasibleError when no beta on the grid is feasible.
    """
    return _calibrate(budget, params, 1)


def calibrate_episode(budget: PrivacyBudget, params: MechanismParams) -> CalibrationResult:
    """Episode-level variant: sigma^2 scales by episode_len, same constraints."""
    return _calibrate(budget, params, params.episode_len)


def round_trip(result: CalibrationResult, budget: PrivacyBudget, params: MechanismParams,
               episode: bool = False) -> PrivacyBudget:
    """Re-derive the (epsilon', delta) actually guaranteed by a calibration.

    Feeds sigma^2 back through the subsampled-Gaussian bound at sensitivity 2C,
    under the validity check the calibrator used on the same sigma'^2,
    composes ceil(gamma2*N) copies (times T for an episode), and converts at
    delta. For any feasible calibration, epsilon' <= epsilon. The copies are
    composed as copies * rho, which for copies <= 2**53 is the correctly
    rounded sum that ``compose`` would return, in O(1).
    """
    point = _subsampled_rdp(params.sensitivity, result.sigma_sq, result.alpha,
                            params.sample_rate_data)
    copies = params.compose_copies * (params.episode_len if episode else 1)
    return rdp_to_dp(RdpPoint(point.alpha, copies * point.rho), budget.delta)
