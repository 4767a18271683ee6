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
)

#: Search grid for the budget-split parameter beta in (0, 1).
BETA_GRID = tuple(b / 100.0 for b in range(1, 100))

#: Minimum normalized noise for the subsampled-Gaussian bound to apply.
MIN_SIGMA_PRIME_SQ = 0.7


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) pair requested by one agent."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not 0 < require_float("epsilon", self.epsilon) < math.inf:
            raise InvalidParameterError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParameterError(f"delta must be in (0,1), got {self.delta}")


@dataclass(frozen=True)
class RdpPoint:
    """An (order alpha, divergence rho) Renyi-DP guarantee."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise InvalidParameterError(f"alpha must be finite and > 1, got {self.alpha}")
        if not 0.0 <= self.rho < math.inf:
            raise InvalidParameterError(f"rho must be finite and >= 0, got {self.rho}")


@dataclass(frozen=True)
class MechanismParams:
    """Static parameters of one agent's private communication mechanism."""

    clip_norm: float          # C
    sample_rate_data: float   # gamma1
    sample_rate_agents: float # gamma2
    num_agents: int           # N
    episode_len: int = 1      # T, used only by calibrate_episode

    def __post_init__(self):
        if not (self.clip_norm > 0 and 0.0 < self.clip_norm * self.clip_norm <= sys.float_info.max):
            raise InvalidParameterError(
                f"clip_norm must be > 0 with a finite, nonzero square, got {self.clip_norm}")
        for name in ("sample_rate_data", "sample_rate_agents"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InvalidParameterError(f"{name} must be in (0,1), got {v}")
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
    """RDP of the Gaussian mechanism: rho = alpha * Delta^2 / (2 sigma^2)."""
    if not sensitivity > 0:
        raise InvalidParameterError(f"sensitivity must be positive, got {sensitivity}")
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    return RdpPoint(alpha, alpha * sensitivity**2 / (2.0 * sigma**2))


def _order_bound(sigma_prime_sq: float, gamma: float, alpha: float) -> float:
    """Largest order admitted by the subsampled-Gaussian bound.

    The log argument 1/(gamma*alpha*(1+sigma'^2)) can fall below 1, making
    the bound negative; callers treat that as plain infeasibility.
    """
    arg = 1.0 / (gamma * alpha * (1.0 + sigma_prime_sq))
    return 2.0 * sigma_prime_sq * math.log(arg) / 3.0 + 1.0


def subsampled_gaussian_rdp(sensitivity: float, sigma: float, alpha: float, gamma: float) -> RdpPoint:
    """RDP of the Gaussian mechanism run on a uniform subsample.

    rho = 3.5 * gamma^2 * Delta^2 * alpha / sigma^2, valid only when
    sigma'^2 = sigma^2 / Delta^2 >= 0.7 and alpha does not exceed
    (2/3) * sigma'^2 * ln(1/(gamma*alpha*(1+sigma'^2))) + 1.
    """
    if not sensitivity > 0:
        raise InvalidParameterError(f"sensitivity must be positive, got {sensitivity}")
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    if not (0.0 < gamma < 1.0):
        raise InvalidParameterError(f"gamma must be in (0,1), got {gamma}")
    sigma_prime_sq = sigma**2 / sensitivity**2
    if sigma_prime_sq < MIN_SIGMA_PRIME_SQ:
        raise InfeasibleOrderError(
            f"normalized noise sigma'^2 = {sigma_prime_sq:.6g} < {MIN_SIGMA_PRIME_SQ}"
        )
    bound = _order_bound(sigma_prime_sq, gamma, alpha)
    if alpha > bound:
        raise InfeasibleOrderError(
            f"order alpha = {alpha:.6g} exceeds the admissible bound "
            f"(2/3)*sigma'^2*ln(1/(gamma*alpha*(1+sigma'^2))) + 1 = {bound:.6g}"
        )
    return RdpPoint(alpha, 3.5 * gamma**2 * sensitivity**2 * alpha / sigma**2)


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
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError(f"delta must be in (0,1), got {delta}")
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


def episode_noise_variance(params: MechanismParams, budget: PrivacyBudget, alpha: float, beta: float) -> float:
    """Episode-level noise variance: T times the per-step variance."""
    return step_noise_variance(params, budget, alpha, beta) * params.episode_len


def _calibrate(budget: PrivacyBudget, params: MechanismParams, episode: bool) -> CalibrationResult:
    variance = episode_noise_variance if episode else step_noise_variance
    best: CalibrationResult | None = None
    # Track the least-violated constraint across the grid for the error path.
    tightest_margin = math.inf
    tightest_desc = ""
    for beta in BETA_GRID:
        alpha = order_for_beta(budget, beta)
        sigma_sq = variance(params, budget, alpha, beta)
        sigma_prime_sq = sigma_sq / (4.0 * params.clip_norm**2)
        if sigma_prime_sq < MIN_SIGMA_PRIME_SQ:
            margin = MIN_SIGMA_PRIME_SQ - sigma_prime_sq
            if margin < tightest_margin:
                tightest_margin = margin
                tightest_desc = (
                    f"sigma'^2 >= {MIN_SIGMA_PRIME_SQ} (closest: sigma'^2 = "
                    f"{sigma_prime_sq:.6g} at beta = {beta:.2f})"
                )
            continue
        bound = _order_bound(sigma_prime_sq, params.sample_rate_data, alpha)
        if alpha > bound:
            margin = alpha - bound
            if margin < tightest_margin:
                tightest_margin = margin
                tightest_desc = (
                    f"alpha <= order bound (closest: alpha = {alpha:.6g} vs bound = "
                    f"{bound:.6g} at beta = {beta:.2f})"
                )
            continue
        if best is None or sigma_sq < best.sigma_sq:
            best = CalibrationResult(sigma_sq, alpha, beta, sigma_prime_sq, True)
    if best is None:
        raise CalibrationInfeasibleError(
            "no beta in the search grid satisfies the constraints; "
            f"tightest constraint: {tightest_desc}"
        )
    return best


def calibrate_step(budget: PrivacyBudget, params: MechanismParams) -> CalibrationResult:
    """Smallest per-step noise variance meeting the budget.

    Scans beta over BETA_GRID, keeps (beta, alpha, sigma^2) candidates that
    satisfy the subsampled-Gaussian feasibility constraints, and returns the
    one minimizing sigma^2. Raises CalibrationInfeasibleError when the grid
    is exhausted.
    """
    return _calibrate(budget, params, episode=False)


def calibrate_episode(budget: PrivacyBudget, params: MechanismParams) -> CalibrationResult:
    """Episode-level variant: sigma^2 scales by episode_len, same constraints."""
    return _calibrate(budget, params, episode=True)


def round_trip(result: CalibrationResult, budget: PrivacyBudget, params: MechanismParams,
               episode: bool = False) -> PrivacyBudget:
    """Re-derive the (epsilon', delta) actually guaranteed by a calibration.

    Feeds sigma back through the subsampled-Gaussian bound at sensitivity 2C,
    composes ceil(gamma2*N) copies (times T for an episode), and converts at
    delta. For any feasible calibration, epsilon' <= epsilon. The copies are
    composed as copies * rho, which for copies <= 2**53 is the correctly
    rounded sum that ``compose`` would return, in O(1).
    """
    point = subsampled_gaussian_rdp(
        params.sensitivity, math.sqrt(result.sigma_sq), result.alpha, params.sample_rate_data
    )
    copies = params.compose_copies * (params.episode_len if episode else 1)
    return rdp_to_dp(RdpPoint(point.alpha, copies * point.rho), budget.delta)
