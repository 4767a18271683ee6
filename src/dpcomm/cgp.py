"""Two-player collaborative game with privacy levels as actions.

Each player n picks a privacy level p_n in [0, 1] and receives

    u_n(p1, p2) = B_n * benefit(V_n, V_n^coop(p1, p2)) - C_n * privacy_loss(p_n)

where V_n is the player's standalone value, V_n^coop the value of cooperating
under the chosen privacy levels, and privacy_loss maps [0,1] onto [0,1] with
loss 1 at p = 0 and 0 at p = 1. The module provides utility evaluation, a
finite-difference potential-game check (equal mixed second partials), a
matching check on the players' value functions, best-response search, and
best-response dynamics with a unilateral-deviation Nash verification.

Profiles are checked once, where they enter: a ``StrategyProfile`` on
construction (the ``start`` of ``find_nash``, the ``profile`` of
``max_unilateral_gain``, the argument of ``utility``), and the opponent's level
and the step sizes by the function that takes them. The solvers then evaluate
one player's utility at a time on raw floats, and the points they generate in
[0, 1] are not checked again. The instance's callables must be pure functions
of their arguments: ``find_nash`` reuses a best response it has already
computed for its convergence residual instead of recomputing it.

``make_binary_sums_cgp`` builds the concrete instance induced by the
two-player binary sums game, whose utility reduces to the quadratic

    u_n = -(B_n / 2) (p1 + p2)^2 + C_n p_n + B_n / 2 - C_n

with best response p_n = clamp(C_n / B_n - p_other). Note the benefit of
this instance is the raw value gap V^coop - V_n, which goes negative once
p1 + p2 > 1; the nonnegativity required of a general benefit function holds
only on the low-privacy region (the tests' ``check_definitions`` reports this).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (EvaluationError, InvalidParameterError, require_count, require_float_in,
                     require_floats)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Smallest accepted steps, exclusive: a one-dimensional scan visits about
# 1/step points, a two-dimensional grid about 1/step**2.
_SCAN_FLOOR = 1e-6
_GRID_FLOOR = 1e-3


@dataclass(frozen=True)
class StrategyProfile:
    """Privacy levels chosen by the two players."""

    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", require_floats("p", self.p))
        if len(self.p) != 2:
            raise InvalidParameterError("profiles are two-player")
        if any(not 0.0 <= v <= 1.0 for v in self.p):
            raise InvalidParameterError(f"privacy levels must lie in [0,1], got {self.p}")


@dataclass(frozen=True, eq=False)
class CgpInstance:
    benefit_weight: tuple    # B_n > 0
    privacy_weight: tuple    # C_n > 0
    value_fn: Callable[[float, float], tuple]   # (p1, p2) -> (V_1^coop, V_2^coop)
    standalone_values: tuple # V_n
    privacy_loss_fn: Callable[[float], float]   # p -> [0, 1], 1 at 0, 0 at 1
    benefit_fn: Callable[[float, float], float] # (V_n, V_n^coop) -> benefit

    def __post_init__(self):
        for name in ("benefit_weight", "privacy_weight"):
            weights = require_floats(name, getattr(self, name))
            if len(weights) != 2 or any(not 0 < w < math.inf for w in weights):
                raise InvalidParameterError(f"{name} must be two finite numbers > 0, got {weights}")
            object.__setattr__(self, name, weights)
        standalone = require_floats("standalone_values", self.standalone_values)
        if len(standalone) != 2:
            raise InvalidParameterError(f"standalone_values must be two numbers, got {standalone}")
        object.__setattr__(self, "standalone_values", standalone)
        for p, want in ((0.0, 1.0), (1.0, 0.0)):
            got = self.privacy_loss_fn(p)
            if abs(got - want) > 1e-9:
                raise InvalidParameterError(
                    f"privacy loss must be {want} at p = {p}, got {got}"
                )


def _payoff(instance: CgpInstance, n: int, p1: float, p2: float) -> float:
    """Player n's utility at (p1, p2), on raw floats the caller has checked."""
    u = instance.benefit_weight[n] * instance.benefit_fn(
        instance.standalone_values[n], instance.value_fn(p1, p2)[n]
    ) - instance.privacy_weight[n] * instance.privacy_loss_fn((p1, p2)[n])
    if not math.isfinite(u):
        raise EvaluationError(f"utility of player {n + 1} is not finite at {(p1, p2)}")
    return u


def utility(instance: CgpInstance, profile: StrategyProfile) -> tuple:
    """Evaluate both players' utilities at the given profile."""
    return tuple(_payoff(instance, n, *profile.p) for n in range(2))


def _check_step(name: str, value, floor: float) -> float:
    """``value`` as a float; InvalidParameterError unless floor < value < inf."""
    return require_float_in(name, value, lambda v: floor < v < math.inf, f"be finite and > {floor}")


def _grid_check(grid_step, tol) -> tuple[float, list, float]:
    """The checked ``grid_step`` and ``tol`` of a two-dimensional grid check,
    as (h, interior points, tol), with h = grid_step / 2 the points' margin."""
    grid_step = _check_step("grid_step", grid_step, _GRID_FLOOR)
    tol = _check_step("tol", tol, 0.0)
    h = grid_step / 2.0
    pts = _interior_grid(grid_step, h)
    if len(pts) < 3:
        raise InvalidParameterError("grid_step leaves fewer than 3 interior points")
    return h, pts, tol


def _interior_grid(grid_step: float, margin: float) -> list:
    """Grid points in [margin, 1-margin] spaced by grid_step."""
    pts = []
    x = margin
    while x <= 1.0 - margin + 1e-12:
        pts.append(min(x, 1.0 - margin))
        x += grid_step
    return pts


def is_potential_game(instance: CgpInstance, grid_step: float = 0.05, tol: float = 1e-6):
    """Check the defining condition of a two-player potential game: the mixed
    second partials of the two utilities agree everywhere.

    Estimates d2u_n / dp1 dp2 by central differences over an interior grid of
    (0,1)^2. Returns (is_potential, max_deviation).
    """
    h, pts, tol = _grid_check(grid_step, tol)
    max_dev = 0.0
    for p1 in pts:
        for p2 in pts:
            cross = []
            for n in range(2):
                d = (
                    _payoff(instance, n, p1 + h, p2 + h)
                    - _payoff(instance, n, p1 + h, p2 - h)
                    - _payoff(instance, n, p1 - h, p2 + h)
                    + _payoff(instance, n, p1 - h, p2 - h)
                ) / (4.0 * h * h)
                cross.append(d)
            max_dev = max(max_dev, abs(cross[0] - cross[1]))
    return max_dev <= tol, max_dev


def value_partials_match(instance: CgpInstance, grid_step: float = 0.05, tol: float = 1e-6) -> bool:
    """Sufficient condition for the game to admit a pure Nash equilibrium:
    both players' cooperative values respond identically to their own privacy
    level, i.e. with the player roles mirrored,

        d^i V_1 / dp1^i (a, b)  =  d^i V_2 / dp2^i (b, a)   for i = 1, 2

    checked by central finite differences across an interior grid.
    """
    h, pts, tol = _grid_check(grid_step, tol)
    v1 = lambda p1, p2: instance.value_fn(p1, p2)[0]
    v2 = lambda p1, p2: instance.value_fn(p1, p2)[1]
    for a in pts:
        for b in pts:
            d1_v1 = (v1(a + h, b) - v1(a - h, b)) / (2.0 * h)
            d1_v2 = (v2(b, a + h) - v2(b, a - h)) / (2.0 * h)
            d2_v1 = (v1(a + h, b) - 2.0 * v1(a, b) + v1(a - h, b)) / (h * h)
            d2_v2 = (v2(b, a + h) - 2.0 * v2(b, a) + v2(b, a - h)) / (h * h)
            if abs(d1_v1 - d1_v2) > tol or abs(d2_v1 - d2_v2) > tol:
                return False
    return True


def best_response(instance: CgpInstance, player: int, opponent_p: float,
                  grid_step: float = 0.01) -> float:
    """Argmax of the player's utility over its own privacy level in [0, 1].

    Coarse grid scan followed by golden-section refinement around the grid
    optimum; ties break toward the smaller privacy level, and the refined
    point is only accepted when strictly better than the grid optimum.
    """
    if isinstance(player, bool) or not isinstance(player, numbers.Integral) or player not in (0, 1):
        raise InvalidParameterError("player must be 0 or 1")
    opponent_p = require_float_in("opponent_p", opponent_p, lambda v: 0.0 <= v <= 1.0,
                                  "lie in [0,1]")
    grid_step = _check_step("grid_step", grid_step, _SCAN_FLOOR)

    def f(p_own: float) -> float:
        pair = (p_own, opponent_p) if player == 0 else (opponent_p, p_own)
        return _payoff(instance, player, *pair)

    n_cells = max(2, math.ceil(1.0 / grid_step))
    grid = [i / n_cells for i in range(n_cells + 1)]
    values = [f(p) for p in grid]
    best_i = max(range(len(grid)), key=lambda i: (values[i], -grid[i]))
    best_p, best_v = grid[best_i], values[best_i]

    lo = max(0.0, best_p - 1.0 / n_cells)
    hi = min(1.0, best_p + 1.0 / n_cells)
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    refined = (a + b) / 2.0
    if f(refined) > best_v:
        return refined
    return best_p


def max_unilateral_gain(instance: CgpInstance, profile: StrategyProfile,
                        step: float = 1e-3) -> float:
    """Largest utility improvement any player can get by a unilateral
    deviation onto a grid of the given step over [0, 1]."""
    n_cells = max(1, round(1.0 / _check_step("step", step, _SCAN_FLOOR)))
    gain = 0.0
    for player in range(2):
        base = _payoff(instance, player, *profile.p)
        for i in range(n_cells + 1):
            p = i / n_cells
            pair = (p, profile.p[1]) if player == 0 else (profile.p[0], p)
            gain = max(gain, _payoff(instance, player, *pair) - base)
    return gain


@dataclass(frozen=True)
class NashResult:
    profile: StrategyProfile
    converged: bool
    sweeps: int
    max_gain: float  # unilateral-deviation scan at the returned profile


def find_nash(instance: CgpInstance, start: StrategyProfile, max_iters: int = 100,
              tol: float = 1e-8, grid_step: float = 0.01,
              scan_step: float = 1e-3) -> NashResult:
    """Alternating best-response dynamics from ``start``.

    Converged when the best-response residual ||BR(p) - p||_inf drops to
    ``tol`` within ``max_iters`` sweeps; the returned profile is additionally
    checked by a unilateral-deviation grid scan (``max_gain``). A sweep sets
    p1 = BR(0, p2), then p2 = BR(1, p1), so the residual's second term is 0
    and its first, BR(0, p2), is the next sweep's p1: two best responses per
    sweep, plus one to start.
    """
    max_iters = require_count("max_iters", max_iters, 1)
    tol = _check_step("tol", tol, 0.0)
    grid_step = _check_step("grid_step", grid_step, _SCAN_FLOOR)
    scan_step = _check_step("scan_step", scan_step, _SCAN_FLOOR)
    next_p1 = best_response(instance, 0, start.p[1], grid_step)
    converged = False
    for sweeps in range(1, max_iters + 1):
        p1 = next_p1
        p2 = best_response(instance, 1, p1, grid_step)
        next_p1 = best_response(instance, 0, p2, grid_step)
        if abs(next_p1 - p1) <= tol:
            converged = True
            break
    profile = StrategyProfile((p1, p2))
    return NashResult(profile, converged, sweeps, max_unilateral_gain(instance, profile, scan_step))


def make_binary_sums_cgp(benefit_weight: Sequence[float], privacy_weight: Sequence[float]) -> CgpInstance:
    """The two-player binary-sums game as a collaborative game with privacy.

    Standalone value -1/2, cooperative value -(p1 + p2)^2 / 2 for both
    players, privacy loss 1 - p, and benefit equal to the raw value gap.
    """

    def value_fn(p1: float, p2: float) -> tuple:
        v = -0.5 * (p1 + p2) ** 2
        return (v, v)

    return CgpInstance(
        benefit_weight=benefit_weight,
        privacy_weight=privacy_weight,
        value_fn=value_fn,
        standalone_values=(-0.5, -0.5),
        privacy_loss_fn=lambda p: 1.0 - p,
        benefit_fn=lambda standalone, coop: coop - standalone,
    )
