import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomm import (
    CgpInstance,
    EvaluationError,
    InvalidParameterError,
    NashResult,
    StrategyProfile,
    best_response,
    find_nash,
    is_potential_game,
    make_binary_sums_cgp,
    max_unilateral_gain,
    utility,
    value_partials_match,
)
from dpcomm import cgp
from dpcomm.cgp import GOLDEN, _interior_grid
from dpcomm.errors import require_float


def constant_game(level=2.5):
    """Utility is identically ``level`` * 0 + const: b cancels the loss term."""
    b_weight, c_weight = 2.0, 1.0
    return CgpInstance(
        benefit_weight=(b_weight, b_weight),
        privacy_weight=(c_weight, c_weight),
        value_fn=lambda p1, p2: (1.0 - p1, 1.0 - p2),
        standalone_values=(0.0, 0.0),
        privacy_loss_fn=lambda p: 1.0 - p,
        benefit_fn=lambda standalone, coop: (c_weight / b_weight) * coop + level,
    )


def wavy_game(b=2.0, c=1.0, amplitude=0.05):
    """Symmetric smooth instance with a position-dependent cross-partial."""

    def value_fn(p1, p2):
        v = -0.5 * (p1 + p2) ** 2 - amplitude * math.sin(p1) * math.sin(p2)
        return (v, v)

    return CgpInstance(
        benefit_weight=(b, b),
        privacy_weight=(c, c),
        value_fn=value_fn,
        standalone_values=(-0.5, -0.5),
        privacy_loss_fn=lambda p: 1.0 - p,
        benefit_fn=lambda standalone, coop: coop - standalone,
    )


def check_definitions(instance: CgpInstance, grid_step: float = 0.1) -> list:
    """Sampled checks of the definitional properties of a CGP's ingredients.

    Returns a list of human-readable violations (empty when all sampled
    conditions hold): privacy loss strictly decreasing; cooperative value
    decreasing in both privacy levels, capped by the standalone value when
    either player goes fully private, and exceeding it at (0, 0); benefit
    nonnegative and zero whenever standalone >= cooperative value.
    """
    grid_step = cgp._check_step("grid_step", grid_step, cgp._GRID_FLOOR)
    violations = []
    pts = _interior_grid(grid_step, grid_step / 2.0)
    h = grid_step / 2.0

    prev = None
    for p in [0.0] + pts + [1.0]:
        c = instance.privacy_loss_fn(p)
        if prev is not None and c >= prev:
            violations.append(f"privacy loss not strictly decreasing near p = {p:.3g}")
            break
        prev = c

    for n in range(2):
        v_n = lambda p1, p2: instance.value_fn(p1, p2)[n]
        if not (instance.standalone_values[n] < v_n(0.0, 0.0)):
            violations.append(f"player {n + 1}: cooperative value at (0,0) must beat standalone")
        for full in ((1.0, 0.5), (0.5, 1.0)):
            if v_n(*full) > instance.standalone_values[n] + 1e-12:
                violations.append(
                    f"player {n + 1}: cooperative value exceeds standalone at p = {full}"
                )
        for p1 in pts:
            for p2 in pts:
                d1 = (v_n(p1 + h, p2) - v_n(p1 - h, p2)) / (2.0 * h)
                d2 = (v_n(p1, p2 + h) - v_n(p1, p2 - h)) / (2.0 * h)
                if d1 >= 0.0 or d2 >= 0.0:
                    violations.append(
                        f"player {n + 1}: cooperative value not decreasing at ({p1:.3g}, {p2:.3g})"
                    )
                    break
            else:
                continue
            break
        for p1 in pts:
            for p2 in pts:
                coop = instance.value_fn(p1, p2)[n]
                b = instance.benefit_fn(instance.standalone_values[n], coop)
                if b < 0.0 or (instance.standalone_values[n] >= coop and b != 0.0):
                    violations.append(
                        f"player {n + 1}: benefit must be nonnegative and zero when "
                        f"standalone >= cooperative (p = ({p1:.3g}, {p2:.3g}))"
                    )
                    break
            else:
                continue
            break
    return violations

class TestUtility:
    def test_origin(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert utility(game, StrategyProfile((0.0, 0.0))) == (0.0, 0.0)
        game = make_binary_sums_cgp((3.0, 3.0), (1.0, 1.0))
        # B/2 - C at the origin
        assert utility(game, StrategyProfile((0.0, 0.0))) == (0.5, 0.5)

    def test_full_privacy_profile(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert utility(game, StrategyProfile((1.0, 1.0))) == (-3.0, -3.0)

    def test_quadratic_form(self):
        game = make_binary_sums_cgp((2.0, 1.5), (1.0, 0.5))
        for p1, p2 in [(0.2, 0.7), (0.0, 1.0), (0.5, 0.5)]:
            u = utility(game, StrategyProfile((p1, p2)))
            for n, (bw, cw, pn) in enumerate([(2.0, 1.0, p1), (1.5, 0.5, p2)]):
                expected = -bw / 2 * (p1 + p2) ** 2 + cw * pn + bw / 2 - cw
                assert u[n] == pytest.approx(expected, abs=1e-14)

    def test_degenerate_benefit(self):
        game = CgpInstance(
            benefit_weight=(1.0, 1.0),
            privacy_weight=(2.0, 3.0),
            value_fn=lambda p1, p2: (0.0, 0.0),
            standalone_values=(1.0, 1.0),
            privacy_loss_fn=lambda p: 1.0 - p,
            benefit_fn=lambda standalone, coop: 0.0,
        )
        u = utility(game, StrategyProfile((0.25, 0.5)))
        assert u == (-2.0 * 0.75, -3.0 * 0.5)

    def test_non_finite_utility_rejected(self):
        game = CgpInstance(
            benefit_weight=(1.0, 1.0),
            privacy_weight=(1.0, 1.0),
            value_fn=lambda p1, p2: (math.nan, 0.0),
            standalone_values=(0.0, 0.0),
            privacy_loss_fn=lambda p: 1.0 - p,
            benefit_fn=lambda standalone, coop: coop,
        )
        with pytest.raises(EvaluationError):
            utility(game, StrategyProfile((0.5, 0.5)))


class TestIsPotentialGame:
    def test_symmetric_weights(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        ok, dev = is_potential_game(game, grid_step=0.05, tol=1e-6)
        assert ok
        assert dev < 1e-9

    def test_asymmetric_weights(self):
        game = make_binary_sums_cgp((1.0, 2.0), (1.0, 1.0))
        ok, dev = is_potential_game(game, grid_step=0.05, tol=1e-6)
        assert not ok
        assert dev == pytest.approx(1.0, abs=0.01)

    def test_constant_utilities(self):
        ok, dev = is_potential_game(constant_game(), grid_step=0.1, tol=1e-9)
        assert ok
        assert dev < 1e-12

    def test_grid_too_coarse(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            is_potential_game(game, grid_step=0.6, tol=1e-6)

    def test_cross_partial_quadratic_convergence(self):
        # Quadratic utility: finite differences are exact up to roundoff.
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        for h in (0.02, 0.01):
            _, dev = is_potential_game(game, grid_step=h, tol=1.0)
            assert dev <= h**2 + 1e-9

    def test_cross_partial_richardson_rate(self):
        # Non-polynomial instance: the central-difference error of the cross
        # partial must shrink at O(h^2), i.e. by ~4x when h halves.
        game = wavy_game(amplitude=0.5)

        def max_fd_error(h):
            pts = np.arange(h, 1.0 - h / 2, h)
            worst = 0.0
            for p1 in pts:
                for p2 in pts:
                    fd = (
                        utility(game, StrategyProfile((min(p1 + h / 2, 1), min(p2 + h / 2, 1))))[0]
                        - utility(game, StrategyProfile((min(p1 + h / 2, 1), max(p2 - h / 2, 0))))[0]
                        - utility(game, StrategyProfile((max(p1 - h / 2, 0), min(p2 + h / 2, 1))))[0]
                        + utility(game, StrategyProfile((max(p1 - h / 2, 0), max(p2 - h / 2, 0))))[0]
                    ) / (h * h)
                    exact = 2.0 * (-1.0 - 0.5 * math.cos(p1) * math.cos(p2))
                    worst = max(worst, abs(fd - exact))
            return worst

        e1, e2 = max_fd_error(0.08), max_fd_error(0.04)
        assert 2.5 <= e1 / e2 <= 5.5


class TestValuePartialsMatch:
    def test_shared_symmetric_value(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert value_partials_match(game, grid_step=0.05, tol=1e-6)

    def test_mismatched_values(self):
        game = CgpInstance(
            benefit_weight=(1.0, 1.0),
            privacy_weight=(1.0, 1.0),
            value_fn=lambda p1, p2: (-p1**2, -2.0 * p2**2),
            standalone_values=(0.0, 0.0),
            privacy_loss_fn=lambda p: 1.0 - p,
            benefit_fn=lambda standalone, coop: coop - standalone,
        )
        assert not value_partials_match(game, grid_step=0.05, tol=1e-6)

    def test_separable_common_shape(self):
        game = CgpInstance(
            benefit_weight=(1.0, 1.0),
            privacy_weight=(1.0, 1.0),
            value_fn=lambda p1, p2: (-p1**3, -p2**3),
            standalone_values=(0.0, 0.0),
            privacy_loss_fn=lambda p: 1.0 - p,
            benefit_fn=lambda standalone, coop: coop - standalone,
        )
        assert value_partials_match(game, grid_step=0.05, tol=1e-6)


class TestBestResponse:
    def test_interior_argmax(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert best_response(game, 0, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_clamped_high(self):
        game = make_binary_sums_cgp((1.0, 1.0), (1.0, 1.0))
        assert best_response(game, 0, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_clamped_low(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert best_response(game, 0, 0.8) == pytest.approx(0.0, abs=1e-9)

    def test_scale_invariance(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        scaled = make_binary_sums_cgp((14.0, 14.0), (7.0, 7.0))
        for opp in (0.0, 0.2, 0.45):
            assert best_response(game, 1, opp) == pytest.approx(
                best_response(scaled, 1, opp), abs=1e-9
            )

    def test_tie_breaks_to_smaller_p(self):
        assert best_response(constant_game(), 0, 0.3) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
           x=st.floats(0.0, 1.0), p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
    def test_swapping_the_weights_swaps_the_players(self, weights, x, p1, p2):
        # Swapping both weight pairs relabels the players, exactly.
        b1, b2, c1, c2 = weights
        game = make_binary_sums_cgp((b1, b2), (c1, c2))
        swapped = make_binary_sums_cgp((b2, b1), (c2, c1))
        for player in (0, 1):
            assert best_response(swapped, player, x) == best_response(game, 1 - player, x)
        u1, u2 = utility(game, StrategyProfile((p1, p2)))
        assert utility(swapped, StrategyProfile((p2, p1))) == (u2, u1)


class TestFindNash:
    def test_from_origin(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        res = find_nash(game, StrategyProfile((0.0, 0.0)))
        assert res.converged
        assert sum(res.profile.p) == pytest.approx(0.5, abs=1e-6)
        assert res.max_gain <= 1e-6

    def test_stationary_start_is_fixed_point(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        res = find_nash(game, StrategyProfile((0.25, 0.25)))
        assert res.converged
        assert res.sweeps == 1
        assert res.profile.p == pytest.approx((0.25, 0.25), abs=1e-9)

    def test_constant_game_converges_immediately(self):
        res = find_nash(constant_game(), StrategyProfile((0.7, 0.3)))
        assert res.converged
        assert res.sweeps == 1
        assert res.max_gain <= 1e-12

    def test_equilibrium_line_from_many_starts(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        rng = np.random.default_rng(3)
        for _ in range(10):
            start = StrategyProfile(tuple(rng.random(2)))
            res = find_nash(game, start, tol=1e-8)
            assert res.converged
            assert abs(sum(res.profile.p) - 0.5) <= 10 * 1e-8
            assert res.max_gain <= 1e-6

    def test_wavy_potential_game_reaches_equilibrium(self):
        game = wavy_game()
        res = find_nash(game, StrategyProfile((0.9, 0.1)))
        assert res.converged
        assert res.max_gain <= 1e-6


class TestBinarySumsConstruction:
    def test_privacy_loss_endpoints(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert game.privacy_loss_fn(0.0) == 1.0
        assert game.privacy_loss_fn(1.0) == 0.0

    def test_cooperation_beats_standalone_at_origin(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert game.value_fn(0.0, 0.0)[0] > game.standalone_values[0]

    def test_definitional_checks(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        violations = check_definitions(game, grid_step=0.1)
        # The signed value-gap benefit violates the nonnegativity clause on
        # the high-privacy region; everything else holds.
        assert len(violations) == 2
        assert all("benefit" in v for v in violations)

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            make_binary_sums_cgp((0.0, 1.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            make_binary_sums_cgp((1.0, 1.0), (1.0, -1.0))

    # grid_step 1e-200 used to build a grid of 1e200 points and never return;
    # 10**400 made float() raise OverflowError.
    @pytest.mark.parametrize("kwargs", [{"grid_step": -0.01}, {"tol": -1e-8},
                                        {"tol": math.inf}, {"grid_step": 0.0},
                                        {"grid_step": 1e-200}, {"grid_step": 10**400},
                                        {"tol": 10**400}, {"scan_step": 10**400},
                                        {"max_iters": 2.5}, {"max_iters": 0}])
    def test_find_nash_parameters_checked(self, kwargs):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
            find_nash(game, StrategyProfile((0.2, 0.2)), **kwargs)

    def test_instance_integer_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="benefit_weight"):
            make_binary_sums_cgp((10**400, 1.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="p holds"):
            StrategyProfile((10**400, 0.0))

    @pytest.mark.parametrize("standalone", [(-0.5,), (-0.5, -0.5, -0.5), ()])
    def test_standalone_values_are_two(self, standalone):
        # One value used to be accepted, and player 2's utility then raised a
        # bare IndexError.
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="standalone_values must be two"):
            CgpInstance(game.benefit_weight, game.privacy_weight, game.value_fn, standalone,
                        game.privacy_loss_fn, game.benefit_fn)

    @pytest.mark.parametrize("loss, want", [(lambda p: 0.5 - p, 1.0), (lambda p: 1.0 - p / 2, 0.0)],
                             ids=["at-0", "at-1"])
    def test_privacy_loss_must_run_from_1_to_0(self, loss, want):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match=f"privacy loss must be {want}"):
            CgpInstance(game.benefit_weight, game.privacy_weight, game.value_fn,
                        game.standalone_values, loss, game.benefit_fn)

    def test_infinite_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_binary_sums_cgp((math.inf, 1.0), (1.0, 1.0))

    def test_profile_bounds(self):
        with pytest.raises(InvalidParameterError):
            StrategyProfile((1.2, 0.0))


class TestUnilateralGain:
    def test_off_equilibrium_profile_has_gain(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        gain = max_unilateral_gain(game, StrategyProfile((0.9, 0.9)))
        assert gain > 0.1


class TestStepArguments:
    # Each of these used to hang in _interior_grid (grid_step <= 0), raise a
    # bare ZeroDivisionError (a zero step), or quietly scan 2 points (a
    # negative step).
    @pytest.mark.parametrize("call, name", [
        (lambda g: is_potential_game(g, grid_step=0.0), "grid_step"),
        (lambda g: is_potential_game(g, grid_step=-0.01), "grid_step"),
        (lambda g: is_potential_game(g, grid_step=1e-3), "grid_step"),
        (lambda g: is_potential_game(g, grid_step=math.nan), "grid_step"),
        (lambda g: value_partials_match(g, grid_step=-1.0), "grid_step"),
        (lambda g: value_partials_match(g, grid_step=0.0), "grid_step"),
        (lambda g: check_definitions(g, grid_step=0.0), "grid_step"),
        (lambda g: check_definitions(g, grid_step=-0.1), "grid_step"),
        (lambda g: best_response(g, 0, 0.2, grid_step=0.0), "grid_step"),
        (lambda g: best_response(g, 0, 0.2, grid_step=-0.01), "grid_step"),
        (lambda g: best_response(g, 0, 0.2, grid_step=math.inf), "grid_step"),
        (lambda g: best_response(g, 0, 0.2, grid_step=10**400), "grid_step"),
        (lambda g: max_unilateral_gain(g, StrategyProfile((0.2, 0.2)), step=0.0), "step"),
        (lambda g: max_unilateral_gain(g, StrategyProfile((0.2, 0.2)), step=-1e-3), "step"),
        (lambda g: max_unilateral_gain(g, StrategyProfile((0.2, 0.2)), step=1e-7), "step"),
        (lambda g: find_nash(g, StrategyProfile((0.2, 0.2)), scan_step=0.0), "scan_step"),
        (lambda g: find_nash(g, StrategyProfile((0.2, 0.2)), scan_step=-1e-3), "scan_step"),
        # tol = nan made value_partials_match pass any game, and nan or a
        # negative tol made is_potential_game fail a potential game.
        (lambda g: is_potential_game(g, tol=math.nan), "tol"),
        (lambda g: is_potential_game(g, tol=-1e-6), "tol"),
        (lambda g: is_potential_game(g, tol=math.inf), "tol"),
        (lambda g: value_partials_match(g, tol=math.nan), "tol"),
        (lambda g: value_partials_match(g, tol=-1e-6), "tol"),
        (lambda g: value_partials_match(g, tol=math.inf), "tol"),
    ], ids=["potential-0", "potential-neg", "potential-floor", "potential-nan",
            "partials-neg", "partials-0", "definitions-0", "definitions-neg",
            "br-0", "br-neg", "br-inf", "br-huge", "gain-0", "gain-neg", "gain-floor",
            "nash-scan-0", "nash-scan-neg", "potential-tol-nan", "potential-tol-neg",
            "potential-tol-inf", "partials-tol-nan", "partials-tol-neg", "partials-tol-inf"])
    def test_bad_step_rejected(self, call, name):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match=name):
            call(game)

    @pytest.mark.parametrize("player", [True, False])
    def test_bool_player_rejected(self, player):
        # True == 1, so player=True used to return player 1's best response.
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="player"):
            best_response(game, player, 0.2)

    @pytest.mark.parametrize("player", [0.0, 1.0])
    def test_integral_float_player_rejected(self, player):
        # 1.0 in (0, 1) holds, so player=1.0 used to index the weights and
        # raise a bare TypeError.
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="^player must be 0 or 1$"):
            best_response(game, player, 0.2)
        assert best_response(game, np.int64(1), 0.2) == best_response(game, 1, 0.2)

    @pytest.mark.parametrize("opponent", [-0.1, 1.5, math.nan, 10**400],
                             ids=["negative", "above-1", "nan", "huge"])
    def test_opponent_level_checked(self, opponent):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="opponent_p"):
            best_response(game, 0, opponent)

    def test_steps_above_the_floor_accepted(self):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        assert best_response(game, 0, 0.0, grid_step=1e-5) == pytest.approx(0.5, abs=1e-9)
        assert max_unilateral_gain(game, StrategyProfile((0.25, 0.25)), step=2.0) == 0.0
        assert is_potential_game(game, grid_step=0.25)[0]


# The solvers as they were before they evaluated one payoff on raw floats:
# every evaluation built a StrategyProfile and computed both players'
# utilities, and find_nash recomputed both best responses for its residual.
# Kept verbatim (names prefixed) as oracles for the new functions.

def _reference_utility(instance: CgpInstance, profile: StrategyProfile) -> tuple:
    """Evaluate both players' utilities at the given profile."""
    p1, p2 = profile.p
    coop = instance.value_fn(p1, p2)
    out = []
    for n in range(2):
        u = instance.benefit_weight[n] * instance.benefit_fn(
            instance.standalone_values[n], coop[n]
        ) - instance.privacy_weight[n] * instance.privacy_loss_fn(profile.p[n])
        if not math.isfinite(u):
            raise EvaluationError(f"utility of player {n + 1} is not finite at {profile.p}")
        out.append(u)
    return tuple(out)


def _reference_u(instance: CgpInstance, n: int, p1: float, p2: float) -> float:
    return _reference_utility(instance, StrategyProfile((p1, p2)))[n]


def _reference_is_potential_game(instance: CgpInstance, grid_step: float = 0.05, tol: float = 1e-6):
    h = grid_step / 2.0
    pts = _interior_grid(grid_step, h)
    if len(pts) < 3:
        raise InvalidParameterError("grid_step leaves fewer than 3 interior points")
    max_dev = 0.0
    for p1 in pts:
        for p2 in pts:
            cross = []
            for n in range(2):
                d = (
                    _reference_u(instance, n, p1 + h, p2 + h)
                    - _reference_u(instance, n, p1 + h, p2 - h)
                    - _reference_u(instance, n, p1 - h, p2 + h)
                    + _reference_u(instance, n, p1 - h, p2 - h)
                ) / (4.0 * h * h)
                cross.append(d)
            max_dev = max(max_dev, abs(cross[0] - cross[1]))
    return max_dev <= tol, max_dev


def _reference_best_response(instance: CgpInstance, player: int, opponent_p: float,
                             grid_step: float = 0.01) -> float:
    if player not in (0, 1):
        raise InvalidParameterError("player must be 0 or 1")

    def f(p_own: float) -> float:
        pair = (p_own, opponent_p) if player == 0 else (opponent_p, p_own)
        return _reference_u(instance, player, *pair)

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


def _reference_max_unilateral_gain(instance: CgpInstance, profile: StrategyProfile,
                                   step: float = 1e-3) -> float:
    base = _reference_utility(instance, profile)
    n_cells = max(1, round(1.0 / step))
    gain = 0.0
    for player in range(2):
        for i in range(n_cells + 1):
            p = i / n_cells
            pair = (p, profile.p[1]) if player == 0 else (profile.p[0], p)
            gain = max(gain, _reference_u(instance, player, *pair) - base[player])
    return gain


def _reference_find_nash(instance: CgpInstance, start: StrategyProfile, max_iters: int = 100,
                         tol: float = 1e-8, grid_step: float = 0.01,
                         scan_step: float = 1e-3) -> NashResult:
    grid_step = require_float("grid_step", grid_step)
    tol = require_float("tol", tol)
    scan_step = require_float("scan_step", scan_step)
    # Each best response scans about 1/grid_step points.
    for name, value, low in (("grid_step", grid_step, 1e-6), ("tol", tol, 0)):
        if not low < value < math.inf:
            raise InvalidParameterError(f"{name} must be finite and > {low}, got {value}")
    p1, p2 = start.p
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        p1 = _reference_best_response(instance, 0, p2, grid_step)
        p2 = _reference_best_response(instance, 1, p1, grid_step)
        residual = max(
            abs(_reference_best_response(instance, 0, p2, grid_step) - p1),
            abs(_reference_best_response(instance, 1, p1, grid_step) - p2),
        )
        if residual <= tol:
            converged = True
            break
    profile = StrategyProfile((p1, p2))
    return NashResult(profile, converged, sweeps,
                      _reference_max_unilateral_gain(instance, profile, scan_step))


ORACLE_GAMES = {
    "symmetric": make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0)),
    "uneven": make_binary_sums_cgp((1.0, 2.0), (1.0, 1.0)),
    "asymmetric": make_binary_sums_cgp((2.0, 1.5), (1.0, 0.5)),
    "wavy": wavy_game(),
    "constant": constant_game(),
}
ORACLE_STARTS = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.25, 0.25)] + [
    tuple(float(v) for v in pair) for pair in np.random.default_rng(11).random((10, 2))
]
NASH_OPTIONS = {
    "default": {},
    "coarse-3": {"grid_step": 0.03, "max_iters": 3},
    "tol-1e-3": {"tol": 1e-3},
    "one-sweep": {"max_iters": 1},
}


class TestAgainstReference:
    """The raw-float solvers give exactly (==) what the old solvers gave."""

    @pytest.mark.parametrize("options", NASH_OPTIONS.values(), ids=NASH_OPTIONS.keys())
    @pytest.mark.parametrize("game", ORACLE_GAMES.values(), ids=ORACLE_GAMES.keys())
    def test_find_nash(self, game, options):
        for start in ORACLE_STARTS:
            want = _reference_find_nash(game, StrategyProfile(start), **options)
            assert find_nash(game, StrategyProfile(start), **options) == want

    @pytest.mark.parametrize("game", ORACLE_GAMES.values(), ids=ORACLE_GAMES.keys())
    def test_utility_best_response_and_gain(self, game):
        for p1, p2 in ORACLE_STARTS:
            profile = StrategyProfile((p1, p2))
            assert utility(game, profile) == _reference_utility(game, profile)
            for player in (0, 1):
                for grid_step in (0.01, 0.07):
                    assert (best_response(game, player, p2, grid_step)
                            == _reference_best_response(game, player, p2, grid_step))
            assert (max_unilateral_gain(game, profile, step=0.01)
                    == _reference_max_unilateral_gain(game, profile, step=0.01))

    @pytest.mark.parametrize("grid_step", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("game", ORACLE_GAMES.values(), ids=ORACLE_GAMES.keys())
    def test_is_potential_game(self, game, grid_step):
        assert (is_potential_game(game, grid_step=grid_step)
                == _reference_is_potential_game(game, grid_step=grid_step))

    @settings(max_examples=40, deadline=None)
    @given(
        benefit=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        privacy=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        max_iters=st.integers(1, 6),
    )
    def test_binary_sums_property(self, benefit, privacy, start, max_iters):
        game = make_binary_sums_cgp(benefit, privacy)
        got = find_nash(game, StrategyProfile(start), max_iters=max_iters, scan_step=0.01)
        want = _reference_find_nash(game, StrategyProfile(start), max_iters=max_iters,
                                    scan_step=0.01)
        assert got == want

    def test_nonfinite_utility_message_kept(self):
        game = CgpInstance(
            benefit_weight=(1.0, 1.0),
            privacy_weight=(1.0, 1.0),
            value_fn=lambda p1, p2: (0.0, math.inf if p2 > 0.5 else 0.0),
            standalone_values=(0.0, 0.0),
            privacy_loss_fn=lambda p: 1.0 - p,
            benefit_fn=lambda standalone, coop: coop,
        )
        with pytest.raises(EvaluationError) as want:
            _reference_utility(game, StrategyProfile((0.25, 0.75)))
        with pytest.raises(EvaluationError) as got:
            utility(game, StrategyProfile((0.25, 0.75)))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("game", ORACLE_GAMES.values(), ids=ORACLE_GAMES.keys())
def test_find_nash_makes_two_best_responses_per_sweep(game):
    # One to start, then BR(1, p1) and BR(0, p2) per sweep; the residual
    # reuses them instead of computing two more.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return best_response(*args, **kwargs)

    with mock.patch.object(cgp, "best_response", counting):
        for options in NASH_OPTIONS.values():
            for start in ORACLE_STARTS[:5]:
                calls.clear()
                res = find_nash(game, StrategyProfile(start), **options)
                assert len(calls) == 2 * res.sweeps + 1
                assert calls == [0] + [1, 0] * res.sweeps
