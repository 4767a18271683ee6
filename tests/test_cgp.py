import math

import numpy as np
import pytest

from dpcomm import (
    CgpInstance,
    EvaluationError,
    InvalidParameterError,
    StrategyProfile,
    best_response,
    find_nash,
    is_potential_game,
    make_binary_sums_cgp,
    max_unilateral_gain,
    utility,
    value_partials_match,
)
from dpcomm.cgp import check_definitions


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

    # grid_step 1e-200 used to build a grid of 1e200 points and never return.
    @pytest.mark.parametrize("kwargs", [{"grid_step": -0.01}, {"tol": -1e-8},
                                        {"tol": math.inf}, {"grid_step": 0.0},
                                        {"grid_step": 1e-200}])
    def test_find_nash_parameters_checked(self, kwargs):
        game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
            find_nash(game, StrategyProfile((0.2, 0.2)), **kwargs)

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
