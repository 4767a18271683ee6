import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import integrate

from dpcomm import (
    CalibrationInfeasibleError,
    CompositionOrderError,
    InfeasibleOrderError,
    InvalidParameterError,
    MechanismParams,
    PrivacyBudget,
    RdpPoint,
    calibrate_episode,
    calibrate_step,
    compose,
    gaussian_rdp,
    rdp_to_dp,
    round_trip,
    subsampled_gaussian_rdp,
)
from dpcomm.accountant import (
    BETA_GRID,
    MIN_SIGMA_PRIME_SQ,
    episode_noise_variance,
    order_for_beta,
    step_noise_variance,
)

DELTA = 1e-4


def renyi_divergence_quadrature(shift, sigma, alpha):
    """Independent oracle: D_alpha(N(0, s^2) || N(shift, s^2)) by quadrature."""

    def integrand(x):
        logp = -x**2 / (2 * sigma**2)
        logq = -((x - shift) ** 2) / (2 * sigma**2)
        return math.exp(alpha * logp + (1 - alpha) * logq) / (sigma * math.sqrt(2 * math.pi))

    value, _ = integrate.quad(integrand, -np.inf, np.inf)
    return math.log(value) / (alpha - 1)


class TestGaussianRdp:
    @pytest.mark.parametrize("sens,sigma,alpha,rho", [
        (1.0, 1.0, 2.0, 1.0),
        (2.0, 2.0, 3.0, 1.5),
        (2.0, 4.0, 2.0, 0.25),
    ])
    def test_formula(self, sens, sigma, alpha, rho):
        point = gaussian_rdp(sens, sigma, alpha)
        assert point.alpha == alpha
        assert point.rho == pytest.approx(rho, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_matches_quadrature(self, alpha):
        for sens, sigma in [(1.0, 1.0), (2.0, 4.0), (0.5, 1.5)]:
            expected = renyi_divergence_quadrature(sens, sigma, alpha)
            got = gaussian_rdp(sens, sigma, alpha).rho
            assert got == pytest.approx(expected, rel=1e-6)

    def test_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            gaussian_rdp(0.0, 1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            gaussian_rdp(1.0, -1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            gaussian_rdp(1.0, 1.0, 1.0)


class TestSubsampledGaussianRdp:
    def test_formula(self):
        point = subsampled_gaussian_rdp(2.0, 2.0, 2.0, 0.01)
        assert point.rho == pytest.approx(3.5 * 1e-4 * 4 * 2 / 4, rel=1e-12)

    def test_infeasible_order(self):
        # gamma = 0.9 makes the log argument fall below 1: bound < alpha.
        with pytest.raises(InfeasibleOrderError, match="bound"):
            subsampled_gaussian_rdp(1.0, 1.0, 2.0, 0.9)

    def test_low_noise_rejected(self):
        with pytest.raises(InfeasibleOrderError, match="sigma"):
            subsampled_gaussian_rdp(2.0, 1.0, 2.0, 0.01)

    def test_quadratic_in_gamma(self):
        hi = subsampled_gaussian_rdp(2.0, 2.0, 2.0, 0.02).rho
        lo = subsampled_gaussian_rdp(2.0, 2.0, 2.0, 0.01).rho
        assert hi / lo == pytest.approx(4.0, rel=1e-12)


class TestCompose:
    def test_pair(self):
        out = compose([RdpPoint(2, 0.1), RdpPoint(2, 0.3)])
        assert out == RdpPoint(2, 0.4)

    def test_identity(self):
        assert compose([RdpPoint(3, 0.0)]) == RdpPoint(3, 0.0)

    def test_forty_copies(self):
        assert compose([RdpPoint(2, 0.01)] * 40).rho == 0.4

    def test_mismatched_alpha(self):
        with pytest.raises(CompositionOrderError):
            compose([RdpPoint(2, 0.1), RdpPoint(3, 0.1)])
        with pytest.raises(CompositionOrderError):
            compose([])

    def test_partition_additivity_dyadic(self):
        # Dyadic rhos have exactly representable sums, so any split composes
        # to the identical float.
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            rhos = rng.integers(0, 2**20, size=n) / 2**20
            pts = [RdpPoint(2.0, float(r)) for r in rhos]
            k = int(rng.integers(1, n))
            whole = compose(pts)
            nested = compose([compose(pts[:k]), compose(pts[k:])])
            assert whole.rho == nested.rho

    def test_partition_additivity_general(self):
        # Arbitrary floats: exact up to one rounding of the partial sums.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            pts = [RdpPoint(2.0, float(r)) for r in rng.random(n)]
            k = int(rng.integers(1, n))
            whole = compose(pts).rho
            nested = compose([compose(pts[:k]), compose(pts[k:])]).rho
            assert nested == pytest.approx(whole, rel=5e-16, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        rhos=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40),
        dyadic=st.booleans(),
        data=st.data(),
    )
    def test_partition_invariance_property(self, rhos, dyadic, data):
        # Any order and any partition into consecutive parts. fsum is exact, so
        # order never matters; each part's sum is rounded once and then the
        # parts' sum once more, so nested composition is within 2 units of
        # rounding, and exact when every partial sum is representable.
        if dyadic:
            rhos = [math.floor(r * 2**20) / 2**20 for r in rhos]
        pts = [RdpPoint(2.0, r) for r in rhos]
        whole = compose(pts).rho
        order = data.draw(st.permutations(range(len(pts))))
        assert compose([pts[i] for i in order]).rho == whole
        cuts = sorted(data.draw(st.sets(st.integers(1, len(pts) - 1), max_size=len(pts) - 1))
                      if len(pts) > 1 else [])
        bounds = [0, *cuts, len(pts)]
        nested = compose([compose(pts[a:b]) for a, b in zip(bounds, bounds[1:])]).rho
        event(f"{len(bounds) - 1} parts" if len(bounds) < 5 else "5+ parts")
        if dyadic:
            assert nested == whole
        else:
            assert nested == pytest.approx(whole, rel=5e-16, abs=0.0)


class TestRdpToDp:
    def test_examples(self):
        out = rdp_to_dp(RdpPoint(11, 0.05), 1e-5)
        assert out.epsilon == pytest.approx(0.05 + math.log(1e5) / 10, rel=1e-12)
        assert out.epsilon == pytest.approx(1.20129, abs=5e-6)
        out = rdp_to_dp(RdpPoint(2, 1.0), 1e-4)
        assert out.epsilon == pytest.approx(1.0 + math.log(1e4), rel=1e-12)
        assert out.delta == 1e-4

    def test_large_alpha_limit(self):
        # rho = 0 and alpha -> inf drive epsilon to 0.
        eps = [rdp_to_dp(RdpPoint(a, 0.0), 1e-5).epsilon for a in (1e3, 1e6, 1e9)]
        assert eps[0] > eps[1] > eps[2]
        assert eps[2] < 1e-7

    def test_bad_delta(self):
        with pytest.raises(InvalidParameterError):
            rdp_to_dp(RdpPoint(2, 0.1), 0.0)
        with pytest.raises(InvalidParameterError):
            rdp_to_dp(RdpPoint(2, 0.1), 1.0)


FEASIBLE_PARAMS = MechanismParams(
    clip_norm=1.0, sample_rate_data=0.005, sample_rate_agents=0.5, num_agents=500
)
FEASIBLE_BUDGET = PrivacyBudget(2.0, DELTA)


def rescan_oracle(budget, params, episode_len=1):
    """Independent re-derivation of the calibration search from raw formulas."""
    best = None
    for beta in BETA_GRID:
        alpha = math.log(1 / budget.delta) / (budget.epsilon * (1 - beta)) + 1
        k = math.ceil(params.sample_rate_agents * params.num_agents)
        sigma_sq = (
            14 * k * params.sample_rate_data**2 * params.clip_norm**2 * alpha
            / (beta * budget.epsilon) * episode_len
        )
        sp2 = sigma_sq / (4 * params.clip_norm**2)
        if sp2 < MIN_SIGMA_PRIME_SQ:
            continue
        arg = 1 / (params.sample_rate_data * alpha * (1 + sp2))
        if alpha > 2 * sp2 * math.log(arg) / 3 + 1:
            continue
        if best is None or sigma_sq < best[0]:
            best = (sigma_sq, alpha, beta)
    return best


class TestCalibrateStep:
    def test_matches_rescan_oracle(self):
        result = calibrate_step(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        oracle = rescan_oracle(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        assert oracle is not None
        assert result.sigma_sq == pytest.approx(oracle[0], rel=1e-12)
        assert result.alpha == pytest.approx(oracle[1], rel=1e-12)
        assert result.beta == oracle[2]
        assert result.feasible

    def test_constraints_hold(self):
        result = calibrate_step(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        assert result.sigma_prime_sq == pytest.approx(
            result.sigma_sq / (4 * FEASIBLE_PARAMS.clip_norm**2), rel=1e-15
        )
        assert result.sigma_prime_sq >= MIN_SIGMA_PRIME_SQ
        assert result.alpha == pytest.approx(
            order_for_beta(FEASIBLE_BUDGET, result.beta), rel=1e-15
        )

    def test_round_trip_epsilon(self):
        result = calibrate_step(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        back = round_trip(result, FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        assert back.epsilon <= FEASIBLE_BUDGET.epsilon * (1 + 1e-9)
        assert back.delta == FEASIBLE_BUDGET.delta

    def test_tighter_budget_needs_more_noise(self):
        loose = calibrate_step(PrivacyBudget(4.0, DELTA), FEASIBLE_PARAMS)
        tight = calibrate_step(PrivacyBudget(2.0, DELTA), FEASIBLE_PARAMS)
        assert tight.sigma_sq > loose.sigma_sq

    def test_infeasible_grid_reports_constraint(self):
        # Large data-sampling rate: the order bound fails for every beta.
        params = MechanismParams(1.0, 0.5, 0.5, 3)
        with pytest.raises(CalibrationInfeasibleError, match="alpha <= order bound"):
            calibrate_step(PrivacyBudget(1.0, DELTA), params)

    def test_infeasible_extreme_corner(self):
        params = MechanismParams(1.0, 0.99, 0.5, 1000)
        with pytest.raises(CalibrationInfeasibleError):
            calibrate_step(PrivacyBudget(0.001, DELTA), params)

    def test_monotone_in_epsilon(self):
        sigmas = [
            calibrate_step(PrivacyBudget(eps, DELTA), FEASIBLE_PARAMS).sigma_sq
            for eps in (2.0, 3.0, 4.0)
        ]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_monotone_in_clip_norm(self):
        sigmas = []
        for clip_norm in (0.5, 1.0, 2.0):
            params = MechanismParams(clip_norm, 0.005, 0.5, 500)
            sigmas.append(calibrate_step(FEASIBLE_BUDGET, params).sigma_sq)
        assert sigmas == sorted(sigmas)
        # sigma^2 scales as C^2 exactly (feasibility does not depend on C)
        assert sigmas[2] / sigmas[0] == pytest.approx(16.0, rel=1e-12)

    def test_monotone_formula_at_pinned_witness(self):
        # At fixed (alpha, beta) the variance formula is monotone in each of
        # gamma1, gamma2, N, C. (The minimized sigma^2 is not: growing
        # subsampling noise can unlock larger-beta candidates; see ledger.)
        result = calibrate_step(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        base = step_noise_variance(FEASIBLE_PARAMS, FEASIBLE_BUDGET, result.alpha, result.beta)
        for field, values in [
            ("sample_rate_data", (0.006, 0.008)),
            ("sample_rate_agents", (0.6, 0.7)),
            ("num_agents", (600, 700)),
            ("clip_norm", (1.5, 2.0)),
        ]:
            prev = base
            for v in values:
                kwargs = dict(
                    clip_norm=1.0, sample_rate_data=0.005,
                    sample_rate_agents=0.5, num_agents=500,
                )
                kwargs[field] = v
                cur = step_noise_variance(
                    MechanismParams(**kwargs), FEASIBLE_BUDGET, result.alpha, result.beta
                )
                assert cur >= prev
                prev = cur


class TestCalibrateEpisode:
    def test_t1_equals_step(self):
        step = calibrate_step(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        episode = calibrate_episode(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        assert episode == step

    def test_variance_scales_linearly_in_t(self):
        result = calibrate_step(FEASIBLE_BUDGET, FEASIBLE_PARAMS)
        p40 = MechanismParams(1.0, 0.005, 0.5, 500, episode_len=40)
        s1 = step_noise_variance(FEASIBLE_PARAMS, FEASIBLE_BUDGET, result.alpha, result.beta)
        s40 = episode_noise_variance(p40, FEASIBLE_BUDGET, result.alpha, result.beta)
        assert s40 / s1 == pytest.approx(40.0, abs=1e-12)

    def test_episode_round_trip(self):
        params = MechanismParams(1.0, 0.005, 0.5, 500, episode_len=40)
        result = calibrate_episode(FEASIBLE_BUDGET, params)
        back = round_trip(result, FEASIBLE_BUDGET, params, episode=True)
        assert back.epsilon <= FEASIBLE_BUDGET.epsilon * (1 + 1e-9)


@settings(max_examples=500, deadline=None)
@given(
    epsilon=st.floats(0.5, 20.0),
    delta_exp=st.floats(-10.0, -1.0),
    gamma1_exp=st.floats(-3.3, -1.3),
    gamma2=st.floats(0.01, 0.99),
    num_agents=st.integers(1, 1000),
    clip_norm=st.floats(1e-3, 1e3),
    episode_len=st.integers(1, 50),
)
def test_round_trip_never_exceeds_the_budget(epsilon, delta_exp, gamma1_exp, gamma2, num_agents,
                                             clip_norm, episode_len):
    # Random draws over the grid that test_criterion_4 pins: a feasible
    # calibration re-derives epsilon' <= epsilon; any other draw must be
    # reported as infeasible, never as some other failure.
    budget = PrivacyBudget(epsilon, 10.0**delta_exp)
    params = MechanismParams(clip_norm, 10.0**gamma1_exp, gamma2, num_agents, episode_len)
    episode = episode_len > 1
    try:
        result = (calibrate_episode if episode else calibrate_step)(budget, params)
    except CalibrationInfeasibleError:
        event("infeasible")
        return
    event("feasible")
    assert result.feasible
    assert round_trip(result, budget, params, episode=episode).epsilon <= epsilon + 1e-9


def _composed_round_trip(result, budget, params, episode=False):
    """round_trip as it was: the copies listed and composed one by one."""
    point = subsampled_gaussian_rdp(
        params.sensitivity, math.sqrt(result.sigma_sq), result.alpha, params.sample_rate_data)
    copies = params.compose_copies * (params.episode_len if episode else 1)
    return rdp_to_dp(compose([point] * copies), budget.delta)


class TestRoundTripComposition:
    @settings(max_examples=300, deadline=None)
    @given(rho=st.floats(1e-12, 1e3), copies=st.integers(1, 5000))
    def test_scaled_rho_is_the_exact_sum(self, rho, copies):
        assert copies * rho == compose([RdpPoint(2.0, rho)] * copies).rho

    @settings(max_examples=100, deadline=None)
    @given(gamma2=st.floats(0.01, 0.99), num_agents=st.integers(1, 1000),
           episode_len=st.integers(1, 40))
    def test_equals_composed_copies(self, gamma2, num_agents, episode_len):
        params = MechanismParams(1.0, 0.005, gamma2, num_agents, episode_len)
        for episode, calibrate in ((False, calibrate_step), (True, calibrate_episode)):
            try:
                result = calibrate(FEASIBLE_BUDGET, params)
            except CalibrationInfeasibleError:
                continue
            assert round_trip(result, FEASIBLE_BUDGET, params, episode=episode) == \
                _composed_round_trip(result, FEASIBLE_BUDGET, params, episode=episode)

    def test_large_population(self):
        # 2e6 composed copies, which round_trip no longer lists.
        params = MechanismParams(1.0, 1e-4, 0.5, 4_000_000)
        result = calibrate_step(FEASIBLE_BUDGET, params)
        assert round_trip(result, FEASIBLE_BUDGET, params) == \
            _composed_round_trip(result, FEASIBLE_BUDGET, params)


class TestValidation:
    def test_budget_ranges(self):
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(0.0, 1e-4)
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(1.0, 1.0)

    def test_epsilon_beyond_float_range_rejected(self):
        # calibrate_step used to raise a bare OverflowError on this budget.
        with pytest.raises(InvalidParameterError, match="epsilon"):
            PrivacyBudget(10**400, 1e-4)

    def test_budget_stores_the_floats_it_checked(self):
        # A string epsilon used to be stored as given, and calibrate_step then
        # raised a bare TypeError.
        budget = PrivacyBudget("2.0", "1e-5")
        assert (budget.epsilon, budget.delta) == (2.0, 1e-5)
        assert type(budget.epsilon) is float and type(budget.delta) is float
        assert calibrate_step(budget, FEASIBLE_PARAMS) == \
            calibrate_step(PrivacyBudget(2.0, 1e-5), FEASIBLE_PARAMS)

    def test_params_ranges(self):
        with pytest.raises(InvalidParameterError):
            MechanismParams(0.0, 0.5, 0.5, 3)
        with pytest.raises(InvalidParameterError):
            MechanismParams(1.0, 1.5, 0.5, 3)
        with pytest.raises(InvalidParameterError):
            MechanismParams(1.0, 0.5, 0.5, 0)

    def test_infinite_clip_norm_rejected(self):
        # It used to calibrate to feasible=True with sigma_sq = inf.
        with pytest.raises(InvalidParameterError, match="clip_norm"):
            calibrate_step(FEASIBLE_BUDGET, MechanismParams(math.inf, 0.005, 0.5, 500))

    @pytest.mark.parametrize("kwargs", [{"num_agents": True}, {"num_agents": 3.0},
                                        {"episode_len": 1.5}, {"episode_len": 0}])
    def test_counts_must_be_integers(self, kwargs):
        with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
            MechanismParams(**{**dict(clip_norm=1.0, sample_rate_data=0.5,
                                      sample_rate_agents=0.5, num_agents=3), **kwargs})

    @pytest.mark.parametrize("clip_norm", [1e200, 1e-200])
    def test_clip_norm_square_must_be_a_positive_float(self, clip_norm):
        # C^2 overflowed (OverflowError) or underflowed to 0 (ZeroDivisionError).
        with pytest.raises(InvalidParameterError, match="clip_norm"):
            MechanismParams(clip_norm, 0.005, 0.5, 500)

    def test_count_beyond_float_precision_rejected(self):
        # A 401-digit N used to overflow in compose_copies.
        with pytest.raises(InvalidParameterError, match="num_agents must be at most 2"):
            MechanismParams(1.0, 0.005, 0.5, 10**400)
        with pytest.raises(InvalidParameterError, match="num_agents"):
            MechanismParams(1.0, 0.005, 0.5, 2**53 + 1)
        assert MechanismParams(1.0, 0.005, 0.5, 2**53).num_agents == 2**53

    def test_compose_copies_rounds_up(self):
        assert MechanismParams(1.0, 0.5, 0.5, 3).compose_copies == 2
        assert MechanismParams(1.0, 0.5, 0.5, 4).compose_copies == 2

    def test_rdp_point_ranges(self):
        with pytest.raises(InvalidParameterError):
            RdpPoint(1.0, 0.1)
        with pytest.raises(InvalidParameterError):
            RdpPoint(2.0, -0.1)
        with pytest.raises(InvalidParameterError):
            RdpPoint(2.0, math.inf)
