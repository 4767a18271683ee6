import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln, logsumexp

from dpcomm import errors
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

    @pytest.mark.parametrize("name,args", [
        ("sensitivity", (None, 1.0, 2.0)), ("sigma", (2.0, "abc", 2.0)),
        ("alpha", (2.0, 1.0, [2.0])),
    ])
    def test_non_numbers_rejected(self, name, args):
        # Each used to raise a bare TypeError or ValueError.
        with pytest.raises(InvalidParameterError, match=name):
            gaussian_rdp(*args)

    def test_string_numbers_convert(self):
        # "2" used to reach the range check and raise a bare TypeError.
        assert gaussian_rdp("2", "2", "3") == gaussian_rdp(2.0, 2.0, 3.0)
        assert type(gaussian_rdp("2", "2", "3").alpha) is float

    def test_sigma_square_underflow_rejected(self):
        # sigma^2 underflows to 0, which used to raise ZeroDivisionError.
        with pytest.raises(InvalidParameterError, match="sigma = 1e-320"):
            gaussian_rdp(2.0, 1e-320, 2.0)

    def test_sigma_beyond_float_range_rejected(self):
        # The 401-digit integer used to raise OverflowError.
        with pytest.raises(InvalidParameterError, match="sigma"):
            gaussian_rdp(2.0, 10**400, 2.0)

    def test_sensitivity_square_overflow_rejected(self):
        # sensitivity^2 overflows, which used to raise OverflowError.
        with pytest.raises(InvalidParameterError, match="sensitivity = 1e\\+200"):
            gaussian_rdp(1e200, 1.0, 2.0)

    def test_rho_near_the_float_maximum_is_kept(self):
        # rho = 1e308 * 1.5^2 / 2 is a float, but alpha * Delta^2 is not; this
        # used to be rejected as beyond the float range.
        assert gaussian_rdp(1.5, 1.0, 1e308) == RdpPoint(1e308, 1.125e308)

    def test_large_sigma_gives_a_vanishing_rho(self):
        # sigma^2 overflows, but rho itself is a float: (2/1e200)^2 is 0.
        assert gaussian_rdp(2.0, 1e200, 2.0) == RdpPoint(2.0, 0.0)


class TestSubsampledGaussianRdp:
    def test_formula(self):
        point = subsampled_gaussian_rdp(2.0, 2.0, 2.0, 0.01)
        assert point.rho == pytest.approx(3.5 * 1e-4 * 4 * 2 / 4, rel=1e-12)

    def test_string_numbers_convert(self):
        # Each string used to reach a range check and raise a bare TypeError.
        assert subsampled_gaussian_rdp("2", "2", "2", "0.01") == \
            subsampled_gaussian_rdp(2.0, 2.0, 2.0, 0.01)

    @pytest.mark.parametrize("index,name", enumerate(["sensitivity", "sigma", "alpha", "gamma"]))
    def test_non_numbers_rejected(self, index, name):
        args = [2.0, 2.0, 2.0, 0.01]
        args[index] = None
        with pytest.raises(InvalidParameterError, match=name):
            subsampled_gaussian_rdp(*args)

    # A square beyond the float range used to raise a bare OverflowError (or,
    # below it, ZeroDivisionError).
    @pytest.mark.parametrize("args,name", [
        ((2.0, 1e200, 2.0, 0.01), "sigma"), ((1e200, 1.0, 2.0, 0.01), "sensitivity"),
        ((1e-200, 1.0, 2.0, 0.01), "sensitivity"), ((1.0, 1e-200, 2.0, 0.01), "sigma"),
    ])
    def test_square_beyond_float_range_rejected(self, args, name):
        with pytest.raises(InvalidParameterError, match=name):
            subsampled_gaussian_rdp(*args)

    def test_infeasible_order(self):
        # gamma = 0.9 makes the log argument fall below 1: bound < alpha.
        with pytest.raises(InfeasibleOrderError, match="bound"):
            subsampled_gaussian_rdp(1.0, 1.0, 2.0, 0.9)

    def test_overflowing_order_bound_is_infeasible(self):
        # gamma * alpha * (1 + sigma'^2) overflows, so the bound's log argument
        # rounds to 0; this used to raise a bare ValueError (math domain error).
        with pytest.raises(InfeasibleOrderError, match="alpha <= order bound, missed by inf"):
            subsampled_gaussian_rdp(1.0, 1e150, 1e10, 0.5)

    def test_low_noise_rejected(self):
        with pytest.raises(InfeasibleOrderError, match="sigma"):
            subsampled_gaussian_rdp(2.0, 1.0, 2.0, 0.01)

    def test_quadratic_in_gamma(self):
        hi = subsampled_gaussian_rdp(2.0, 2.0, 2.0, 0.02).rho
        lo = subsampled_gaussian_rdp(2.0, 2.0, 2.0, 0.01).rho
        assert hi / lo == pytest.approx(4.0, rel=1e-12)

    # inf, -inf and -1 used to raise a bare ValueError (math domain error), and
    # 0 a ZeroDivisionError.
    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, -1.0, 0.0, 0.5, 1.0, math.nan])
    def test_order_checked_by_name(self, alpha):
        with pytest.raises(InvalidParameterError, match="alpha must be finite and > 1"):
            subsampled_gaussian_rdp(2.0, 2.0, alpha, 0.01)


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

    @pytest.mark.parametrize("delta", [None, "abc", [1e-5]], ids=["None", "str", "list"])
    def test_non_number_delta_rejected(self, delta):
        # Each used to raise a bare TypeError from the range check.
        with pytest.raises(InvalidParameterError, match="delta"):
            rdp_to_dp(RdpPoint(2, 0.1), delta)

    def test_string_delta_converts(self):
        # "1e-5" used to raise a bare TypeError from the range check.
        assert rdp_to_dp(RdpPoint(2, 1.0), "1e-5") == rdp_to_dp(RdpPoint(2, 1.0), 1e-5)


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

    @pytest.mark.parametrize("budget,params", [
        # sigma'^2 overflows; this used to raise a bare ValueError (math domain error).
        (PrivacyBudget(1e-200, DELTA), MechanismParams(1.0, 0.005, 0.5, 1000)),
        # alpha overflows and gamma1^2 underflows, so sigma^2 is 0 * inf = NaN,
        # which used to pass both checks as a feasible calibration.
        (PrivacyBudget(1e-307, 1e-300), MechanismParams(1.0, 1e-300, 0.5, 10)),
    ], ids=["overflow", "nan"])
    def test_order_bound_beyond_the_float_range(self, budget, params):
        # Every margin is inf, and the error still names its condition.
        with pytest.raises(CalibrationInfeasibleError, match=r"tightest constraint: alpha <= "
                           r"order bound, missed by inf at beta = 0\.01$"):
            calibrate_step(budget, params)

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
        s40 = step_noise_variance(p40, FEASIBLE_BUDGET, result.alpha, result.beta) * 40
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


TYPED_ERRORS = tuple(obj for obj in vars(errors).values()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == errors.__name__)


def _log_uniform(lo, hi):
    """10**e for e uniform in [lo, hi]: 0, subnormals and the float extremes."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=500, deadline=None)
@given(
    epsilon=_log_uniform(-324, 308),
    delta=_log_uniform(-324, 0),
    gamma1=_log_uniform(-324, 0),
    gamma2=_log_uniform(-324, 0),
    num_agents=st.integers(1, 2**53),
    clip_norm=_log_uniform(-324, 308),
    episode_len=st.integers(1, 2**53),
    sigma=_log_uniform(-324, 308),
    alpha=_log_uniform(-3, 308),
)
def test_extremes_raise_only_typed_errors(epsilon, delta, gamma1, gamma2, num_agents, clip_norm,
                                          episode_len, sigma, alpha):
    # About one draw in eight used to end in a bare ValueError (math domain
    # error), and a subnormal epsilon in a ZeroDivisionError.
    with contextlib.suppress(*TYPED_ERRORS):
        subsampled_gaussian_rdp(clip_norm, sigma, alpha, gamma1)
    for calibrate, episode in ((calibrate_step, False), (calibrate_episode, True)):
        try:
            budget = PrivacyBudget(epsilon, delta)
            params = MechanismParams(clip_norm, gamma1, gamma2, num_agents, episode_len)
            result = calibrate(budget, params)
            back = round_trip(result, budget, params, episode=episode)
        except TYPED_ERRORS:
            continue
        assert 0.0 < result.sigma_sq < math.inf
        assert back.epsilon <= epsilon * (1.0 + 1e-9)


def _composed_round_trip(result, budget, params, episode=False):
    """round_trip as it was: the copies listed and composed one by one. The
    point is built from sigma^2, as round_trip builds it, with the same formula."""
    rho = 3.5 * params.sample_rate_data**2 * params.sensitivity**2 * result.alpha / result.sigma_sq
    point = RdpPoint(result.alpha, rho)
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


# Rows on the edge of the subsampled-Gaussian validity region. The calibrator
# used to test sigma^2/(4C^2) while round_trip squared sqrt(sigma^2) again, so
# on these rows calibrate_step reported feasible=True and round_trip then
# raised InfeasibleOrderError. The first witness sits on sigma'^2 >= 0.7
# (beta = 0.06), the other two on the order bound.
BOUNDARY_ROWS = [
    pytest.param(27.918784390142296, 1.166202841374608e-05, 0.01708537566615429,
                 0.6275827479635696, 1275, 1.8409039527949058, id="sigma-prime"),
    pytest.param(16.99441468927147, 3.447371098480766e-05, 0.06101297249671843,
                 0.27580456061693065, 948, 2.0, id="order-bound-C2"),
    pytest.param(4.67893970590952, 8.784334395194177e-06, 0.015864823991648,
                 0.49062178595410727, 1923, 1.0, id="order-bound-C1"),
]
BOUNDARY_ARGS = "epsilon, delta, gamma1, gamma2, num_agents, clip_norm"


def _raw_constraints(budget, params, beta, episode):
    """(sigma'^2 >= 0.7, alpha <= order bound) at one beta, from the raw formulas."""
    alpha = order_for_beta(budget, beta)
    sigma_sq = step_noise_variance(params, budget, alpha, beta) * (
        params.episode_len if episode else 1)
    sp2 = sigma_sq / (4 * params.clip_norm**2)
    arg = 1 / (params.sample_rate_data * alpha * (1 + sp2))
    return sp2 >= MIN_SIGMA_PRIME_SQ, alpha <= 2 * sp2 * math.log(arg) / 3 + 1


def _boundary_epsilons(delta, params, beta, constraint, episode, lo=0.01, hi=100.0):
    """The two adjacent floats of epsilon between which one constraint (0:
    sigma'^2, 1: order bound) at one beta changes its verdict, or () if it
    does not change on [lo, hi]."""
    holds = lambda eps: _raw_constraints(PrivacyBudget(eps, delta), params, beta,
                                         episode)[constraint]
    at_lo = holds(lo)
    if holds(hi) == at_lo:
        return ()
    while math.nextafter(lo, math.inf) < hi:
        mid = lo + (hi - lo) / 2
        lo, hi = (mid, hi) if holds(mid) == at_lo else (lo, mid)
    return lo, hi


class TestValidityBoundary:
    @pytest.mark.parametrize(BOUNDARY_ARGS, BOUNDARY_ROWS)
    def test_boundary_row_round_trips(self, epsilon, delta, gamma1, gamma2, num_agents,
                                      clip_norm):
        budget = PrivacyBudget(epsilon, delta)
        params = MechanismParams(clip_norm, gamma1, gamma2, num_agents)
        result = calibrate_step(budget, params)
        assert result.feasible
        assert all(_raw_constraints(budget, params, result.beta, False))
        back = round_trip(result, budget, params)
        assert back.epsilon <= epsilon and back.delta == delta

    def test_motivation_row_sits_on_the_sigma_prime_edge(self):
        result = calibrate_step(PrivacyBudget(27.918784390142296, 1.166202841374608e-05),
                                MechanismParams(1.8409039527949058, 0.01708537566615429,
                                                0.6275827479635696, 1275))
        assert (result.beta, result.sigma_prime_sq) == (0.06, MIN_SIGMA_PRIME_SQ)

    def test_every_feasible_row_on_a_bisected_edge_round_trips(self):
        # Epsilon is bisected onto each constraint's edge at several betas, and
        # both neighbouring floats are calibrated.
        rng = np.random.default_rng(20261018)
        feasible = 0
        for _ in range(60):
            delta = 10.0 ** rng.uniform(-10, -2)
            episode_len = int(rng.choice([1, 1, 7, 40]))
            params = MechanismParams(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, -0.7),
                                     rng.uniform(0.01, 0.99), int(rng.integers(1, 3000)),
                                     episode_len)
            episode = episode_len > 1
            calibrate = calibrate_episode if episode else calibrate_step
            for beta in (0.01, 0.06, 0.2, 0.5, 0.9):
                for constraint in (0, 1):
                    for eps in _boundary_epsilons(delta, params, beta, constraint, episode):
                        budget = PrivacyBudget(eps, delta)
                        try:
                            result = calibrate(budget, params)
                        except CalibrationInfeasibleError:
                            continue
                        feasible += 1
                        back = round_trip(result, budget, params, episode=episode)
                        assert back.epsilon <= eps + 1e-9
        assert feasible > 100


def exact_sampled_gaussian_rdp(q, sigma_prime_sq, order):
    """Exact RDP of the sampled Gaussian mechanism at an integer order > 1
    (Mironov, Talwar & Zhang 2019, "Renyi Differential Privacy of the Sampled
    Gaussian Mechanism"): log(A) / (order - 1), with

        A = sum_k C(order, k) (1 - q)^(order - k) q^k exp(k (k - 1) / (2 sigma'^2)),

    summed in log space. The formula is for Poisson sampling at rate q with
    add/remove neighbours, while ``subsample`` samples without replacement
    (Wang, Balle & Kasiviswanathan 2019 treat that case). So this oracle checks
    the analytic bound the calibrator uses; it does not replace it.
    """
    k = np.arange(order + 1, dtype=float)
    log_terms = (gammaln(order + 1) - gammaln(k + 1) - gammaln(order - k + 1)
                 + (order - k) * math.log1p(-q) + k * math.log(q)
                 + k * (k - 1) / (2 * sigma_prime_sq))
    return float(logsumexp(log_terms)) / (order - 1)


def assert_bound_dominates_exact(result, gamma1):
    # RDP is non-decreasing in the order, so exact(ceil(alpha)) bounds exact(alpha).
    exact = exact_sampled_gaussian_rdp(gamma1, result.sigma_prime_sq, math.ceil(result.alpha))
    assert exact <= 3.5 * gamma1**2 * result.alpha / result.sigma_prime_sq


class TestExactRdpOracle:
    def test_oracle_at_order_two(self):
        # A_2 = 1 + q^2 (exp(1/sigma'^2) - 1).
        q, sp2 = 0.01, 0.9
        assert exact_sampled_gaussian_rdp(q, sp2, 2) == pytest.approx(
            math.log1p(q * q * math.expm1(1 / sp2)), rel=1e-12)

    def test_oracle_without_sampling_is_the_gaussian_mechanism(self):
        # q -> 1 is the plain Gaussian mechanism: order / (2 sigma'^2).
        assert exact_sampled_gaussian_rdp(1 - 1e-15, 1.5, 5) == pytest.approx(
            5 / (2 * 1.5), rel=1e-9)

    @pytest.mark.parametrize(BOUNDARY_ARGS, BOUNDARY_ROWS)
    def test_bound_dominates_exact_on_boundary_rows(self, epsilon, delta, gamma1, gamma2,
                                                    num_agents, clip_norm):
        params = MechanismParams(clip_norm, gamma1, gamma2, num_agents)
        assert_bound_dominates_exact(calibrate_step(PrivacyBudget(epsilon, delta), params),
                                     gamma1)

    def test_bound_dominates_exact_on_criterion_grid(self):
        checked = 0
        for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
            for gamma1 in (0.001, 0.002, 0.005, 0.01, 0.05):
                for num_agents, episode_len in ((200, 1), (500, 1), (1000, 40)):
                    params = MechanismParams(1.0, gamma1, 0.5, num_agents, episode_len)
                    calibrate = calibrate_episode if episode_len > 1 else calibrate_step
                    try:
                        result = calibrate(PrivacyBudget(eps, DELTA), params)
                    except CalibrationInfeasibleError:
                        continue
                    checked += 1
                    assert_bound_dominates_exact(result, gamma1)
        assert checked == 18  # the grid mixes feasible and infeasible corners

    # Two draws in three put epsilon on the two floats around a bisected edge
    # of one validity constraint at one beta, where the bound has the least
    # slack; the third draws epsilon log-uniformly.
    @settings(max_examples=1000, deadline=None)
    @given(
        delta_exp=st.floats(-10.0, -2.0),
        gamma1_exp=st.floats(-3.3, -1.0),
        gamma2=st.floats(0.01, 0.99),
        num_agents=st.integers(1, 3000),
        clip_norm_exp=st.floats(-2.0, 2.0),
        episode_len=st.sampled_from([1, 1, 7, 40]),
        edge=st.sampled_from([None, 0, 1]),
        beta=st.sampled_from(BETA_GRID),
        epsilon_exp=st.floats(-1.0, 1.8),
    )
    def test_bound_dominates_exact_property(self, delta_exp, gamma1_exp, gamma2, num_agents,
                                            clip_norm_exp, episode_len, edge, beta,
                                            epsilon_exp):
        delta, gamma1 = 10.0**delta_exp, 10.0**gamma1_exp
        params = MechanismParams(10.0**clip_norm_exp, gamma1, gamma2, num_agents, episode_len)
        episode = episode_len > 1
        epsilons = ((10.0**epsilon_exp,) if edge is None
                    else _boundary_epsilons(delta, params, beta, edge, episode, 1e-3, 1e4))
        for epsilon in epsilons:
            budget = PrivacyBudget(epsilon, delta)
            try:
                result = (calibrate_episode if episode else calibrate_step)(budget, params)
            except CalibrationInfeasibleError:
                event("infeasible")
                continue
            event("feasible")
            assert_bound_dominates_exact(result, gamma1)
            assert round_trip(result, budget, params, episode=episode).epsilon <= epsilon + 1e-9


class TestValidation:
    def test_budget_ranges(self):
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(0.0, 1e-4)
        # calibrate_step used to raise a bare ZeroDivisionError on a subnormal
        # epsilon: beta * epsilon rounded to 0.
        with pytest.raises(InvalidParameterError, match="epsilon must be finite and a normal"):
            PrivacyBudget(5e-324, 1e-4)
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(1.0, 1.0)

    def test_epsilon_beyond_float_range_rejected(self):
        # calibrate_step used to raise a bare OverflowError on this budget.
        with pytest.raises(InvalidParameterError, match="epsilon"):
            PrivacyBudget(10**400, 1e-4)

    @pytest.mark.parametrize("value", ["abc", None, [1.0]], ids=["str", "None", "list"])
    def test_non_numbers_rejected(self, value):
        # "abc" used to raise a bare ValueError, None and [1.0] a bare TypeError.
        with pytest.raises(InvalidParameterError, match="epsilon"):
            PrivacyBudget(value, 1e-5)
        with pytest.raises(InvalidParameterError, match="delta"):
            PrivacyBudget(1.0, value)
        with pytest.raises(InvalidParameterError, match="clip_norm"):
            MechanismParams(value, 0.005, 0.5, 10)
        with pytest.raises(InvalidParameterError, match="sample_rate_data"):
            MechanismParams(1.0, value, 0.5, 10)

    def test_budget_stores_the_floats_it_checked(self):
        # A string epsilon used to be stored as given, and calibrate_step then
        # raised a bare TypeError.
        budget = PrivacyBudget("2.0", "1e-5")
        assert (budget.epsilon, budget.delta) == (2.0, 1e-5)
        assert type(budget.epsilon) is float and type(budget.delta) is float
        assert calibrate_step(budget, FEASIBLE_PARAMS) == \
            calibrate_step(PrivacyBudget(2.0, 1e-5), FEASIBLE_PARAMS)

    @pytest.mark.parametrize("args", [("1.0", 0.005, 0.5, 10), (1.0, "0.005", 0.5, 10),
                                      (1.0, 0.005, "0.5", 10)])
    def test_params_store_the_floats_they_checked(self, args):
        # A string clip norm or sample rate used to reach a comparison with a
        # float and raise a bare TypeError.
        params = MechanismParams(*args)
        floats = (params.clip_norm, params.sample_rate_data, params.sample_rate_agents)
        assert floats == (1.0, 0.005, 0.5)
        assert all(type(v) is float for v in floats)
        assert params == MechanismParams(1.0, 0.005, 0.5, 10)
        assert calibrate_step(FEASIBLE_BUDGET, MechanismParams(*args[:3], 500)) == \
            calibrate_step(FEASIBLE_BUDGET, FEASIBLE_PARAMS)

    @pytest.mark.parametrize("name", ["clip_norm", "sample_rate_data", "sample_rate_agents"])
    def test_params_real_beyond_float_range_rejected(self, name):
        kwargs = dict(clip_norm=1.0, sample_rate_data=0.005, sample_rate_agents=0.5,
                      num_agents=10)
        with pytest.raises(InvalidParameterError, match=name):
            MechanismParams(**{**kwargs, name: 10**400})

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

    @pytest.mark.parametrize("clip_norm", [1e200, 1e-200, 1e-160, 1.4e-154])
    def test_clip_norm_square_must_be_a_positive_float(self, clip_norm):
        # C^2 overflowed (OverflowError) or underflowed to 0 (ZeroDivisionError).
        # A subnormal C^2 (1e-160, 1.4e-154) was accepted, but (2C)^2 and 4C^2
        # round apart there, so sigma'^2 depended on which one was used.
        with pytest.raises(InvalidParameterError, match="clip_norm"):
            MechanismParams(clip_norm, 0.005, 0.5, 500)

    def test_smallest_clip_norm_with_a_normal_square_accepted(self):
        clip_norm = math.sqrt(sys.float_info.min)
        assert clip_norm * clip_norm >= sys.float_info.min
        assert MechanismParams(clip_norm, 0.005, 0.5, 500).clip_norm == clip_norm

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

    @pytest.mark.parametrize("value", [None, "abc", [2.0], 10**400],
                             ids=["None", "str", "list", "401-digit"])
    def test_rdp_point_non_numbers_rejected(self, value):
        # None, "abc" and [2.0] used to raise a bare TypeError, 10**400 to be
        # accepted as an order.
        with pytest.raises(InvalidParameterError, match="alpha"):
            RdpPoint(value, 1.0)
        with pytest.raises(InvalidParameterError, match="rho"):
            RdpPoint(2.0, value)

    def test_rdp_point_stores_the_floats_it_checked(self):
        # RdpPoint("2", 1.0) used to raise a bare TypeError.
        point = RdpPoint("2", 1)
        assert point == RdpPoint(2.0, 1.0)
        assert type(point.alpha) is float and type(point.rho) is float
