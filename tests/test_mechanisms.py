import math

import numpy as np
import pytest

from dpcomm import (
    DegenerateMechanismError,
    InvalidParameterError,
    RrMechanism,
    aware_guess,
    clip,
    gaussian_perturb,
    naive_bias,
    naive_guess,
    rr_flip_prob,
    rr_perturb,
    subsample,
)

TRIALS = 10**6


def mc_bound(draws):
    """3 * empirical standard error of the mean."""
    return 3.0 * draws.std(ddof=1) / math.sqrt(len(draws))


class TestRrFlipProb:
    def test_ln3_is_half(self):
        assert rr_flip_prob(math.log(3)) == 0.5

    def test_zero_budget_full_randomization(self):
        assert rr_flip_prob(0.0) == 1.0

    def test_unit_budget(self):
        assert rr_flip_prob(1.0) == 2.0 / (math.e + 1.0)
        assert rr_flip_prob(1.0) == pytest.approx(0.537883, abs=5e-7)

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            rr_flip_prob(-0.1)

    def test_nan_budget_rejected(self):
        # It used to return nan.
        with pytest.raises(InvalidParameterError, match="epsilon"):
            rr_flip_prob(math.nan)

    def test_budget_beyond_float_range_rejected(self):
        # It used to raise a bare OverflowError.
        with pytest.raises(InvalidParameterError, match="epsilon"):
            rr_flip_prob(10**400)


class TestRrPerturb:
    def test_no_perturbation_passthrough(self):
        mech = RrMechanism(0.0)
        for seed in range(20):
            assert rr_perturb(0, mech, seed) == 0
            assert rr_perturb(1, mech, seed) == 1

    def test_deterministic_given_seed(self):
        mech = RrMechanism(0.7)
        a = rr_perturb(1, mech, 42, size=1000)
        b = rr_perturb(1, mech, 42, size=1000)
        assert np.array_equal(a, b)

    def test_full_randomization_mean_half(self):
        draws = rr_perturb(1, RrMechanism(1.0), 3, size=TRIALS).astype(float)
        assert abs(draws.mean() - 0.5) <= mc_bound(draws)

    def test_half_randomization_mean(self):
        # E[x | b=0, p=1/2] = (1/2) * (1/2) = 1/4
        draws = rr_perturb(0, RrMechanism(0.5), 4, size=TRIALS).astype(float)
        assert abs(draws.mean() - 0.25) <= mc_bound(draws)

    def test_bad_bit(self):
        with pytest.raises(InvalidParameterError):
            rr_perturb(2, RrMechanism(0.5), 0)


class TestGuessing:
    def test_naive_guess(self):
        assert naive_guess(1, [0, 0]) == 1
        assert naive_guess(0, [1, 1, 1]) == 3

    def test_naive_bias_examples(self):
        assert naive_bias([1, 1, 1], 0, 0.5) == pytest.approx(-0.5)
        assert naive_bias([1, 0, 1], 1, 0.0) == 0.0
        assert naive_bias([0, 0, 0, 0], 2, 1.0) == pytest.approx(3 / 2)

    def test_naive_bias_monte_carlo(self):
        bits = [1, 0, 1, 1, 0]
        p = 0.5
        mech = RrMechanism(p)
        msgs = np.stack(
            [rr_perturb(b, mech, 100 + j, size=TRIALS) for j, b in enumerate(bits)], axis=1
        ).astype(float)
        for i in (0, 1):
            others = np.delete(msgs, i, axis=1)
            guesses = bits[i] + others.sum(axis=1)
            expected = sum(bits) + naive_bias(bits, i, p)
            assert abs(guesses.mean() - expected) <= mc_bound(guesses)

    def test_aware_matches_naive_at_p0(self):
        assert aware_guess(1, [0, 1, 1], 0.0) == naive_guess(1, [0, 1, 1])

    def test_aware_unbiased_monte_carlo(self):
        bits = [1, 0, 1, 1, 0]
        p = 0.5
        mech = RrMechanism(p)
        msgs = np.stack(
            [rr_perturb(b, mech, 200 + j, size=TRIALS) for j, b in enumerate(bits)], axis=1
        ).astype(float)
        others = np.delete(msgs, 0, axis=1)
        guesses = aware_guess(bits[0], others, p)
        assert abs(guesses.mean() - sum(bits)) <= mc_bound(guesses)

    def test_aware_all_zero_bits(self):
        bits = [0, 0, 0, 0]
        mech = RrMechanism(0.3)
        msgs = np.stack(
            [rr_perturb(0, mech, 300 + j, size=TRIALS) for j, _ in enumerate(bits)], axis=1
        ).astype(float)
        guesses = aware_guess(0, np.delete(msgs, 0, axis=1), 0.3)
        assert abs(guesses.mean()) <= mc_bound(guesses)

    def test_aware_undefined_at_p1(self):
        with pytest.raises(DegenerateMechanismError):
            aware_guess(0, [1, 0], 1.0)

    def test_aware_variance_nondecreasing_in_p(self):
        # Common random numbers across the p grid: each trial reuses the
        # same underlying uniforms and coins, so the comparison is tight.
        bits = [1, 0, 1]
        n = 10**5
        variances = []
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            mech = RrMechanism(p)
            msgs = np.stack(
                [rr_perturb(b, mech, 400 + j, size=n) for j, b in enumerate(bits)], axis=1
            ).astype(float)
            guesses = aware_guess(bits[0], np.delete(msgs, 0, axis=1), p)
            variances.append(guesses.var(ddof=1))
        assert all(b >= a for a, b in zip(variances, variances[1:]))


class TestClip:
    def test_short_vector_unchanged(self):
        v = np.array([0.3, 0.4])
        out = clip(v, 1.0)
        assert np.array_equal(out.values, v)

    def test_rescales_to_ball(self):
        out = clip([3.0, 4.0], 1.0)
        assert np.allclose(out.values, [0.6, 0.8], rtol=1e-15)

    def test_boundary_exact(self):
        out = clip([3.0, 4.0], 5.0)
        assert np.array_equal(out.values, [3.0, 4.0])

    def test_norm_never_exceeds_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 12)) * 10.0 ** rng.integers(-3, 4)
            c = float(rng.uniform(0.1, 5.0))
            assert np.linalg.norm(clip(v, c).values) <= c + 1e-12

    def test_bad_norm(self):
        with pytest.raises(InvalidParameterError):
            clip([1.0], 0.0)

    @pytest.mark.parametrize("clip_norm", [math.inf, math.nan, 10**400],
                             ids=["inf", "nan", "401-digit"])
    def test_non_finite_norm_rejected(self, clip_norm):
        # math.inf used to be accepted.
        with pytest.raises(InvalidParameterError, match="clip_norm"):
            clip([1.0], clip_norm)


class TestGaussianPerturb:
    def test_zero_noise_passthrough(self):
        msg = clip([0.5, -0.2], 1.0)
        assert np.array_equal(gaussian_perturb(msg, 0.0, 9), msg.values)

    def test_deterministic(self):
        msg = clip([0.5, -0.2], 1.0)
        assert np.array_equal(gaussian_perturb(msg, 1.0, 9), gaussian_perturb(msg, 1.0, 9))

    def test_moments(self):
        msg = clip([0.5, -0.2], 1.0)
        sigma = 0.7
        draws = gaussian_perturb(msg, sigma, 10, size=TRIALS)
        for k in range(2):
            col = draws[:, k]
            assert abs(col.mean() - msg.values[k]) <= mc_bound(col)
            sq = (col - col.mean()) ** 2
            assert abs(col.var(ddof=1) - sigma**2) <= mc_bound(sq)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            gaussian_perturb(clip([1.0], 2.0), -0.1, 0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 10**400],
                             ids=["nan", "inf", "401-digit"])
    def test_non_finite_sigma_rejected(self, sigma):
        # NaN used to return a NaN message.
        with pytest.raises(InvalidParameterError, match="sigma"):
            gaussian_perturb(clip([1.0], 2.0), sigma, 0)


class TestSubsample:
    def test_full_rate_returns_whole_list(self):
        items = list(range(5))
        assert subsample(items, 0.999, 0) == items

    def test_empty_input(self):
        assert subsample([], 0.5, 0) == []

    def test_deterministic_and_seed_sensitive(self):
        items = list(range(30))
        assert subsample(items, 0.5, 1) == subsample(items, 0.5, 1)
        distinct = {tuple(subsample(items, 0.5, s)) for s in range(10)}
        assert len(distinct) > 1

    def test_subset_size_bankers_rounding(self):
        assert len(subsample(list(range(10)), 0.25, 0)) == round(2.5)  # 2, not 3
        assert len(subsample(list(range(10)), 0.35, 0)) == 4

    def test_inclusion_frequency(self):
        items = list(range(10))
        rate = 0.3
        draws = 10**5
        counts = np.zeros(len(items))
        for seed in range(draws):
            for item in subsample(items, rate, seed):
                counts[item] += 1
        freq = counts / draws
        se = math.sqrt(rate * (1 - rate) / draws)
        assert np.all(np.abs(freq - rate) <= 3 * se)

    def test_bad_rate(self):
        with pytest.raises(InvalidParameterError):
            subsample([1, 2], 0.0, 0)
        with pytest.raises(InvalidParameterError):
            subsample([1, 2], 1.0, 0)
