import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

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
from dpcomm.mechanisms import _rr_row
from dpcomm.rng import BLOCK_SIZE, substream

TRIALS = 10**6


# The draw helper before it read raw words, kept as the test oracle: the flips
# from random(), then the int64 coins from integers(0, 2).
def _reference_rr_row(rng, bit, flip_prob, m):
    flips = rng.random(m) < flip_prob
    coins = rng.integers(0, 2, size=m).astype(bool)
    return (~flips | coins) if bit else (flips & coins)


def assert_row_matches_reference(key, bit, p, m):
    got = _rr_row(substream(*key), bit, p, m)
    assert got.dtype == bool and got.shape == (m,)
    assert np.array_equal(got, _reference_rr_row(substream(*key), bit, p, m))


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

    def test_budget_computed_on_the_converted_value(self):
        # A numeric string used to pass the check and then raise a bare TypeError.
        assert rr_flip_prob("1.0") == rr_flip_prob(1.0)
        assert rr_flip_prob("701") == rr_flip_prob(701.0)


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

    @pytest.mark.parametrize("flip_prob", [None, [0.5]], ids=["None", "list"])
    def test_non_number_flip_prob_rejected(self, flip_prob):
        # Both used to raise a bare TypeError from the range check.
        with pytest.raises(InvalidParameterError, match="flip_prob"):
            RrMechanism(flip_prob)

    def test_flip_prob_stored_as_the_float_it_checked(self):
        # "0.5" used to raise a bare TypeError from the range check.
        mech = RrMechanism("0.5")
        assert type(mech.flip_prob) is float and mech == RrMechanism(0.5)
        assert np.array_equal(rr_perturb(1, mech, 3, size=100),
                              rr_perturb(1, RrMechanism(0.5), 3, size=100))

    @pytest.mark.parametrize("size", [2.5, -1, True, "2"])
    def test_bad_size_rejected(self, size):
        # 2.5 used to draw 2 values silently, -1 to raise numpy's bare ValueError.
        with pytest.raises(InvalidParameterError, match="size"):
            rr_perturb(1, RrMechanism(0.5), 0, size=size)

    def test_size_zero_and_numpy_sizes_accepted(self):
        assert rr_perturb(1, RrMechanism(0.5), 0, size=0).shape == (0,)
        assert np.array_equal(rr_perturb(1, RrMechanism(0.5), 4, size=np.int64(9)),
                              rr_perturb(1, RrMechanism(0.5), 4, size=9))

    def test_draws_match_snapshot(self):
        # sha256 of the draws below, taken before rr_perturb and the
        # binary-sums kernel shared one draw helper.
        digest = hashlib.sha256()
        singles = []
        for seed in (0, 1, 7, 42, 2**63 + 5):
            for size in (1, 2, 17, 1000):
                for bit in (0, 1, True, np.int64(1)):
                    for p in (0.0, 0.25, 0.5, 0.9, 1.0):
                        draws = rr_perturb(bit, RrMechanism(p), seed, size=size)
                        digest.update(draws.dtype.str.encode())
                        digest.update(draws.tobytes())
                        singles.append(rr_perturb(bit, RrMechanism(p), seed))
        assert digest.hexdigest() == \
            "dd82f840fbc0795bc408fb2c0e2dea69fc1e261d1dbf5566961ad7e47334918b"
        assert all(type(x) is int for x in singles) and sum(singles) == 296

    @pytest.mark.parametrize("seed", [0, 5, 99])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_draw_helper_matches_where(self, seed, p):
        # rr_perturb used to build its draws as np.where(flips, coins, bit).
        for bit in (0, 1):
            rng = substream(seed, 3, 1)
            flips = rng.random(500) < p
            coins = rng.integers(0, 2, size=500)
            want = np.where(flips, coins, bit)
            assert np.array_equal(_rr_row(substream(seed, 3, 1), bit, p, 500), want)
            # _rr_row returns bools for the packed kernel; rr_perturb, the
            # public contract, keeps the int64 values of np.where.
            rng = substream(seed)
            flips = rng.random(500) < p
            want = np.where(flips, rng.integers(0, 2, size=500), bit)
            got = rr_perturb(bit, RrMechanism(p), seed, size=500)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)


class _RawWords:
    """Stands in for a generator whose raw 64-bit stream is ``words``."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, n):
        assert n == len(self.words)
        return self.words.copy()


PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0**-60, 1.0 - 2.0**-53, 0.5, 5e-324]),
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53),  # p * 2**53 is an integer
    st.floats(0.0, 1.0),
)
ROW_LENGTHS = st.one_of(st.sampled_from([1, 2, 3, 7, 4321, BLOCK_SIZE - 1, BLOCK_SIZE]),
                        st.integers(0, BLOCK_SIZE))


class TestRawWordRow:
    """The row read from raw words equals the row that random() and
    integers(0, 2) draw, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(p=PROBABILITIES, m=ROW_LENGTHS, bit=st.sampled_from([0, 1]),
           key=st.lists(st.integers(0, 2**63), min_size=1, max_size=3))
    def test_matches_reference(self, p, m, bit, key):
        assert_row_matches_reference(key, bit, p, m)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4000), bit=st.sampled_from([0, 1]),
           seed=st.integers(0, 2**63), step=st.sampled_from([-1, 0, 1]))
    def test_probability_at_a_drawn_uniform(self, data, m, bit, seed, step):
        # A flip probability within one ulp of one of the row's own uniforms
        # puts that trial on the edge of the flip test.
        u = float(substream(seed, 1).random(m)[data.draw(st.integers(0, m - 1))])
        p = min(max(u + step * math.ulp(u) if u else step * 5e-324, 0.0), 1.0)
        assert_row_matches_reference((seed, 1), bit, p, m)

    @pytest.mark.parametrize("seed", [0, 3, 2**63 + 5])
    def test_probability_on_a_word_boundary(self, seed):
        # The flip bound falls exactly on a drawn word whose low 11 bits are 0,
        # and one ulp above a uniform below 1/2, whose bound is not an integer
        # multiple of 2**-53: a `<=` or a floor instead of ceil moves one trial.
        words = substream(seed, 2).bit_generator.random_raw(BLOCK_SIZE)
        uniforms = substream(seed, 2).random(BLOCK_SIZE)
        on_word = int(np.flatnonzero(words & 2047 == 0)[0])
        below_half = int(np.flatnonzero(uniforms < 0.5)[0])
        for p in (float(uniforms[on_word]), math.nextafter(float(uniforms[below_half]), 1.0)):
            for bit in (0, 1):
                assert_row_matches_reference((seed, 2), bit, p, BLOCK_SIZE)

    @pytest.mark.parametrize("m", [7, 8])
    def test_layout_on_chosen_words(self, m):
        # The documented layout on words that no known seed draws: the extremes
        # of uint64 and words on either side of a flip bound. Coin 2k is bit 31
        # of coin word k and coin 2k+1 its bit 63.
        flip_words = [0, 1, 2047, 2048, 2**63, 2**64 - 2048, 2**64 - 2049, 2**64 - 1][:m]
        coin_words = [0x80000000_00000000, 0x00000000_80000000, 0xFFFFFFFF_FFFFFFFF,
                      0x7FFFFFFF_7FFFFFFF]
        coins = [0, 1, 1, 0, 1, 1, 0, 0][:m]
        for p in (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0):
            flips = [(w >> 11) * 2.0**-53 < p for w in flip_words]
            for bit in (0, 1):
                want = [bool(c) if f else bool(bit) for f, c in zip(flips, coins)]
                assert _rr_row(_RawWords(flip_words + coin_words), bit, p, m).tolist() == want

    def test_bound_beyond_uint64_compares_exactly(self):
        # At p = 1 the flip bound is 2**64: every word lies below it.
        words = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        assert (words < math.ceil(1.0 * 2.0**53) << 11).all()
        for m in (1, 2, 3, BLOCK_SIZE):
            for bit in (0, 1):
                assert_row_matches_reference((9, 4), bit, 1.0, m)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 2.5, math.nan, "1", None, True])
    def test_bad_seed_rejected(self, seed):
        # 2.5 and NaN used to raise numpy's TypeError.
        with pytest.raises(InvalidParameterError, match="seed"):
            rr_perturb(1, RrMechanism(0.5), seed, size=10)
        with pytest.raises(InvalidParameterError, match="seed"):
            subsample(range(10), 0.5, seed)
        with pytest.raises(InvalidParameterError, match="seed"):
            subsample([], 0.5, seed)

    def test_large_and_numpy_seeds_accepted(self):
        mech = RrMechanism(0.5)
        assert np.array_equal(rr_perturb(1, mech, np.uint64(2**64 - 1), size=50),
                              rr_perturb(1, mech, 2**64 - 1, size=50))
        assert subsample(range(10), 0.5, np.int32(7)) == subsample(range(10), 0.5, 7)
        assert len(subsample(range(10), 0.5, 2**80)) == 5


class TestGuessing:
    def test_naive_guess(self):
        assert naive_guess(1, [0, 0]) == 1
        assert naive_guess(0, [1, 1, 1]) == 3

    def test_naive_guess_one_guess_per_trial(self):
        # A trials x others matrix used to be summed whole into one guess (3),
        # and a single number was taken as one message.
        guesses = naive_guess(1, [[0, 1], [1, 0]])
        assert guesses.tolist() == [2, 2]
        assert type(naive_guess(1, [0, 1])) is int
        with pytest.raises(InvalidParameterError, match="received"):
            naive_guess(1, 1)

    @settings(max_examples=60, deadline=None)
    @given(own_bit=st.sampled_from([0, 1]),
           msgs=arrays(np.int8, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                       elements=st.integers(0, 1)))
    def test_naive_guess_is_aware_guess_at_p0(self, own_bit, msgs):
        naive = naive_guess(own_bit, msgs)
        aware = aware_guess(own_bit, msgs, 0.0)
        assert naive.shape == aware.shape == (len(msgs),)
        for row, guess, want in zip(msgs, naive, aware):
            assert guess == want == naive_guess(own_bit, row)

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

    # Each used to be accepted: a NaN p gave a NaN bias, p = 1.5 a bias, an
    # agent of -1 or True another agent's bias, and aware_guess(1, [1, 0],
    # -0.5) returned 2.0.
    @pytest.mark.parametrize("p", [math.nan, -0.5, 1.5, math.inf, "abc", None, 10**400])
    def test_naive_bias_probability_checked(self, p):
        with pytest.raises(InvalidParameterError, match="p "):
            naive_bias([1, 0, 1], 0, p)

    @pytest.mark.parametrize("agent", [3, -1, True, 0.5, "0", None])
    def test_naive_bias_agent_checked(self, agent):
        with pytest.raises(InvalidParameterError, match="agent"):
            naive_bias([1, 0, 1], agent, 0.5)

    @pytest.mark.parametrize("p", [math.nan, -0.5, 1.5, math.inf, "abc", None, 10**400])
    def test_aware_guess_probability_checked(self, p):
        with pytest.raises(InvalidParameterError, match="p "):
            aware_guess(1, [1, 0], p)

    def test_probability_strings_convert(self):
        assert naive_bias([1, 0, 1], 0, "0.5") == naive_bias([1, 0, 1], 0, 0.5)
        assert aware_guess(1, [1, 0], "0.5") == aware_guess(1, [1, 0], 0.5)

    # Each used to be scored as if it were a message: naive_guess(1, [2])
    # returned 3, naive_guess(1, [0.5]) 1, aware_guess(1, [2, 0], 0.25) 3.33 and
    # naive_bias([2, 0, 1], 0, 0.25) 0.0. A NaN raised a bare ValueError.
    @pytest.mark.parametrize("received", [[2], [0.5], [-1, 0], [math.nan], [1, 0, 2], ["abc"],
                                          [10**400], [[0, 1], [1]]])
    def test_non_bit_messages_rejected(self, received):
        with pytest.raises(InvalidParameterError, match="received"):
            naive_guess(1, received)
        with pytest.raises(InvalidParameterError, match="received"):
            aware_guess(1, received, 0.25)

    @pytest.mark.parametrize("bits", [[2, 0, 1], [1, 0.5, 1], [-1, 0, 1], [math.nan, 0, 1],
                                      ["abc", 0, 1], [[0, 1], [1, 0]], 1])
    def test_non_bit_bits_rejected(self, bits):
        with pytest.raises(InvalidParameterError, match="bits"):
            naive_bias(bits, 0, 0.25)

    def test_aware_guess_scalar_messages_rejected(self):
        # Used to raise a bare IndexError.
        for received in (-1, 1):
            with pytest.raises(InvalidParameterError, match="received"):
                aware_guess(1, received, 0.25)

    def test_message_matrices_checked_entrywise(self):
        # A trials x others matrix of messages is scored row by row, as before,
        # and one bad entry anywhere in it is rejected.
        msgs = np.array([[0, 1, 1], [1, 1, 0], [0, 0, 0]])
        assert np.array_equal(aware_guess(1, msgs, 0.5),
                              [aware_guess(1, list(row), 0.5) for row in msgs])
        assert np.array_equal(aware_guess(0, msgs.astype(float), 0.0), [2.0, 2.0, 0.0])
        assert naive_guess(1, np.array([True, False, True])) == 3
        msgs[2, 1] = 2
        with pytest.raises(InvalidParameterError, match="received must be 0s and 1s, got 2.0"):
            aware_guess(1, msgs, 0.5)

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
        # Vectors whose x.x overflows or underflows, and clip norms as extreme.
        for _ in range(400):
            v = rng.normal(size=rng.integers(1, 12)) * 10.0 ** rng.integers(-300, 301)
            c = float(rng.uniform(0.1, 5.0)) * 10.0 ** rng.integers(-300, 301)
            assert np.linalg.norm(clip(v, c).values / c) <= 1.0 + 1e-12
        # [1e200] used to give [0.0] with a RuntimeWarning; the other two used
        # to leave the ball, at 5 and 1.65 times the clip norm.
        assert np.array_equal(clip([1e200], 1.0).values, [1.0])
        for values, c in [([3e-170, 4e-170], 1e-170), ([2e-154], 1.5e-170)]:
            assert math.hypot(*clip(values, c).values) / c == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_bad_norm(self):
        with pytest.raises(InvalidParameterError):
            clip([1.0], 0.0)

    def test_norm_used_as_the_float_it_checked(self):
        # "0.5" used to pass the range check and then fail to compare with the norm.
        clipped = clip([3.0, 4.0], "0.5")
        assert clipped.clip_norm == 0.5 and type(clipped.clip_norm) is float
        assert np.array_equal(clipped.values, clip([3.0, 4.0], 0.5).values)

    @pytest.mark.parametrize("values", [[math.nan], [math.inf], [0.1, -math.inf], [[1.0, math.nan]]])
    def test_non_finite_values_rejected(self, values):
        # [nan] used to give a NaN "clipped" vector, and [inf] NaN with a
        # RuntimeWarning: neither lies in the ball the sensitivity bound assumes.
        with pytest.raises(InvalidParameterError, match="finite"):
            clip(values, 1.0)

    @pytest.mark.parametrize("clip_norm", [math.inf, math.nan, 10**400],
                             ids=["inf", "nan", "401-digit"])
    def test_non_finite_norm_rejected(self, clip_norm):
        # math.inf used to be accepted.
        with pytest.raises(InvalidParameterError, match="clip_norm"):
            clip([1.0], clip_norm)

    @pytest.mark.parametrize("values", [2.5, [[3.0, 4.0], [0.0, 1.0]]], ids=["number", "2x2"])
    def test_non_vector_values_rejected(self, values):
        # A number used to give a 0-d message on which gaussian_perturb raised
        # a bare IndexError; a matrix was clipped by its Frobenius norm.
        with pytest.raises(InvalidParameterError, match="values must be a vector"):
            clip(values, 1.0)


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

    def test_sigma_used_as_the_float_it_checked(self):
        # "0.0" used to pass the range check and reach numpy as a string.
        msg = clip([0.5, -0.2], 1.0)
        assert np.array_equal(gaussian_perturb(msg, "0.0", 9), msg.values)
        assert np.array_equal(gaussian_perturb(msg, "0.5", 9), gaussian_perturb(msg, 0.5, 9))

    @pytest.mark.parametrize("size", [2.5, -1, True, "2"])
    def test_bad_size_rejected(self, size):
        # 2.5 used to draw 2 vectors silently, -1 to raise numpy's bare ValueError.
        with pytest.raises(InvalidParameterError, match="size"):
            gaussian_perturb(clip([1.0, 0.0], 2.0), 1.0, 0, size=size)

    def test_valid_sizes_keep_their_draws(self):
        msg = clip([0.5, -0.2], 1.0)
        assert gaussian_perturb(msg, 1.0, 9, size=0).shape == (0, 2)
        rng = substream(9)
        assert np.array_equal(gaussian_perturb(msg, 1.0, 9, size=np.int64(3)),
                              msg.values + rng.normal(0.0, 1.0, size=(3, 2)))

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

    @pytest.mark.parametrize("rate", [None, [0.5]], ids=["None", "list"])
    def test_non_number_rate_rejected(self, rate):
        # Both used to raise a bare TypeError from the range check.
        with pytest.raises(InvalidParameterError, match="rate"):
            subsample(range(4), rate, 0)

    def test_rate_used_as_the_float_it_checked(self):
        # "0.5" used to raise a bare TypeError from the range check.
        assert subsample(range(4), "0.5", 0) == subsample(range(4), 0.5, 0)
