import collections
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomm import (
    BinarySumsInstance,
    DegenerateMechanismError,
    InvalidParameterError,
    analytic_outcome,
    binary_sums,
    naive_bias,
    run_game,
)
from dpcomm.rng import BLOCK_SIZE, substream

LN3 = math.log(3)  # flip probability exactly 1/2


def make(bits, eps, mode):
    return BinarySumsInstance(tuple(bits), (eps,) * len(bits), mode)


# The block kernel the library used before it reduced a block to counts and a
# Gram matrix, kept as the test oracle: it builds the m x N messages and the
# per-trial guesses, then sums them.
def _reference_simulate_block(instance, rng_seed, block, m):
    n = instance.num_agents
    probs = np.array(instance.flip_probs)
    bits = np.array(instance.bits, dtype=float)
    x = np.empty((m, n))
    for j in range(n):
        rng = substream(rng_seed, j, block)
        flips = rng.random(m) < probs[j]
        coins = rng.integers(0, 2, size=m)
        x[:, j] = np.where(flips, coins, bits[j])
    if instance.receiver_mode == "aware":
        debiased = (x - probs / 2.0) / (1.0 - probs)
        guesses = bits + (debiased.sum(axis=1)[:, None] - debiased)
    else:
        guesses = bits + (x.sum(axis=1)[:, None] - x)
    return guesses.sum(axis=0), (guesses**2).sum(axis=0)


def _matmul_messages(instance, rng_seed, block, m):
    """One block's N x m 0/1 messages as a float64 array, drawn as
    rr_perturb once drew them, with np.where."""
    x = np.empty((instance.num_agents, m))
    for j, (bit, p) in enumerate(zip(instance.bits, instance.flip_probs)):
        rng = substream(rng_seed, j, block)
        flips = rng.random(m) < p
        x[j] = np.where(flips, rng.integers(0, 2, size=m), bit)
    return x


# The Gram matrix the library used before it counted it with popcounts over
# bit-packed rows, kept as the test oracle: the float64 BLAS product x @ x.T of
# the N x m messages.
def _matmul_gram(instance, rng_seed, block, m):
    x = _matmul_messages(instance, rng_seed, block, m)
    return x @ x.T


def matmul_run_game(instance, trials, rng_seed):
    with mock.patch.object(binary_sums, "_message_gram", _matmul_gram):
        return run_game(instance, trials, rng_seed)


# The game the library ran before it summed its blocks' Gram matrices, kept as
# the test oracle: per-block guess sums and sums of squares, combined per agent
# with math.fsum. The variance is taken from those two sums in rational
# arithmetic, so it is exact wherever the sums are (every naive game).
def reference_run_game(instance, trials, rng_seed):
    full, rest = divmod(trials, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rest] if rest else [])
    results = [_reference_simulate_block(instance, rng_seed, b, m) for b, m in enumerate(sizes)]
    means, std_errors = [], []
    for i in range(instance.num_agents):
        s = math.fsum(float(r[0][i]) for r in results)
        ss = math.fsum(float(r[1][i]) for r in results)
        var = max(Fraction(ss) - Fraction(s) ** 2 / trials, 0) / (trials - 1)
        means.append(s / trials)
        std_errors.append(math.sqrt(var / trials))
    return binary_sums._outcome(int(sum(instance.bits)), means, std_errors)


#: How far a standard error may be from the exact one, in units in the last
#: place: the centred Gram is rounded to float64 once, then w^T C w, the
#: divisions and the square root each round.
SE_ULPS = 4


def assert_se_near(se, want):
    """``se`` is within SE_ULPS units in the last place of ``want``, and
    exactly 0 when ``want`` is."""
    assert (abs(se - want) <= SE_ULPS * math.ulp(want)) if want else se == 0.0


def assert_matches_reference(instance, trials, rng_seed):
    got = run_game(instance, trials, rng_seed)
    want = reference_run_game(instance, trials, rng_seed)
    if instance.receiver_mode == "naive":  # integer guesses: both kernels are exact
        assert (got.guesses, got.utilities, got.team_reward) == \
            (want.guesses, want.utilities, want.team_reward)
        for g, w in zip(got.mc_std_errors, want.mc_std_errors):
            assert_se_near(g, w)
        return
    # Aware messages are not integers, so the kernels round differently. The
    # reference adds its m guesses one by one, and its block sums drift from
    # exact arithmetic by up to about 1e-12 relative, against 1e-14 for the
    # new kernel (TestKernelAccuracy). So the means are compared relative to
    # their size, and the per-trial variances relative to the second moment
    # mean^2 + var that both kernels subtract mean^2 from.
    for g, w in zip(got.guesses, want.guesses):
        assert abs(g - w) <= 1e-11 * max(1.0, abs(w))
    for g, w, mean in zip(got.mc_std_errors, want.mc_std_errors, want.guesses):
        assert abs(g * g - w * w) * trials <= 1e-11 * (mean * mean + w * w * trials)


def _exact_game(instance, rng_seed, sizes):
    """Per-agent guess sum and sum of squares over the blocks of ``sizes`` in
    rational arithmetic, from the same draws and the same float message values."""
    probs = instance.flip_probs
    patterns = collections.Counter()
    for block, m in enumerate(sizes):
        rows = []
        for j, bit in enumerate(instance.bits):
            rng = substream(rng_seed, j, block)
            flips = rng.random(m) < probs[j]
            coins = rng.integers(0, 2, size=m)
            rows.append(np.where(flips, coins, bit).tolist())
        patterns.update(zip(*rows))
    if instance.receiver_mode == "aware":
        values = [((0.0 - p / 2.0) / (1.0 - p), (1.0 - p / 2.0) / (1.0 - p)) for p in probs]
    else:
        values = [(0.0, 1.0)] * len(probs)
    sums, squares = [], []
    for i, bit in enumerate(instance.bits):
        s = ss = Fraction(0)
        for pattern, count in patterns.items():
            g = bit + sum(Fraction(values[j][x]) for j, x in enumerate(pattern) if j != i)
            s += count * g
            ss += count * g * g
        sums.append(s)
        squares.append(ss)
    return sums, squares


class TestAnalyticOutcome:
    def test_aware_always_exact(self):
        for bits in ([1, 0, 1], [0, 0], [1, 1, 1, 1, 0]):
            out = analytic_outcome(make(bits, 0.7, "aware"))
            assert out.guesses == (float(sum(bits)),) * len(bits)
            assert out.utilities == (0.0,) * len(bits)
            assert out.team_reward == 0.0

    def test_naive_all_ones(self):
        out = analytic_outcome(make([1, 1, 1], LN3, "naive"))
        assert out.utilities == pytest.approx((-0.5, -0.5, -0.5))

    def test_naive_matches_bias_formula(self):
        bits = [1, 0, 1, 1, 0]
        out = analytic_outcome(make(bits, LN3, "naive"))
        for i in range(5):
            expected = sum(bits) + naive_bias(bits, i, 0.5)
            assert out.guesses[i] == pytest.approx(expected, abs=1e-12)
        # the biased agents are exactly those whose peers hold 3 ones
        assert out.utilities == pytest.approx((0.0, -0.5, 0.0, 0.0, -0.5))

    def test_naive_no_noise_is_exact(self):
        out = analytic_outcome(make([1, 0, 1], 50.0, "naive"))
        assert out.utilities == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_team_reward_is_utility_sum(self):
        out = analytic_outcome(make([1, 0, 0, 1], 1.0, "naive"))
        assert out.team_reward == pytest.approx(sum(out.utilities), abs=0)
        assert all(u <= 0 for u in out.utilities)

    def test_heterogeneous_budgets(self):
        inst = BinarySumsInstance((1, 0, 1), (0.5, LN3, 2.0), "naive")
        out = analytic_outcome(inst)
        probs = inst.flip_probs
        for i in range(3):
            err = sum(probs[j] * (0.5 - inst.bits[j]) for j in range(3) if j != i)
            assert out.guesses[i] == pytest.approx(3 - 1 + err + 1 - 1)  # bit sum is 2
            assert out.guesses[i] == pytest.approx(2 + err)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        mode=st.sampled_from(["naive", "aware"]),
    )
    def test_permuting_agents_permutes_the_outcome(self, data, n, mode):
        # Agent i's naive bias is a math.fsum over the others, which does not
        # depend on their order, so relabelling the agents moves each guess and
        # utility with its agent, bit for bit, and keeps the team reward.
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        epsilons = data.draw(st.lists(st.one_of(st.floats(1e-3, 800.0), st.just(math.inf)),
                                      min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        out = analytic_outcome(BinarySumsInstance(bits, epsilons, mode))
        moved = analytic_outcome(BinarySumsInstance([bits[k] for k in order],
                                                    [epsilons[k] for k in order], mode))
        assert moved.guesses == tuple(out.guesses[k] for k in order)
        assert moved.utilities == tuple(out.utilities[k] for k in order)
        assert moved.team_reward == out.team_reward


class TestRunGame:
    def test_infinite_budget_perfect_communication(self):
        # eps = inf forces p = 0: messages are exact, utilities exactly 0.
        inst = BinarySumsInstance((1, 0, 1, 1), (math.inf,) * 4, "aware")
        out = run_game(inst, 1000, 0)
        assert out.utilities == (0.0, 0.0, 0.0, 0.0)
        assert out.mc_std_errors == (0.0, 0.0, 0.0, 0.0)

    def test_aware_unbiased(self):
        inst = make([1, 0, 1, 1, 0], LN3, "aware")
        out = run_game(inst, 10**6, 1)
        for g, se in zip(out.guesses, out.mc_std_errors):
            assert abs(g - 3) <= 3 * se

    def test_naive_matches_analytic_bias(self):
        inst = make([1, 0, 1, 1, 0], LN3, "naive")
        out = run_game(inst, 10**6, 2)
        exact = analytic_outcome(inst)
        for g, e, se in zip(out.guesses, exact.guesses, out.mc_std_errors):
            assert abs(g - e) <= 3 * se
        # agent 1 has bias -1/2: utility close to -0.5
        assert out.utilities[1] == pytest.approx(-0.5, abs=3 * out.mc_std_errors[1])

    @pytest.mark.parametrize("mode", ["naive", "aware"])
    def test_oracle_agreement_sampled_patterns(self, mode):
        rng_patterns = [(1, 0, 0), (1, 1, 0, 1), (0, 1, 1, 0, 1, 0)]
        for bits in rng_patterns:
            for p_target in (0.1, 0.9):
                eps = math.log(2.0 / p_target - 1.0)
                inst = make(bits, eps, mode)
                out = run_game(inst, 2 * 10**5, 7)
                exact = analytic_outcome(inst)
                for g, e, se in zip(out.guesses, exact.guesses, out.mc_std_errors):
                    assert abs(g - e) <= 3 * se + 1e-12

    def test_guesses_that_never_vary_have_zero_error(self):
        # No receiver's guess varies over these three trials. The game used to
        # report about 2e-8 for each, cancellation noise between two sums of
        # squares of size T k^2, where k is the guess's constant part.
        out = run_game(BinarySumsInstance((1, 0, 1), (1.0,) * 3, "aware"), 3, 1)
        assert out.mc_std_errors == (0.0, 0.0, 0.0)

    def test_numpy_integer_trials_beyond_int64_products(self):
        # T (T - 1) and T * G pass 2**63 here. A synthetic Gram per block keeps
        # the 94,605 blocks fast; np.int64 trials used to overflow the divisor.
        def gram(instance, rng_seed, block, m):
            return np.array([[m, m // 2], [m // 2, m - m // 4]], dtype=float)

        instance = BinarySumsInstance((1, 0), (1.0, 2.0), "aware")
        trials = 3_100_000_001
        with mock.patch.object(binary_sums, "_message_gram", gram):
            assert run_game(instance, np.int64(trials), 0) == run_game(instance, trials, 0)

    def test_deterministic_given_seed(self):
        inst = make([1, 0, 1], 1.0, "aware")
        assert run_game(inst, 5000, 3) == run_game(inst, 5000, 3)

    def test_jobs_do_not_change_result(self):
        inst = make([1, 0, 1, 1], 1.0, "naive")
        assert run_game(inst, 10**5, 4) == run_game(inst, 10**5, 4, jobs=4)

    @pytest.mark.parametrize("jobs", [0, -1, True, 2.5, "2"])
    def test_bad_jobs(self, jobs):
        # These used to run serially, and "2" raised a bare TypeError.
        with pytest.raises(InvalidParameterError, match="jobs"):
            run_game(make([1, 0, 1], 1.0, "naive"), 1000, 0, jobs=jobs)

    def test_degenerate_aware(self):
        # exp(1e-18) rounds to 1.0, so the flip probability is exactly 1
        inst = make([1, 0], 1e-18, "aware")
        with pytest.raises(DegenerateMechanismError):
            run_game(inst, 100, 0)

    @pytest.mark.parametrize("rng_seed", [-1, 2.5, math.nan, "3", None, True, 3.0])
    def test_bad_seed_rejected_before_any_block(self, rng_seed):
        # 2.5 and NaN used to raise numpy's TypeError, and "3" '<' not supported.
        with mock.patch.object(binary_sums, "_message_gram") as block:
            with pytest.raises(InvalidParameterError, match="rng_seed"):
                run_game(make([1, 0, 1], 1.0, "naive"), 1000, rng_seed)
        block.assert_not_called()

    def test_any_nonnegative_integer_seed(self):
        instance = make([1, 0, 1], 1.0, "naive")
        assert run_game(instance, 1000, np.int64(3)) == run_game(instance, 1000, 3)
        assert run_game(instance, 1000, np.uint64(2**64 - 1)) == \
            run_game(instance, 1000, 2**64 - 1)
        run_game(instance, 1000, 2**100)  # not capped at 2**53

    def test_bad_trials(self):
        with pytest.raises(InvalidParameterError):
            run_game(make([1], 1.0, "naive"), 0, 0)
        # One trial leaves no variance to estimate: the game used to divide by
        # max(T - 1, 1) and report cancellation noise, such as 2.98e-08, as
        # the standard error of an aware agent.
        with pytest.raises(InvalidParameterError, match="trials must be an integer >= 2, got 1$"):
            run_game(BinarySumsInstance((1, 0, 1), (1.0,) * 3, "aware"), 1, 4)


SWEEP_GRID = [
    (bits, p, mode)
    for mode in ("naive", "aware")
    for bits in itertools.product((0, 1), repeat=5)
    for p in (0.1, 0.5, 0.9)
]


class TestKernelMatchesReference:
    def test_sweep_grid(self):
        # The benchmark's mc_sweep instances, over a full and a ragged block.
        for k, (bits, p, mode) in enumerate(SWEEP_GRID):
            assert_matches_reference(make(bits, math.log(2.0 / p - 1.0), mode),
                                     BLOCK_SIZE + 4321, k)

    @pytest.mark.parametrize("mode", ["naive", "aware"])
    def test_wide(self, mode):
        rng = np.random.default_rng(64)
        bits = tuple(int(b) for b in rng.integers(0, 2, 64))
        instance = BinarySumsInstance(bits, tuple(rng.uniform(0.5, 3.0, 64)), mode)
        assert_matches_reference(instance, 2 * BLOCK_SIZE, 11)

    @pytest.mark.parametrize("mode", ["naive", "aware"])
    def test_infinite_budget(self, mode):
        instance = BinarySumsInstance((1, 0, 1, 1), (math.inf, 1.0, math.inf, 2.0), mode)
        assert_matches_reference(instance, BLOCK_SIZE + 5, 12)

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
        data=st.data(),
        mode=st.sampled_from(["naive", "aware"]),
        last=st.integers(1, BLOCK_SIZE),
        rng_seed=st.integers(0, 2**63),
    )
    def test_random_instances(self, bits, data, mode, last, rng_seed):
        epsilons = data.draw(st.lists(
            st.one_of(st.floats(0.5, 8.0), st.just(math.inf)),
            min_size=len(bits), max_size=len(bits)))
        instance = BinarySumsInstance(tuple(bits), tuple(epsilons), mode)
        assert_matches_reference(instance, BLOCK_SIZE + last, rng_seed)


class TestPackedGram:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 64),
        m=st.one_of(st.sampled_from([1, 7, 8, 9, 63, 64, 65, BLOCK_SIZE - 1, BLOCK_SIZE]),
                    st.integers(1, BLOCK_SIZE)),
        data=st.data(),
        block=st.integers(0, 40),
        rng_seed=st.integers(0, 2**63),
    )
    def test_popcount_gram_equals_matmul(self, n, m, data, block, rng_seed):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        epsilons = data.draw(st.lists(  # 1e-12 flips almost surely, inf never
            st.one_of(st.floats(1e-12, 8.0), st.just(math.inf)), min_size=n, max_size=n))
        instance = BinarySumsInstance(tuple(bits), tuple(epsilons), "naive")
        x = _matmul_messages(instance, rng_seed, block, m)
        assert np.array_equal(binary_sums._message_gram(instance, rng_seed, block, m), x @ x.T)

    @pytest.mark.parametrize("m", [1, 100, BLOCK_SIZE - 1])
    def test_seeded_ragged_blocks(self, m):
        # Mixed bits and flip rates over blocks with m mod 64 != 0, while every
        # np.empty buffer comes back with all its bits set, as reused memory
        # may: neither the padding nor an entry left unwritten may count.
        instance = BinarySumsInstance((1, 0, 1, 1), (0.5, 1.0, 2.0, math.inf), "naive")
        x = _matmul_messages(instance, 7, 3, m)

        def empty_of_ones(shape, dtype=float):
            buffer = np.zeros(shape, dtype)
            buffer.view(np.uint8).fill(0xFF)
            return buffer

        with mock.patch.object(np, "empty", empty_of_ones):
            gram = binary_sums._message_gram(instance, 7, 3, m)
        assert np.array_equal(gram, x @ x.T)

    @pytest.mark.parametrize("m", [1, 7, 9, 63, 65, 100, BLOCK_SIZE - 1])
    def test_padding_never_counts(self, m):
        # Exact all-ones rows fill every bit a ragged block uses, and no more.
        instance = BinarySumsInstance((1, 1, 1), (math.inf,) * 3, "naive")
        assert np.array_equal(binary_sums._message_gram(instance, 0, 0, m), np.full((3, 3), m))


class TestKernelMatchesMatmul:
    def test_sweep_grid(self):
        # The benchmark's mc_sweep instances, over a full and a ragged block.
        for k, (bits, p, mode) in enumerate(SWEEP_GRID):
            instance = make(bits, math.log(2.0 / p - 1.0), mode)
            assert run_game(instance, BLOCK_SIZE + 4321, k) == \
                matmul_run_game(instance, BLOCK_SIZE + 4321, k)

    @pytest.mark.parametrize("mode", ["naive", "aware"])
    def test_wide_with_two_jobs(self, mode):
        rng = np.random.default_rng(640)
        bits = tuple(int(b) for b in rng.integers(0, 2, 64))
        instance = BinarySumsInstance(bits, tuple(rng.uniform(0.5, 3.0, 64)), mode)
        trials = 2 * BLOCK_SIZE + 777
        assert run_game(instance, trials, 13, jobs=2) == matmul_run_game(instance, trials, 13)


# The draw helper before it read raw words: the flips from random(), then the
# int64 coins from integers(0, 2).
def _reference_rr_row(rng, bit, flip_prob, m):
    flips = rng.random(m) < flip_prob
    coins = rng.integers(0, 2, size=m).astype(bool)
    return (~flips | coins) if bit else (flips & coins)


class TestRawWordDraws:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode", ["naive", "aware"])
    def test_run_game_unchanged(self, mode, jobs):
        # 24 agents, a ragged last block of odd length, and one agent at each
        # of p = 0, 1/2 and ~1.
        rng = np.random.default_rng(24)
        n = 24
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        epsilons = (math.inf, LN3, 1e-9) + tuple(rng.uniform(0.2, 4.0, n - 3))
        instance = BinarySumsInstance(bits, epsilons, mode)
        trials = BLOCK_SIZE + 1235
        got = run_game(instance, trials, 21, jobs=jobs)
        with mock.patch.object(binary_sums, "_rr_row", _reference_rr_row):
            assert got == run_game(instance, trials, 21, jobs=jobs)


class TestKernelAccuracy:
    @pytest.mark.parametrize("mode", ["naive", "aware"])
    @pytest.mark.parametrize("epsilons", [
        (LN3,) * 5,                      # p = 1/2: every message value is a dyadic rational
        (math.log(19.0),) * 5,           # p = 0.1
        (math.log(2.0 / 0.9 - 1.0),) * 5,  # p = 0.9
        (0.5, 1.0, 2.0, 3.0, math.inf),
    ])
    def test_block_statistics_match_exact_arithmetic(self, mode, epsilons):
        # One full block and one ragged block. The second moment is the one
        # the standard error implies, mean^2 + se^2 (trials - 1), taken exactly.
        instance = BinarySumsInstance((1, 1, 0, 1, 1), epsilons, mode)
        trials = BLOCK_SIZE + 1234
        out = run_game(instance, trials, 21)
        exact_s, exact_ss = _exact_game(instance, 21, (BLOCK_SIZE, 1234))
        for g, se, s, ss in zip(out.guesses, out.mc_std_errors, exact_s, exact_ss):
            assert abs(Fraction(g) - s / trials) <= 1e-14 * max(1, abs(s / trials))
            second = Fraction(g) ** 2 + Fraction(se) ** 2 * (trials - 1)
            assert abs(second - ss / trials) <= 1e-14 * (ss / trials)


class TestExactStandardErrors:
    """Each standard error is the exact sample one of the game's guesses, to a
    few ulps, whatever the size of their constant part."""

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
        data=st.data(),
        mode=st.sampled_from(["naive", "aware"]),
        trials=st.one_of(st.integers(2, 200), st.integers(BLOCK_SIZE + 1, BLOCK_SIZE + 3000)),
        rng_seed=st.integers(0, 2**63),
    )
    def test_within_ulps_of_the_exact_value(self, bits, data, mode, trials, rng_seed):
        epsilons = data.draw(st.lists(
            st.one_of(st.floats(0.3, 8.0), st.just(math.inf)),
            min_size=len(bits), max_size=len(bits)))
        instance = BinarySumsInstance(tuple(bits), tuple(epsilons), mode)
        out = run_game(instance, trials, rng_seed)
        sizes = [BLOCK_SIZE, trials - BLOCK_SIZE] if trials > BLOCK_SIZE else [trials]
        for se, s, ss in zip(out.mc_std_errors, *_exact_game(instance, rng_seed, sizes)):
            variance = (ss - s * s / trials) / (trials - 1)
            assert_se_near(se, math.sqrt(variance / trials))

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
        data=st.data(),
        mode=st.sampled_from(["naive", "aware"]),
        trials=st.integers(2, BLOCK_SIZE + 3000),
        rng_seed=st.integers(0, 2**63),
    )
    def test_constant_messages_give_zero(self, bits, data, mode, trials, rng_seed):
        # At most one agent randomizes; every other agent sends its bit exactly.
        noisy = data.draw(st.one_of(st.none(), st.integers(0, len(bits) - 1)))
        epsilons = [math.inf] * len(bits)
        if noisy is not None:
            epsilons[noisy] = data.draw(st.floats(0.1, 8.0))
        out = run_game(BinarySumsInstance(tuple(bits), tuple(epsilons), mode), trials, rng_seed)
        # A receiver that sees only exact messages makes the same guess every trial.
        for i, se in enumerate(out.mc_std_errors):
            if noisy in (None, i):
                assert se == 0.0


class TestDominance:
    def test_aware_never_worse_and_strictly_better_off_knife_edge(self):
        # Exact analytic comparison across every pattern at N <= 8.
        for n in range(2, 9):
            for bits in itertools.product((0, 1), repeat=n):
                for p in (0.1, 0.5, 0.9):
                    eps = math.log(2.0 / p - 1.0)
                    aware = analytic_outcome(make(bits, eps, "aware"))
                    naive = analytic_outcome(make(bits, eps, "naive"))
                    assert aware.team_reward >= naive.team_reward
                    biased = any(
                        2 * sum(bits[j] for j in range(n) if j != i) != n - 1
                        for i in range(n)
                    )
                    if biased:
                        assert aware.team_reward > naive.team_reward


class TestValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(InvalidParameterError):
            BinarySumsInstance((1, 0), (1.0,), "naive")

    def test_bad_bits(self):
        with pytest.raises(InvalidParameterError):
            BinarySumsInstance((1, 2), (1.0, 1.0), "naive")

    def test_fractional_bit_rejected_not_floored(self):
        with pytest.raises(InvalidParameterError, match="0.5"):
            BinarySumsInstance((0.5, 1), (1.0, 1.0), "naive")

    def test_non_integer_trials_rejected(self):
        with pytest.raises(InvalidParameterError, match="trials"):
            run_game(make([1], 1.0, "naive"), 2.0, 0)

    def test_trials_beyond_float_precision_rejected(self):
        # A 401-digit count used to overflow when split into blocks.
        with pytest.raises(InvalidParameterError, match="trials must be at most 2"):
            run_game(make([1], 1.0, "naive"), 10**400, 0)

    def test_trials_beyond_int_print_limit_rejected(self):
        # Formatting the message used to raise Python's 4300-digit ValueError.
        with pytest.raises(InvalidParameterError, match="trials must be at most 2"):
            run_game(make([1], 1.0, "naive"), 10**5000, 0)
        with pytest.raises(InvalidParameterError, match="trials must be an integer >= 2"):
            run_game(make([1], 1.0, "naive"), -10**5000, 0)

    def test_epsilon_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="epsilons"):
            BinarySumsInstance((1, 0), (1.0, 10**400), "naive")

    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            BinarySumsInstance((1,), (1.0,), "trusting")
