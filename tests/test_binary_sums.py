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


def reference_run_game(instance, trials, rng_seed):
    with mock.patch.object(binary_sums, "_simulate_block", _reference_simulate_block):
        return run_game(instance, trials, rng_seed)


def assert_matches_reference(instance, trials, rng_seed):
    got = run_game(instance, trials, rng_seed)
    want = reference_run_game(instance, trials, rng_seed)
    if instance.receiver_mode == "naive":  # integer guesses: both kernels are exact
        assert got == want
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


def _exact_block(instance, rng_seed, block, m):
    """Per-agent guess sum and sum of squares over one block in rational
    arithmetic, from the same draws and the same float message values."""
    probs = instance.flip_probs
    rows = []
    for j, bit in enumerate(instance.bits):
        rng = substream(rng_seed, j, block)
        flips = rng.random(m) < probs[j]
        coins = rng.integers(0, 2, size=m)
        rows.append(np.where(flips, coins, bit).tolist())
    if instance.receiver_mode == "aware":
        values = [((0.0 - p / 2.0) / (1.0 - p), (1.0 - p / 2.0) / (1.0 - p)) for p in probs]
    else:
        values = [(0.0, 1.0)] * len(probs)
    patterns = collections.Counter(zip(*rows))
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

    def test_deterministic_given_seed(self):
        inst = make([1, 0, 1], 1.0, "aware")
        assert run_game(inst, 5000, 3) == run_game(inst, 5000, 3)

    def test_jobs_do_not_change_result(self):
        inst = make([1, 0, 1, 1], 1.0, "naive")
        assert run_game(inst, 10**5, 4) == run_game(inst, 10**5, 4, jobs=4)

    def test_degenerate_aware(self):
        # exp(1e-18) rounds to 1.0, so the flip probability is exactly 1
        inst = make([1, 0], 1e-18, "aware")
        with pytest.raises(DegenerateMechanismError):
            run_game(inst, 100, 0)

    def test_bad_trials(self):
        with pytest.raises(InvalidParameterError):
            run_game(make([1], 1.0, "naive"), 0, 0)


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


class TestKernelAccuracy:
    @pytest.mark.parametrize("mode", ["naive", "aware"])
    @pytest.mark.parametrize("epsilons", [
        (LN3,) * 5,                      # p = 1/2: every message value is a dyadic rational
        (math.log(19.0),) * 5,           # p = 0.1
        (math.log(2.0 / 0.9 - 1.0),) * 5,  # p = 0.9
        (0.5, 1.0, 2.0, 3.0, math.inf),
    ])
    def test_block_statistics_match_exact_arithmetic(self, mode, epsilons):
        instance = BinarySumsInstance((1, 1, 0, 1, 1), epsilons, mode)
        for block, m in ((0, BLOCK_SIZE), (1, 1234)):
            exact_s, exact_ss = _exact_block(instance, 21, block, m)
            sums, squares = binary_sums._simulate_block(instance, 21, block, m)
            for got, exact in zip((*sums, *squares), (*exact_s, *exact_ss)):
                assert abs(Fraction(float(got)) - exact) <= 1e-14 * abs(exact)


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
        # A 401-digit count used to overflow in rng.block_sizes.
        with pytest.raises(InvalidParameterError, match="trials must be at most 2"):
            run_game(make([1], 1.0, "naive"), 10**400, 0)

    def test_trials_beyond_int_print_limit_rejected(self):
        # Formatting the message used to raise Python's 4300-digit ValueError.
        with pytest.raises(InvalidParameterError, match="trials must be at most 2"):
            run_game(make([1], 1.0, "naive"), 10**5000, 0)
        with pytest.raises(InvalidParameterError, match="trials must be an integer >= 1"):
            run_game(make([1], 1.0, "naive"), -10**5000, 0)

    def test_epsilon_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="epsilons"):
            BinarySumsInstance((1, 0), (1.0, 10**400), "naive")

    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            BinarySumsInstance((1,), (1.0,), "trusting")
