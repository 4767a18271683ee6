import itertools
import math

import pytest

from dpcomm import (
    BinarySumsInstance,
    DegenerateMechanismError,
    InvalidParameterError,
    analytic_outcome,
    naive_bias,
    run_game,
)

LN3 = math.log(3)  # flip probability exactly 1/2


def make(bits, eps, mode):
    return BinarySumsInstance(tuple(bits), (eps,) * len(bits), mode)


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

    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            BinarySumsInstance((1,), (1.0,), "trusting")
