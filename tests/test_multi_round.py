import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpcomm import (
    EnumerationBudgetError,
    InvalidActionError,
    InvalidParameterError,
    MrsAction,
    MrsConfig,
    MrsState,
    TabularPolicy,
    best_response_policy,
    find_mpg_nash,
    policy_value,
    potential,
    potential_value,
    step_reward,
    theta,
    transition,
    verify_mpg,
)
from dpcomm.multi_round import (
    lex_min_profile,
    policy_space_size,
    reachable_savings,
    rollout,
    valid_actions,
)


# The brute-force code the library used before verify_mpg was factored and
# rollout stopped building an MrsState per round, kept as test oracles.
def enumerate_policies(cfg, agent, start):
    """All tabular policies of one agent over its reachable decision points."""
    keys = []
    choices = []
    levels = reachable_savings(cfg, agent, start)
    for offset, savings in enumerate(levels):
        t = start.step + offset
        for s in savings:
            keys.append((s, t))
            choices.append(valid_actions(cfg, s))
    policies = []
    for combo in itertools.product(*choices):
        policies.append(TabularPolicy(agent, dict(zip(keys, combo))))
    return policies


def _reference_rollout(policies, cfg, start):
    n = len(start.savings)
    reward_terms = [[] for _ in range(n)]
    potential_terms = []
    state = start
    for t in range(start.step, cfg.horizon):
        actions = [policies[j].action_at(state.savings[j], state.step) for j in range(n)]
        gamma_t = cfg.discount ** (t - start.step)
        for i in range(n):
            reward_terms[i].append(gamma_t * step_reward(state, actions, i, cfg))
        potential_terms.append(gamma_t * potential(state, actions, cfg))
        state = transition(state, actions)
    return tuple(math.fsum(terms) for terms in reward_terms), math.fsum(potential_terms)


def _reference_verify_mpg(cfg, start, tol=1e-12, budget=10**6):
    """Exhaustive check: the spread of V_i - Phi over agent i's policies, for
    every fixed opponent profile, over the joint tabular policy space."""
    total = policy_space_size(cfg, start)
    if total > budget:
        raise EnumerationBudgetError(
            f"{total} joint policy profiles exceed the budget of {budget}; "
            "use a smaller instance"
        )
    policy_lists = [enumerate_policies(cfg, agent, start) for agent in range(cfg.num_agents)]
    sizes = [len(pl) for pl in policy_lists]
    values = {}
    for combo in itertools.product(*(range(s) for s in sizes)):
        profile = [policy_lists[j][combo[j]] for j in range(cfg.num_agents)]
        values[combo] = _reference_rollout(profile, cfg, start)
    max_violation = 0.0
    for i in range(cfg.num_agents):
        gaps = {}
        for combo, (vals, phi) in values.items():
            others = combo[:i] + combo[i + 1:]
            gaps.setdefault(others, []).append(vals[i] - phi)
        for gap_list in gaps.values():
            max_violation = max(max_violation, max(gap_list) - min(gap_list))
    return max_violation <= tol, max_violation


def small_config(**overrides):
    kwargs = dict(
        num_agents=2,
        horizon=2,
        discount=1.0,
        reward_alpha=0.1,
        reward_beta=0.2,
        initial_savings=(2.0, 2.0),
        spend_grid=(0.0, 1.0),
        privacy_grid=(0.0, 0.5),
    )
    kwargs.update(overrides)
    return MrsConfig(**kwargs)


STATE = MrsState((2.0, 2.0), 0)
ACTIONS = [MrsAction(1.0, 0.5), MrsAction(0.0, 0.0)]


class TestTransition:
    def test_spend_reduces_savings(self):
        nxt = transition(STATE, ACTIONS)
        assert nxt.savings == (1.0, 2.0)
        assert nxt.step == 1

    def test_zero_spend_keeps_savings(self):
        nxt = transition(STATE, [MrsAction(0.0, 0.5), MrsAction(0.0, 0.0)])
        assert nxt.savings == STATE.savings
        assert nxt.step == 1

    def test_overspend_rejected(self):
        with pytest.raises(InvalidActionError):
            transition(MrsState((1.0,), 0), [MrsAction(2.0, 0.0)])


class TestRewardAndPotential:
    def test_step_reward_example(self):
        cfg = small_config()
        assert step_reward(STATE, ACTIONS, 0, cfg) == pytest.approx(0.8, abs=1e-12)
        assert step_reward(STATE, ACTIONS, 1, cfg) == pytest.approx(0.7, abs=1e-12)

    def test_zero_actions_leave_only_savings_term(self):
        cfg = small_config()
        acts = [MrsAction(0.0, 0.0)] * 2
        assert step_reward(STATE, acts, 0, cfg) == pytest.approx(0.1 * 2.0, abs=1e-15)

    def test_team_only_reward_identical_across_agents(self):
        cfg = small_config(reward_alpha=0.0, reward_beta=0.0)
        r = [step_reward(STATE, ACTIONS, i, cfg) for i in range(2)]
        assert r[0] == r[1] == pytest.approx(0.5, abs=1e-15)

    def test_potential_example(self):
        cfg = small_config()
        assert potential(STATE, ACTIONS, cfg) == pytest.approx(1.0, abs=1e-12)
        zero = [MrsAction(0.0, 0.0)] * 2
        assert potential(MrsState((0.0, 0.0), 0), zero, cfg) == 0.0

    def test_theta_identity(self):
        cfg = small_config()
        assert theta(STATE, ACTIONS, 0, cfg) == pytest.approx(-0.2, abs=1e-12)
        for i in range(2):
            gap = step_reward(STATE, ACTIONS, i, cfg) - potential(STATE, ACTIONS, cfg)
            assert theta(STATE, ACTIONS, i, cfg) == pytest.approx(gap, abs=1e-12)

    def test_theta_ignores_own_action_and_saving(self):
        cfg = small_config()
        base = theta(STATE, ACTIONS, 0, cfg)
        for own in valid_actions(cfg, 2.0):
            assert theta(STATE, [own, ACTIONS[1]], 0, cfg) == base
        moved = MrsState((0.5, 2.0), 0)
        assert theta(moved, ACTIONS, 0, cfg) == base

    def test_single_agent_theta_is_zero(self):
        cfg = MrsConfig(1, 2, 1.0, 0.1, 0.2, (2.0,), (0.0, 1.0), (0.0, 0.5))
        assert theta(MrsState((2.0,), 0), [MrsAction(1.0, 0.5)], 0, cfg) == 0.0


def hand_rolled_profile(cfg):
    """Fixed two-round policy pair used for the frozen-value tests."""
    p0 = TabularPolicy(0, {
        (2.0, 0): MrsAction(1.0, 0.5),
        (1.0, 1): MrsAction(1.0, 0.0),
        (2.0, 1): MrsAction(0.0, 0.5),
    })
    p1 = TabularPolicy(1, {
        (1.0, 0): MrsAction(0.0, 0.0),
        (1.0, 1): MrsAction(1.0, 0.5),
        (0.0, 1): MrsAction(0.0, 0.0),
    })
    return [p0, p1]


class TestPolicyValues:
    def test_horizon_one_equals_step_reward(self):
        cfg = small_config(horizon=1)
        profile = [
            TabularPolicy(0, {(2.0, 0): ACTIONS[0]}),
            TabularPolicy(1, {(2.0, 0): ACTIONS[1]}),
        ]
        assert policy_value(profile, 0, cfg, STATE) == step_reward(STATE, ACTIONS, 0, cfg)

    def test_hand_rolled_two_round_values(self):
        # Start (2, 1). Round 0: a0 = (1, .5), a1 = (0, 0) -> r0 = .8, r1 = .6,
        # J = .9; state becomes (1, 1). Round 1: a0 = (1, 0), a1 = (1, .5) ->
        # r0 = 1.6, r1 = 1.7, J = 1.8.
        cfg = small_config(initial_savings=(2.0, 1.0))
        start = cfg.start_state()
        profile = hand_rolled_profile(cfg)
        assert policy_value(profile, 0, cfg, start) == pytest.approx(2.4, abs=1e-12)
        assert policy_value(profile, 1, cfg, start) == pytest.approx(2.3, abs=1e-12)
        assert potential_value(profile, cfg, start) == pytest.approx(2.7, abs=1e-12)

    def test_hand_rolled_discounted(self):
        cfg = small_config(initial_savings=(2.0, 1.0), discount=0.9)
        start = cfg.start_state()
        profile = hand_rolled_profile(cfg)
        assert policy_value(profile, 0, cfg, start) == pytest.approx(0.8 + 0.9 * 1.6, abs=1e-12)
        assert policy_value(profile, 1, cfg, start) == pytest.approx(0.6 + 0.9 * 1.7, abs=1e-12)
        assert potential_value(profile, cfg, start) == pytest.approx(0.9 + 0.9 * 1.8, abs=1e-12)

    def test_zero_policies_zero_alpha_give_zero(self):
        cfg = small_config(reward_alpha=0.0)
        profile = lex_min_profile(cfg, cfg.start_state())  # all (spend 0, privacy 0)
        assert policy_value(profile, 0, cfg, cfg.start_state()) == 0.0
        assert potential_value(profile, cfg, cfg.start_state()) == 0.0

    def test_missing_policy_entry_raises(self):
        cfg = small_config()
        profile = [TabularPolicy(0, {}), TabularPolicy(1, {})]
        with pytest.raises(InvalidActionError):
            policy_value(profile, 0, cfg, cfg.start_state())

    def test_single_agent_value_equals_potential(self):
        # With one agent the non-common term is empty: V = Phi exactly.
        cfg = MrsConfig(1, 2, 1.0, 0.1, 0.2, (2.0,), (0.0, 1.0), (0.0, 0.5))
        start = cfg.start_state()
        for pol in enumerate_policies(cfg, 0, start):
            assert policy_value([pol], 0, cfg, start) == pytest.approx(
                potential_value([pol], cfg, start), abs=1e-15
            )


class TestMpgProperty:
    def test_exhaustive_alignment_single_state_deviations(self):
        # Direct check of the defining identity on every single-state
        # unilateral deviation, independent of verify_mpg's grouping trick.
        cfg = small_config(initial_savings=(1.0, 1.0))
        start = cfg.start_state()
        policies = [enumerate_policies(cfg, a, start) for a in range(2)]
        for i in range(2):
            for pi in policies[i]:
                for key in pi.actions:
                    for alt in valid_actions(cfg, key[0]):
                        if alt == pi.actions[key]:
                            continue
                        pj = policies[1 - i][17 % len(policies[1 - i])]
                        deviated = TabularPolicy(i, {**pi.actions, key: alt})
                        base = [None, None]
                        base[i], base[1 - i] = pi, pj
                        dev = [None, None]
                        dev[i], dev[1 - i] = deviated, pj
                        d_phi = potential_value(dev, cfg, start) - potential_value(base, cfg, start)
                        d_val = policy_value(dev, i, cfg, start) - policy_value(base, i, cfg, start)
                        assert d_phi == pytest.approx(d_val, abs=1e-12)

    def test_verify_mpg_true_on_standard_reward(self):
        cfg = small_config()
        ok, violation = verify_mpg(cfg, cfg.start_state())
        assert ok
        assert violation <= 1e-12

    def test_verify_mpg_discounted(self):
        cfg = small_config(discount=0.9, initial_savings=(1.0, 1.0))
        ok, violation = verify_mpg(cfg, cfg.start_state(), tol=1e-9)
        assert ok
        assert violation <= 1e-9

    def test_scaled_team_term_breaks_potential(self):
        cfg = small_config(team_weights=(1.5, 1.0), initial_savings=(1.0, 1.0))
        ok, violation = verify_mpg(cfg, cfg.start_state())
        assert not ok
        assert violation > 1e-3

    def test_single_agent_trivially_mpg(self):
        cfg = MrsConfig(1, 2, 1.0, 0.1, 0.2, (1.0,), (0.0, 1.0), (0.0, 0.5))
        ok, violation = verify_mpg(cfg, cfg.start_state())
        assert ok
        assert violation == 0.0

    def test_budget_guard(self):
        cfg = small_config(
            horizon=4,
            initial_savings=(4.0, 4.0),
            spend_grid=(0.0, 0.5, 1.0),
            privacy_grid=(0.0, 0.25, 0.5, 1.0),
        )
        assert policy_space_size(cfg, cfg.start_state()) > 10**6
        with pytest.raises(EnumerationBudgetError):
            _reference_verify_mpg(cfg, cfg.start_state())

    def test_no_budget_beyond_enumeration(self):
        # 1.7e66 joint profiles at horizon 10; nothing is enumerated.
        cfg = small_config(horizon=10, initial_savings=(10.0, 10.0))
        assert policy_space_size(cfg, cfg.start_state()) > 10**66
        assert verify_mpg(cfg, cfg.start_state()) == (True, 0.0)
        weighted = small_config(horizon=10, initial_savings=(10.0, 10.0), team_weights=(1.0, 3.0))
        # T ranges over [0, 10]: all ten unit spends in the open, or none.
        assert verify_mpg(weighted, weighted.start_state()) == (False, 20.0)

    def test_unaffordable_saving_rejected(self):
        cfg = small_config(initial_savings=(1.0, 1.0), spend_grid=(1.5,))
        with pytest.raises(InvalidActionError, match="affordable"):
            verify_mpg(cfg, cfg.start_state())


_MPG_BASE = dict(num_agents=2, horizon=2, discount=1.0, reward_alpha=0.1, reward_beta=0.2,
                 initial_savings=(2.0, 2.0), spend_grid=(0.0, 1.0), privacy_grid=(0.0, 0.5))

#: The shipped instance (acceptance criterion 6), the benchmark's verify_mpg
#: instances, and one case per branch of the factored check.
REFERENCE_CASES = {
    "shipped": _MPG_BASE,
    "grid3": dict(_MPG_BASE, privacy_grid=(0.0, 0.5, 1.0)),
    "n3": dict(_MPG_BASE, num_agents=3, initial_savings=(1.0, 1.0, 1.0)),
    "weighted": dict(_MPG_BASE, team_weights=(1.0, 2.0)),
    "weighted_discounted": dict(_MPG_BASE, team_weights=(0.5, 1.25), discount=0.7),
    "discounted": dict(_MPG_BASE, discount=0.9),
    "horizon0": dict(_MPG_BASE, horizon=0),
    "single_agent": dict(_MPG_BASE, num_agents=1, initial_savings=(2.0,), team_weights=(1.5,)),
    # A spend up to _SPEND_TOL above the saving is affordable and leaves 0.
    "spend_tol": dict(_MPG_BASE, horizon=3, initial_savings=(1.0, 1.0),
                      spend_grid=(0.0, 1.0000000005)),
    "spend_tol_weighted": dict(_MPG_BASE, horizon=3, initial_savings=(1.0, 1.0),
                               spend_grid=(0.0, 1.0000000005), privacy_grid=(0.0,),
                               team_weights=(1.0, 2.0)),
}


class TestReferenceVerify:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_brute_force(self, name):
        cfg = MrsConfig(**REFERENCE_CASES[name])
        start = cfg.start_state()
        ok, violation = verify_mpg(cfg, start)
        want_ok, want_violation = _reference_verify_mpg(cfg, start)
        assert ok == want_ok
        assert abs(violation - want_violation) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        horizon=st.integers(0, 3),
        discount=st.sampled_from([1.0, 0.9, 0.5]),
        savings=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=3, max_size=3),
        spends=st.sets(st.sampled_from([0.5, 1.0, 2.0]), max_size=2),
        privacy=st.sets(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=2),
        weights=st.lists(st.sampled_from([1.0, 1.0, 0.5, 2.0, 1.1]), min_size=3, max_size=3),
        alpha=st.sampled_from([0.0, 0.1, -0.3]),
        beta=st.sampled_from([0.0, 0.2, 1.0]),
    )
    def test_matches_brute_force_on_random_instances(self, n, horizon, discount, savings, spends,
                                                     privacy, weights, alpha, beta):
        cfg = MrsConfig(n, horizon, discount, alpha, beta, tuple(savings[:n]),
                        (0.0, *spends), tuple(privacy), tuple(weights[:n]))
        start = cfg.start_state()
        assume(policy_space_size(cfg, start) <= 5000)
        ok, violation = verify_mpg(cfg, start)
        want_ok, want_violation = _reference_verify_mpg(cfg, start)
        assert ok == want_ok
        assert abs(violation - want_violation) <= 1e-12


class TestReferenceRollout:
    @pytest.mark.parametrize("overrides", [
        {},
        {"discount": 0.9, "team_weights": (1.5, 0.5)},
        # Spending 0.30000000000000004 of 0.3 leaves -5.6e-17, which MrsState
        # snaps to 0; unsnapped, the second round's reward would be one ulp off.
        {"num_agents": 1, "reward_alpha": 1.0, "reward_beta": -0.3, "initial_savings": (0.3,),
         "spend_grid": (0.0, 0.1 + 0.2), "privacy_grid": (1.0,)},
    ])
    def test_bit_equal_on_every_profile(self, overrides):
        cfg = small_config(**overrides)
        start = cfg.start_state()
        policies = [enumerate_policies(cfg, a, start) for a in range(cfg.num_agents)]
        for profile in itertools.product(*policies):
            got = rollout(profile, cfg, start)
            assert got == _reference_rollout(profile, cfg, start)
            assert policy_value(profile, cfg.num_agents - 1, cfg, start) == got[0][-1]
            assert potential_value(profile, cfg, start) == got[1]

    def test_hand_rolled_profile_bit_equal(self):
        for discount in (1.0, 0.9):
            cfg = small_config(initial_savings=(2.0, 1.0), discount=discount)
            profile = hand_rolled_profile(cfg)
            assert rollout(profile, cfg, cfg.start_state()) == _reference_rollout(
                profile, cfg, cfg.start_state())

    def test_overspend_rejected(self):
        cfg = small_config(horizon=1, initial_savings=(1.0, 1.0))
        profile = [TabularPolicy(0, {(1.0, 0): MrsAction(2.0, 0.0)}),
                   TabularPolicy(1, {(1.0, 0): MrsAction(0.0, 0.0)})]
        for roll in (rollout, _reference_rollout):
            with pytest.raises(InvalidActionError, match="exceeds saving"):
                roll(profile, cfg, cfg.start_state())


class TestSpendTolerance:
    # The remainder of a spend up to _SPEND_TOL above the saving (-5e-10 here)
    # is 0, not a negative saving that the next state would reject.
    CFG = REFERENCE_CASES["spend_tol"]

    def test_remainder_is_zero(self):
        cfg = MrsConfig(**self.CFG)
        assert reachable_savings(cfg, 0, cfg.start_state()) == [[1.0], [0.0, 1.0], [0.0, 1.0]]
        after = transition(cfg.start_state(), [MrsAction(1.0000000005, 0.0), MrsAction(0.0, 0.0)])
        assert after.savings == (0.0, 1.0)

    def test_find_mpg_nash_converges(self):
        cfg = MrsConfig(**self.CFG)
        result = find_mpg_nash(cfg, cfg.start_state())
        assert result.converged
        trace = result.potential_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        # Both agents keep their saving, then spend it in the open in the last round.
        for policy in result.policies:
            assert policy.action_at(1.0, 2) == MrsAction(1.0000000005, 0.0)


class TestBestResponse:
    def test_large_privacy_reward_dominates(self):
        cfg = small_config(reward_beta=25.0)
        start = cfg.start_state()
        opponents = lex_min_profile(cfg, start)
        br = best_response_policy(opponents, 0, cfg, start)
        assert all(a.privacy == max(cfg.privacy_grid) for a in br.actions.values())

    def test_team_term_alone_prefers_open_spending(self):
        cfg = small_config(reward_alpha=0.0, reward_beta=0.0)
        start = cfg.start_state()
        opponents = lex_min_profile(cfg, start)
        br = best_response_policy(opponents, 0, cfg, start)
        for (saving, _), action in br.actions.items():
            feasible = [b for b in cfg.spend_grid if b <= saving + 1e-9]
            assert action.spend == max(feasible)
            assert action.privacy == 0.0

    def test_exhaustive_optimality(self):
        cfg = small_config(initial_savings=(1.0, 2.0))
        start = cfg.start_state()
        opponents = lex_min_profile(cfg, start)
        br = best_response_policy(opponents, 0, cfg, start)
        profile = [br, opponents[1]]
        best = policy_value(profile, 0, cfg, start)
        for candidate in enumerate_policies(cfg, 0, start):
            value = policy_value([candidate, opponents[1]], 0, cfg, start)
            assert value <= best + 1e-12

    def test_overspending_opponent_rejected(self):
        cfg = small_config(horizon=1, initial_savings=(1.0, 1.0))
        opponents = [TabularPolicy(0, {}), TabularPolicy(1, {(1.0, 0): MrsAction(2.0, 0.0)})]
        with pytest.raises(InvalidActionError):
            best_response_policy(opponents, 0, cfg, cfg.start_state())

    def test_horizon_zero_empty_policy(self):
        cfg = small_config(horizon=0)
        br = best_response_policy(lex_min_profile(cfg, cfg.start_state()), 0, cfg, cfg.start_state())
        assert br.actions == {}


class TestFindNash:
    def test_converges_with_monotone_potential(self):
        cfg = small_config()
        res = find_mpg_nash(cfg, cfg.start_state())
        assert res.converged
        trace = res.potential_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_no_profitable_deviation_at_fixed_point(self):
        cfg = small_config(initial_savings=(1.0, 1.0))
        start = cfg.start_state()
        res = find_mpg_nash(cfg, start)
        assert res.converged
        values = [policy_value(list(res.policies), i, cfg, start) for i in range(2)]
        for i in range(2):
            for candidate in enumerate_policies(cfg, i, start):
                trial = list(res.policies)
                trial[i] = candidate
                assert policy_value(trial, i, cfg, start) <= values[i] + 1e-12

    def test_single_agent_one_sweep(self):
        cfg = MrsConfig(1, 3, 1.0, 0.1, 0.2, (2.0,), (0.0, 1.0), (0.0, 0.5))
        res = find_mpg_nash(cfg, cfg.start_state())
        assert res.converged
        assert res.sweeps == 2  # second sweep only confirms the fixed point

    def test_symmetric_config_symmetric_equilibrium(self):
        cfg = small_config()
        res = find_mpg_nash(cfg, cfg.start_state())
        assert res.policies[0].actions == res.policies[1].actions


class TestValidation:
    def test_bad_discount(self):
        with pytest.raises(InvalidParameterError):
            small_config(discount=0.0)

    def test_bad_savings_length(self):
        with pytest.raises(InvalidParameterError):
            small_config(initial_savings=(1.0,))

    def test_bad_privacy_grid(self):
        with pytest.raises(InvalidParameterError):
            small_config(privacy_grid=(0.0, 1.5))

    def test_zero_sweeps_rejected(self):
        cfg = small_config()
        with pytest.raises(InvalidParameterError, match="max_sweeps"):
            find_mpg_nash(cfg, cfg.start_state(), max_sweeps=0)

    @pytest.mark.parametrize("tol", [-1e-12, 0.0, float("inf")])
    def test_verify_tolerance_checked(self, tol):
        cfg = small_config()
        with pytest.raises(InvalidParameterError, match="tol"):
            verify_mpg(cfg, cfg.start_state(), tol=tol)

    @pytest.mark.parametrize("overrides", [
        {"reward_alpha": float("inf")}, {"reward_beta": float("-inf")},
        {"team_weights": (1.0, float("inf"))}, {"spend_grid": (0.0, float("inf"))},
        {"num_agents": 2.0}, {"horizon": 1.5}, {"horizon": True},
        # integers beyond the float range, which float() rejects with OverflowError
        {"discount": 10**400}, {"reward_alpha": 10**400}, {"reward_beta": -10**400},
        {"initial_savings": (1.0, 10**400)}, {"team_weights": (10**400, 1.0)},
        {"spend_grid": (0.0, 10**400)}, {"privacy_grid": (0.0, 10**400)},
    ])
    def test_non_finite_or_non_integer_config_rejected(self, overrides):
        with pytest.raises(InvalidParameterError, match=next(iter(overrides))):
            small_config(**overrides)

    def test_state_integer_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="savings"):
            MrsState((10**400, 1.0), 0)

    def test_overflowing_reward_still_picks_an_action(self):
        # alpha * saving overflows to -inf for every action; the best response
        # used to keep no action at all and crash later.
        cfg = small_config(reward_alpha=-1e308)
        br = best_response_policy(lex_min_profile(cfg, cfg.start_state()), 0, cfg,
                                  cfg.start_state())
        assert all(a == MrsAction(0.0, 0.0) for a in br.actions.values())

    def test_negative_state(self):
        with pytest.raises(InvalidParameterError):
            MrsState((-1.0, 2.0), 0)

    def test_state_without_affordable_spend_rejected(self):
        # Every spend exceeds the saving: the state has no action at all.
        cfg = small_config(initial_savings=(1.0, 1.0), spend_grid=(1.5,))
        with pytest.raises(InvalidActionError, match="affordable"):
            find_mpg_nash(cfg, cfg.start_state())

    def test_masked_actions_at_zero_saving(self):
        cfg = small_config()
        acts = valid_actions(cfg, 0.0)
        assert all(a.spend == 0.0 for a in acts)
        assert len(acts) == len(cfg.privacy_grid)
