import itertools
import math
import random
import re

import pytest
from hypothesis import assume, example, given, settings
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
from dpcomm.errors import require_index
from dpcomm.multi_round import (
    _affordable,
    _after_spend,
    _moves,
    _rounded,
    lex_min_profile,
    policy_space_size,
    rollout,
)


# The lattice walks the library used before ``_moves`` derived the lattice
# once, kept as the oracle of ``_moves`` and of the brute-force enumeration.
def valid_actions(cfg: MrsConfig, saving: float) -> list:
    """Actions available at a saving level, a key (``_rounded``): spends that
    do not overdraw, in ascending (spend, privacy) order; InvalidActionError
    if there is none."""
    actions = [
        MrsAction(b, p)
        for b in cfg.spend_grid
        if _affordable(saving, b)
        for p in cfg.privacy_grid
    ]
    if not actions:
        raise InvalidActionError(
            f"no spend in spend_grid {cfg.spend_grid} is affordable at saving {saving!r}")
    return actions


def reachable_savings(cfg: MrsConfig, agent: int, start: MrsState) -> list:
    """Per round, the agent's savings reachable under any valid spend path."""
    agent = require_index("agent", agent, cfg.num_agents)
    if cfg.horizon <= start.step:
        return []
    levels = [{start.savings[agent]}]
    for _ in range(start.step, cfg.horizon - 1):
        levels.append({_after_spend(x, b) for x in levels[-1]
                       for b in cfg.spend_grid if _affordable(x, b)})
    return [sorted(s) for s in levels]


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

    def test_one_action_per_agent(self):
        with pytest.raises(InvalidParameterError, match="need one action per agent"):
            transition(STATE, ACTIONS[:1])


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
        for own, _ in _moves(cfg, 0, STATE)[0][2.0]:
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
                    for alt, _ in _moves(cfg, i, start)[key[1]][key[0]]:
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
        assert [list(level) for level in _moves(cfg, 0, cfg.start_state())] == [
            [1.0], [0.0, 1.0], [0.0, 1.0]]
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


# Amounts with up to 10 decimals, a digit finer than the keys, or any float in [0, 10].
_AMOUNTS = st.one_of(st.integers(0, 10**11).map(lambda n: n / 10**10), st.floats(0.0, 10.0))


class TestAffordability:
    # The lattice judges a spend on the saving's 9-decimal key; transition
    # used to judge it on the raw saving, so the spend 0.3 offered at the key
    # 0.299999999 was rejected from 0.29999999899999974.
    @settings(max_examples=500, deadline=None)
    @given(saving=_AMOUNTS, other=_AMOUNTS, near=st.booleans(), offset=st.integers(-30, 30))
    @example(saving=3.3 - 1.0000000005 - 1.0000000005 - 1.0, other=0.3, near=False, offset=0)
    def test_offered_exactly_when_transition_accepts(self, saving, other, near, offset):
        # The spend is within 30 steps of 1e-10 of the saving, or of any amount.
        spend = max((saving if near else other) + offset * 1e-10, 0.0)
        cfg = MrsConfig(1, 1, 1.0, 0.0, 0.0, (saving,), (0.0, spend), (0.0,))
        (level,) = _moves(cfg, 0, MrsState((_rounded(saving),), 0))  # one round from the key
        offered = spend in {a.spend for moves in level.values() for a, _ in moves}
        try:
            transition(MrsState((saving,), 0), [MrsAction(spend, 0.0)])
        except InvalidActionError:
            assert not offered
        else:
            assert offered


# The three kinds of amounts of a random sweep: one decimal, ten decimals (a
# digit finer than the keys), and one decimal shifted by +-1e-10 or +-5e-10.
_SWEEP_AMOUNTS = st.one_of(
    st.integers(0, 30).map(lambda n: n / 10),
    st.integers(0, 3 * 10**10).map(lambda n: n / 10**10),
    st.builds(lambda n, shift: max(n / 10 + shift, 0.0), st.integers(0, 30),
              st.sampled_from((-5e-10, -1e-10, 1e-10, 5e-10))),
)


class _Recording:
    """A policy that records each (agent, saving, round) it is asked for."""

    def __init__(self, policy, seen):
        self.policy = policy
        self.seen = seen

    def action_at(self, saving, step):
        self.seen.append((self.policy.agent, saving, step))
        return self.policy.action_at(saving, step)


class TestKeyLattice:
    # A saving is stored and stepped as its 9-decimal key. The rollout used to
    # step the raw saving: from 1.2999999995 a spend of 0.3 left 0.9999999995,
    # key 0.999999999, where the lattice (1.3 -> 1.0) planned the action.
    @settings(max_examples=150, deadline=None)
    @given(savings=st.lists(_SWEEP_AMOUNTS, min_size=1, max_size=2),
           spends=st.lists(_SWEEP_AMOUNTS, min_size=1, max_size=3),
           horizon=st.integers(1, 4), alpha=st.sampled_from((-0.5, 0.0, 0.3)),
           beta=st.sampled_from((0.0, 1.0)), privacy=st.sampled_from(((0.5,), (0.0, 1.0))))
    @example(savings=[1.2999999995], spends=[0.3], horizon=3, alpha=0.0, beta=1.0,
             privacy=(0.5,))
    def test_rollout_stays_on_the_lattice(self, savings, spends, horizon, alpha, beta, privacy):
        cfg = MrsConfig(len(savings), horizon, 1.0, alpha, beta, tuple(savings),
                        (0.0, *spends), privacy)
        start = cfg.start_state()
        levels = [_moves(cfg, agent, start) for agent in range(cfg.num_agents)]
        assert all(_rounded(x) == x for agent in levels for level in agent for x in level)
        assert all(_rounded(left) == left for agent in levels for level in agent
                   for moves in level.values() for _, left in moves)
        result = find_mpg_nash(cfg, start)
        seen = []
        rollout([_Recording(policy, seen) for policy in result.policies], cfg, start)
        assert len(seen) == cfg.num_agents * horizon
        assert all(saving in levels[agent][step] for agent, saving, step in seen)
        state = start
        for step in range(horizon):
            assert all(_rounded(x) == x for x in state.savings)
            state = transition(state, [policy.action_at(x, step)
                                       for policy, x in zip(result.policies, state.savings)])
        assert all(_rounded(x) == x for x in state.savings)

    def test_messages_show_the_key(self):
        # Formatted with .6g, each of these amounts printed as 0.3.
        with pytest.raises(InvalidActionError,
                           match=r"^agent 0's spend 0\.3000000005 exceeds saving 0\.299999999$"):
            transition(MrsState((0.299999999,), 0), [MrsAction(0.3000000005, 0.0)])
        with pytest.raises(InvalidActionError, match=r"no action for saving 0\.999999999 at round 1$"):
            TabularPolicy(0, {}).action_at(0.9999999995, 1)
        cfg = MrsConfig(1, 1, 1.0, 0.0, 0.0, (0.299999999,), (0.3000000005,), (0.0,))
        with pytest.raises(InvalidActionError, match=r"affordable at saving 0\.299999999$"):
            _moves(cfg, 0, cfg.start_state())


def _oracle_moves(cfg, agent, start):
    """What ``_moves`` returns, from the walks it replaced."""
    return [{s: [(a, _after_spend(s, a.spend)) for a in valid_actions(cfg, s)] for s in level}
            for level in reachable_savings(cfg, agent, start)]


class TestMoves:
    # The one lattice walk against the two it replaced: the same keys per
    # round, ascending; the same actions, in order, each with the key it
    # leaves; and the same error at the first saving, by round and then by
    # key, that affords no spend.
    @settings(max_examples=300, deadline=None)
    @given(savings=st.lists(_SWEEP_AMOUNTS, min_size=1, max_size=2),
           spends=st.lists(_SWEEP_AMOUNTS, min_size=1, max_size=3), zero=st.booleans(),
           privacy=st.sampled_from(((0.5,), (0.0, 1.0))), horizon=st.integers(0, 4),
           step=st.integers(0, 4))
    # Two rounds hold a saving with no affordable spend: 0.0 in round 1 and
    # 0.499999998 in round 2. The error names the first.
    @example(savings=[2.5], spends=[3.0, 1.0000000005, 2.5], zero=False, privacy=(0.0, 1.0),
             horizon=3, step=0)
    def test_matches_the_oracle(self, savings, spends, zero, privacy, horizon, step):
        grid = (0.0, *spends) if zero else tuple(spends)
        cfg = MrsConfig(len(savings), horizon, 1.0, 0.0, 0.0, tuple(savings), grid, privacy)
        start = MrsState(cfg.initial_savings, step)
        for agent in range(cfg.num_agents):
            try:
                want = _oracle_moves(cfg, agent, start)
            except InvalidActionError as exc:
                with pytest.raises(InvalidActionError, match=f"^{re.escape(str(exc))}$"):
                    _moves(cfg, agent, start)
            else:
                got = _moves(cfg, agent, start)
                assert [list(level.items()) for level in got] == \
                    [list(level.items()) for level in want]

    def test_every_solver_names_the_first_unaffordable_saving(self):
        # verify_mpg and best_response_policy used to walk their own lattice
        # backwards and name 0.499999998 here, where find_mpg_nash named 0.0.
        cfg = MrsConfig(1, 3, 1.0, 0.0, 0.0, (2.5,), (3.0, 1.0000000005, 2.5), (0.0, 1.0))
        start = cfg.start_state()
        for call in (lambda: verify_mpg(cfg, start), lambda: find_mpg_nash(cfg, start),
                     lambda: best_response_policy([TabularPolicy(0)], 0, cfg, start),
                     lambda: policy_space_size(cfg, start)):
            with pytest.raises(InvalidActionError, match=r"affordable at saving 0\.0$"):
                call()


class TestAgentPermutation:
    # Relabelling the agents (their savings, team weights and policies)
    # relabels each agent's value and keeps the potential and verify_mpg's
    # verdict, all exactly: every sum is a math.fsum, which ignores order.
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3), order=st.permutations(range(3)), horizon=st.integers(0, 3),
           discount=st.sampled_from([1.0, 0.9, 0.5]),
           savings=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1.0000000005]),
                            min_size=3, max_size=3),
           spends=st.sets(st.sampled_from([0.5, 1.0, 2.0, 0.1 + 0.2]), max_size=2),
           privacy=st.sets(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=2),
           weights=st.lists(st.sampled_from([1.0, 1.0, 0.5, 2.0, 1.1]), min_size=3, max_size=3),
           alpha=st.sampled_from([0.0, 0.1, -0.3]), beta=st.sampled_from([0.0, 0.2, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_permuting_agents_permutes_the_values(self, n, order, horizon, discount, savings,
                                                  spends, privacy, weights, alpha, beta, seed):
        perm = [j for j in order if j < n]  # agent k of the permuted game is agent perm[k]
        games = [MrsConfig(n, horizon, discount, alpha, beta, tuple(savings[j] for j in agents),
                           (0.0, *spends), tuple(privacy), tuple(weights[j] for j in agents))
                 for agents in (range(n), perm)]
        cfg, permuted = games
        start = cfg.start_state()
        rng = random.Random(seed)
        policies = [TabularPolicy(agent, {(s, t): rng.choice(moves)[0]
                                          for t, level in enumerate(_moves(cfg, agent, start))
                                          for s, moves in level.items()})
                    for agent in range(n)]
        relabelled = [TabularPolicy(k, policies[j].actions) for k, j in enumerate(perm)]
        permuted_start = permuted.start_state()
        for k, j in enumerate(perm):
            assert policy_value(relabelled, k, permuted, permuted_start) == \
                policy_value(policies, j, cfg, start)
        assert potential_value(relabelled, permuted, permuted_start) == \
            potential_value(policies, cfg, start)
        assert verify_mpg(permuted, permuted_start) == verify_mpg(cfg, start)


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

    @pytest.mark.parametrize("grid", ["spend_grid", "privacy_grid"])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(InvalidParameterError, match="grids must be non-empty"):
            small_config(**{grid: ()})

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

    # Each used to compare before converting and raise a bare TypeError.
    @pytest.mark.parametrize("tol", ["abc", None, [1e-9]])
    def test_verify_tolerance_must_be_a_number(self, tol):
        cfg = small_config()
        with pytest.raises(InvalidParameterError, match="tol"):
            verify_mpg(cfg, cfg.start_state(), tol=tol)
        assert verify_mpg(cfg, cfg.start_state(), tol="1e-9") == \
            verify_mpg(cfg, cfg.start_state(), tol=1e-9)

    @pytest.mark.parametrize("spend,privacy,name", [
        ("abc", 0.5, "spend"), (None, 0.5, "spend"), (1.0, "abc", "privacy"),
        (1.0, None, "privacy"), (10**400, 0.5, "spend"),
    ])
    def test_action_must_be_numbers(self, spend, privacy, name):
        with pytest.raises(InvalidParameterError, match=name):
            MrsAction(spend, privacy)

    def test_action_stores_floats(self):
        action = MrsAction("1", 0)
        assert action == MrsAction(1.0, 0.0)
        assert type(action.spend) is float and type(action.privacy) is float

    @pytest.mark.parametrize("step", ["1", None, 1.0, -1])
    def test_state_step_must_be_a_count(self, step):
        with pytest.raises(InvalidParameterError, match="step"):
            MrsState((1.0, 1.0), step)

    def test_state_integer_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="savings"):
            MrsState((10**400, 1.0), 0)

    # Each used to index silently: -1 read agent N - 1 and True agent 1, and
    # theta summed over every agent for an index it did not hold.
    @pytest.mark.parametrize("agent", [2, -1, True, 0.5, "0", None, 10**400])
    @pytest.mark.parametrize("entry", ["step_reward", "theta", "policy_value",
                                       "best_response_policy"])
    def test_agent_index_checked(self, entry, agent):
        cfg = small_config()
        start = cfg.start_state()
        calls = {
            "step_reward": lambda: step_reward(STATE, ACTIONS, agent, cfg),
            "theta": lambda: theta(STATE, ACTIONS, agent, cfg),
            "policy_value": lambda: policy_value(lex_min_profile(cfg, start), agent, cfg, start),
            "best_response_policy": lambda: best_response_policy(lex_min_profile(cfg, start),
                                                                 agent, cfg, start),
        }
        with pytest.raises(InvalidParameterError, match="agent"):
            calls[entry]()

    # A short profile used to be read silently (step_reward of agent 0 gave
    # 0.8 on one action) or to raise a bare IndexError.
    @pytest.mark.parametrize("short", ["actions", "savings"])
    @pytest.mark.parametrize("entry", ["step_reward", "potential", "theta"])
    def test_one_entry_per_agent(self, entry, short):
        cfg = small_config()
        state, actions = STATE, ACTIONS
        if short == "actions":
            actions = ACTIONS[:1]
        else:
            state = MrsState((2.0,), 0)
        calls = {
            "step_reward": lambda agent: step_reward(state, actions, agent, cfg),
            "potential": lambda agent: potential(state, actions, cfg),
            "theta": lambda agent: theta(state, actions, agent, cfg),
        }
        for agent in (0, 1):
            with pytest.raises(InvalidParameterError, match="one action and one saving"):
                calls[entry](agent)

    def test_overflowing_reward_still_picks_an_action(self):
        # alpha * saving overflows to -inf for every action; the best response
        # used to keep no action at all and crash later.
        cfg = small_config(reward_alpha=-1e308)
        br = best_response_policy(lex_min_profile(cfg, cfg.start_state()), 0, cfg,
                                  cfg.start_state())
        assert all(a == MrsAction(0.0, 0.0) for a in br.actions.values())

    @pytest.mark.parametrize("cfg", [
        # alpha * saving and beta * privacy are finite, their sum is not:
        # math.fsum raised a bare OverflowError.
        MrsConfig(1, 2, 1.0, 1e308, 1e308, (1.0,), (0.0, 1.0), (1.0,)),
        # The weighted team term is -inf and alpha * saving +inf: math.fsum
        # raised a bare ValueError.
        MrsConfig(1, 1, 1.0, 1e308, 0.0, (2.0,), (0.0, 2.0), (0.0,), team_weights=(-1e308,)),
        # alpha and beta are 0 and the weights 1: the team sum of two finite
        # spends overflows on its own.
        MrsConfig(2, 1, 1.0, 0.0, 0.0, (1e308, 1e308), (0.0, 1e308), (0.0,)),
    ], ids=["overflow", "inf-minus-inf", "team-spends"])
    def test_overflowing_reward_sum_rejected(self, cfg):
        with pytest.raises(InvalidParameterError, match=(
                "^spend_grid, initial_savings, reward_alpha, reward_beta or team_weights "
                "overflow a reward sum$")):
            find_mpg_nash(cfg, cfg.start_state())

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
        acts = [a for a, _ in _moves(cfg, 0, MrsState((0.0, 2.0), 0))[0][0.0]]
        assert all(a.spend == 0.0 for a in acts)
        assert len(acts) == len(cfg.privacy_grid)
