"""Multiple-round sums: a finite-horizon Markov game over private spending.

Each of N agents starts with a saving x_i and at every round chooses how much
to give out (b_i, from a finite spend grid, never more than it has left) and
a privacy level p_i for the message announcing the spend. Savings evolve
deterministically, x_i <- x_i - b_i, and the per-round reward of agent i is

    r_i = sum_j (1 - p_j) b_j  +  alpha * x_i  +  beta * p_i

a team term (spending is only worth what its announcement reveals) plus
individual terms rewarding remaining savings and privacy. The game is a
Markov potential game with potential

    J = sum_j [ (1 - p_j) b_j + alpha * x_j + beta * p_j ]

since r_i - J = -sum_{j != i} (alpha * x_j + beta * p_j) contains nothing
agent i controls. Policies are tabular in each agent's own component of the
state, (own saving, round); that is what makes the difference exact, because
no other agent's behaviour can react to agent i's choices.

Per-agent ``team_weights`` (default all 1) scale the team term of the named
agent's reward only, so V_i - Phi = (w_i - 1) T_i(pi_i) + (terms the other
agents fix), with T_i = sum_t gamma^t (1 - p_t) b_t the agent's discounted
team contribution. ``verify_mpg`` takes the spread |w_i - 1| (max T_i -
min T_i) from one backward pass per agent, enumerating no joint profile;
``best_response_policy`` solves one agent by backward induction, and
``find_mpg_nash`` runs sequential best-response sweeps, which on a potential
game must drive J monotonically upward until a Nash equilibrium is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidActionError, InvalidParameterError, require_count, require_float

_KEY_DECIMALS = 9
_SPEND_TOL = 1e-9


def _rounded(x: float) -> float:
    return round(x, _KEY_DECIMALS)


@dataclass(frozen=True)
class MrsConfig:
    num_agents: int
    horizon: int
    discount: float
    reward_alpha: float
    reward_beta: float
    initial_savings: tuple
    spend_grid: tuple
    privacy_grid: tuple
    team_weights: tuple | None = None

    def __post_init__(self):
        require_count("num_agents", self.num_agents, 1)
        require_count("horizon", self.horizon, 0)
        if self.team_weights is None:
            object.__setattr__(self, "team_weights", (1.0,) * self.num_agents)
        for name in ("discount", "reward_alpha", "reward_beta"):
            object.__setattr__(self, name, require_float(name, getattr(self, name)))
        for name in ("initial_savings", "team_weights"):
            object.__setattr__(self, name, tuple(require_float(name, x) for x in getattr(self, name)))
        for name in ("spend_grid", "privacy_grid"):
            object.__setattr__(self, name, tuple(sorted({require_float(name, x)
                                                         for x in getattr(self, name)})))
        if not (0.0 < self.discount <= 1.0):
            raise InvalidParameterError(f"discount must be in (0, 1], got {self.discount}")
        if not all(map(math.isfinite, (self.reward_alpha, self.reward_beta, *self.team_weights))):
            raise InvalidParameterError(
                f"reward_alpha, reward_beta and team_weights must be finite, got "
                f"{self.reward_alpha}, {self.reward_beta} and {self.team_weights}")
        for name in ("initial_savings", "team_weights"):
            if len(getattr(self, name)) != self.num_agents:
                raise InvalidParameterError(
                    f"{name} needs one value per agent, got {getattr(self, name)}")
        if any(not 0 <= x < math.inf for x in self.initial_savings):
            raise InvalidParameterError(
                f"initial_savings must be finite and >= 0, got {self.initial_savings}")
        if not self.spend_grid or not self.privacy_grid:
            raise InvalidParameterError("spend and privacy grids must be non-empty")
        if any(not 0 <= b < math.inf for b in self.spend_grid):
            raise InvalidParameterError(
                f"spend_grid values must be finite and >= 0, got {self.spend_grid}")
        if any(not 0.0 <= p <= 1.0 for p in self.privacy_grid):
            raise InvalidParameterError(
                f"privacy_grid values must lie in [0, 1], got {self.privacy_grid}")

    def start_state(self) -> "MrsState":
        return MrsState(self.initial_savings, 0)


def _clean_savings(savings) -> tuple:
    """Savings as floats with |x| < 1e-12 snapped to 0; InvalidParameterError
    unless every one is finite and >= 0."""
    cleaned = tuple(0.0 if abs(x) < 1e-12 else require_float("savings", x) for x in savings)
    if not all(0.0 <= x < math.inf for x in cleaned):
        raise InvalidParameterError(f"savings must be finite and >= 0, got {cleaned}")
    return cleaned


@dataclass(frozen=True)
class MrsState:
    savings: tuple
    step: int

    def __post_init__(self):
        object.__setattr__(self, "savings", _clean_savings(self.savings))
        if self.step < 0:
            raise InvalidParameterError("step must be nonnegative")


@dataclass(frozen=True)
class MrsAction:
    spend: float
    privacy: float

    def __post_init__(self):
        if not 0.0 <= self.privacy <= 1.0:
            raise InvalidParameterError(f"privacy must be in [0,1], got {self.privacy}")
        if not 0.0 <= self.spend < math.inf:
            raise InvalidParameterError(f"spend must be finite and >= 0, got {self.spend}")


@dataclass
class TabularPolicy:
    """One agent's deterministic policy, keyed by (own saving, round)."""

    agent: int
    actions: dict = field(default_factory=dict)

    def action_at(self, saving: float, step: int) -> MrsAction:
        key = (_rounded(saving), step)
        try:
            return self.actions[key]
        except KeyError:
            raise InvalidActionError(
                f"policy of agent {self.agent} has no action for saving "
                f"{saving:.6g} at round {step}"
            ) from None


def valid_actions(cfg: MrsConfig, saving: float) -> list:
    """Actions available at a saving level: spends that do not overdraw,
    in ascending (spend, privacy) order; InvalidActionError if there is none."""
    actions = [
        MrsAction(b, p)
        for b in cfg.spend_grid
        if b <= saving + _SPEND_TOL
        for p in cfg.privacy_grid
    ]
    if not actions:
        raise InvalidActionError(
            f"no spend in spend_grid {cfg.spend_grid} is affordable at saving {saving:.6g}")
    return actions


def _after_spend(saving: float, spend: float) -> float:
    """Saving left after an affordable spend: a spend up to _SPEND_TOL above
    the saving leaves 0, not a negative remainder."""
    return max(saving - spend, 0.0)


def _spent(savings: tuple, actions: Sequence[MrsAction]) -> tuple:
    """Savings after one round; InvalidActionError if an agent overspends."""
    for j, (x, a) in enumerate(zip(savings, actions)):
        if a.spend > x + _SPEND_TOL:
            raise InvalidActionError(f"agent {j}'s spend {a.spend:.6g} exceeds saving {x:.6g}")
    return _clean_savings(_after_spend(x, a.spend) for x, a in zip(savings, actions))


def transition(state: MrsState, actions: Sequence[MrsAction]) -> MrsState:
    """Deterministic update: each saving drops by the agent's spend."""
    if len(actions) != len(state.savings):
        raise InvalidParameterError("need one action per agent")
    return MrsState(_spent(state.savings, actions), state.step + 1)


def _reward(savings: tuple, actions: Sequence[MrsAction], agent: int, cfg: MrsConfig) -> float:
    team = math.fsum((1.0 - a.privacy) * a.spend for a in actions)
    return math.fsum((
        cfg.team_weights[agent] * team,
        cfg.reward_alpha * savings[agent],
        cfg.reward_beta * actions[agent].privacy,
    ))


def _potential(savings: tuple, actions: Sequence[MrsAction], cfg: MrsConfig) -> float:
    terms = [(1.0 - a.privacy) * a.spend for a in actions]
    terms += [cfg.reward_alpha * x for x in savings]
    terms += [cfg.reward_beta * a.privacy for a in actions]
    return math.fsum(terms)


def step_reward(state: MrsState, actions: Sequence[MrsAction], agent: int, cfg: MrsConfig) -> float:
    """Per-round reward of one agent (team term plus own saving/privacy)."""
    return _reward(state.savings, actions, agent, cfg)


def potential(state: MrsState, actions: Sequence[MrsAction], cfg: MrsConfig) -> float:
    """Potential J: the team term plus everyone's saving and privacy terms."""
    return _potential(state.savings, actions, cfg)


def theta(state: MrsState, actions: Sequence[MrsAction], agent: int, cfg: MrsConfig) -> float:
    """The non-common reward part, r_i - J = -sum_{j != i}(alpha x_j + beta p_j).

    Contains no term agent i controls, so it is invariant to the agent's own
    action and saving. (Stated for unit team weights.)
    """
    return -math.fsum(
        cfg.reward_alpha * x + cfg.reward_beta * a.privacy
        for j, (x, a) in enumerate(zip(state.savings, actions))
        if j != agent
    )


def _profile_actions(policies: Sequence[TabularPolicy], savings: tuple, step: int) -> list:
    return [policies[j].action_at(x, step) for j, x in enumerate(savings)]


def rollout(policies: Sequence[TabularPolicy], cfg: MrsConfig, start: MrsState):
    """Deterministic rollout; returns (per-agent values, potential value)."""
    n = len(start.savings)
    reward_terms = [[] for _ in range(n)]
    potential_terms = []
    savings = start.savings
    for t in range(start.step, cfg.horizon):
        actions = _profile_actions(policies, savings, t)
        gamma_t = cfg.discount ** (t - start.step)
        for i in range(n):
            reward_terms[i].append(gamma_t * _reward(savings, actions, i, cfg))
        potential_terms.append(gamma_t * _potential(savings, actions, cfg))
        savings = _spent(savings, actions)
    return tuple(math.fsum(terms) for terms in reward_terms), math.fsum(potential_terms)


def policy_value(policies: Sequence[TabularPolicy], agent: int, cfg: MrsConfig,
                 start: MrsState) -> float:
    """Discounted return of one agent along the joint deterministic rollout."""
    return rollout(policies, cfg, start)[0][agent]


def potential_value(policies: Sequence[TabularPolicy], cfg: MrsConfig, start: MrsState) -> float:
    """Discounted sum of the potential along the joint rollout."""
    return rollout(policies, cfg, start)[1]


def reachable_savings(cfg: MrsConfig, agent: int, start: MrsState) -> list:
    """Per round, the agent's savings reachable under any valid spend path."""
    if cfg.horizon <= start.step:
        return []
    levels = [{_rounded(start.savings[agent])}]
    for _ in range(start.step, cfg.horizon - 1):
        nxt = set()
        for x in levels[-1]:
            for b in cfg.spend_grid:
                if b <= x + _SPEND_TOL:
                    nxt.add(_rounded(_after_spend(x, b)))
        levels.append(nxt)
    return [sorted(s) for s in levels]


def policy_space_size(cfg: MrsConfig, start: MrsState) -> int:
    """Number of joint tabular policy profiles of the instance."""
    return math.prod(len(valid_actions(cfg, s)) for agent in range(cfg.num_agents)
                     for level in reachable_savings(cfg, agent, start) for s in level)


def _team_contribution_range(cfg: MrsConfig, agent: int, start: MrsState) -> tuple:
    """(min, max) of T = sum_t gamma^t (1 - p_t) b_t over the agent's spend paths."""
    after = {}  # saving -> (min, max) of the remaining T one round later; empty past the horizon
    for savings in reversed(reachable_savings(cfg, agent, start)):
        level = {}
        for s in savings:
            lows, highs = [], []
            for a in valid_actions(cfg, s):
                own = (1.0 - a.privacy) * a.spend
                low, high = after[_rounded(_after_spend(s, a.spend))] if after else (0.0, 0.0)
                lows.append(own + cfg.discount * low)
                highs.append(own + cfg.discount * high)
            level[s] = (min(lows), max(highs))
        after = level
    return after[_rounded(start.savings[agent])] if after else (0.0, 0.0)


def verify_mpg(cfg: MrsConfig, start: MrsState, tol: float = 1e-12):
    """Test the potential property on the tabular policy space; returns
    (is_mpg, max_violation).

    For every agent i and every fixed opponent profile, the gap V_i - Phi
    must be constant across agent i's policies. Its largest spread is
    |w_i - 1| (max T_i - min T_i); the violation is the maximum over agents,
    exactly 0 under unit team weights. InvalidActionError if a reachable
    saving has no affordable spend.
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
    max_violation = 0.0
    for agent, weight in enumerate(cfg.team_weights):
        low, high = _team_contribution_range(cfg, agent, start)
        if weight != 1.0:
            max_violation = max(max_violation, abs(weight - 1.0) * (high - low))
    return max_violation <= tol, max_violation


def best_response_policy(policies: Sequence[TabularPolicy], agent: int, cfg: MrsConfig,
                         start: MrsState) -> TabularPolicy:
    """Exact best response by backward induction.

    Opponents' own-state policies make their trajectories autonomous, so the
    agent faces a deterministic single-agent problem with known per-round
    team contributions from the others. Ties break toward the smallest
    (spend, privacy) action.
    """
    team_others = []
    savings = start.savings
    no_spend = MrsAction(0.0, 0.0)  # the agent's own entry: adds nothing to the team sum
    for t in range(start.step, cfg.horizon):
        actions = [no_spend if j == agent else policies[j].action_at(x, t)
                   for j, x in enumerate(savings)]
        team_others.append(math.fsum((1.0 - a.privacy) * a.spend for a in actions))
        savings = _spent(savings, actions)

    levels = reachable_savings(cfg, agent, start)
    best_actions = {}
    value_next: dict = {}  # optimal values one round later; empty past the horizon
    for offset in reversed(range(len(levels))):
        t = start.step + offset
        level_value = {}
        for s in levels[offset]:
            best_q = -math.inf
            best_a = None
            for a in valid_actions(cfg, s):
                own = (1.0 - a.privacy) * a.spend
                q = math.fsum((
                    cfg.team_weights[agent] * (own + team_others[offset]),
                    cfg.reward_alpha * s,
                    cfg.reward_beta * a.privacy,
                ))
                if offset + 1 < len(levels):
                    q += cfg.discount * value_next[_rounded(_after_spend(s, a.spend))]
                if best_a is None or q > best_q:  # an overflowed q = -inf still picks an action
                    best_q = q
                    best_a = a
            level_value[_rounded(s)] = best_q
            best_actions[(_rounded(s), t)] = best_a
        value_next = level_value
    return TabularPolicy(agent, best_actions)


@dataclass(frozen=True)
class MpgNashResult:
    policies: tuple
    converged: bool
    sweeps: int
    potential_trace: tuple  # potential value after the initial profile and each best response


def lex_min_profile(cfg: MrsConfig, start: MrsState) -> list:
    """Deterministic starting profile: smallest valid action everywhere."""
    profile = []
    for agent in range(cfg.num_agents):
        actions = {}
        for offset, savings in enumerate(reachable_savings(cfg, agent, start)):
            t = start.step + offset
            for s in savings:
                actions[(s, t)] = valid_actions(cfg, s)[0]
        profile.append(TabularPolicy(agent, actions))
    return profile


def find_mpg_nash(cfg: MrsConfig, start: MrsState, max_sweeps: int = 20) -> MpgNashResult:
    """Sequential best-response sweeps from the lexicographic-min profile.

    Converged when a full sweep changes no policy. On the (unweighted) game
    the potential trace is non-decreasing after every single best response.
    """
    require_count("max_sweeps", max_sweeps, 1)
    profile = lex_min_profile(cfg, start)
    trace = [potential_value(profile, cfg, start)]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        changed = False
        for agent in range(cfg.num_agents):
            new = best_response_policy(profile, agent, cfg, start)
            if new.actions != profile[agent].actions:
                changed = True
                profile[agent] = new
            trace.append(potential_value(profile, cfg, start))
        if not changed:
            converged = True
            break
    return MpgNashResult(tuple(profile), converged, sweeps, tuple(trace))
