"""Single-round binary sums: N agents each hold a bit and try to guess the
total. Bits are broadcast through randomized response; receivers are either
naive (trust the noisy bits) or aware (de-bias using the known flip
probabilities). Agent utility is r_i = -|sum_j b_j - E[g_i]|, so 0 is perfect
and the team reward is the sum over agents.

``run_game`` estimates expected guesses by seeded Monte-Carlo; results are
reproducible for a given seed regardless of block scheduling because each
(agent, block) pair draws from its own substream and block aggregates are
combined with exact summation. Every guess is affine in the 0/1 messages,
so a block is reduced to sufficient statistics, each agent's count of 1s and
the Gram matrix of the messages, from which the per-agent sum and sum of
squares of the guesses follow in closed form (see ``_simulate_block``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMechanismError, InvalidParameterError, require_count, require_float
from .mechanisms import _check_bit, rr_flip_prob
from .rng import block_sizes, substream

RECEIVER_MODES = ("naive", "aware")


@dataclass(frozen=True)
class BinarySumsInstance:
    bits: tuple
    epsilons: tuple
    receiver_mode: str

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(_check_bit(b) for b in self.bits))
        object.__setattr__(self, "epsilons",
                           tuple(require_float("epsilons", e) for e in self.epsilons))
        if any(not e > 0 for e in self.epsilons):  # +inf is allowed: exact messages
            raise InvalidParameterError(f"epsilons must be > 0, got {self.epsilons}")
        if len(self.epsilons) != len(self.bits):
            raise InvalidParameterError(
                f"need one epsilon per bit, got {len(self.epsilons)} for {len(self.bits)} bits")
        if self.receiver_mode not in RECEIVER_MODES:
            raise InvalidParameterError(
                f"receiver_mode must be one of {RECEIVER_MODES}, got {self.receiver_mode!r}")

    @property
    def num_agents(self) -> int:
        return len(self.bits)

    @property
    def flip_probs(self) -> tuple:
        """Per-agent randomization rate p_i = rr_flip_prob(epsilon_i)."""
        return tuple(rr_flip_prob(e) for e in self.epsilons)


@dataclass(frozen=True)
class BinarySumsOutcome:
    guesses: tuple       # per-agent expected-guess estimates
    utilities: tuple     # r_i = -|sum(bits) - guess_i|, all <= 0
    team_reward: float   # sum of utilities
    mc_std_errors: tuple # 0 for analytic outcomes


def _outcome(bit_sum: int, guesses, std_errors) -> BinarySumsOutcome:
    utilities = tuple(-abs(bit_sum - g) for g in guesses)
    return BinarySumsOutcome(
        guesses=tuple(guesses),
        utilities=utilities,
        team_reward=math.fsum(utilities),
        mc_std_errors=tuple(std_errors),
    )


def _check_aware_defined(instance: BinarySumsInstance):
    if instance.receiver_mode == "aware" and any(p >= 1.0 for p in instance.flip_probs):
        raise DegenerateMechanismError(
            "aware receiver undefined: some agent has flip probability 1"
        )


def analytic_outcome(instance: BinarySumsInstance) -> BinarySumsOutcome:
    """Closed-form expected guesses.

    Aware receivers are exactly unbiased, so every guess equals the bit sum
    and every utility is 0. Naive receivers incur the per-agent bias
    sum_{j != i} p_j * (1/2 - b_j).
    """
    _check_aware_defined(instance)
    bit_sum = sum(instance.bits)
    n = instance.num_agents
    if instance.receiver_mode == "aware":
        guesses = [float(bit_sum)] * n
    else:
        probs = instance.flip_probs
        guesses = []
        for i in range(n):
            err = math.fsum(
                probs[j] * (0.5 - instance.bits[j]) for j in range(n) if j != i
            )
            guesses.append(bit_sum + err)
    return _outcome(bit_sum, guesses, [0.0] * n)


def _simulate_block(instance: BinarySumsInstance, rng_seed: int, block: int, m: int):
    """Per-agent (sum, sum-of-squares) of the guesses over one trial block.

    Agent j's messages form row j of an N x m 0/1 array X. The block keeps
    only its Gram matrix G = X X^T and the counts c = X 1, which are the
    diagonal of G since x^2 = x; both are exact integers in float64. A message
    of agent j is worth v0_j or v1_j to a receiver (0 and 1 when naive,
    (x - p_j/2) / (1 - p_j) when aware), so agent i's guess in one trial is
    k_i + w_i . x, with k_i = b_i + sum_{j != i} v0_j and w_i = v1 - v0 with
    entry i zeroed. Over the block its sum is m k_i + w_i . c and its sum of
    squares is m k_i^2 + 2 k_i (w_i . c) + w_i^T G w_i.
    """
    n = instance.num_agents
    probs = np.array(instance.flip_probs)
    x = np.empty((n, m))
    for j, bit in enumerate(instance.bits):
        rng = substream(rng_seed, j, block)
        flips = rng.random(m) < probs[j]
        coins = rng.integers(0, 2, size=m)
        x[j] = (~flips | coins) if bit else (flips & coins)
    gram = x @ x.T
    counts = gram.diagonal()
    if instance.receiver_mode == "aware":
        low = (0.0 - probs / 2.0) / (1.0 - probs)
        high = (1.0 - probs / 2.0) / (1.0 - probs)
    else:
        low, high = np.zeros(n), np.ones(n)
    others = 1.0 - np.eye(n)  # receiver i does not count its own message
    base = np.array(instance.bits, dtype=float) + others @ low
    weights = others * (high - low)
    linear = weights @ counts
    quadratic = ((weights @ gram) * weights).sum(axis=1)
    return m * base + linear, m * base * base + 2.0 * base * linear + quadratic


def run_game(instance: BinarySumsInstance, trials: int, rng_seed: int,
             jobs: int = 1) -> BinarySumsOutcome:
    """Monte-Carlo estimate of the expected guesses over ``trials`` rounds.

    Each trial broadcasts one randomized-response message per agent; every
    receiver sees the same broadcast. Standard errors come from the empirical
    variance of the per-trial guesses. ``jobs`` bounds the worker count for
    the block fan-out; the result is identical either way because blocks use
    independent substreams and block sums are combined exactly, in order.
    """
    require_count("trials", trials, 1)
    _check_aware_defined(instance)
    n = instance.num_agents
    bit_sum = int(sum(instance.bits))
    blocks = list(enumerate(block_sizes(trials)))
    if jobs > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda bm: _simulate_block(instance, rng_seed, bm[0], bm[1]), blocks
            ))
    else:
        results = [_simulate_block(instance, rng_seed, b, m) for b, m in blocks]

    means, std_errors = [], []
    for i in range(n):
        s = math.fsum(float(r[0][i]) for r in results)
        ss = math.fsum(float(r[1][i]) for r in results)
        mean = s / trials
        var = max(ss - trials * mean * mean, 0.0) / max(trials - 1, 1)
        means.append(mean)
        std_errors.append(math.sqrt(var / trials))
    return _outcome(bit_sum, means, std_errors)
