"""Single-round binary sums: N agents each hold a bit and try to guess the
total. Bits are broadcast through randomized response; receivers are either
naive (trust the noisy bits) or aware (de-bias using the known flip
probabilities). Agent utility is r_i = -|sum_j b_j - E[g_i]|, so 0 is perfect
and the team reward is the sum over agents.

``run_game`` estimates expected guesses by seeded Monte-Carlo; results are
reproducible for a given seed because each (agent, block) pair draws from its
own substream. Every guess is affine in the 0/1 messages, so a game is
reduced to one sufficient statistic, the Gram matrix of the messages (its
diagonal holds each agent's count of 1s), from which the per-agent mean and
sample variance of the guesses follow in closed form (see ``run_game``). Each
block's Gram matrix is counted with popcounts over bit-packed message rows,
and the game sums them, so every entry is an exact integer.
Each agent's row of a block is drawn by ``mechanisms._rr_row`` from one call
for raw PCG64 words, with the bits that ``random()`` and ``integers(0, 2)``
would give; these draws are most of a block's time.

numpy is imported inside ``_message_gram`` and ``run_game``, so importing this
module, building an instance and taking its ``analytic_outcome`` do not load
it; the first Monte-Carlo game does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DegenerateMechanismError, InvalidParameterError, require_count, require_floats,
                     require_iterable, require_seed)
from .mechanisms import _check_bit, _rr_row, rr_flip_prob
from .rng import BLOCK_SIZE, substream

RECEIVER_MODES = ("naive", "aware")


@dataclass(frozen=True)
class BinarySumsInstance:
    bits: tuple
    epsilons: tuple
    receiver_mode: str

    def __post_init__(self):
        object.__setattr__(self, "bits",
                           tuple(_check_bit(b) for b in require_iterable("bits", self.bits)))
        object.__setattr__(self, "epsilons", require_floats("epsilons", self.epsilons))
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


def _message_gram(instance: BinarySumsInstance, rng_seed: int, block: int, m: int):
    """Gram matrix G = X X^T of one block's N x m 0/1 messages X, as exact
    integers in float64.

    Each agent's row is drawn by ``_rr_row`` and bit-packed into one
    zero-padded row of 64-bit words, so entry (i, j) is the popcount of the
    AND of rows i and j; padding bits are 0 in every row and never count.
    """
    import numpy as np

    n = instance.num_agents
    packed = np.zeros((n, -(-m // 64) * 8), dtype=np.uint8)
    for j, (bit, p) in enumerate(zip(instance.bits, instance.flip_probs)):
        packed[j, :-(-m // 8)] = np.packbits(_rr_row(substream(rng_seed, j, block), bit, p, m))
    rows = packed.view(np.uint64)
    gram = np.empty((n, n))
    for i in range(n):  # one row of the upper triangle at a time
        gram[i, i:] = gram[i:, i] = np.bitwise_count(rows[i] & rows[i:]).sum(axis=1)
    return gram


def run_game(instance: BinarySumsInstance, trials: int, rng_seed: int,
             jobs: int = 1) -> BinarySumsOutcome:
    """Monte-Carlo estimate of the expected guesses over ``trials`` rounds.

    Each trial broadcasts one randomized-response message per agent; every
    receiver sees the same broadcast. Standard errors come from the empirical
    variance of the per-trial guesses, so a game needs at least two trials.
    The trials run in blocks of ``BLOCK_SIZE`` (the last one ragged), in
    order, in the calling thread. ``jobs`` is checked (an integer >= 1) and
    changes neither the result nor the work.

    Agent j's messages form row j of an N x trials 0/1 matrix X. The game
    keeps only the Gram matrix G = X X^T, the sum of its blocks' Grams
    (``_message_gram``), and the counts c = X 1, which are the diagonal of G
    since x^2 = x. Every entry is an integer of at most ``trials`` <= 2**53,
    so each partial sum of the blocks is exact in float64. A message of agent
    j is worth v0_j or v1_j to a receiver (0 and 1 when naive,
    (x - p_j/2) / (1 - p_j) when aware), so agent i's guess in one trial is
    k_i + w_i . x, with k_i = b_i + sum_{j != i} v0_j and w_i = v1 - v0 with
    entry i zeroed. Over the game its sum is T k_i + w_i . c, for T =
    ``trials``, and its sample variance is w_i^T C w_i / (T (T - 1)), where
    C = T G - c c^T is the centred Gram matrix. C is formed in Python integers
    and rounded to float64 once, so the constant k_i never enters it and a
    guess that never varies has a standard error of exactly 0.
    """
    import numpy as np

    require_count("trials", trials, 2)
    trials = int(trials)  # a numpy integer would overflow T (T - 1)
    require_count("jobs", jobs, 1)
    require_seed("rng_seed", rng_seed)
    _check_aware_defined(instance)
    n = instance.num_agents
    bit_sum = int(sum(instance.bits))
    full, rest = divmod(trials, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rest] if rest else [])
    gram = sum(_message_gram(instance, rng_seed, b, m) for b, m in enumerate(sizes))
    probs = np.array(instance.flip_probs)
    if instance.receiver_mode == "aware":
        low = (0.0 - probs / 2.0) / (1.0 - probs)
        high = (1.0 - probs / 2.0) / (1.0 - probs)
    else:
        low, high = np.zeros(n), np.ones(n)
    others = 1.0 - np.eye(n)  # receiver i does not count its own message
    base = np.array(instance.bits, dtype=float) + others @ low
    weights = others * (high - low)
    linear = weights @ gram.diagonal()
    means = (trials * base + linear) / trials
    counts = gram.astype(np.int64).astype(object)  # Python integers: T * G may pass 2**63
    diagonal = counts.diagonal()
    centred = (trials * counts - diagonal[:, None] * diagonal[None, :]).astype(float)
    spread = ((weights @ centred) * weights).sum(axis=1)  # w_i^T C w_i
    variances = np.maximum(spread, 0.0) / (trials * (trials - 1))
    return _outcome(bit_sum, means.tolist(), np.sqrt(variances / trials).tolist())
