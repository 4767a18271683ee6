"""Local privacy mechanisms and their de-biasing receivers.

Randomized response for bits, norm clipping plus Gaussian perturbation for
vector messages, and uniform-without-replacement subsampling. Every
randomized operation is deterministic given its seed (see ``rng``) and
accepts an optional ``size`` for vectorized Monte-Carlo draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMechanismError, InvalidParameterError, require_float
from .rng import substream


@dataclass(frozen=True)
class RrMechanism:
    """Randomized response: with probability ``flip_prob`` the bit is
    replaced by an independent fair coin, otherwise sent as-is."""

    flip_prob: float

    def __post_init__(self):
        if not (0.0 <= self.flip_prob <= 1.0):
            raise InvalidParameterError(f"flip_prob must be in [0,1], got {self.flip_prob}")


@dataclass(frozen=True, eq=False)
class ClippedVector:
    """A real message payload guaranteed to have l2 norm <= clip_norm."""

    values: np.ndarray
    clip_norm: float


def rr_flip_prob(epsilon: float) -> float:
    """Randomization probability p = 2 / (e^eps + 1) for (eps, 0)-DP.

    eps = 0 gives p = 1 (pure coin flips); eps -> inf gives p -> 0.
    """
    if not require_float("epsilon", epsilon) >= 0:
        raise InvalidParameterError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon > 700.0:  # exp would overflow; the +1 is far below resolution
        return 2.0 * math.exp(-epsilon)
    return 2.0 / (math.exp(epsilon) + 1.0)


def _check_bit(bit) -> int:
    if bit not in (0, 1):
        raise InvalidParameterError(f"bit must be 0 or 1, got {bit!r}")
    return int(bit)


def rr_perturb(bit: int, mech: RrMechanism, rng_seed: int, size: int | None = None):
    """Apply randomized response to a bit.

    With ``size=None`` returns a single 0/1 int; with an integer ``size``
    returns that many independent draws as an int array. Each trial consumes
    one uniform (flip decision) and one coin, in that order, so trial t is a
    fixed function of (seed, t) independent of the flip probability.
    """
    bit = _check_bit(bit)
    rng = substream(rng_seed)
    n = 1 if size is None else int(size)
    flips = rng.random(n) < mech.flip_prob
    coins = rng.integers(0, 2, size=n)
    out = np.where(flips, coins, bit)
    return int(out[0]) if size is None else out


def naive_guess(own_bit: int, received) -> int:
    """Trusting receiver: own bit plus the sum of received (noisy) bits."""
    own_bit = _check_bit(own_bit)
    return own_bit + int(np.sum(received))


def naive_bias(bits, agent: int, p: float) -> float:
    """Expected error of the naive guess under randomized response at rate p:

        p * (N - 1) / 2  -  p * sum_{j != agent} bits[j]
    """
    bits = np.asarray(bits)
    n = len(bits)
    if not 0 <= agent < n:
        raise InvalidParameterError(f"agent index {agent} out of range for {n} bits")
    others = int(bits.sum()) - int(bits[agent])
    return p * (n - 1) / 2.0 - p * others


def aware_guess(own_bit: int, received, p: float) -> float:
    """De-biasing receiver with the randomization rate as common knowledge:

        own_bit + (sum(received) - (N - 1) * p / 2) / (1 - p)

    Unbiased for the true bit sum. Undefined at p = 1.
    """
    own_bit = _check_bit(own_bit)
    if p >= 1.0:
        raise DegenerateMechanismError("p = 1 sends pure noise; the estimator is undefined")
    received = np.asarray(received, dtype=float)
    n_others = received.shape[-1]
    return own_bit + (received.sum(axis=-1) - n_others * p / 2.0) / (1.0 - p)


def clip(values, clip_norm: float) -> ClippedVector:
    """Rescale ``values`` onto the l2 ball of radius ``clip_norm``.

    Vectors already within the ball pass through unchanged (bit-exact).
    """
    if not 0 < require_float("clip_norm", clip_norm) < math.inf:
        raise InvalidParameterError(f"clip_norm must be finite and positive, got {clip_norm}")
    values = np.asarray(values, dtype=float)
    norm = float(np.linalg.norm(values))
    if norm > clip_norm:
        values = values * clip_norm / norm
    return ClippedVector(values, float(clip_norm))


def gaussian_perturb(msg: ClippedVector, sigma: float, rng_seed: int, size: int | None = None):
    """Add iid N(0, sigma^2) noise per coordinate of a clipped message.

    ``size=None`` returns one perturbed vector; integer ``size`` returns a
    (size, d) array of independent perturbations.
    """
    if not 0 <= require_float("sigma", sigma) < math.inf:
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    rng = substream(rng_seed)
    d = msg.values.shape[0]
    shape = (d,) if size is None else (int(size), d)
    if sigma == 0:
        noise = np.zeros(shape)
    else:
        noise = rng.normal(0.0, sigma, size=shape)
    return msg.values + noise


def subsample(items, rate: float, rng_seed: int) -> list:
    """Uniform-without-replacement subset of round(rate * len) items.

    Banker's rounding keeps the expected subset size unbiased. The selected
    items are returned in their original order.
    """
    if not (0.0 < rate < 1.0):
        raise InvalidParameterError(f"rate must be in (0,1), got {rate}")
    items = list(items)
    if not items:
        return []
    k = round(rate * len(items))
    rng = substream(rng_seed)
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[i] for i in sorted(idx)]
