"""Local privacy mechanisms and their de-biasing receivers.

Randomized response for bits, norm clipping plus Gaussian perturbation for
vector messages, and uniform-without-replacement subsampling. Every
randomized operation is deterministic given its seed (see ``rng``) and
accepts an optional ``size`` for vectorized Monte-Carlo draws.

numpy is imported inside the functions that use it, so importing this module,
building an ``RrMechanism`` and calling ``rr_flip_prob`` do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (DegenerateMechanismError, InvalidParameterError, require_count,
                     require_float_array, require_float_in, require_index, require_iterable)
from .rng import substream

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RrMechanism:
    """Randomized response: with probability ``flip_prob`` the bit is
    replaced by an independent fair coin, otherwise sent as-is."""

    flip_prob: float

    def __post_init__(self):
        object.__setattr__(self, "flip_prob", _check_probability("flip_prob", self.flip_prob))


def _check_probability(name: str, value) -> float:
    """``value`` as a float; InvalidParameterError unless it is in [0, 1]."""
    return require_float_in(name, value, lambda v: 0.0 <= v <= 1.0, "be in [0,1]")


@dataclass(frozen=True, eq=False)
class ClippedVector:
    """A real message payload guaranteed to have l2 norm <= clip_norm."""

    values: np.ndarray
    clip_norm: float


def rr_flip_prob(epsilon: float) -> float:
    """Randomization probability p = 2 / (e^eps + 1) for (eps, 0)-DP.

    eps = 0 gives p = 1 (pure coin flips); eps -> inf gives p -> 0.
    """
    epsilon = require_float_in("epsilon", epsilon, lambda v: v >= 0, "be nonnegative")
    if epsilon > 700.0:  # exp would overflow; the +1 is far below resolution
        return 2.0 * math.exp(-epsilon)
    return 2.0 / (math.exp(epsilon) + 1.0)


def _check_bit(bit) -> int:
    if bit not in (0, 1):
        raise InvalidParameterError(f"bit must be 0 or 1, got {bit!r}")
    return int(bit)


def _check_bits(name: str, values) -> np.ndarray:
    """``values`` as a float array; InvalidParameterError naming ``name`` unless
    it is a list of 0s and 1s. The check is array-wise, so a trials x agents
    matrix of messages is checked as a list is."""
    values = require_float_array(name, values)
    if values.ndim == 0:
        raise InvalidParameterError(f"{name} must be a list of 0s and 1s, got {float(values)!r}")
    bad = (values != 0.0) & (values != 1.0)
    if bad.any():
        raise InvalidParameterError(f"{name} must be 0s and 1s, got {float(values[bad][0])!r}")
    return values


def _rr_row(rng: np.random.Generator, bit: int, flip_prob: float, m: int) -> np.ndarray:
    """``m`` randomized-response draws of a checked 0/1 ``bit`` and a checked
    ``flip_prob``, as a bool row.

    The draw protocol that seeded reruns rest on is the flip decisions from
    ``rng.random(m)``, then the int64 coins from ``rng.integers(0, 2, m)``, so
    the stream is consumed the same way at every ``flip_prob``. The row takes
    the same bits from one call for m + ceil(m/2) raw 64-bit words w:
    - words 0..m-1 decide the flips. ``random()`` returns (w >> 11) * 2**-53,
      so ``u < flip_prob`` holds exactly when w < ceil(flip_prob * 2**53) << 11
      (the scaling by 2**53 is exact). The bound stays a Python int, which
      numpy compares with uint64 exactly at any size: 0 at flip_prob = 0, so
      nothing flips, and 2**64 at flip_prob = 1, so everything does;
    - words m..m+ceil(m/2)-1 give the coins. ``integers(0, 2)`` reads 32-bit
      halves, low half first, and keeps each half's top bit (Lemire's
      rejection threshold is 0 at range 2), so coin 2k is bit 31 of word m+k
      and coin 2k+1 is bit 63. A little-endian view puts the halves in that
      order on any host.

    The row owns its generator: the raw words bypass the half-word buffer
    that ``integers`` keeps in the bit generator, so ``rng`` must be fresh, as
    every caller's ``substream`` is, and is spent afterwards. It holds 12
    bytes of raw words per trial, about 0.4 MB at ``BLOCK_SIZE``."""
    raw = rng.bit_generator.random_raw(m + (m + 1) // 2)
    flips = raw[:m] < math.ceil(flip_prob * 2.0**53) << 11
    coins = raw[m:].astype("<u8", copy=False).view("<u4")[:m] >= 1 << 31
    # Equals np.where(flips, coins, bit) in value, and costs less.
    return (~flips | coins) if bit else (flips & coins)


def rr_perturb(bit: int, mech: RrMechanism, rng_seed: int, size: int | None = None):
    """Apply randomized response to a bit.

    With ``size=None`` returns a single 0/1 int; with an integer ``size``
    returns that many independent draws as an int64 array, drawn by ``_rr_row``
    from ``substream(rng_seed)``.
    """
    import numpy as np

    bit = _check_bit(bit)
    m = 1 if size is None else require_count("size", size, 0)
    out = _rr_row(substream(rng_seed), bit, mech.flip_prob, m).astype(np.int64)
    return int(out[0]) if size is None else out


def naive_guess(own_bit: int, received):
    """Trusting receiver: own bit plus the sum of received (noisy) bits; one
    int guess per trial of a trials x others matrix, as for ``aware_guess``."""
    import numpy as np

    own_bit = _check_bit(own_bit)
    guesses = own_bit + _check_bits("received", received).sum(axis=-1).astype(np.int64)
    return int(guesses) if guesses.ndim == 0 else guesses


def naive_bias(bits, agent: int, p: float) -> float:
    """Expected error of the naive guess under randomized response at rate p:

        p * (N - 1) / 2  -  p * sum_{j != agent} bits[j]
    """
    bits = _check_bits("bits", bits)
    if bits.ndim != 1:
        raise InvalidParameterError(
            f"bits must be a flat list of 0s and 1s, got shape {bits.shape}")
    n = len(bits)
    agent = require_index("agent", agent, n)
    p = _check_probability("p", p)
    others = int(bits.sum()) - int(bits[agent])
    return p * (n - 1) / 2.0 - p * others


def aware_guess(own_bit: int, received, p: float) -> float:
    """De-biasing receiver with the randomization rate as common knowledge:

        own_bit + (sum(received) - (N - 1) * p / 2) / (1 - p)

    Unbiased for the true bit sum. Undefined at p = 1.
    """
    own_bit = _check_bit(own_bit)
    p = _check_probability("p", p)
    if p == 1.0:
        raise DegenerateMechanismError("p = 1 sends pure noise; the estimator is undefined")
    received = _check_bits("received", received)
    n_others = received.shape[-1]
    return own_bit + (received.sum(axis=-1) - n_others * p / 2.0) / (1.0 - p)


def clip(values, clip_norm: float) -> ClippedVector:
    """Rescale ``values`` onto the l2 ball of radius ``clip_norm``.

    Vectors already within the ball pass through unchanged (bit-exact). A
    non-finite entry has no place on the ball and is rejected, and so is a
    number or a matrix.
    """
    import numpy as np

    clip_norm = require_float_in("clip_norm", clip_norm, lambda v: 0 < v < math.inf,
                                 "be finite and positive")
    values = require_float_array("values", values)
    if not np.isfinite(values).all():
        raise InvalidParameterError(f"clip values must be finite, got {values}")
    if values.ndim != 1:
        raise InvalidParameterError(f"values must be a vector, got shape {values.shape}")
    # Measure x / max|x|, whose square lies in [1, d]: x.x itself overflows
    # above about 1.3e154 and underflows below about 1e-162.
    scale = float(np.abs(values).max(initial=0.0))
    if scale > 0.0:
        unit = values / scale
        unit_norm = math.sqrt(float(unit.dot(unit)))
        if scale * unit_norm > clip_norm:
            values = unit / unit_norm * clip_norm
    return ClippedVector(values, clip_norm)


def gaussian_perturb(msg: ClippedVector, sigma: float, rng_seed: int, size: int | None = None):
    """Add iid N(0, sigma^2) noise per coordinate of a clipped message.

    At sigma = 0 the draws are exact zeros, so the message comes back as is.
    ``size=None`` returns one perturbed vector; integer ``size`` returns a
    (size, d) array of independent perturbations.
    """
    sigma = require_float_in("sigma", sigma, lambda v: 0 <= v < math.inf, "be finite and >= 0")
    rng = substream(rng_seed)
    d = msg.values.shape[0]
    shape = (d,) if size is None else (require_count("size", size, 0), d)
    return msg.values + rng.normal(0.0, sigma, size=shape)


def subsample(items, rate: float, rng_seed: int) -> list:
    """Uniform-without-replacement subset of round(rate * len) items.

    Banker's rounding keeps the expected subset size unbiased. The selected
    items are returned in their original order.
    """
    rate = require_float_in("rate", rate, lambda v: 0.0 < v < 1.0, "be in (0,1)")
    rng = substream(rng_seed)
    items = require_iterable("items", items)
    if not items:
        return []
    k = round(rate * len(items))
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[i] for i in sorted(idx)]
