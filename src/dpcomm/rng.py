"""Deterministic, splittable random streams.

Every randomized operation in this package takes an integer seed and derives
its draws from ``substream(seed, *key)``. Distinct keys give statistically
independent streams, and a given (seed, key) pair always yields the same
stream regardless of what else has been drawn. Monte-Carlo loops draw from
per-(agent, block) substreams, so a block's draws do not depend on the blocks
before it.

numpy is imported inside ``substream``, so importing this module does not
load it. The equilibrium command's start points come from ``uniforms``, a
pure-Python copy of numpy's SeedSequence -> PCG64 -> ``random()`` stream for
a key-less ``substream(seed)``; the tests check it against numpy's stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .errors import require_seed

if TYPE_CHECKING:
    import numpy as np

#: Trials per substream block in Monte-Carlo loops. Fixed so that a seed and a
#: trial count always give the same blocks, and so the same results.
BLOCK_SIZE = 1 << 15


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given seed and integer key path."""
    import numpy as np

    require_seed("seed", seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


# numpy.random.SeedSequence's hash constants (a 4-word pool of uint32).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG64: a 128-bit LCG with the XSL-RR output function.
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(entropy=seed).generate_state(4, uint64)``, with no spawn key."""
    words = [seed & _MASK32]  # little-endian 32-bit words; 0 is the one word [0]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hash_const = [], _INIT_B
    for i in range(8):  # eight uint32 words, paired little-endian into four uint64
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def uniforms(seed: int, n: int) -> Iterator[float]:
    """The ``n`` floats of ``substream(seed).random(n)``, computed without numpy
    and drawn lazily, as they are used."""
    require_seed("seed", seed)
    return _pcg64_doubles(_seed_words(int(seed)), n)


def _pcg64_doubles(words: list[int], n: int) -> Iterator[float]:
    """``n`` doubles of PCG64 seeded as numpy seeds it: ``srandom`` with state
    words[0]:words[1] and sequence words[2]:words[3]. Each output is XSL-RR of
    the stepped state, and each double its top 53 bits times 2**-53."""
    s0, s1, s2, s3 = words
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128  # srandom steps from 0
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        xored = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        value = (xored >> rot | xored << (64 - rot)) & _MASK64
        yield (value >> 11) * 2.0**-53
