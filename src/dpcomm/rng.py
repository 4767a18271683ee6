"""Deterministic, splittable random streams.

Every randomized operation in this package takes an integer seed and derives
its draws from ``substream(seed, *key)``. Distinct keys give statistically
independent streams, and a given (seed, key) pair always yields the same
stream regardless of what else has been drawn. Monte-Carlo loops fan out
over per-(agent, block) substreams so results do not depend on execution
order or worker count; block aggregates are combined with ``math.fsum``.
"""

from __future__ import annotations

import numpy as np

from .errors import require_seed

#: Trials per substream block in Monte-Carlo loops. Fixed so that results
#: are reproducible for a given seed no matter how blocks are scheduled.
BLOCK_SIZE = 1 << 15


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given seed and integer key path."""
    require_seed("seed", seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def block_sizes(total: int, block_size: int = BLOCK_SIZE) -> list[int]:
    """Split ``total`` trials into fixed-size blocks (last one ragged)."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    full, rest = divmod(total, block_size)
    return [block_size] * full + ([rest] if rest else [])
