"""Deterministic, splittable random streams.

Every randomized operation in this package takes an integer seed and derives
its draws from ``substream(seed, *key)``. Distinct keys give statistically
independent streams, and a given (seed, key) pair always yields the same
stream regardless of what else has been drawn. Monte-Carlo loops draw from
per-(agent, block) substreams, so a block's draws do not depend on the blocks
before it.

numpy is imported inside ``substream``, so importing this module does not
load it. The library's draws all come from ``substream``; the CLI's
``equilibrium`` command, which never loads numpy, draws its start points from
the standard library's ``random.Random(seed)`` instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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

