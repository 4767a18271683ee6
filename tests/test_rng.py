"""The pure-Python start draws of ``rng.uniforms``, with numpy's stream as the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomm.errors import InvalidParameterError
from dpcomm.rng import substream, uniforms


def oracle(seed, n):
    return substream(seed).random(n).tolist()


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**256), st.integers(0, 64))
def test_uniforms_are_numpys_stream(seed, n):
    assert list(uniforms(seed, n)) == oracle(seed, n)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 10**40],
                         ids=["0", "2**32-1", "2**32", "2**64", "10**40"])
def test_uniforms_at_the_word_boundaries(seed):
    # SeedSequence splits the seed into 32-bit words and pads a short one to
    # its 4-word pool; these seeds take one, one, two, three and five words.
    assert list(uniforms(seed, 64)) == oracle(seed, 64)


def test_uniforms_take_numpy_seeds():
    assert list(uniforms(np.uint64(2**64 - 1), 8)) == oracle(2**64 - 1, 8)


def test_uniforms_are_a_prefix_of_a_longer_draw():
    # The equilibrium command draws its 2 * num_starts floats in one call; a
    # longer call extends the same stream.
    assert list(uniforms(3, 20)) == list(uniforms(3, 30))[:20]


@pytest.mark.parametrize("seed", [-1, 2.5, True, "1", None, math.nan])
def test_uniforms_reject_a_bad_seed(seed):
    with pytest.raises(InvalidParameterError, match="seed"):
        uniforms(seed, 2)
