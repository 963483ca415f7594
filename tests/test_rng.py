import warnings

import numpy as np

from skygs import rng


def draws(seed):
    return rng.stream(seed, rng.TAG_ARRIVAL_MASK, 3).random(8)


def test_seeds_at_or_above_two_to_the_63_keep_their_own_stream():
    # a key word >= 2**63 must reach Philox intact, not through a float64 cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.array_equal(draws(2 ** 63), draws(2 ** 63 + 5))
        assert not np.array_equal(draws(2 ** 64 - 1), draws(0))
