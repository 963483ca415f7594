"""Counter-based random streams.

Every stochastic quantity in a run (link noise, arrival gating, per-satellite
daily volume, the random baseline's choices) is drawn from its own Philox
stream keyed by the master seed, a purpose tag, and the entity/slot indices.
Draws therefore never depend on scheduling decisions or call order, which is
what makes paired policy comparisons on identical sample paths possible.

The streams are not independent, though: the first id shares Philox
counter[0] with the draw counter, so streams whose first ids differ by n
are the same sequence shifted by 4n draws (see stream and ROADMAP item 3).
"""

from __future__ import annotations

import numpy as np

# purpose tags (second 64-bit key word)
TAG_RATE_NOISE = 1
TAG_ARRIVAL_MASK = 2
TAG_DAILY_VOLUME = 3
TAG_BR_POLICY = 4

_MASK64 = (1 << 64) - 1


def stream(seed: int, tag: int, *ids: int) -> np.random.Generator:
    """Generator for the (tag, *ids) stream under a master seed.

    Up to three identifying integers are placed in the Philox counter block.
    Distinct (tag, ids) streams can overlap: ids[0] sits in counter[0], which
    also advances by one per block of four draws, so the stream for
    ids[0] = i + 1 is the stream for i without its first four draws. The
    arrival masks of satellites 0 and 1 share 1,436 of their 1,440 draws
    this way, and the rate noise of (satellite 1, station g) at slot t equals
    that of (satellite 0, station g) at slot t + 4. ROADMAP item 3 is the fix.
    """
    if len(ids) > 3:
        raise ValueError("at most three stream ids supported")
    counter = [0, 0, 0, 0]
    for k, ident in enumerate(ids):
        counter[k] = int(ident) & _MASK64
    key = [int(seed) & _MASK64, int(tag) & _MASK64]
    # uint64 arrays: numpy casts a list holding an int >= 2**63 through float64
    return np.random.Generator(np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                                                key=np.array(key, dtype=np.uint64)))


def uniform(seed: int, tag: int, ids: tuple[int, ...], n: int, lo: float, hi: float) -> np.ndarray:
    """n uniform draws on [lo, hi) from the given stream."""
    g = stream(seed, tag, *ids)
    return lo + (hi - lo) * g.random(n)
