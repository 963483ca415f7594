"""Counter-based random streams.

Every stochastic quantity in a run (link noise, arrival gating, per-satellite
daily volume, the random baseline's choices) is drawn from its own Philox
stream keyed by the master seed, a purpose tag, and the entity indices.
Draws therefore never depend on scheduling decisions or call order, which is
what makes paired policy comparisons on identical sample paths possible.

Philox is counter-based: a draw is a pure function of its stream and its
index (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
So the one primitive, uniform_at, draws any set of (stream, index) cells in
one call, vectorised over blocks of UNIFORM_BLOCK cells. Set-up draws its link
noise, daily volumes and arrival masks with it, and the random baseline draws
its whole horizon's choices with it at distinct indices of one stream.

The streams are not independent, though: the first id shares Philox
counter[0] with the draw counter, so streams whose first ids differ by n
are the same sequence shifted by 4n draws. ROADMAP item 4b moves the ids out
of counter[0] and keys entities by id, an edit to uniform_at alone.
"""

from __future__ import annotations

import numpy as np

# purpose tags (second 64-bit key word)
TAG_RATE_NOISE = 1
TAG_ARRIVAL_MASK = 2
TAG_DAILY_VOLUME = 3
TAG_BR_POLICY = 4

_MASK64 = (1 << 64) - 1
_SHIFT32, _LO32 = np.uint64(32), np.uint64((1 << 32) - 1)
# Philox4x64-10 (Random123, as in numpy): the two round multipliers, each as
# (itself, high half, low half), and the two key increments
_PHILOX_M = tuple((np.uint64(m), np.uint64(m >> 32), np.uint64(m % (1 << 32)))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# cells per pass of uniform_at's kernel, which takes about 170 bytes of
# temporaries per cell
UNIFORM_BLOCK = 2048


def _mulhilo(multiplier: tuple[np.uint64, np.uint64, np.uint64],
             x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products multiplier * x."""
    m, m_hi, m_lo = multiplier
    x_hi, x_lo = x >> _SHIFT32, x & _LO32
    mid = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    mid2 = x_lo * m_hi + (mid & _LO32)
    return x_hi * m_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32), x * m


def uniform_at(seed: int, tag: int, ids: tuple[np.ndarray | int, ...], t: np.ndarray | int,
               lo: np.ndarray | float = 0.0, hi: np.ndarray | float = 1.0) -> np.ndarray:
    """Draw t of the (seed, tag, *ids) stream, scaled to [lo, hi), for every cell.

    ids (up to three) and t are non-negative integer arrays broadcast against
    each other; lo and hi broadcast too. Equal, bit for bit, to draw t of
    numpy's Generator(Philox(key=(seed, tag), counter=(*ids, 0...))).random
    scaled the same way: draw t is word t % 4 of the Philox block at counter
    (ids, 0) + 1 + t // 4, the addition carrying into the higher counter
    words as numpy's does. The cells go through the kernel UNIFORM_BLOCK at
    a time, so its temporaries stay under half a MB however many cells
    there are.
    """
    if len(ids) > 3:
        raise ValueError("at most three stream ids supported")
    n_ids = len(ids)
    operands = [np.asarray(a) for a in (t, *ids, lo, hi)] + [None]
    cells = np.nditer(operands, flags=["external_loop", "buffered", "zerosize_ok"],
                      op_flags=[["readonly"]] * (n_ids + 3) + [["writeonly", "allocate"]],
                      op_dtypes=[np.uint64] * (n_ids + 1) + [np.float64] * 3,
                      casting="unsafe", order="C", buffersize=UNIFORM_BLOCK)
    with cells:
        for t, *ids, lo, hi, out in cells:
            out[...] = lo + (hi - lo) * _uniform(seed, tag, t, ids)
        return cells.operands[-1]


def _uniform(seed: int, tag: int, t: np.ndarray, ids: list[np.ndarray]) -> np.ndarray:
    """uniform_at's unscaled draws for 1-d uint64 draw indices and ids."""
    ids += [np.zeros_like(t)] * (3 - len(ids))
    block = (t >> np.uint64(2)) + np.uint64(1)
    c0 = ids[0] + block
    carry = c0 < block
    c1 = ids[1] + carry
    carry &= c1 == 0
    c2 = ids[2] + carry
    c3 = (carry & (c2 == 0)).astype(np.uint64)
    # the key schedule in Python ints masked to 64 bits: a uint64 scalar warns on the wrap
    k0, k1 = int(seed) & _MASK64, int(tag) & _MASK64
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    word = np.choose((t & np.uint64(3)).astype(np.intp), (c0, c1, c2, c3))
    # numpy's double from a 64-bit word: its top 53 bits times 2**-53
    return (word >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
