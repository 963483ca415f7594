import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instances import philox_stream
from skygs import rng
from skygs.model import validate_scenario
from skygs.orbit import build_contact_table
from skygs.queues import ArrivalModel
from skygs.scenarios import full_scale_scenario


def draws(seed):
    return rng.uniform_at(seed, rng.TAG_ARRIVAL_MASK, (3,), np.arange(8))


def test_seeds_at_or_above_two_to_the_63_keep_their_own_stream():
    # a key word >= 2**63 must reach the rounds intact, not through a float64 cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.array_equal(draws(2 ** 63), draws(2 ** 63 + 5))
        assert not np.array_equal(draws(2 ** 64 - 1), draws(0))


# 64-bit words, the edges of both halves made likely
WORD = st.one_of(st.sampled_from([0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]),
                 st.integers(0, 2 ** 64 - 1))


@st.composite
def cells(draw):
    """(ids, t) cells of one call: each with its own ids, all with as many.
    t up to 41 crosses ten block boundaries."""
    k = draw(st.integers(0, 3))
    return draw(st.lists(st.tuples(st.tuples(*[WORD] * k), st.integers(0, 41)),
                         min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(seed=WORD, tag=WORD, cells=cells())
# counter word 0 wraps at the first block and carries into word 1
@example(seed=1, tag=rng.TAG_RATE_NOISE, cells=[((2 ** 64 - 1, 5), t) for t in range(9)])
# and on through words 2 and 3; a word 0 of 2**64 - 2 wraps at the second block
@example(seed=2 ** 64 - 1, tag=2 ** 63,
         cells=[((2 ** 64 - 1,) * 3, t) for t in (0, 3, 4, 8)]
         + [((2 ** 64 - 2, 0, 2 ** 64 - 1), t) for t in (3, 4, 5)])
def test_a_draw_by_address_is_the_streams_draw_bit_for_bit(seed, tag, cells):
    ids = tuple(np.array(col, dtype=np.uint64) for col in zip(*(i for i, _ in cells)))
    t = np.array([t for _, t in cells])
    want = np.array([philox_stream(seed, tag, *i).random(t + 1)[t] for i, t in cells])
    assert rng.uniform_at(seed, tag, ids, t).tobytes() == want.tobytes()
    scaled = rng.uniform_at(seed, tag, ids, t, 0.9, 1.1)
    assert scaled.tobytes() == (0.9 + (1.1 - 0.9) * want).tobytes()


def test_ids_and_draw_indices_broadcast_to_one_row_per_stream():
    rows = np.array([0, 3, 7])
    got = rng.uniform_at(5, rng.TAG_ARRIVAL_MASK, (rows[:, None],), np.arange(10))
    assert got.shape == (3, 10)
    for row, i in zip(got, rows.tolist()):
        assert np.array_equal(row, philox_stream(5, rng.TAG_ARRIVAL_MASK, i).random(10))


def test_set_up_draws_by_address_without_a_generator(monkeypatch):
    # the contact table and the arrivals draw every cell in a few vectorised
    # calls: a per-pair or per-satellite generator in set-up fails here
    scenario = validate_scenario(full_scale_scenario(seed=1, horizon=48))

    def no_generator(*args, **kwargs):
        raise AssertionError("set-up built a Philox generator")

    monkeypatch.setattr(np.random, "Philox", no_generator)
    table = build_contact_table(scenario)
    arrivals = ArrivalModel(scenario)
    assert len(table.sat) > 0
    assert arrivals.mb.shape == (len(scenario.satellites), 48)
