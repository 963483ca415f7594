"""Relations that every policy's run must keep, checked on the desk world at seed 1.

Price scaling: multiplying every station and data-center price by 4 and
dividing V by 4 leaves each edge's V * cost, and so each decision, unchanged,
and scales each booked cost by 4. Both factors are powers of two, so the
relation holds bit for bit: the records are identical but for cr, cc and
c_total, which are exactly 4 times as large.

Non-anticipation: a slot's decision reads only what the run knows at the
start of that slot, so a shorter run, with its own propagated contact table,
is the exact prefix of the full day. It is checked twice: on the desk world,
and on the desk world with every satellite's duty_cycle at 0.5, whose
arrivals differ from slot to slot, so that an arrival read from another slot
breaks the prefix (at duty 1 every slot of a satellite collects the same MB).
"""

from dataclasses import replace

import pytest

from skygs import engine
from skygs.model import POLICIES, validate_scenario
from skygs.scenarios import desk_scenario

SEED = 1
V = 1e7


def scaled_prices(scenario, factor):
    """The scenario with every station and data-center price times factor."""
    return replace(
        scenario,
        ground_stations=tuple(replace(g, price_per_slot=g.price_per_slot * factor)
                              for g in scenario.ground_stations),
        data_centers=tuple(replace(d, price_per_min=d.price_per_min * factor)
                           for d in scenario.data_centers))


@pytest.mark.parametrize("policy", POLICIES)
def test_price_scaling_scales_only_the_costs(desk, policy):
    base, base_metrics = desk.run(policy, SEED, v=V)
    scenario = replace(scaled_prices(desk.scenario(SEED), 4.0), v=V / 4)
    scaled, scaled_metrics = engine.run(scenario, policy=policy, table=desk.table(SEED))
    assert base.records, policy
    assert scaled.records == [r._replace(cr=4 * r.cr, cc=4 * r.cc, c_total=4 * r.c_total)
                              for r in base.records]
    assert scaled.q_trace == base.q_trace
    assert scaled.backlog_trace == base.backlog_trace
    assert scaled_metrics.total_cost == 4 * base_metrics.total_cost


def half_duty(horizon=1440):
    """The desk world at SEED with every satellite's duty_cycle 0.5."""
    raw = desk_scenario(seed=SEED, horizon=horizon)
    for sat in raw["satellites"]:
        sat["duty_cycle"] = 0.5
    return validate_scenario(raw)


def assert_prefix(day, short, horizon, policy):
    """The horizon-slot run `short` is the exact prefix of the run `day`."""
    assert len(day.q_trace) > horizon
    assert short.records, policy
    assert short.records == [r for r in day.records if r.slot < horizon]
    assert short.q_trace == day.q_trace[:horizon]
    assert short.backlog_trace == day.backlog_trace[:horizon]


@pytest.mark.parametrize("policy", POLICIES)
def test_a_shorter_run_is_a_prefix_of_the_day(desk, policy):
    day, _ = desk.run(policy, SEED)
    horizon = 500
    short, _ = engine.run(validate_scenario(desk_scenario(seed=SEED, horizon=horizon)),
                          policy=policy)
    assert_prefix(day, short, horizon, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_shorter_run_is_a_prefix_of_the_day_at_half_duty(policy):
    day, _ = engine.run(half_duty(), policy=policy)
    horizon = 500
    short, _ = engine.run(half_duty(horizon), policy=policy)
    assert_prefix(day, short, horizon, policy)
