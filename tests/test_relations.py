"""Relations that every policy's run must keep, checked on the reference worlds at seed 1.

Price scaling: multiplying every station and data-center price by 4 and
dividing V by 4 leaves each edge's V * cost, and so each decision, unchanged,
and scales each booked cost by 4. Both factors are powers of two, so the
relation holds bit for bit: the records are identical but for cr, cc and
c_total, which are exactly 4 times as large.

Non-anticipation: a slot's decision reads only what the run knows at the
start of that slot, so a shorter run, with its own propagated contact table,
is the exact prefix of the full day. It is checked on the desk world; on the
desk world with every satellite's duty_cycle at 0.5, whose arrivals differ
from slot to slot, so that an arrival read from another slot breaks the
prefix (at duty 1 every slot of a satellite collects the same MB); and on the
full-scale world, 97 of 240 slots, at its file's V and, for skygs, at a V
where the latency queue Q turns positive inside the shorter run.

A dominated data center: adding one that is pricier, slower to process and
slower to reach from every station than every other data center leaves every
run that chooses its data center by cost or weight unchanged: records, Q and
summary. br is exempt, because it draws its data center uniformly. The new
center is listed last in the file but sorts among the others, so the file's
order and the id order differ.
"""

from dataclasses import replace

import pytest

from skygs import engine
from skygs.model import POLICIES, validate_scenario
from skygs.orbit import build_contact_table
from skygs.scenarios import desk_scenario, full_scale_scenario

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


FULL_SCALE_DAY, FULL_SCALE_SHORT = 240, 97


def case_ids(cases):
    """`policy-V` test ids, such as skygs-1e8; a V of None is the desk file's 5e4."""
    return [f"{policy}-{v or 5e4:.0e}".replace("e+0", "e") for policy, v in cases]


FULL_SCALE_CASES = [(policy, 5e6) for policy in POLICIES] + [("skygs", 1e8)]


@pytest.fixture(scope="module")
def full_scale():
    """The full-scale world at SEED and its contact table, by horizon."""
    worlds = {}
    for horizon in (FULL_SCALE_DAY, FULL_SCALE_SHORT):
        scenario = validate_scenario(full_scale_scenario(SEED, horizon=horizon))
        worlds[horizon] = scenario, build_contact_table(scenario)
    return worlds


@pytest.mark.parametrize("policy, v", FULL_SCALE_CASES, ids=case_ids(FULL_SCALE_CASES))
def test_a_shorter_run_is_a_prefix_at_full_scale(full_scale, policy, v):
    day, short = (engine.run(replace(scenario, v=v), policy=policy, table=table)[0]
                  for scenario, table in (full_scale[FULL_SCALE_DAY],
                                          full_scale[FULL_SCALE_SHORT]))
    if v > 5e6:
        assert max(short.q_trace) > 0, "the latency queue must bind inside the shorter run"
    assert_prefix(day, short, FULL_SCALE_SHORT, policy)


def with_dominated_data_center(raw):
    """raw with dc-03x appended: dearer, slower to process and slower to reach
    from every station than any other data center."""
    raw["data_centers"].append({"id": "dc-03x", "provider": "provider-a",
                                "price": "100 $/h", "intensity": "10 h/GB"})
    for station in raw["ground_stations"]:
        station.setdefault("backhaul", {})["dc-03x"] = "1 Mbps"
    return raw


# None runs the desk file's V, 5e4; at V = 1e7 skygs' Q turns positive
DOMINATED_CASES = ([(policy, None) for policy in POLICIES if policy != "br"]
                   + [("skygs", V), ("ilp_hpq", V)])


@pytest.mark.parametrize("policy, v", DOMINATED_CASES, ids=case_ids(DOMINATED_CASES))
def test_a_dominated_data_center_changes_no_run(desk, policy, v):
    base, base_metrics = desk.run(policy, SEED, v=v)
    scenario = validate_scenario(with_dominated_data_center(desk_scenario(seed=SEED)))
    if v is not None:
        scenario = replace(scenario, v=v)
    run, metrics = engine.run(scenario, policy=policy, table=desk.table(SEED))
    assert base.records, policy
    assert run.records == base.records
    assert run.q_trace == base.q_trace
    assert metrics == base_metrics
