"""An independent FIFO replay of every policy's downlinks.

The replay rebuilds each satellite's backlog from the scenario's arrivals and
the run's downlink records, with its own first-in-first-out list, and checks
that each downlink moved min(rate * tau, onboard) MB, that its queuing
latency is the age of the MB it took from the head, and that each
satellite's final backlog is what the replay leaves onboard. It imports
nothing from skygs.queues, so a fault in the program's backlog does not
also hide in the check.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import contact_table, make_scenario
from skygs import engine
from skygs.model import POLICIES
from skygs.orbit import Contact

REL = 1e-9
MINUTES_PER_DAY = 1440.0


def close(got, want, scale):
    return abs(got - want) <= REL * max(abs(got), abs(want), scale)


def random_world(n_sats, horizon, xi, v, seed):
    """A small world with a random contact plan: (scenario, table, rates).

    Each satellite collects between 70 and 14,000 MB a slot, and each contact
    moves between 100 and 14,000 MB a slot, so downlinks both drain backlogs
    and split chunks.
    """
    rng = np.random.default_rng(seed)
    stations = tuple((int(rng.integers(1, 3)), float(rng.uniform(5.0, 30.0)))
                     for _ in range(int(rng.integers(1, 4))))
    n_dcs = int(rng.integers(1, 4))
    scenario = make_scenario(
        n_sats=n_sats, stations=stations, n_dcs=n_dcs, v=v, xi=xi, horizon=horizon,
        dc_prices=rng.uniform(0.005, 0.05, n_dcs).tolist(),
        dc_kappas=rng.uniform(0.004, 0.02, n_dcs).tolist(),
        volumes=rng.uniform(1e5, 2e7, n_sats).tolist())
    rates = {}
    for t in range(horizon):
        for sat in scenario.satellites:
            for gs in scenario.ground_stations:
                if rng.random() < 0.5:
                    rates[(t, sat.id, gs.id)] = float(rng.uniform(100.0, 14_000.0))
    table = contact_table(scenario, [Contact(t, s, g, 45.0, rate)
                                     for (t, s, g), rate in rates.items()])
    return scenario, table, rates


def arrivals_per_slot(scenario):
    """MB each satellite collects in every slot: its fixed daily volume spread
    over the day (make_scenario gives every satellite a duty cycle of 1)."""
    return {sat.id: sat.daily_volume_mb[0] * scenario.tau / MINUTES_PER_DAY
            for sat in scenario.satellites}


def replay(scenario, records, rates):
    """Check each record against a FIFO rebuilt from the arrivals; returns the
    violations and each satellite's replayed final backlog. Each satellite's
    tolerance is rel 1e-9 of the MB it collects over the horizon."""
    tau = scenario.tau
    per_slot = arrivals_per_slot(scenario)
    scale = {sid: mb * scenario.horizon for sid, mb in per_slot.items()}
    fifo = {sid: deque() for sid in per_slot}
    by_slot = {}
    for r in records:
        by_slot.setdefault(r.slot, []).append(r)
    out = []
    for t in range(scenario.horizon):
        for r in by_slot.pop(t, []):
            sid, queue = r.satellite_id, fifo[r.satellite_id]
            rate = rates.get((t, sid, r.ground_station_id))
            if rate is None:
                out.append(f"slot {t} {sid}: no contact with {r.ground_station_id}")
                continue
            onboard = math.fsum(size for _, size in queue)
            if not close(r.mb, min(rate * tau, onboard), scale[sid]):
                out.append(f"slot {t} {sid}: moved {r.mb} MB, expected "
                           f"min({rate * tau}, {onboard})")
            remaining, lq = r.mb, 0.0
            while queue and remaining > 0:
                arrival, size = queue[0]
                take = min(size, remaining)
                if size - take <= REL * scale[sid]:
                    queue.popleft()
                else:
                    queue[0] = (arrival, size - take)
                lq += take * (t - arrival) * tau
                remaining -= take
            if remaining > REL * scale[sid]:
                out.append(f"slot {t} {sid}: moved {remaining} MB more than was onboard")
            if not close(r.lq, lq, scale[sid] * scenario.horizon * tau):
                out.append(f"slot {t} {sid}: lq {r.lq} != FIFO replay {lq}")
        for sid, queue in fifo.items():
            queue.append((t, per_slot[sid]))
    if by_slot:
        out.append(f"records outside the horizon, at slots {sorted(by_slot)}")
    return out, {sid: math.fsum(size for _, size in queue) for sid, queue in fifo.items()}


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None)
@given(n_sats=st.integers(1, 4), horizon=st.integers(2, 24),
       xi=st.sampled_from([2.0, 10.0, 60.0]), v=st.sampled_from([0.0, 1.0, 5e4, 5e6]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_downlinks_replay_through_an_independent_fifo(policy, n_sats, horizon, xi, v, seed):
    scenario, table, rates = random_world(n_sats, horizon, xi, v, seed)
    sim, _ = engine.run(scenario, policy=policy, table=table)
    violations, onboard = replay(scenario, sim.records, rates)
    assert violations == []
    for sid, mb in arrivals_per_slot(scenario).items():
        assert close(sim.final_backlogs[sid], onboard[sid], mb * horizon), sid
