"""Shared builders for small synthetic slot instances (unit + acceptance tests)."""

from types import SimpleNamespace

import numpy as np

from oracle import brute_force_schedule
from skygs.model import validate_scenario
from skygs.orbit import Contact, ContactTable
from skygs.queues import SatelliteState, advance_backlog
from skygs.scheduler import ScenarioArrays, build_bipartite, hungarian_min_matching


def make_scenario(n_sats=2, stations=((2, 22.0),), n_dcs=2, v=0.0, xi=60.0,
                  dc_prices=None, dc_kappas=None, horizon=400, volumes=None):
    """A validated scenario with tau = 1 min; satellite i collects exactly
    `volumes[i]` MB a day (1000 unless given), the same amount every slot."""
    return validate_scenario({
        "satellites": [
            {"id": f"sat-{i}", "altitude_km": 475.0, "inclination_deg": 97.4,
             "raan_deg": 0.0, "phase_deg": 0.0,
             "daily_volume_mb": [(volumes or [1000] * n_sats)[i]] * 2}
            for i in range(n_sats)
        ],
        "ground_stations": [
            {"id": f"gs-{j}", "provider": "p", "lat_deg": 0.0, "lon_deg": 0.0,
             "antennas": antennas, "price_per_slot": price}
            for j, (antennas, price) in enumerate(stations)
        ],
        "data_centers": [
            {"id": f"dc-{k}", "provider": "p",
             "price_per_min": (dc_prices or [1.0 / 60] * n_dcs)[k],
             "intensity_min_per_mb": (dc_kappas or [0.006] * n_dcs)[k]}
            for k in range(n_dcs)
        ],
        "sim": {"tau": 1.0, "horizon": horizon, "xi": xi, "v": v, "seed": 1,
                "policy": "skygs", "r_max": 12_000.0, "backhaul_rate": "1 Gbps"},
    })


def contact_table(scenario, rows, n_slots=None):
    """The scenario's contact table holding `rows` (Contacts), over its horizon
    unless `n_slots` says otherwise."""
    return ContactTable.from_contacts(
        scenario.horizon if n_slots is None else n_slots,
        [s.id for s in scenario.satellites], [g.id for g in scenario.ground_stations], rows)


def contact_row(table, slot, sat_id, gs_id):
    """Table row of the (slot, satellite, station) contact, -1 without one."""
    for k in table.slot_rows(slot):
        if (table.sat_ids[table.sat[k]], table.gs_ids[table.gs[k]]) == (sat_id, gs_id):
            return k
    return -1


def named(triple, table, scenario):
    """The satellite, station and data center ids a triple's positions name."""
    k = triple.contact
    return SimpleNamespace(satellite=table.sat_ids[table.sat[k]],
                           station=table.gs_ids[table.gs[k]],
                           dc=sorted(d.id for d in scenario.data_centers)[triple.dc])


def schedule_slot(states, q, slot, scenario, table):
    """The broker's (assignment, objective) at one slot."""
    return hungarian_min_matching(build_bipartite(states, q, slot, scenario, table,
                                                  ScenarioArrays.from_scenario(scenario)))


def table_for(scenario, contacts, slot=0):
    return contact_table(scenario, [Contact(slot, s, g, 45.0, rate) for s, g, rate in contacts])


def states_for(scenario, backlogs):
    out = {}
    for sat in scenario.satellites:
        st = SatelliteState(sat.id)
        for arrival, size in backlogs.get(sat.id, []):
            advance_backlog(st, size, arrival)
        out[sat.id] = st
    return out


def backlogs_of(states):
    """Each satellite's backlog in MB by id, as the oracle takes it."""
    return {sat_id: state.total_mb for sat_id, state in states.items()}


def philox_stream(seed, tag, *ids):
    """numpy's own Generator over the (seed, tag, *ids) stream that
    rng.uniform_at draws by address: key (seed, tag), up to three ids in the
    counter words from the first."""
    counter = [int(i) for i in ids] + [0] * (4 - len(ids))
    # uint64 arrays: numpy casts a list holding an int >= 2**63 through float64
    return np.random.Generator(np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                                                key=np.array([seed, tag], dtype=np.uint64)))


def random_instance(rng, max_sats=4, max_antennas=4, max_dcs=3):
    """Random guarded slot instance: scenario, contact table, states, slot, Q."""
    n_sats = int(rng.integers(1, max_sats + 1))
    n_dcs = int(rng.integers(1, max_dcs + 1))
    stations = []
    antennas_left = max_antennas
    while antennas_left > 0 and len(stations) < 3:
        take = int(rng.integers(1, antennas_left + 1))
        stations.append((take, float(rng.uniform(5.0, 30.0))))
        antennas_left -= take
        if rng.random() < 0.4:
            break
    scenario = make_scenario(
        n_sats=n_sats, stations=tuple(stations), n_dcs=n_dcs,
        v=float(rng.choice([0.0, 1.0, 1e3, 5e4, 5e6])),
        dc_prices=[float(rng.uniform(0.005, 0.05)) for _ in range(n_dcs)],
        dc_kappas=[float(rng.uniform(0.004, 0.02)) for _ in range(n_dcs)],
    )
    backlogs = {}
    newest = 0
    for s in scenario.satellites:
        chunks = []
        arrival = 0
        for _ in range(int(rng.integers(0, 5))):
            chunks.append((arrival, float(rng.uniform(1.0, 9_000.0))))
            newest = max(newest, arrival)
            arrival += int(rng.integers(1, 40))
        backlogs[s.id] = chunks
    states = states_for(scenario, backlogs)
    slot = newest + 1
    contacts = []
    for s in scenario.satellites:
        for g in scenario.ground_stations:
            if rng.random() < 0.65:
                contacts.append(Contact(slot, s.id, g.id, 45.0,
                                        float(rng.uniform(100.0, 14_000.0))))
    table = contact_table(scenario, contacts)
    q = float(rng.choice([0.0, rng.uniform(0, 1e6)]))
    return scenario, table, states, slot, q


def oracle_agreement(seed):
    """(matching objective, enumeration objective) on one random instance."""
    rng = np.random.default_rng(seed)
    scenario, table, states, slot, q = random_instance(rng)
    _, fast = schedule_slot(states, q, slot, scenario, table)
    _, exact = brute_force_schedule(backlogs_of(states), q, slot, scenario, table)
    return fast, exact
