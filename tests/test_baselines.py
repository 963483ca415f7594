import numpy as np
import pytest

from skygs.baselines import (_POLICY_CLASSES, BGPolicy, BRPolicy, BWGPolicy, IlpHpqPolicy,
                             SGPolicy, make_policy)
from skygs.model import POLICIES, ScenarioError, validate_scenario
from instances import contact_table, named
from skygs.orbit import Contact
from skygs.queues import DataChunk, SatelliteState
from skygs.scenarios import desk_scenario
from skygs.scheduler import ScenarioArrays, check_assignment


def make_scenario(stations, n_sats=2, n_dcs=2, policy="bg", policy_params=None,
                  dc_providers=None):
    return validate_scenario({
        "satellites": [
            {"id": f"sat-{i}", "altitude_km": 475.0, "inclination_deg": 97.4,
             "raan_deg": 0.0, "phase_deg": 0.0, "daily_volume_mb": [1000, 1000]}
            for i in range(n_sats)
        ],
        "ground_stations": [
            {"id": gid, "provider": provider, "lat_deg": 0.0, "lon_deg": 0.0,
             "antennas": antennas, "price_per_slot": price}
            for gid, provider, antennas, price in stations
        ],
        "data_centers": [
            {"id": f"dc-{k}", "provider": (dc_providers or ["p1"] * n_dcs)[k],
             "price_per_min": 1.0 / 60, "intensity_min_per_mb": 0.006 * (k + 1)}
            for k in range(n_dcs)
        ],
        "sim": {"tau": 1.0, "horizon": 200, "xi": 60.0, "v": 0.0, "seed": 5,
                "policy": policy, "policy_params": policy_params or {},
                "r_max": 12_000.0, "backhaul_rate": "1 Gbps"},
    })


def table_for(scenario, contacts, slot=0):
    return contact_table(scenario, [Contact(slot, s, g, 45.0, rate) for s, g, rate in contacts])


def states_for(scenario, backlogs):
    out = {}
    for sat in scenario.satellites:
        st = SatelliteState(sat.id)
        for arrival, size in backlogs.get(sat.id, []):
            st.chunks.append(DataChunk(arrival, size))
            st.total_mb += size
        out[sat.id] = st
    return out


TWO_PROVIDERS = [("gs-a", "p1", 1, 18.0), ("gs-b", "p2", 1, 26.0)]


class TestBG:
    def test_picks_cheaper_station_at_equal_rate(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0), ("gs-b", "p1", 1, 26.0)], n_sats=1)
        table = table_for(sc, [("sat-0", "gs-a", 1000.0), ("sat-0", "gs-b", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)]})
        asg = BGPolicy(sc).schedule(states, 0.0, 0, table)
        assert named(asg.triples[0], table, sc).station == "gs-a"

    def test_zero_backlog_never_rents(self):
        sc = make_scenario(TWO_PROVIDERS, n_sats=1)
        table = table_for(sc, [("sat-0", "gs-a", 1000.0)])
        asg = BGPolicy(sc).schedule(states_for(sc, {}), 0.0, 0, table)
        assert asg.triples == ()

    def test_larger_backlog_wins_contention(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=2)
        table = table_for(sc, [("sat-0", "gs-a", 1000.0), ("sat-1", "gs-a", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)], "sat-1": [(0, 900.0)]})
        asg = BGPolicy(sc).schedule(states, 0.0, 0, table)
        assert len(asg.triples) == 1
        assert named(asg.triples[0], table, sc).satellite == "sat-1"

    def test_picks_cheapest_dc_per_mb(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=1, n_dcs=3)
        table = table_for(sc, [("sat-0", "gs-a", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)]})
        asg = BGPolicy(sc).schedule(states, 0.0, 0, table)
        assert named(asg.triples[0], table, sc).dc == "dc-0"  # lowest kappa * price


class TestSG:
    def test_filters_to_provider(self):
        sc = make_scenario(TWO_PROVIDERS, n_sats=1, policy="sg",
                           policy_params={"provider": "p2"},
                           dc_providers=["p1", "p2"])
        table = table_for(sc, [("sat-0", "gs-a", 1000.0), ("sat-0", "gs-b", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)]})
        asg = SGPolicy(sc).schedule(states, 0.0, 0, table)
        assert named(asg.triples[0], table, sc).station == "gs-b"
        assert named(asg.triples[0], table, sc).dc == "dc-1"

    def test_withholds_when_only_other_provider_visible(self):
        sc = make_scenario(TWO_PROVIDERS, n_sats=1, policy="sg",
                           policy_params={"provider": "p2"},
                           dc_providers=["p1", "p2"])
        table = table_for(sc, [("sat-0", "gs-a", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)]})
        asg = SGPolicy(sc).schedule(states, 0.0, 0, table)
        assert asg.triples == ()

    def test_single_provider_equals_bg(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0), ("gs-b", "p1", 2, 26.0)],
                           n_sats=2, policy="sg", policy_params={"provider": "p1"})
        table = table_for(sc, [("sat-0", "gs-a", 1000.0), ("sat-1", "gs-b", 800.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)], "sat-1": [(0, 700.0)]})
        assert (SGPolicy(sc).schedule(states, 0.0, 0, table)
                == BGPolicy(sc).schedule(states, 0.0, 0, table))

    def test_provider_without_stations_rejected(self):
        # p2 owns a data center but no station
        with pytest.raises(ScenarioError, match="owns no ground stations"):
            make_scenario(TWO_PROVIDERS[:1], policy="sg", policy_params={"provider": "p2"},
                          dc_providers=["p1", "p2"])


class TestBWG:
    def test_withholds_below_capacity(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=1)
        table = table_for(sc, [("sat-0", "gs-a", 12_000.0)])
        states = states_for(sc, {"sat-0": [(0, 5_000.0)]})
        asg = BWGPolicy(sc).schedule(states, 0.0, 0, table)
        assert asg.triples == ()

    def test_downlinks_at_exact_capacity(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=1)
        table = table_for(sc, [("sat-0", "gs-a", 12_000.0)])
        states = states_for(sc, {"sat-0": [(0, 12_000.0)]})
        asg = BWGPolicy(sc).schedule(states, 0.0, 0, table)
        assert len(asg.triples) == 1
        assert table.rate_mb_per_min[asg.triples[0].contact] * sc.tau == pytest.approx(12_000.0)

    def test_empty_backlog_withholds(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=1)
        table = table_for(sc, [("sat-0", "gs-a", 12_000.0)])
        asg = BWGPolicy(sc).schedule(states_for(sc, {}), 0.0, 0, table)
        assert asg.triples == ()


class TestBR:
    def test_no_contacts_empty(self):
        sc = make_scenario(TWO_PROVIDERS)
        table = table_for(sc, [])
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        asg = BRPolicy(sc).schedule(states, 0.0, 0, table)
        assert asg.triples == ()

    def test_deterministic_given_seed(self):
        sc = make_scenario(TWO_PROVIDERS, n_sats=2)
        table = table_for(sc, [("sat-0", "gs-a", 1000.0), ("sat-0", "gs-b", 900.0),
                               ("sat-1", "gs-a", 800.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)], "sat-1": [(0, 200.0)]})
        a = BRPolicy(sc).schedule(states_for(sc, {"sat-0": [(0, 100.0)],
                                                  "sat-1": [(0, 200.0)]}), 0.0, 0, table)
        b = BRPolicy(sc).schedule(states, 0.0, 0, table)
        assert a == b

    def test_antenna_choice_uniform(self):
        # one satellite, one two-antenna station: ~50/50 over many slots
        # chi-square with 1 dof at p > 0.01 -> statistic below 6.635
        sc = make_scenario([("gs-a", "p1", 2, 18.0)], n_sats=1)
        n = 10_000
        sc = validate_scenario({**sc.to_json_dict(),
                                "sim": {**sc.to_json_dict()["sim"], "horizon": n}})
        table = contact_table(sc, [Contact(t, "sat-0", "gs-a", 45.0, 1000.0)
                                   for t in range(n)])
        policy = BRPolicy(sc)
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        counts = [0, 0]
        for t in range(n):
            asg = policy.schedule(states, 0.0, t, table)
            counts[asg.triples[0].antenna] += 1
        chi2 = sum((c - n / 2) ** 2 / (n / 2) for c in counts)
        assert chi2 < 6.635


class TestIlpHpq:
    def test_trigger_at_rho_xi(self):
        # oldest chunk aged 50 >= 0.8 * 60 = 48 -> forced downlink
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=1, policy="ilp_hpq")
        table = table_for(sc, [("sat-0", "gs-a", 1000.0)], slot=50)
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        asg = IlpHpqPolicy(sc).schedule(states, 0.0, 50, table)
        assert len(asg.triples) == 1

    def test_below_trigger_withholds_when_costly(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=1, policy="ilp_hpq")
        table = table_for(sc, [("sat-0", "gs-a", 1000.0)], slot=10)
        states = states_for(sc, {"sat-0": [(10, 100.0)]})
        asg = IlpHpqPolicy(sc).schedule(states, 0.0, 10, table)
        assert asg.triples == ()

    def test_forced_even_at_max_cost(self):
        sc = make_scenario([("gs-a", "p1", 1, 999.0)], n_sats=1, policy="ilp_hpq")
        table = table_for(sc, [("sat-0", "gs-a", 1000.0)], slot=60)
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        asg = IlpHpqPolicy(sc).schedule(states, 0.0, 60, table)
        assert len(asg.triples) == 1

    def test_high_priority_without_visibility_stays_queued(self):
        sc = make_scenario([("gs-a", "p1", 1, 18.0)], n_sats=1, policy="ilp_hpq")
        table = table_for(sc, [], slot=60)
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        asg = IlpHpqPolicy(sc).schedule(states, 0.0, 60, table)
        assert asg.triples == ()

    def test_serves_maximum_high_priority_coverage(self):
        # every high-priority satellite that a feasible matching could serve
        # must be served, at the least rental-plus-compute cost among the
        # assignments that serve that many, and no other satellite is served;
        # verified against an independent enumeration of all assignments
        rng = np.random.default_rng(11)
        sc = make_scenario([("gs-a", "p1", 1, 18.0), ("gs-b", "p1", 2, 26.0)],
                           n_sats=4, policy="ilp_hpq")
        price = {g.id: g.price_per_slot for g in sc.ground_stations}
        per_mb = {d.id: d.price_per_min * d.intensity_min_per_mb for d in sc.data_centers}
        antennas = [(g.id, a) for g in sc.ground_stations for a in range(g.antennas)]
        for trial in range(40):
            slot = 60
            contacts = []
            for s in sc.satellites:
                for g in sc.ground_stations:
                    if rng.random() < 0.5:
                        contacts.append((s.id, g.id, float(rng.uniform(100, 5000))))
            table = table_for(sc, contacts, slot=slot)
            rates = {(s, g): rate for s, g, rate in contacts}
            states = states_for(sc, {
                s.id: [(0 if rng.random() < 0.6 else 55, float(rng.uniform(10, 9000)))]
                for s in sc.satellites if rng.random() < 0.85
            })
            hp = {sid for sid, st in states.items()
                  if st.chunks and (slot - st.chunks[0].arrival_slot) >= 0.8 * 60}
            asg = IlpHpqPolicy(sc).schedule(states, 0.0, slot, table)
            ids = [named(t, table, sc) for t in asg.triples]
            served = {n.satellite for n in ids}
            cost = sum(price[n.station] + per_mb[n.dc]
                       * min(table.rate_mb_per_min[t.contact] * sc.tau,
                             states[n.satellite].total_mb)
                       for t, n in zip(asg.triples, ids))

            # least cost of the assignments serving each number of HP sats
            least: dict[int, float] = {}

            def extend(sats, used, n_hp, total):
                if not sats:
                    least[n_hp] = min(least.get(n_hp, np.inf), total)
                    return
                sid, rest = sats[0], sats[1:]
                extend(rest, used, n_hp, total)
                for ant in antennas:
                    rate = rates.get((sid, ant[0]))
                    if ant in used or rate is None:
                        continue
                    dtil = min(rate * sc.tau, states[sid].total_mb)
                    extend(rest, used | {ant}, n_hp + (sid in hp),
                           total + price[ant[0]] + min(per_mb.values()) * dtil)

            extend(sorted(sid for sid, st in states.items() if st.total_mb > 0),
                   frozenset(), 0, 0.0)
            most = max(least)
            assert len(served & hp) == most, (trial, hp, served, most)
            assert served <= hp, (trial, hp, served)
            assert cost == pytest.approx(least[most], rel=1e-12), trial


class TestCommon:
    def test_all_policies_emit_feasible_assignments(self):
        rng = np.random.default_rng(7)
        sc = make_scenario([("gs-a", "p1", 2, 18.0), ("gs-b", "p2", 1, 26.0)],
                           n_sats=4, dc_providers=["p1", "p2"])
        arrays = ScenarioArrays.from_scenario(sc)
        for slot in range(30):
            contacts = []
            for s in sc.satellites:
                for g in sc.ground_stations:
                    if rng.random() < 0.5:
                        contacts.append((s.id, g.id, float(rng.uniform(100, 12_000))))
            table = table_for(sc, contacts, slot=slot)
            states = states_for(sc, {
                s.id: [(0, float(rng.uniform(0, 20_000)))] for s in sc.satellites
                if rng.random() < 0.8
            })
            for cls in (BGPolicy, BWGPolicy, BRPolicy, IlpHpqPolicy):
                asg = cls(sc).schedule(states, 0.0, slot, table)
                assert check_assignment(asg, arrays, table) == [], cls.__name__

    def test_sg_station_set_subset_of_bg(self):
        sc = make_scenario(TWO_PROVIDERS, n_sats=1, policy="sg",
                           policy_params={"provider": "p1"})
        sg = SGPolicy(sc)
        bg = BGPolicy(sc)
        assert sg.gs_allowed <= bg.gs_allowed

    def test_make_policy_dispatch(self):
        for policy in POLICIES:
            params = {"provider": "p1"} if policy == "sg" else {}
            sc = make_scenario(TWO_PROVIDERS, policy=policy, policy_params=params)
            assert make_policy(sc).name == policy

    def test_registry_holds_every_scenario_policy(self):
        assert tuple(_POLICY_CLASSES) == POLICIES

    def test_make_policy_requires_data_centers(self):
        # checked where the scenario enters, so every policy has a data center
        raw = desk_scenario(seed=1, horizon=5)
        raw["data_centers"] = []
        with pytest.raises(ScenarioError, match="requires at least one data center"):
            validate_scenario(raw)
