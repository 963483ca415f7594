import json
from dataclasses import replace

import pytest

from skygs import engine
from skygs.baselines import make_policy
from skygs.engine import InfeasibleAssignmentError, run
from skygs.model import ScenarioError, validate_scenario
from instances import contact_row, contact_table
from skygs.orbit import Contact, ContactTable, build_contact_table
from skygs.queues import ArrivalModel, SatelliteState
from skygs.scenarios import desk_scenario
from skygs.scheduler import Assignment, AssignmentTriple, ScenarioArrays


def tiny_scenario(horizon=5, policy="skygs", v=0.0, contact_plan_path=None):
    return validate_scenario({
        "satellites": [
            {"id": "sat-0", "altitude_km": 475.0, "inclination_deg": 97.4,
             "raan_deg": 0.0, "phase_deg": 0.0, "daily_volume_mb": [144_000, 144_000]},
        ],
        "ground_stations": [
            {"id": "gs-0", "provider": "p", "lat_deg": 83.0, "lon_deg": 0.0,
             "antennas": 1, "price_per_slot": 22.0},
        ],
        "data_centers": [
            {"id": "dc-0", "provider": "p", "price_per_min": 1.0 / 60,
             "intensity_min_per_mb": 0.006},
        ],
        "sim": {"tau": 1.0, "horizon": horizon, "xi": 60.0, "v": v, "seed": 3,
                "policy": policy, "r_max": 12_000.0, "backhaul_rate": "1 Gbps",
                "contact_plan_path": contact_plan_path},
    })


def empty_table(horizon):
    return contact_table(tiny_scenario(), [], n_slots=horizon)


class TestStepSemantics:
    def test_no_contacts_accumulates_arrivals(self):
        sc = tiny_scenario(horizon=1)
        record, metrics = run(sc, table=empty_table(1))
        assert metrics.total_cost == 0.0
        assert record.q_trace == (0.0,)
        # 144,000 MB/day over 1440 slots = 100 MB in the single slot
        assert metrics.final_backlog_mb == pytest.approx(100.0)

    def test_same_slot_arrivals_not_downlinkable(self):
        # a contact in slot 0 cannot move data that arrives in slot 0
        sc = tiny_scenario(horizon=1)
        table = contact_table(sc, [Contact(0, "sat-0", "gs-0", 45.0, 1000.0)])
        record, metrics = run(sc, table=table)
        assert sum(r.mb for r in record.records) == 0.0
        assert metrics.final_backlog_mb == pytest.approx(100.0)

    def test_conservation_with_forced_downlinks(self):
        sc = tiny_scenario(horizon=40, policy="bg")
        table = contact_table(sc, [Contact(t, "sat-0", "gs-0", 45.0, 300.0)
                                   for t in range(0, 40, 3)])
        record, _ = run(sc, table=table)
        moved = sum(r.mb for r in record.records)
        arrived = record.total_arrivals["sat-0"]
        residual = record.final_backlogs["sat-0"]
        assert arrived == pytest.approx(moved + residual, rel=1e-9)

    def test_q_trace_follows_update_rule(self):
        # xi = 5 sets a backlog target far below what the desk world carries,
        # so the virtual queue actually moves and the recomputation is
        # non-trivial. Q accrues tau * (backlog carried into the next slot)
        # plus the service latency of what moved, minus xi * arrivals.
        sc = validate_scenario(desk_scenario(seed=2, horizon=240, v=1e3))
        record, metrics = run(sc, xi=5.0)
        assert metrics.max_q > 0
        arrivals = ArrivalModel(sc)
        service = {}
        for r in record.records:
            service[r.slot] = service.get(r.slot, 0.0) + (r.lt1 + r.lt2 + r.lc)
        q = 0.0
        for t, (backlog, expected) in enumerate(zip(record.backlog_trace, record.q_trace)):
            arrived = sum(arrivals.arrivals_for_slot(s.id, t) for s in sc.satellites)
            q = max(q + sc.tau * backlog + service.get(t, 0.0) - 5.0 * arrived, 0.0)
            assert q == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_rejects_nonpositive_xi_override(self):
        # the broker's queue weight divides by xi
        with pytest.raises(ScenarioError, match="xi"):
            run(tiny_scenario(horizon=1), xi=0.0, table=empty_table(1))

    def test_rejects_negative_v_override(self):
        with pytest.raises(ScenarioError, match="v: must be >= 0"):
            run(tiny_scenario(horizon=1), v=-1.0, table=empty_table(1))

    def test_rejects_unknown_policy_override(self):
        with pytest.raises(ScenarioError, match="unknown policy 'nope'"):
            run(tiny_scenario(horizon=1), policy="nope", table=empty_table(1))

    def test_rejects_table_of_another_horizon(self):
        with pytest.raises(ScenarioError, match="3 slots, scenario horizon is 2"):
            run(tiny_scenario(horizon=2), table=empty_table(3))

    @pytest.mark.parametrize("sat_id, gs_id, unknown", [
        ("sat-9", "gs-0", "unknown satellite 'sat-9'"),
        ("sat-0", "gs-9", "unknown ground station 'gs-9'")])
    def test_rejects_table_naming_unknown_entities(self, sat_id, gs_id, unknown):
        # a table built for another world's satellites and stations
        table = ContactTable.from_contacts(2, [sat_id], [gs_id],
                                           [Contact(1, sat_id, gs_id, 45.0, 1000.0)])
        with pytest.raises(ScenarioError, match=unknown):
            run(tiny_scenario(horizon=2), table=table)

    def test_records_reference_real_contacts(self):
        sc = validate_scenario(desk_scenario(seed=2, horizon=120, v=1e3))
        table = build_contact_table(sc)
        record, _ = run(sc, table=table)
        assert record.records, "expected downlinks in 120 slots"
        stations = {g.id: g for g in sc.ground_stations}
        for r in record.records:
            assert contact_row(table, r.slot, r.satellite_id, r.ground_station_id) >= 0
            assert 0 <= r.antenna < stations[r.ground_station_id].antennas

    def test_record_component_identities(self):
        sc = validate_scenario(desk_scenario(seed=2, horizon=120, v=1e3))
        record, _ = run(sc)
        for r in record.records:
            assert r.l_total == pytest.approx(r.lq + r.lt1 + r.lt2 + r.lc, rel=1e-12)
            assert r.c_total == pytest.approx(r.cr + r.cc, rel=1e-12)
            assert r.phi_s == pytest.approx(r.l_total - sc.xi * r.mb, rel=1e-9, abs=1e-9)
            assert min(r.lq, r.lt1, r.lt2, r.lc, r.cr, r.cc) >= 0

    def test_t_zero_empty_run(self):
        sc = tiny_scenario(horizon=1)
        sc = replace(sc, horizon=0)
        record, metrics = run(sc, table=empty_table(0))
        assert record.records == ()
        assert metrics.total_cost == 0.0
        assert metrics.avg_latency_min_per_mb is None


def slow_backhaul_world(horizon=600):
    """Three satellites that collect far more than their links can send, two
    single-antenna stations in view by turns, and 1-4 Mbps backhauls to two
    data centers. A slot lasts 0.001 min, so carrying a downlink over the
    backhaul takes longer than the slot, and once Q grows the weight's latency
    term cancels most of its backlog term: a one-ulp change in lt2 shows in
    the weight."""
    sc = validate_scenario({
        "satellites": [{"id": f"sat-{i}", "altitude_km": 475.0,
                        "daily_volume_mb": 1e9 * (i + 1)} for i in range(3)],
        "ground_stations": [{"id": f"gs-{j}", "provider": "p", "lat_deg": 0.0, "lon_deg": 0.0,
                             "antennas": 1, "price_per_slot": 1.0,
                             "backhaul": {"dc-0": f"{1.37 + j} Mbps", "dc-1": f"{3.11 - j} Mbps"}}
                            for j in range(2)],
        "data_centers": [{"id": f"dc-{k}", "provider": "p", "price_per_min": 1.0,
                          "intensity_min_per_mb": 0.006 * (k + 1)} for k in range(2)],
        "sim": {"tau": 0.001, "horizon": horizon, "xi": 0.2, "v": 0.0, "seed": 1,
                "r_max": 12_000.0},
    })
    rows = [Contact(t, f"sat-{i}", f"gs-{j}", 45.0, 3000.0 + 517.3 * i + 711.9 * j + 0.37 * (t % 7))
            for t in range(horizon) for i in range(3) for j in range(2) if (t + i + j) % 3]
    return sc, contact_table(sc, rows)


def desk_world(v):
    sc = validate_scenario(desk_scenario(seed=1, v=v))
    return sc, build_contact_table(sc)


class TestBookedEqualsPriced:
    """A downlink record books the latencies and costs that the broker priced:
    rebuilding the edge weight from the record's lt1, lt2, lc, cr and cc, the
    start-of-slot Q and the satellite's start-of-slot backlog gives the
    broker's weight bit for bit, wherever the engine moved exactly the MB
    that the edge previewed."""

    @pytest.mark.parametrize("world", [lambda: desk_world(5e4), lambda: desk_world(1e7),
                                       slow_backhaul_world],
                             ids=["desk-v5e4", "desk-v1e7", "slow-backhaul"])
    def test_record_rebuilds_the_edge_weight(self, world):
        sc, table = world()
        arrays = ScenarioArrays.from_scenario(sc)
        policy = make_policy(sc)
        sim = engine.SimState(slot=0, q=0.0,
                              states={s.id: SatelliteState(s.id) for s in sc.satellites})
        arrivals = ArrivalModel(sc)
        checked = 0
        for _ in range(sc.horizon):
            qw = sim.q / (sc.tau * sc.xi)
            backlog = {sat_id: state.total_mb for sat_id, state in sim.states.items()}
            for r in engine.step(sim, policy, sc, table, arrivals, arrays):
                graph = policy.graph
                k = graph.edge_of[arrays.sat_index[r.satellite_id],
                                  arrays.gs_index[r.ground_station_id]]
                assert arrays.dc_ids[graph.edge_dc[k]] == r.data_center_id
                if r.mb != graph.edge_dtil[k]:
                    continue
                weight = (sc.v * (r.cr + r.cc) - (backlog[r.satellite_id] + qw * sc.tau) * r.mb
                          + qw * (r.lt1 + r.lt2 + r.lc))
                assert weight == graph.edge_w[k], (r, float(graph.edge_w[k]))
                checked += 1
        assert checked >= 300


class TestInfeasiblePolicies:
    def test_aborts_with_feasibility_report(self):
        sc = tiny_scenario(horizon=3)

        class BrokenPolicy:
            name = "broken"

            def schedule(self, states, q, slot, table):
                return Assignment(slot=slot, triples=(
                    AssignmentTriple(contact=0, antenna=0, dc=0),))

        arrays = engine.ScenarioArrays.from_scenario(sc)
        arrivals = engine.ArrivalModel(sc)
        sim = engine.SimState(slot=0, states={"sat-0": engine.SatelliteState("sat-0")},
                              q=0.0)
        with pytest.raises(InfeasibleAssignmentError, match="visibility"):
            engine.step(sim, BrokenPolicy(), sc, empty_table(3), arrivals, arrays)


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        sc = validate_scenario(desk_scenario(seed=4, horizon=100, v=5e4))
        a, ma = run(sc)
        b, mb = run(sc)
        assert a == b
        assert ma == mb

    def test_policy_override_keeps_sample_paths(self):
        # arrivals and link rates are keyed off the seed, not the policy
        sc = validate_scenario(desk_scenario(seed=4, horizon=60))
        a, _ = run(sc, policy="bg")
        b, _ = run(sc, policy="bwg")
        assert a.total_arrivals == b.total_arrivals

    def test_seed_changes_sample_paths(self):
        sc = validate_scenario(desk_scenario(seed=4, horizon=60))
        a, _ = run(sc, policy="bg")
        b, _ = run(sc, policy="bg", seed=5)
        assert a.total_arrivals != b.total_arrivals


class TestOutputs:
    def test_csv_and_summary_shapes(self, tmp_path):
        sc = validate_scenario(desk_scenario(seed=1, horizon=80, v=5e4))
        record, metrics = run(sc)
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "summary.json"
        engine.write_records_csv(str(csv_path), record)
        engine.write_summary_json(str(json_path), record, metrics)

        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("slot,policy,satellite,ground_station,antenna,data_center,"
                            "mb,lq,lt1,lt2,lc,l_total,cr,cc,c_total,phi_s,q_after")
        # one summary row per slot plus one row per downlink event
        assert len(lines) == 1 + 80 + len(record.records)

        summary = json.loads(json_path.read_text())
        assert set(summary) == {"policy", "seed", "total_cost", "avg_latency_min_per_mb",
                                "violation_rate", "final_backlog_mb", "mean_q", "max_q"}
        assert summary["policy"] == "skygs"
        assert summary["total_cost"] == pytest.approx(metrics.total_cost)

    def test_records_csv_round_trips(self, tmp_path):
        import csv

        sc = validate_scenario(desk_scenario(seed=1, horizon=80, v=5e4))
        record, _metrics = run(sc)
        path = tmp_path / "records.csv"
        engine.write_records_csv(str(path), record)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        events = [r for r in rows if r["satellite"]]
        summaries = [r for r in rows if not r["satellite"]]
        assert len(events) == len(record.records)
        assert len(summaries) == 80
        total_mb = sum(float(r["mb"]) for r in events)
        assert total_mb == pytest.approx(sum(r.mb for r in record.records), rel=1e-12)
        # summary rows carry the post-arrival backlog in mb and Q(t+1) in q_after
        assert float(summaries[-1]["mb"]) == pytest.approx(record.backlog_trace[-1])
        assert float(summaries[-1]["q_after"]) == pytest.approx(record.q_trace[-1])
