"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers so a full run reads as a checklist. Reference world: the committed
desk scenario (10 sun-synchronous satellites at 475 km, 6 stations across 3
providers priced 18/22/26 $/min, 8 data centers at 0.5-1 $/h and 0.1-0.2
h/GB, tau = 1 min, T = 1440, xi = 60 min), seeds 1-5.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import DESK_SEEDS, avg_phi
from instances import contact_row, oracle_agreement
from skygs import engine
from skygs.baselines import SkyGSPolicy
from skygs.model import validate_scenario
from skygs.orbit import build_contact_table
from skygs.queues import DataChunk, SatelliteState
from skygs.scenarios import desk_scenario, full_scale_scenario
from skygs.scheduler import Assignment, AssignmentTriple, ScenarioArrays, check_assignment

ALL_POLICIES = ("skygs", "sg", "bg", "br", "bwg", "ilp_hpq")


def report(criterion, passed, detail):
    print(f"criterion {criterion} {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_oracle_equivalence():
    n = 1000
    worst = 0.0
    start = time.monotonic()
    for seed in range(n):
        fast, exact = oracle_agreement(seed)
        scale = max(abs(exact), 1e-9)
        worst = max(worst, abs(fast - exact) / scale)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(1, ok, f"{n} random instances, worst relative gap {worst:.2e}, "
                  f"{elapsed:.1f} s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_feasibility(desk, tuned_v):
    # ensure a full policy grid is in the cache; each run already aborts on an
    # infeasible slot, and here every slot is re-checked independently
    grid = [(policy, seed, tuned_v if policy == "skygs" else None)
            for policy in ALL_POLICIES for seed in DESK_SEEDS]
    for policy, seed, v in grid:
        desk.run(policy, seed, v=v)
    # the other cached runs (the tuned_v ladder, ...) are re-checked too but
    # counted apart, so the grid's count does not move with them
    checked = {True: 0, False: 0}
    violations = []
    runs = desk.all_runs()
    for (policy, seed, v), (record, _m) in runs.items():
        scenario = desk.scenario(seed)
        arrays = ScenarioArrays.from_scenario(scenario)
        table = desk.table(seed)
        by_slot = {}
        for r in record.records:
            by_slot.setdefault(r.slot, []).append(r)
        for slot, recs in by_slot.items():
            # a record names no table row; a pair without a contact gets row -1,
            # which the validator reports as a visibility violation
            assignment = Assignment(slot=slot, triples=tuple(
                AssignmentTriple(contact_row(table, slot, r.satellite_id, r.ground_station_id),
                                 r.antenna, arrays.dc_ids.index(r.data_center_id))
                for r in recs))
            found = check_assignment(assignment, arrays, table)
            checked[(policy, seed, v) in grid] += 1
            if found:
                violations.append((policy, seed, slot, found))
    ok = not violations
    report(2, ok, f"{checked[True]} scheduled slots re-validated across the "
                  f"{len(grid)} grid runs ({len(ALL_POLICIES)} policies x seeds "
                  f"{DESK_SEEDS[0]}-{DESK_SEEDS[-1]}), plus {checked[False]} across "
                  f"{len(runs) - len(grid)} other cached runs; "
                  f"{len(violations)} violations")
    assert violations == []


def test_criterion_3_conservation(desk, tuned_v):
    worst = 0.0
    n_runs = 0
    for (policy, seed, _v), (record, _m) in desk.all_runs().items():
        n_runs += 1
        moved = {}
        for r in record.records:
            moved[r.satellite_id] = moved.get(r.satellite_id, 0.0) + r.mb
        for sat_id, arrived in record.total_arrivals.items():
            residual = record.final_backlogs[sat_id]
            err = abs(arrived - moved.get(sat_id, 0.0) - residual) / max(arrived, 1.0)
            worst = max(worst, err)
    ok = worst < 1e-6
    report(3, ok, f"worst relative conservation error {worst:.2e} over {n_runs} runs")
    assert worst < 1e-6


def test_criterion_4_latency_constraint(desk, tuned_v):
    details = []
    ok = True
    for seed in DESK_SEEDS:
        record, metrics = desk.run("skygs", seed, v=tuned_v)
        phi = avg_phi(record)
        details.append(f"seed {seed}: avg phi {phi:.0f}, "
                       f"violations {metrics.violation_rate:.3f}")
        ok = ok and phi <= 0 and metrics.violation_rate < 0.05
    report(4, ok, f"tuned V = {tuned_v:g}; " + "; ".join(details))
    for seed in DESK_SEEDS:
        record, metrics = desk.run("skygs", seed, v=tuned_v)
        assert avg_phi(record) <= 0
        assert metrics.violation_rate < 0.05


def test_criterion_5_cost_ordering(desk, tuned_v):
    skygs_costs, bg_costs, br_costs = [], [], []
    per_seed_ok = True
    for seed in DESK_SEEDS:
        c_skygs = desk.run("skygs", seed, v=tuned_v)[1].total_cost
        c_bg = desk.run("bg", seed)[1].total_cost
        c_br = desk.run("br", seed)[1].total_cost
        skygs_costs.append(c_skygs)
        bg_costs.append(c_bg)
        br_costs.append(c_br)
        per_seed_ok = per_seed_ok and c_skygs <= c_bg and c_skygs <= c_br
    savings = 1.0 - float(np.mean(skygs_costs)) / float(np.mean(bg_costs))
    ok = per_seed_ok and savings >= 0.20
    report(5, ok, f"mean costs: skygs {np.mean(skygs_costs):.0f}, "
                  f"bg {np.mean(bg_costs):.0f}, br {np.mean(br_costs):.0f}; "
                  f"savings vs bg {savings * 100:.1f}%")
    assert per_seed_ok
    assert savings >= 0.20


def test_criterion_6_single_provider_latency(desk, tuned_v):
    skygs_lat = [desk.run("skygs", s, v=tuned_v)[1].avg_latency_min_per_mb
                 for s in DESK_SEEDS]
    sg_lat = [desk.run("sg", s)[1].avg_latency_min_per_mb for s in DESK_SEEDS]
    ratio = float(np.mean(sg_lat)) / float(np.mean(skygs_lat))
    ok = ratio >= 2.0
    report(6, ok, f"sg mean latency {np.mean(sg_lat):.1f} vs skygs "
                  f"{np.mean(skygs_lat):.1f} min/MB, ratio {ratio:.1f}x")
    assert ratio >= 2.0


def test_criterion_7_v_sweep(desk):
    v_list = [1e3, 1e4, 1e5, 1e6, 1e7]
    costs, lats = [], []
    for v in v_list:
        _record, metrics = desk.run("skygs", 1, v=v)
        costs.append(metrics.total_cost)
        lats.append(metrics.avg_latency_min_per_mb)
    non_increasing = all(costs[i + 1] <= costs[i] * 1.02 for i in range(len(costs) - 1))
    lat_non_decreasing = all(lats[i + 1] >= lats[i] * 0.95 for i in range(len(lats) - 1))
    plateau = abs(costs[-1] - costs[-2]) <= 0.05 * max(costs[-1], costs[-2])
    ok = non_increasing and lat_non_decreasing and plateau
    report(7, ok, f"costs {[round(c) for c in costs]}, "
                  f"latencies {[round(float(l), 1) for l in lats]}; "
                  f"cost non-increasing {non_increasing}, "
                  f"latency non-decreasing {lat_non_decreasing}, plateau {plateau}")
    assert non_increasing
    assert lat_non_decreasing
    # A cost that collapses instead of levelling off is not a cheaper schedule:
    # it means the broker stopped downlinking. The desk world can deliver its
    # whole day at every V here. The collapse comes from a starvation fixed
    # point in the weights: if Q is charged only on departing data, every
    # downlink of a backlog older than xi raises Q, so once Q > 0 withholding
    # always wins and Q never drains (seed 1, V = 1e7: $36, 7 of 1,822 GB sent).
    assert plateau, (f"cost plateau not reached: {costs[-2]:.0f} vs {costs[-1]:.0f} "
                     "(a collapse means the broker withheld backlog it should have "
                     "sent; compare final_backlog_mb with the arrivals)")


def test_criterion_8_queue_stability(desk, tuned_v):
    ok = True
    details = []
    for seed in DESK_SEEDS:
        record, _metrics = desk.run("skygs", seed, v=tuned_v)
        T = len(record.backlog_trace)
        middle = record.backlog_trace[T // 4: (3 * T) // 4]
        final = record.backlog_trace[(3 * T) // 4:]
        growth = max(final) / max(middle)
        total_arrivals = sum(record.total_arrivals.values())
        worst_final = max(record.final_backlogs.values())
        bound = 0.01 * total_arrivals
        seed_ok = growth <= 1.10 and worst_final < bound
        ok = ok and seed_ok
        details.append(f"seed {seed}: growth {growth:.3f}, "
                       f"worst final backlog {worst_final:.0f} < {bound:.0f}")
    report(8, ok, "; ".join(details))
    for seed in DESK_SEEDS:
        record, _metrics = desk.run("skygs", seed, v=tuned_v)
        T = len(record.backlog_trace)
        middle = record.backlog_trace[T // 4: (3 * T) // 4]
        final = record.backlog_trace[(3 * T) // 4:]
        assert max(final) <= 1.10 * max(middle)
        bound = 0.01 * sum(record.total_arrivals.values())
        for sat_id, residual in record.final_backlogs.items():
            assert residual < bound, (seed, sat_id, residual, bound)


def test_criterion_9_determinism(desk, tuned_v, tmp_path):
    # two independent executions: fresh interpreter processes driving the CLI
    import json
    import subprocess
    import sys

    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(desk_scenario(seed=1, v=tuned_v)))
    digests = []
    for label in ("first", "second"):
        out_dir = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-m", "skygs.cli", "simulate",
             "--scenario", str(scenario_path), "--out", str(out_dir)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        csv_bytes = (out_dir / "records_skygs_seed1.csv").read_bytes()
        json_bytes = (out_dir / "summary_skygs_seed1.json").read_bytes()
        digests.append((hashlib.sha256(csv_bytes).hexdigest(),
                        hashlib.sha256(json_bytes).hexdigest()))
    ok = digests[0] == digests[1]
    report(9, ok, f"records sha256 {digests[0][0][:12]}..., "
                  f"summary sha256 {digests[0][1][:12]}... identical across "
                  "two separate processes")
    assert digests[0] == digests[1]


def test_criterion_10_performance(desk, tuned_v):
    # full-scale single slot
    scenario = validate_scenario(full_scale_scenario(seed=1))
    table = build_contact_table(scenario)
    arrays = ScenarioArrays.from_scenario(scenario)
    rng = np.random.default_rng(0)
    states = {}
    for sat in scenario.satellites:
        st = SatelliteState(sat.id)
        for k in range(30):
            st.chunks.append(DataChunk(-k, float(rng.uniform(100, 2000))))
        st.total_mb = sum(c.size_mb for c in st.chunks)
        states[sat.id] = st
    broker = SkyGSPolicy(scenario)
    broker.schedule(states, 0.0, 0, table)  # warm the kernel
    start = time.monotonic()
    broker.schedule(states, 123.0, 0, table)
    slot_seconds = time.monotonic() - start

    # full desk run, end to end including contact-table construction
    desk_scenario_v = replace(desk.scenario(1), v=tuned_v)
    start = time.monotonic()
    engine.run(desk_scenario_v, policy="skygs")
    desk_seconds = time.monotonic() - start

    ok = slot_seconds < 1.0 and desk_seconds < 60.0
    report(10, ok, f"full-scale slot {slot_seconds * 1000:.1f} ms "
                   f"(153 sats, {arrays.n_real_antennas} antennas, "
                   f"{len(arrays.dc_ids)} DCs); desk run {desk_seconds:.1f} s")
    assert slot_seconds < 1.0
    assert desk_seconds < 60.0
