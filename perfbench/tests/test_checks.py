"""Every correctness check passes on a real run and fails on a planted fault.

Run with: python3 -m pytest perfbench/tests -q
"""

from collections import deque
from dataclasses import replace

import pytest

import checks
from skygs import engine, model, orbit, queues
from skygs.queues import ArrivalModel, DataChunk
from skygs.scenarios import desk_scenario

HORIZON = 240


@pytest.fixture(scope="module")
def world():
    scenario = model.validate_scenario(desk_scenario(seed=3, horizon=HORIZON))
    table = orbit.build_contact_table(scenario)
    return scenario, table, checks.table_rates(table), checks.arrivals_matrix(
        scenario, ArrivalModel(scenario))


def run_records(tmp_path, scenario, table, policy="skygs", name="records.csv"):
    record, metrics = engine.run(scenario, policy=policy, table=table)
    path = tmp_path / name
    engine.write_records_csv(str(path), record)
    return checks.read_records_csv(str(path)), metrics


@pytest.fixture()
def broker_run(tmp_path, world):
    scenario, table, _, _ = world
    return run_records(tmp_path, scenario, table)


def test_checks_pass_on_every_policy(tmp_path, world):
    scenario, table, rates, arrivals = world
    for policy in ("skygs", "sg", "bg", "br", "bwg", "ilp_hpq"):
        run, metrics = run_records(tmp_path, scenario, table, policy, f"{policy}.csv")
        assert run.records, policy
        assert checks.check_records(run, rates, arrivals, scenario, metrics.total_cost,
                                    metrics.avg_latency_min_per_mb) == [], policy


def test_broker_matching_is_minimal(world, broker_run):
    scenario, table, rates, arrivals = world
    run, _ = broker_run
    slots = sorted({r.slot for r in run.records})
    assert checks.check_broker_optimal(run, arrivals, rates, scenario, table, slots) == []


def test_double_booked_antenna_fails_feasibility(world, broker_run):
    scenario, _, rates, _ = world
    run, _ = broker_run
    slot = next(t for t in range(HORIZON) if sum(r.slot == t for r in run.records) >= 2)
    first, second = [r for r in run.records if r.slot == slot][:2]
    run.records[run.records.index(second)] = replace(
        second, ground_station=first.ground_station, antenna=first.antenna)
    assert any("double-booked" in v for v in checks.check_feasibility(run, rates, scenario))


def test_pair_out_of_view_fails_feasibility(world, broker_run):
    scenario, _, rates, _ = world
    run, _ = broker_run
    r = run.records[0]
    run.records[0] = replace(r, slot=(r.slot + HORIZON // 2) % HORIZON)
    assert any("not in view" in v for v in checks.check_feasibility(run, rates, scenario))


def test_wrong_cost_fails_cost_check(world, broker_run):
    scenario, _, _, _ = world
    run, metrics = broker_run
    r = run.records[-1]
    run.records[-1] = replace(r, c_total=r.c_total + 0.01)
    violations = checks.check_cost(run, scenario, metrics.total_cost)
    assert len(violations) == 1 and "cost" in violations[0]
    run.records[-1] = r
    assert checks.check_cost(run, scenario, metrics.total_cost * (1 + 1e-6)) != []


def test_lost_mb_fails_conservation(world, broker_run):
    scenario, _, _, arrivals = world
    run, _ = broker_run
    assert checks.check_conservation(run, arrivals, scenario) == []
    r = run.records[len(run.records) // 2]
    run.records[len(run.records) // 2] = replace(r, mb=r.mb - 1.0)
    assert any("onboard" in v for v in checks.check_conservation(run, arrivals, scenario))


def test_arrivals_outside_the_volume_range_fail_conservation(world, broker_run):
    scenario, _, _, arrivals = world
    run, _ = broker_run
    doubled = dict(arrivals, **{"sat-00": [2 * a for a in arrivals["sat-00"]]})
    assert any(v.startswith("sat-00: arrivals")
               for v in checks.check_conservation(run, doubled, scenario))


def _pop_newest_first(state, capacity_mb):
    """actual_downlink with the FIFO order reversed: the newest chunk leaves first."""
    moved, popped = 0.0, []
    remaining = min(capacity_mb, state.total_mb)
    while remaining > 0 and state.chunks:
        tail = state.chunks[-1]
        take = min(tail.size_mb, remaining)
        state.chunks.pop()
        if take < tail.size_mb:
            state.chunks.append(DataChunk(tail.arrival_slot, tail.size_mb - take))
        popped.append(DataChunk(tail.arrival_slot, take))
        moved += take
        remaining -= take
    state.total_mb = max(state.total_mb - moved, 0.0) if state.chunks else 0.0
    return moved, popped


def test_reordered_fifo_pop_fails_latency_replay(tmp_path, monkeypatch, world):
    scenario, table, rates, arrivals = world
    monkeypatch.setattr(queues, "actual_downlink", _pop_newest_first)
    run, metrics = run_records(tmp_path, scenario, table)
    violations, _ = checks.fifo_replay(run, arrivals, rates, scenario)
    assert any("lq" in v for v in violations)
    # the same MB still moved, so only the latency check sees the fault
    assert checks.check_conservation(run, arrivals, scenario) == []
    assert checks.check_cost(run, scenario, metrics.total_cost) == []


def test_withheld_downlink_fails_broker_optimality(world, broker_run):
    scenario, table, rates, arrivals = world
    run, _ = broker_run
    slot = run.records[0].slot
    run.records[:] = [r for r in run.records if r.slot != slot]
    violations = checks.check_broker_optimal(run, arrivals, rates, scenario, table, [slot])
    assert len(violations) == 1 and "above the minimum" in violations[0]


def test_desk_properties():
    rows = {"skygs": {"total_cost": 100.0, "avg_latency_min_per_mb": 20.0},
            "bg": {"total_cost": 200.0, "avg_latency_min_per_mb": 18.0},
            "br": {"total_cost": 210.0, "avg_latency_min_per_mb": 18.0},
            "sg": {"total_cost": 95.0, "avg_latency_min_per_mb": 150.0}}
    assert checks.check_desk_properties(rows, xi=60.0) == []
    assert checks.check_desk_properties(
        dict(rows, bg={"total_cost": 90.0, "avg_latency_min_per_mb": 18.0}), xi=60.0)
    assert checks.check_desk_properties(rows, xi=10.0)
    assert checks.check_desk_properties(
        dict(rows, sg={"total_cost": 95.0, "avg_latency_min_per_mb": 30.0}), xi=60.0)
    assert checks.check_desk_properties({"skygs": rows["skygs"]}, xi=60.0)


def test_fifo_replay_snapshots_are_the_backlog_at_slot_start(world, broker_run):
    scenario, _, rates, arrivals = world
    run, _ = broker_run
    _, snaps = checks.fifo_replay(run, arrivals, rates, scenario, snapshot_slots=[0, 10])
    assert all(chunks == [] for chunks in snaps[0].values())
    delivered = sum(r.mb for r in run.records if r.slot < 10)
    onboard = sum(size for chunks in snaps[10].values() for _, size in chunks)
    assert onboard == pytest.approx(run.backlog[9])
    assert onboard + delivered == pytest.approx(
        sum(sum(a[:10]) for a in arrivals.values()))
    assert isinstance(snaps[10]["sat-00"], list) and not isinstance(snaps[10]["sat-00"], deque)
