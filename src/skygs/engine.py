"""Slot loop: observe, schedule, downlink, update queues, record.

Phase order within a slot is a fixed contract: the policy decides from the
state as of the start of the slot, downlinks pop backlog and produce cost and
latency records, this slot's arrivals join the backlog (they become eligible
for downlink from the next slot on), and only then does the virtual queue
absorb the slot's latency accrual: one slot of waiting for every MB carried
into the next slot, plus the service latency of what moved, minus xi for
every MB that arrived (see queues.latency_accrual).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from skygs import accounting, queues
from skygs.accounting import DownlinkRecord, RunMetrics
from skygs.baselines import make_policy
from skygs.model import Scenario, ScenarioError, with_overrides
from skygs.orbit import ContactTable, build_contact_table, scenario_ids
from skygs.queues import ArrivalModel, SatelliteState
from skygs.scheduler import Assignment, ScenarioArrays, check_assignment, dump_weight_matrix


class InfeasibleAssignmentError(RuntimeError):
    """A policy emitted an assignment violating the slot constraints."""

    def __init__(self, slot: int, policy: str, violations: list[str]):
        self.slot = slot
        self.violations = violations
        lines = "; ".join(violations)
        super().__init__(f"slot {slot}: policy {policy!r} infeasible: {lines}")


@dataclass
class SimState:
    slot: int
    states: dict[str, SatelliteState]
    q: float
    records: list[DownlinkRecord] = field(default_factory=list)
    q_trace: list[float] = field(default_factory=list)        # Q(t+1) per slot
    backlog_trace: list[float] = field(default_factory=list)  # total backlog after arrivals


@dataclass(frozen=True)
class RunRecord:
    """Everything a run produced; reproducible from (scenario, seed, policy)."""

    policy: str
    seed: int
    records: tuple[DownlinkRecord, ...]
    q_trace: tuple[float, ...]
    backlog_trace: tuple[float, ...]
    final_backlogs: dict[str, float]
    total_arrivals: dict[str, float]


def step(sim: SimState, policy, scenario: Scenario, table: ContactTable,
         arrivals: ArrivalModel, arrays: ScenarioArrays) -> list[DownlinkRecord]:
    """Advance one slot; returns the slot's downlink records."""
    t = sim.slot
    assignment: Assignment = policy.schedule(sim.states, sim.q, t, table)
    violations = check_assignment(assignment, arrays, table)
    if violations:
        raise InfeasibleAssignmentError(t, policy.name, violations)

    slot_records: list[DownlinkRecord] = []
    service_latency = 0.0
    for tr in assignment.triples:
        k, di = tr.contact, tr.dc
        sat_id, gi = arrays.sat_ids[table.sat[k]], int(table.gs[k])
        rate, kappa = table.rate_mb_per_min[k], arrays.dc_kappa[di]
        moved, popped = queues.actual_downlink(sim.states[sat_id], float(rate * scenario.tau))
        lq = accounting.queuing_latency(popped, t, scenario.tau)
        lt1, lt2, lc = accounting.service_latency(moved, rate, arrays.backhaul[gi, di], kappa)
        cr, cc = accounting.downlink_cost(moved, arrays.price_slot[gi], arrays.dc_price[di], kappa)
        l_total = lq + lt1 + lt2 + lc
        c_total = cr + cc
        phi_s = l_total - scenario.xi * moved  # latency beyond the threshold
        service_latency += lt1 + lt2 + lc
        slot_records.append(DownlinkRecord(
            slot=t, satellite_id=sat_id,
            ground_station_id=arrays.gs_ids[gi], antenna=tr.antenna,
            data_center_id=arrays.dc_ids[di], mb=moved,
            lq=lq, lt1=lt1, lt2=lt2, lc=lc, l_total=l_total,
            cr=cr, cc=cc, c_total=c_total, phi_s=phi_s,
        ))

    arrived = 0.0
    for sat, amount in zip(scenario.satellites, arrivals.mb[:, t].tolist()):
        queues.advance_backlog(sim.states[sat.id], amount, t)
        arrived += amount
    backlog = sum(s.total_mb for s in sim.states.values())
    sim.q = queues.update_virtual_queue(
        sim.q, queues.latency_accrual(backlog, service_latency, arrived,
                                      scenario.tau, scenario.xi))

    sim.records.extend(slot_records)
    sim.q_trace.append(sim.q)
    sim.backlog_trace.append(backlog)
    sim.slot += 1
    return slot_records


def _check_table(table: ContactTable, scenario: Scenario) -> None:
    """A caller's table must span the horizon and be built for the scenario's entities."""
    if table.n_slots != scenario.horizon:
        raise ScenarioError(f"contact table has {table.n_slots} slots, "
                            f"scenario horizon is {scenario.horizon}")
    for kind, named, ids in zip(("satellite", "ground station"),
                                (table.sat_ids, table.gs_ids), scenario_ids(scenario)):
        if named != ids:
            unknown = sorted(set(named) - set(ids))
            raise ScenarioError(f"contact table names unknown {kind} {unknown[0]!r}" if unknown
                                else f"contact table is not built for the scenario's {kind}s")


def run(scenario: Scenario, *, policy: str | None = None, seed: int | None = None,
        v: float | None = None, xi: float | None = None,
        table: ContactTable | None = None,
        dump_weights: str | None = None) -> tuple[RunRecord, RunMetrics]:
    """Execute one full simulation, with optional overrides (see model.with_overrides).

    `dump_weights` names a directory that receives, after every slot, the
    weight matrix the policy matched (scheduler.dump_weight_matrix); a policy
    that matches no slot graph is rejected before the first slot.
    """
    scenario = with_overrides(scenario, policy=policy, seed=seed, v=v, xi=xi)
    if table is None or seed is not None:
        table = build_contact_table(scenario)
    else:
        _check_table(table, scenario)

    arrays = ScenarioArrays.from_scenario(scenario)
    arrivals = ArrivalModel(scenario)
    policy_obj = make_policy(scenario)
    if dump_weights is not None:
        if not hasattr(policy_obj, "graph"):
            raise ScenarioError(f"dump_weights: policy {scenario.policy!r} matches no slot graph")
        os.makedirs(dump_weights, exist_ok=True)
    sim = SimState(
        slot=0,
        states={s.id: SatelliteState(s.id) for s in scenario.satellites},
        q=0.0,
    )
    for t in range(scenario.horizon):
        step(sim, policy_obj, scenario, table, arrivals, arrays)
        if dump_weights is not None:
            dump_weight_matrix(policy_obj.graph,
                               os.path.join(dump_weights, f"weights_slot{t:05d}.csv"))

    total_arrivals = dict(zip((sat.id for sat in scenario.satellites),
                              arrivals.mb.sum(axis=1).tolist()))
    record = RunRecord(
        policy=scenario.policy,
        seed=scenario.seed,
        records=tuple(sim.records),
        q_trace=tuple(sim.q_trace),
        backlog_trace=tuple(sim.backlog_trace),
        final_backlogs={sid: st.total_mb for sid, st in sim.states.items()},
        total_arrivals=total_arrivals,
    )
    metrics = accounting.aggregate_metrics(
        list(record.records), scenario.xi,
        final_backlog_mb=float(sum(record.final_backlogs.values())),
        q_trace=record.q_trace,
    )
    return record, metrics


def summary_dict(record: RunRecord, metrics: RunMetrics) -> dict[str, Any]:
    return {
        "policy": record.policy,
        "seed": record.seed,
        "total_cost": metrics.total_cost,
        "avg_latency_min_per_mb": metrics.avg_latency_min_per_mb,
        "violation_rate": metrics.violation_rate,
        "final_backlog_mb": metrics.final_backlog_mb,
        "mean_q": metrics.mean_q,
        "max_q": metrics.max_q,
    }


def write_summary_json(path: str, record: RunRecord, metrics: RunMetrics) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(record, metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_records_csv(path: str, record: RunRecord) -> None:
    accounting.write_run_csv(path, record.policy, list(record.records),
                             record.q_trace, record.backlog_trace)
