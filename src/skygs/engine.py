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

import functools
import json
import operator
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from skygs import accounting, queues
from skygs.accounting import DownlinkRecord, RunMetrics
from skygs.baselines import make_policy
from skygs.model import Scenario, ScenarioError, with_overrides
from skygs.orbit import ContactTable, build_contact_table, scenario_ids
from skygs.queues import ArrivalModel, SatelliteState
from skygs.scheduler import ScenarioArrays, check_assignment, dump_weight_matrix


# DownlinkRecord from a tuple of its fields, without NamedTuple's Python-level __new__
_record = functools.partial(tuple.__new__, DownlinkRecord)


class InfeasibleAssignmentError(RuntimeError):
    """A policy emitted an assignment violating the slot constraints."""

    def __init__(self, slot: int, policy: str, violations: list[str]):
        self.slot = slot
        self.violations = violations
        lines = "; ".join(violations)
        super().__init__(f"slot {slot}: policy {policy!r} infeasible: {lines}")


@dataclass
class SimState:
    """A run's state as it advances, and its result once the horizon is done;
    reproducible from (scenario, seed, policy)."""

    policy: str
    seed: int
    slot: int
    states: dict[str, SatelliteState]  # in the scenario's satellite order
    q: float
    records: list[DownlinkRecord] = field(default_factory=list)
    q_trace: list[float] = field(default_factory=list)        # Q(t+1) per slot
    backlog_trace: list[float] = field(default_factory=list)  # total backlog after arrivals

    @property
    def final_backlogs(self) -> dict[str, float]:
        return {sid: st.total_mb for sid, st in self.states.items()}


def step(sim: SimState, policy, scenario: Scenario, table: ContactTable,
         arrivals: ArrivalModel, arrays: ScenarioArrays) -> list[DownlinkRecord]:
    """Advance one slot; returns the slot's downlink records."""
    t = sim.slot
    triples = policy.schedule(sim.states, sim.q, t, table)
    violations = check_assignment(triples, t, arrays, table)
    if violations:
        raise InfeasibleAssignmentError(t, policy.name, violations)

    slot_records: list[DownlinkRecord] = []
    service_latency = 0.0
    # Python scalars throughout: the records CSV writes them faster than numpy scalars
    for k, antenna, di in triples:
        sat_id, gi = arrays.sat_ids[table.sat.item(k)], table.gs.item(k)
        rate, kappa = table.rate_mb_per_min.item(k), arrays.dc_kappa.item(di)
        moved, terms = queues.actual_downlink(sim.states[sat_id], rate * scenario.tau,
                                              t, scenario.tau)
        # a left fold from 0.0, as a running total; sum() compensates from Python 3.12
        lq = functools.reduce(operator.add, terms, 0.0)
        lt1, lt2, lc = accounting.service_latency(moved, rate, arrays.backhaul.item(gi, di), kappa)
        cr, cc = accounting.downlink_cost(moved, arrays.price_slot.item(gi),
                                          arrays.dc_price.item(di), kappa)
        l_total = lq + lt1 + lt2 + lc
        c_total = cr + cc
        phi_s = l_total - scenario.xi * moved  # latency beyond the threshold
        service_latency += lt1 + lt2 + lc
        slot_records.append(_record((t, sat_id, arrays.gs_ids[gi], antenna, arrays.dc_ids[di],
                                     moved, lq, lt1, lt2, lc, l_total, cr, cc, c_total, phi_s)))

    arrived = 0.0
    advance = queues.advance_backlog
    for state, amount in zip(sim.states.values(), arrivals.mb[:, t].tolist()):
        advance(state, amount, t)
        arrived += amount
    backlog = sum([s.total_mb for s in sim.states.values()], 0.0)  # 0.0 with no satellites
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
        table: ContactTable | None = None,
        dump_weights: str | None = None) -> tuple[SimState, RunMetrics]:
    """Execute one full simulation, with an optional policy or seed override
    (see model.with_overrides), and return the advanced SimState and metrics.
    A given `seed`, or no `table`, builds the contact table; else `table` is checked.

    `dump_weights` names a directory that receives, after every slot, the
    weight matrix the policy matched (scheduler.dump_weight_matrix); a policy
    that matches no slot graph, or a directory that already holds weight
    matrices, is rejected before the first slot.
    """
    scenario = with_overrides(scenario, policy=policy, seed=seed)
    if table is None or seed is not None:
        table = build_contact_table(scenario)
    else:
        _check_table(table, scenario)

    arrays = ScenarioArrays.from_scenario(scenario)
    arrivals = ArrivalModel(scenario)
    policy_obj = make_policy(scenario, arrays)
    if dump_weights is not None:
        if not hasattr(policy_obj, "graph"):
            raise ScenarioError(f"dump_weights: policy {scenario.policy!r} matches no slot graph")
        if any(Path(dump_weights).glob("weights_slot*.csv")):
            raise ScenarioError(f"dump_weights: {dump_weights} already holds weight matrices")
        os.makedirs(dump_weights, exist_ok=True)
    sim = SimState(
        policy=scenario.policy,
        seed=scenario.seed,
        slot=0,
        states={s.id: SatelliteState(s.id) for s in scenario.satellites},
        q=0.0,
    )
    for t in range(scenario.horizon):
        step(sim, policy_obj, scenario, table, arrivals, arrays)
        if dump_weights is not None:
            dump_weight_matrix(policy_obj.graph,
                               os.path.join(dump_weights, f"weights_slot{t:05d}.csv"))

    metrics = accounting.aggregate_metrics(
        sim.records, scenario.xi,
        final_backlog_mb=float(sum(sim.final_backlogs.values())),
        q_trace=sim.q_trace,
    )
    return sim, metrics


def summary_dict(record: SimState, metrics: RunMetrics) -> dict[str, Any]:
    return {"policy": record.policy, "seed": record.seed, **asdict(metrics)}


def write_summary_json(path: str, record: SimState, metrics: RunMetrics) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(record, metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_records_csv(path: str, record: SimState) -> None:
    accounting.write_run_csv(path, record.policy, record.records,
                             record.q_trace, record.backlog_trace)
