"""Correctness checks made apart from the program.

Each check re-derives a property from a run's written records and its inputs
(the scenario, the contact table or plan, the arrival model) and returns the
violations it found; an empty list means the run passed. None of them calls
the program's own validators (scheduler.check_assignment, queues, accounting):
feasibility, conservation, cost and latency are recomputed here.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict, deque
from dataclasses import dataclass

REL = 1e-9


@dataclass(frozen=True)
class Record:
    """One downlink event row of a records CSV."""

    slot: int
    satellite: str
    ground_station: str
    antenna: int
    data_center: str
    mb: float
    lq: float
    lt1: float
    lt2: float
    lc: float
    l_total: float
    cr: float
    cc: float
    c_total: float


@dataclass
class RunOutput:
    """A run as its records CSV tells it."""

    records: list[Record]
    backlog: list[float]     # total backlog after each slot's arrivals
    q_after: list[float]     # virtual queue after each slot


def close(a: float, b: float, rel: float = REL, scale: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def read_records_csv(path: str) -> RunOutput:
    """Parse a records CSV: event rows, then one summary row per slot."""
    records: list[Record] = []
    backlog: list[float] = []
    q_after: list[float] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if row["satellite"] == "":
                if int(row["slot"]) != len(backlog):
                    raise ValueError(f"{path}: slot summary rows out of order")
                backlog.append(float(row["mb"]))
                q_after.append(float(row["q_after"]))
                continue
            records.append(Record(
                slot=int(row["slot"]), satellite=row["satellite"],
                ground_station=row["ground_station"], antenna=int(row["antenna"]),
                data_center=row["data_center"],
                **{k: float(row[k]) for k in ("mb", "lq", "lt1", "lt2", "lc", "l_total",
                                              "cr", "cc", "c_total")}))
    return RunOutput(records, backlog, q_after)


def read_plan_csv(path: str) -> dict[tuple[int, str, str], float]:
    """(slot, satellite, station) -> rate from a contact-plan CSV."""
    rates: dict[tuple[int, str, str], float] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rates[(int(row["slot"]), row["satellite_id"], row["ground_station_id"])] = \
                float(row["rate_mb_per_min"])
    return rates


def table_rates(table) -> dict[tuple[int, str, str], float]:
    return {(c.slot, c.satellite_id, c.ground_station_id): c.rate_mb_per_min
            for c in table.all_contacts()}


def arrivals_matrix(scenario, arrival_model) -> dict[str, list[float]]:
    """MB arriving at each satellite in each slot, from the run's arrival model."""
    return {s.id: [arrival_model.arrivals_for_slot(s.id, t) for t in range(scenario.horizon)]
            for s in scenario.satellites}


# ---------------------------------------------------------------------------


def check_feasibility(run: RunOutput, rates, scenario) -> list[str]:
    """Each satellite and each antenna at most once per slot, every pair in view,
    and no downlink above rate * tau."""
    out: list[str] = []
    sats = {s.id for s in scenario.satellites}
    antennas = {g.id: g.antennas for g in scenario.ground_stations}
    dcs = {d.id for d in scenario.data_centers}
    sats_in_slot: dict[int, set[str]] = defaultdict(set)
    antennas_in_slot: dict[int, set[tuple[str, int]]] = defaultdict(set)
    for r in run.records:
        if r.satellite not in sats:
            out.append(f"slot {r.slot}: unknown satellite {r.satellite}")
        if r.satellite in sats_in_slot[r.slot]:
            out.append(f"slot {r.slot}: satellite {r.satellite} downlinks twice")
        sats_in_slot[r.slot].add(r.satellite)
        key = (r.ground_station, r.antenna)
        if key in antennas_in_slot[r.slot]:
            out.append(f"slot {r.slot}: antenna {key} double-booked")
        antennas_in_slot[r.slot].add(key)
        if not 0 <= r.antenna < antennas.get(r.ground_station, 0):
            out.append(f"slot {r.slot}: antenna {key} does not exist")
        if r.data_center not in dcs:
            out.append(f"slot {r.slot}: unknown data center {r.data_center}")
        rate = rates.get((r.slot, r.satellite, r.ground_station))
        if rate is None:
            out.append(f"slot {r.slot}: {r.satellite} not in view of {r.ground_station}")
        elif r.mb > rate * scenario.tau * (1 + REL):
            out.append(f"slot {r.slot}: {r.satellite} moved {r.mb} MB > rate*tau "
                       f"{rate * scenario.tau}")
    return out


def check_conservation(run: RunOutput, arrivals: dict[str, list[float]], scenario) -> list[str]:
    """Delivered plus onboard equals arrived, slot by slot, and each satellite's
    arrivals lie within its daily volume range scaled to the horizon."""
    out: list[str] = []
    minutes = scenario.horizon * scenario.tau
    for sat in scenario.satellites:
        if sat.duty_cycle < 1.0:
            continue  # a duty cycle makes the volume over a partial day random
        lo, hi = sat.daily_volume_mb
        got = math.fsum(arrivals[sat.id])
        scale = minutes / 1440.0
        if not (lo * scale * (1 - REL) <= got <= hi * scale * (1 + REL)):
            out.append(f"{sat.id}: arrivals {got} MB outside [{lo * scale}, {hi * scale}]")
    if len(run.backlog) != scenario.horizon:
        return out + [f"{len(run.backlog)} slot rows for a {scenario.horizon}-slot horizon"]
    delivered_by_slot = defaultdict(float)
    for r in run.records:
        delivered_by_slot[r.slot] += r.mb
    arrived = delivered = 0.0
    for t in range(scenario.horizon):
        arrived += sum(arrivals[s.id][t] for s in scenario.satellites)
        delivered += delivered_by_slot.get(t, 0.0)
        if not close(arrived - delivered, run.backlog[t], scale=arrived):
            out.append(f"slot {t}: arrived {arrived} - delivered {delivered} != "
                       f"onboard {run.backlog[t]}")
            break
    return out


def check_cost(run: RunOutput, scenario, total_cost: float) -> list[str]:
    """Each record's rental and compute cost from the scenario's prices, and
    their sum against the run's reported total."""
    out: list[str] = []
    price = {g.id: g.price_per_slot for g in scenario.ground_stations}
    dc = {d.id: d for d in scenario.data_centers}
    total = 0.0
    for r in run.records:
        d, cr = dc.get(r.data_center), price.get(r.ground_station)
        if d is None or cr is None:
            out.append(f"slot {r.slot} {r.satellite}: no price for {r.ground_station}, "
                       f"{r.data_center}")
            continue
        cc = d.price_per_min * d.intensity_min_per_mb * r.mb
        if not (close(r.cr, cr) and close(r.cc, cc, scale=1e-9)
                and close(r.c_total, cr + cc)):
            out.append(f"slot {r.slot} {r.satellite}: cost ({r.cr}, {r.cc}, {r.c_total}) "
                       f"!= ({cr}, {cc}, {cr + cc})")
        total += cr + cc
    if not close(total, total_cost):
        out.append(f"total cost {total_cost} != recomputed {total}")
    return out


def fifo_replay(run: RunOutput, arrivals: dict[str, list[float]], rates, scenario,
                snapshot_slots=()) -> tuple[list[str], dict[int, dict[str, list[list[float]]]]]:
    """Replay each satellite's FIFO backlog through the run's downlinks.

    Checks every record's queueing, transmission and processing latency and
    that each downlink moved min(rate * tau, backlog). Returns the violations
    and, for each slot in `snapshot_slots`, every satellite's backlog as
    [arrival slot, MB] chunks at the start of that slot.
    """
    out: list[str] = []
    tau = scenario.tau
    backhaul = {g.id: g.backhaul_mb_per_min for g in scenario.ground_stations}
    kappa = {d.id: d.intensity_min_per_mb for d in scenario.data_centers}
    by_slot: dict[int, list[Record]] = defaultdict(list)
    for r in run.records:
        by_slot[r.slot].append(r)
    fifo: dict[str, deque] = {s.id: deque() for s in scenario.satellites}
    snapshots: dict[int, dict[str, list[list[float]]]] = {}
    wanted = set(snapshot_slots)
    for t in range(scenario.horizon):
        if t in wanted:
            snapshots[t] = {sid: [list(c) for c in q] for sid, q in fifo.items()}
        for r in by_slot.get(t, []):
            queue = fifo.get(r.satellite)
            if queue is None:
                out.append(f"slot {t}: no backlog for unknown satellite {r.satellite}")
                continue
            onboard = math.fsum(c[1] for c in queue)
            rate = rates.get((t, r.satellite, r.ground_station))
            if rate is not None and not close(r.mb, min(rate * tau, onboard), scale=1e-6):
                out.append(f"slot {t} {r.satellite}: moved {r.mb} MB, expected "
                           f"min(rate*tau, onboard) = {min(rate * tau, onboard)}")
            remaining, lq = r.mb, 0.0
            while queue and remaining > 0:
                arrival, size = queue[0]
                if size <= remaining * (1 + REL) + 1e-9:
                    queue.popleft()
                    take = size
                else:
                    queue[0][1] = size - remaining
                    take = remaining
                lq += take * (t - arrival) * tau
                remaining -= take
            if remaining > 1e-6 * max(1.0, r.mb):
                out.append(f"slot {t} {r.satellite}: moved {r.mb} MB with {r.mb - remaining} "
                           "onboard")
            lt1 = r.mb / rate if rate else math.nan
            link = backhaul.get(r.ground_station, {}).get(r.data_center)
            lt2 = r.mb / link if link else math.nan
            lc = kappa.get(r.data_center, math.nan) * r.mb
            want = {"lq": lq, "lt1": lt1, "lt2": lt2, "lc": lc,
                    "l_total": lq + lt1 + lt2 + lc}
            for name, value in want.items():
                if not close(getattr(r, name), value, scale=1e-9):
                    out.append(f"slot {t} {r.satellite}: {name} {getattr(r, name)} != "
                               f"FIFO replay {value}")
        for sat_id, queue in fifo.items():
            amount = arrivals[sat_id][t]
            if amount > 0:
                queue.append([t, amount])
    return out, snapshots


def check_reported_latency(run: RunOutput, avg_latency: float | None) -> list[str]:
    mb = math.fsum(r.mb for r in run.records)
    if mb <= 0:
        return [] if avg_latency is None else [f"average latency {avg_latency} with no data"]
    want = math.fsum(r.l_total for r in run.records) / mb
    if avg_latency is None or not close(avg_latency, want):
        return [f"average latency {avg_latency} != recomputed {want}"]
    return []


def check_records(run: RunOutput, rates, arrivals, scenario, total_cost: float,
                  avg_latency: float | None) -> list[str]:
    """Every record-level check of one run."""
    fifo, _ = fifo_replay(run, arrivals, rates, scenario)
    return (check_feasibility(run, rates, scenario)
            + check_conservation(run, arrivals, scenario)
            + check_cost(run, scenario, total_cost)
            + fifo
            + check_reported_latency(run, avg_latency))


def check_broker_optimal(run: RunOutput, arrivals, rates, scenario, table,
                         slots) -> list[str]:
    """At each of `slots`, the broker's assignment has the minimum total weight
    of that slot's matrix, against scipy's linear_sum_assignment."""
    from scipy.optimize import linear_sum_assignment

    from skygs import queues, scheduler

    out: list[str] = []
    _, snapshots = fifo_replay(run, arrivals, rates, scenario, snapshot_slots=slots)
    arrays = scheduler.ScenarioArrays.from_scenario(scenario)
    by_slot: dict[int, list[Record]] = defaultdict(list)
    for r in run.records:
        by_slot[r.slot].append(r)
    for t in slots:
        states = {}
        for sat_id, chunks in snapshots[t].items():
            state = queues.SatelliteState(sat_id)
            for arrival, size in chunks:
                queues.advance_backlog(state, size, arrival)
            states[sat_id] = state
        q = run.q_after[t - 1] if t > 0 else 0.0
        weights = scheduler.build_bipartite(states, q, t, scenario, table, arrays).weights
        n_real = arrays.n_real_antennas
        chosen = {arrays.sat_index[r.satellite]:
                  int(arrays.station_col0[arrays.gs_index[r.ground_station]]) + r.antenna
                  for r in by_slot.get(t, [])}
        broker = math.fsum(weights[si, chosen.get(si, n_real + si)]
                           for si in range(len(arrays.sat_ids)))
        rows, cols = linear_sum_assignment(weights)
        best = math.fsum(weights[rows, cols])
        if broker > best + REL * max(1.0, abs(best), abs(broker)):
            out.append(f"slot {t}: broker weight {broker} above the minimum {best}")
    return out


def check_desk_properties(rows: dict[str, dict], xi: float) -> list[str]:
    """The method's claims on the desk world: skygs costs less than bg and br
    at an average latency within xi, and sg waits at least twice as long."""
    out: list[str] = []
    try:
        sky, bg, br, sg = (rows[p] for p in ("skygs", "bg", "br", "sg"))
    except KeyError as exc:
        return [f"compare output lacks policy {exc}"]
    if not (sky["total_cost"] < bg["total_cost"] and sky["total_cost"] < br["total_cost"]):
        out.append(f"skygs cost {sky['total_cost']} not below bg {bg['total_cost']} "
                   f"and br {br['total_cost']}")
    if not sky["avg_latency_min_per_mb"] <= xi:
        out.append(f"skygs latency {sky['avg_latency_min_per_mb']} above xi {xi}")
    if not sg["avg_latency_min_per_mb"] >= 2 * sky["avg_latency_min_per_mb"]:
        out.append(f"sg latency {sg['avg_latency_min_per_mb']} below twice skygs "
                   f"{sky['avg_latency_min_per_mb']}")
    return out
