"""Per-slot broker: drift-plus-penalty edge weights, bipartite matching, oracle.

Each slot builds a weighted bipartite graph with one left node per satellite
and right nodes for every real antenna plus one private virtual antenna per
satellite (weight 0, meaning "do not downlink"). The virtual queue Q (MB-min)
accrues latency as it happens: tau per MB carried into the next slot, plus
the service latency lt1 + lt2 + lc of what moved, minus xi per arrived MB
(queues.latency_accrual). The Lyapunov function sum(B^2) / 2 + Q^2 / (2 tau xi)
sums like units (MB^2), and its drift per minute does not depend on the slot
length. Bounding its drift plus V times the slot's cost gives a real edge the
weight

    V * cost  -  (backlog + Q / xi) * dtil  +  Q / (tau * xi) * (lt1 + lt2 + lc)

with dtil = min(rate * tau, backlog) previewed under the candidate link, and
the data center chosen per edge to minimize the weight. The cost (rental
plus compute) and the service latency lt1 + lt2 + lc of dtil MB come from
accounting.downlink_cost and accounting.service_latency, the functions that
the engine's downlink records read, so a run books what the broker priced.
Holding data is never free: every MB left onboard keeps charging Q, so a
large Q pushes the broker to downlink, whatever the age of the backlog. Terms independent of the decision
(arrivals, the backlog carried without a downlink) are dropped from every edge
of a satellite, which leaves the argmin matching unchanged. A min-cost
left-perfect matching then yields the slot's assignment.

The slot graph is the one representation of a slot's matching problem for
every matching policy. SlotGraph.from_edges takes the slot's edges (satellite,
station, weight, dtil, data center) and a per-satellite fallback vector, the
weight of each satellite's virtual antenna: zero for the broker, a forcing
price for ilp_hpq's high-priority satellites. Each station's antenna columns
repeat its edge weights, and pairs without a contact carry a finite bound
above every edge and fallback. hungarian_min_matching decodes the matching of
any such graph into an Assignment. Each edge keeps the contact-table row of
its link.

An AssignmentTriple is three positions: the contact-table row its policy
chose, which fixes the slot, satellite and station; the antenna within that
station; and the data center. The downlink reads the row's rate, and the
validator checks the positions against the slot's rows and the scenario's
antenna and data-center counts. Ids are read from the positions only where a
downlink record is written.

Only satellites that can gain reach the matching kernel. A satellite whose
best real edge weighs no less than its virtual antenna (no contact, or every
edge at or above zero) does not downlink, and only the antennas that some
remaining satellite would rather use than hold its data stay in the kernel's
matrix (hungarian.match_with_fallbacks). The total weight is still the
minimum. An exact tie between a satellite's best edge and its virtual antenna
goes to "do not downlink".

brute_force_schedule enumerates every feasible assignment on small instances
and is the test oracle for the matching path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from skygs import accounting, hungarian, queues
from skygs.model import Scenario
from skygs.orbit import ContactTable
from skygs.queues import SatelliteState

BRUTE_FORCE_MAX_VISIBLE = 6
BRUTE_FORCE_MAX_ANTENNAS = 6
BRUTE_FORCE_MAX_DCS = 4


class InstanceTooLargeError(ValueError):
    """brute_force_schedule refuses instances above its enumeration guard."""


@dataclass(frozen=True)
class ScenarioArrays:
    """Index maps and flat arrays for one scenario, shared by all policies.

    Satellites, stations, and data centers are ordered by id so every
    downstream tie-break is deterministic regardless of input order.
    """

    sat_ids: tuple[str, ...]
    gs_ids: tuple[str, ...]
    dc_ids: tuple[str, ...]
    sat_index: dict[str, int]
    gs_index: dict[str, int]
    price_slot: np.ndarray          # [n_g] $ per antenna-slot
    antenna_counts: np.ndarray      # [n_g]
    antenna_station: np.ndarray     # [n_real] station index per antenna column
    antenna_no: np.ndarray          # [n_real] antenna index within its station
    station_col0: np.ndarray        # [n_g] first antenna column of each station
    dc_price: np.ndarray            # [n_d] $ per processing-minute
    dc_kappa: np.ndarray            # [n_d] processing min per MB
    backhaul: np.ndarray            # [n_g, n_d] MB per min
    provider_gs: tuple[str, ...]
    provider_dc: tuple[str, ...]

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ScenarioArrays":
        sats = sorted(scenario.satellites, key=lambda s: s.id)
        stations = sorted(scenario.ground_stations, key=lambda g: g.id)
        dcs = sorted(scenario.data_centers, key=lambda d: d.id)
        n_g, n_d = len(stations), len(dcs)
        price_slot = np.array([g.price_per_slot for g in stations], dtype=float)
        counts = np.array([g.antennas for g in stations], dtype=np.int64)
        ant_station = np.repeat(np.arange(n_g), counts) if n_g else np.empty(0, np.int64)
        ant_no = (np.concatenate([np.arange(c) for c in counts]) if n_g
                  else np.empty(0, np.int64))
        col0 = np.concatenate([[0], np.cumsum(counts)[:-1]]) if n_g else np.empty(0, np.int64)
        dc_price = np.array([d.price_per_min for d in dcs], dtype=float)
        dc_kappa = np.array([d.intensity_min_per_mb for d in dcs], dtype=float)
        backhaul = np.array([[g.backhaul_mb_per_min[d.id] for d in dcs] for g in stations],
                            dtype=float) if n_g and n_d else np.zeros((n_g, n_d))
        return cls(
            sat_ids=tuple(s.id for s in sats),
            gs_ids=tuple(g.id for g in stations),
            dc_ids=tuple(d.id for d in dcs),
            sat_index={s.id: i for i, s in enumerate(sats)},
            gs_index={g.id: i for i, g in enumerate(stations)},
            price_slot=price_slot,
            antenna_counts=counts,
            antenna_station=ant_station.astype(np.int64),
            antenna_no=ant_no.astype(np.int64),
            station_col0=col0.astype(np.int64),
            dc_price=dc_price,
            dc_kappa=dc_kappa,
            backhaul=backhaul,
            provider_gs=tuple(g.provider for g in stations),
            provider_dc=tuple(d.provider for d in dcs),
        )

    @property
    def n_real_antennas(self) -> int:
        return len(self.antenna_station)

    def best_dc_per_station(self, v: float, qw: float) -> np.ndarray:
        """Weight-minimizing data center per station; ties go to the lowest id.

        `qw` is the queue weight (see queue_weight) that prices each MB's
        backhaul and processing latency against its compute cost. Both are
        read at 1 MB for every station and data center; the ground link's
        latency and the rental are the same for every data center.
        """
        _, lt2, lc = accounting.service_latency(1.0, 1.0, self.backhaul, self.dc_kappa)
        _, cc = accounting.downlink_cost(1.0, 0.0, self.dc_price, self.dc_kappa)
        return np.argmin(v * cc + qw * (lt2 + lc), axis=1)


@dataclass(frozen=True)
class EdgeCandidate:
    data_center_id: str
    weight: float
    dtil_mb: float


@dataclass(frozen=True)
class AssignmentTriple:
    contact: int               # contact-table row: the slot, satellite and station
    antenna: int               # antenna within the row's station
    dc: int                    # data center position


@dataclass(frozen=True)
class Assignment:
    slot: int
    triples: tuple[AssignmentTriple, ...]


@dataclass
class SlotGraph:
    """The slot's weight matrix and its edges, one per (satellite, station) contact."""

    slot: int
    arrays: ScenarioArrays
    weights: np.ndarray        # [n_s, n_real + n_s]
    edge_of: np.ndarray        # [n_s, n_g] edge position of each pair, -1 without a contact
    edge_row: np.ndarray       # [n_edges] contact-table row of each edge
    edge_w: np.ndarray         # [n_edges] weight of each edge
    edge_dtil: np.ndarray      # [n_edges]
    edge_dc: np.ndarray        # [n_edges] data center position

    @classmethod
    def from_edges(cls, slot: int, arrays: ScenarioArrays, table: ContactTable,
                   row: np.ndarray, weight: np.ndarray, dtil: np.ndarray, dc: np.ndarray,
                   fallback: np.ndarray) -> "SlotGraph":
        """The graph of one edge per contact-table row `row[k]`, between the row's
        satellite and station, with `fallback[s]` on satellite s's virtual antenna.

        Every antenna of a station repeats the station's edge weight. Pairs
        without a contact carry a bound above any sum of edges and fallbacks,
        so no minimum matching uses them.
        """
        n_s, n_g = len(arrays.sat_ids), len(arrays.gs_ids)
        n_real = arrays.n_real_antennas
        edge_of = np.full((n_s, n_g), -1, dtype=np.int64)
        edge_of[table.sat[row], table.gs[row]] = np.arange(len(weight))
        big = 4.0 * (1.0 + sum(np.abs(weight).tolist()) + sum(np.abs(fallback).tolist()))
        weights = np.full((n_s, n_real + n_s), big)
        # edge_of is -1 without a contact, which picks the appended bound
        weights[:, :n_real] = np.append(weight, big)[edge_of[:, arrays.antenna_station]]
        weights[:, n_real:].flat[::n_s + 1] = fallback  # the virtual block's diagonal
        return cls(slot=slot, arrays=arrays, weights=weights, edge_of=edge_of, edge_row=row,
                   edge_w=weight, edge_dtil=dtil, edge_dc=dc)

    @property
    def n_real(self) -> int:
        return self.arrays.n_real_antennas

    @property
    def candidates(self) -> Mapping[tuple[int, int], EdgeCandidate]:
        return _Candidates(self)


class _Candidates(Mapping):
    """(satellite position, station position) -> EdgeCandidate, read from a graph's edges."""

    def __init__(self, graph: SlotGraph):
        self._graph = graph

    def __getitem__(self, key: tuple[int, int]) -> EdgeCandidate:
        g = self._graph
        si, gi = key
        n_s, n_g = g.edge_of.shape
        k = g.edge_of[si, gi] if 0 <= si < n_s and 0 <= gi < n_g else -1
        if k < 0:
            raise KeyError(key)
        return EdgeCandidate(data_center_id=g.arrays.dc_ids[g.edge_dc[k]],
                             weight=float(g.edge_w[k]), dtil_mb=float(g.edge_dtil[k]))

    def __iter__(self):
        return zip(*(idx.tolist() for idx in np.nonzero(self._graph.edge_of >= 0)))

    def __len__(self) -> int:
        return len(self._graph.edge_w)


def queue_weight(q: float, scenario: Scenario) -> float:
    """Coefficient of the slot's queue input in the drift of Q^2 / (2 tau xi)."""
    return q / (scenario.tau * scenario.xi)


def _edge_terms(backlog: np.ndarray, gi: np.ndarray, rate: np.ndarray, q: float,
                scenario: Scenario, arrays: ScenarioArrays):
    """(weight, dtil, data center position) of edges to stations `gi` at `rate`
    from satellites holding `backlog` MB, each with its weight-minimizing data
    center."""
    v, tau = scenario.v, scenario.tau
    qw = queue_weight(q, scenario)
    di = arrays.best_dc_per_station(v, qw)[gi]
    dtil = np.minimum(rate * tau, backlog)
    kappa = arrays.dc_kappa[di]
    lt1, lt2, lc = accounting.service_latency(dtil, rate, arrays.backhaul[gi, di], kappa)
    cr, cc = accounting.downlink_cost(dtil, arrays.price_slot[gi], arrays.dc_price[di], kappa)
    weight = v * (cr + cc) - (backlog + qw * tau) * dtil + qw * (lt1 + lt2 + lc)
    return weight, dtil, di


def build_bipartite(states: dict[str, SatelliteState], q: float, slot: int,
                    scenario: Scenario, table: ContactTable,
                    arrays: ScenarioArrays | None = None) -> SlotGraph:
    """The broker's slot graph: drift-plus-penalty edges, zero-weight virtuals.

    Every edge of the slot is computed in one pass over the slot's table rows.
    """
    arrays = arrays or ScenarioArrays.from_scenario(scenario)
    si, gi, rate = table.slot_contacts(slot)
    backlog = np.array([states[sat_id].total_mb for sat_id in arrays.sat_ids])
    weight, dtil, di = _edge_terms(backlog[si], gi, rate, q, scenario, arrays)
    return SlotGraph.from_edges(slot, arrays, table, np.arange(*table.slot_ptr[slot:slot + 2]),
                                weight, dtil, di, np.zeros(len(backlog)))


def hungarian_min_matching(graph: SlotGraph) -> tuple[Assignment, float]:
    """Minimum-weight left-perfect matching on the slot graph, with its total
    edge weight."""
    arrays = graph.arrays
    n_real = graph.n_real
    col4row = hungarian.match_with_fallbacks(graph.weights)
    triples: list[AssignmentTriple] = []
    objective = 0.0
    # rows follow the sorted satellite ids, so the triples come out sorted
    for si, col in enumerate(col4row.tolist()):
        if col >= n_real:
            if col - n_real != si:
                raise RuntimeError("matching used another satellite's virtual antenna")
            continue
        k = graph.edge_of[si, arrays.antenna_station[col]]
        if k < 0:
            raise RuntimeError("matching used a non-contact edge")
        objective += float(graph.edge_w[k])
        triples.append(AssignmentTriple(contact=int(graph.edge_row[k]),
                                        antenna=int(arrays.antenna_no[col]),
                                        dc=int(graph.edge_dc[k])))
    return Assignment(slot=graph.slot, triples=tuple(triples)), objective


def dump_weight_matrix(graph: SlotGraph, path: str) -> None:
    """Debug CSV of the slot's weight matrix (satellites x antenna columns)."""
    import csv

    arrays = graph.arrays
    cols = [f"{arrays.gs_ids[arrays.antenna_station[c]]}#{arrays.antenna_no[c]}"
            for c in range(graph.n_real)]
    cols += [f"virtual:{sid}" for sid in arrays.sat_ids]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["satellite"] + cols)
        for si, sid in enumerate(arrays.sat_ids):
            writer.writerow([sid] + [repr(float(w)) for w in graph.weights[si]])


# ---------------------------------------------------------------------------
# independent feasibility validator


def check_assignment(assignment: Assignment, arrays: ScenarioArrays,
                     table: ContactTable) -> list[str]:
    """Violations of the per-slot constraints; empty when feasible.

    Checks: each triple's contact row is one of the slot's rows (so its
    station is within view); each satellite appears in at most one row; the
    antenna exists at the row's station and is not double-booked; the data
    center exists. Negative positions are out of range, not counted from the
    end.
    """
    violations: list[str] = []
    slot = assignment.slot
    lo, hi = table.slot_ptr[slot:slot + 2].tolist() if 0 <= slot < table.n_slots else (0, 0)
    n_d = len(arrays.dc_ids)
    seen_sats: set[int] = set()
    used_antennas: set[tuple[int, int]] = set()
    for tr in assignment.triples:
        k = tr.contact
        if not lo <= k < hi:
            violations.append(f"constraint(visibility): contact row {k} is not one of "
                              f"slot {slot}'s rows [{lo}, {hi})")
            continue
        si, gi = int(table.sat[k]), int(table.gs[k])
        if si in seen_sats:
            violations.append(f"constraint(single-selection): satellite "
                              f"{table.sat_ids[si]!r} assigned twice")
        seen_sats.add(si)
        if not 0 <= tr.antenna < arrays.antenna_counts[gi]:
            violations.append(f"constraint(antenna-count): station {table.gs_ids[gi]!r} "
                              f"has no antenna {tr.antenna}")
        elif (gi, tr.antenna) in used_antennas:
            violations.append(f"constraint(antenna-count): antenna {tr.antenna} of station "
                              f"{table.gs_ids[gi]!r} double-booked")
        used_antennas.add((gi, tr.antenna))
        if not 0 <= tr.dc < n_d:
            violations.append(f"unknown data center position {tr.dc} (scenario has {n_d})")
    return violations


# ---------------------------------------------------------------------------
# brute-force oracle


def _triple_contribution(state: SatelliteState, rate: float, gi: int, di: int,
                         q: float, scenario: Scenario, arrays: ScenarioArrays) -> float:
    """Objective contribution of one assigned satellite, evaluated directly.

    Drift-plus-penalty of L = sum(B^2) / 2 + Q^2 / (2 tau xi): V times the
    slot's cost, the backlog drift of the downlink, and Q's drift from the
    change the downlink makes to the slot's queue input against holding the
    data onboard.
    """
    tau, xi = scenario.tau, scenario.xi
    backlog = state.total_mb
    dtil = min(rate * tau, backlog)
    service = dtil / rate + dtil / arrays.backhaul[gi, di] + arrays.dc_kappa[di] * dtil
    cost = arrays.price_slot[gi] + arrays.dc_price[di] * arrays.dc_kappa[di] * dtil
    sent = queues.latency_accrual(backlog - dtil, service, 0.0, tau, xi)
    held = queues.latency_accrual(backlog, 0.0, 0.0, tau, xi)
    return scenario.v * cost - backlog * dtil + q * (sent - held) / (tau * xi)


def brute_force_schedule(states: dict[str, SatelliteState], q: float, slot: int,
                         scenario: Scenario, table: ContactTable) -> tuple[Assignment, float]:
    """Exhaustive minimizer over all feasible assignments (test oracle only)."""
    arrays = ScenarioArrays.from_scenario(scenario)
    row_sat, row_gs, row_rate = (c.tolist() for c in table.slot_contacts(slot))
    visible = sorted(set(row_sat))
    n_real = arrays.n_real_antennas
    if len(visible) > BRUTE_FORCE_MAX_VISIBLE:
        raise InstanceTooLargeError(f"{len(visible)} visible satellites > "
                                    f"{BRUTE_FORCE_MAX_VISIBLE}")
    if n_real > BRUTE_FORCE_MAX_ANTENNAS:
        raise InstanceTooLargeError(f"{n_real} antennas > {BRUTE_FORCE_MAX_ANTENNAS}")
    if len(arrays.dc_ids) > BRUTE_FORCE_MAX_DCS:
        raise InstanceTooLargeError(f"{len(arrays.dc_ids)} data centers > "
                                    f"{BRUTE_FORCE_MAX_DCS}")

    # sat position -> [(ant col, dc pos, rate, table row)]
    options: dict[int, list[tuple[int, int, float, int]]] = {s: [] for s in visible}
    rows = enumerate(zip(row_sat, row_gs, row_rate), int(table.slot_ptr[slot]))
    for k, (s, g_pos, rate) in rows:
        c0 = int(arrays.station_col0[g_pos])
        for a in range(int(arrays.antenna_counts[g_pos])):
            for d_pos in range(len(arrays.dc_ids)):
                options[s].append((c0 + a, d_pos, rate, k))

    best_obj = np.inf
    best_choice: dict[int, tuple[int, int, float, int]] = {}

    def recurse(idx: int, used: set[int], obj: float, choice: dict):
        nonlocal best_obj, best_choice
        if idx == len(visible):
            if obj < best_obj:
                best_obj = obj
                best_choice = dict(choice)
            return
        s = visible[idx]
        recurse(idx + 1, used, obj, choice)  # virtual: contributes 0
        state = states[arrays.sat_ids[s]]
        for ant_col, d_pos, rate, k in options[s]:
            if ant_col in used:
                continue
            gi = int(arrays.antenna_station[ant_col])
            contrib = _triple_contribution(state, rate, gi, d_pos, q, scenario, arrays)
            used.add(ant_col)
            choice[s] = (ant_col, d_pos, rate, k)
            recurse(idx + 1, used, obj + contrib, choice)
            used.discard(ant_col)
            del choice[s]

    recurse(0, set(), 0.0, {})

    triples = []
    for s, (ant_col, d_pos, _, k) in sorted(best_choice.items()):
        triples.append(AssignmentTriple(contact=k, antenna=int(arrays.antenna_no[ant_col]),
                                        dc=d_pos))
    return Assignment(slot=slot, triples=tuple(triples)), float(best_obj)
