"""Per-slot broker: drift-plus-penalty edge weights and bipartite matching.

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
repeat its edge weights, and a cell with no edge (no contact, another
satellite's virtual antenna) holds +inf, which the kernel reads as "no edge".
hungarian_min_matching decodes the matching of any such graph into the slot's
AssignmentTriples, all that a policy returns. Each edge keeps the
contact-table row of its link, from ContactTable.slot_rows;
SlotGraph.candidates is a dict of them.

An AssignmentTriple is three positions: the contact-table row its policy
chose, which fixes the slot, satellite and station; the antenna within that
station; and the data center. The downlink reads the row's rate, and the
validator checks the positions against the rows of the slot that the engine
runs and the scenario's antenna and data-center counts. Ids are read from
the positions only where a downlink record is written.

Only contested satellites reach the matching kernel, and the dense matrix
is built only for a reader that asks for SlotGraph.weights (a weight dump, a
test). A satellite whose best edge weighs no less than its virtual antenna
does not downlink (an exact tie goes to "do not downlink"), and a slot where
none gains makes no kernel call. Otherwise the block holds the satellites
that gain and the stations where one of them gains; no minimum matching uses
another real cell. A block row is contested when another one has an edge at
one of its stations. The kernel's search never leaves a connected component,
so an uncontested row takes what the kernel would give it: its least
(weight, station) edge, at antenna 0. The kernel gets the +inf block of the
contested rows and their stations, in the same order, so it breaks ties as on
the whole block; a chosen column decodes by its station's first column.
"""

from __future__ import annotations

import bisect
import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from skygs import accounting, hungarian
from skygs.model import Scenario, write_csv
from skygs.orbit import ContactTable
from skygs.queues import SatelliteState


@dataclass(frozen=True)
class ScenarioArrays:
    """Index maps and flat arrays for one scenario; engine.run builds them
    once per run, for itself, its validator and the run's policy.

    Satellites, stations, and data centers are ordered by id so every
    downstream tie-break is deterministic regardless of input order.
    """

    sat_ids: tuple[str, ...]
    gs_ids: tuple[str, ...]
    dc_ids: tuple[str, ...]
    sat_index: dict[str, int]
    gs_index: dict[str, int]
    price_slot: np.ndarray          # [n_g] $ per antenna-slot
    antenna_counts: np.ndarray      # [n_g] antennas of each station, columns from station_col0
    station_col0: np.ndarray        # [n_g] first antenna column of each station
    dc_price: np.ndarray            # [n_d] $ per processing-minute
    dc_kappa: np.ndarray            # [n_d] processing min per MB
    backhaul: np.ndarray            # [n_g, n_d] MB per min
    provider_gs: tuple[str, ...]
    provider_dc: tuple[str, ...]
    # (v, qw, best data center per station) of the latest best_dc_per_station call
    _best_dc: list = field(default_factory=lambda: [(None,) * 3], init=False, compare=False)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ScenarioArrays":
        sats = sorted(scenario.satellites, key=lambda s: s.id)
        stations = sorted(scenario.ground_stations, key=lambda g: g.id)
        dcs = sorted(scenario.data_centers, key=lambda d: d.id)
        n_g, n_d = len(stations), len(dcs)
        price_slot = np.array([g.price_per_slot for g in stations], dtype=float)
        counts = np.array([g.antennas for g in stations], dtype=np.int64)
        dc_price = np.array([d.price_per_min for d in dcs], dtype=float)
        dc_kappa = np.array([d.intensity_min_per_mb for d in dcs], dtype=float)
        backhaul = np.array([g.backhaul_mb_per_min[d.id] for g in stations for d in dcs],
                            dtype=float).reshape(n_g, n_d)
        return cls(
            sat_ids=tuple(s.id for s in sats),
            gs_ids=tuple(g.id for g in stations),
            dc_ids=tuple(d.id for d in dcs),
            sat_index={s.id: i for i, s in enumerate(sats)},
            gs_index={g.id: i for i, g in enumerate(stations)},
            price_slot=price_slot,
            antenna_counts=counts,
            station_col0=np.cumsum(counts) - counts,
            dc_price=dc_price,
            dc_kappa=dc_kappa,
            backhaul=backhaul,
            provider_gs=tuple(g.provider for g in stations),
            provider_dc=tuple(d.provider for d in dcs),
        )

    @property
    def n_real_antennas(self) -> int:
        return int(self.antenna_counts.sum())

    @functools.cached_property
    def dc_cost_per_mb(self) -> np.ndarray:
        """[n_d] compute cost of processing 1 MB at each data center."""
        return accounting.downlink_cost(1.0, 0.0, self.dc_price, self.dc_kappa)[1]

    @functools.cached_property
    def dc_latency_per_mb(self) -> np.ndarray:
        """[n_g, n_d] backhaul plus processing minutes of 1 MB sent from each
        station to each data center."""
        _, lt2, lc = accounting.service_latency(1.0, 1.0, self.backhaul, self.dc_kappa)
        return lt2 + lc

    def best_dc_per_station(self, v: float, qw: float) -> np.ndarray:
        """Weight-minimizing data center per station; ties go to the lowest id.

        `qw` is the queue weight (see queue_weight) that prices each MB's
        backhaul and processing latency against its compute cost. Both are
        read at 1 MB for every station and data center, once per scenario;
        the ground link's latency and the rental are the same for every data
        center. The argmin is recomputed only when (v, qw) changes.
        """
        last_v, last_qw, best = self._best_dc[0]
        if (last_v, last_qw) != (v, qw):
            best = np.argmin(v * self.dc_cost_per_mb + qw * self.dc_latency_per_mb, axis=1)
            self._best_dc[0] = (v, qw, best)
        return best


class EdgeCandidate(NamedTuple):
    data_center_id: str
    weight: float
    dtil_mb: float


class AssignmentTriple(NamedTuple):
    contact: int               # contact-table row: the slot, satellite and station
    antenna: int               # antenna within the row's station
    dc: int                    # data center position


@dataclass
class SlotGraph:
    """The slot's edges, one per (satellite, station) contact, and the weight
    matrix they define."""

    arrays: ScenarioArrays
    edge_sat: np.ndarray       # [n_edges] satellite position of each edge
    edge_gs: np.ndarray        # [n_edges] station position of each edge
    edge_row: np.ndarray       # [n_edges] contact-table row of each edge
    edge_w: np.ndarray         # [n_edges] weight of each edge
    edge_dtil: np.ndarray      # [n_edges]
    edge_dc: np.ndarray        # [n_edges] data center position
    fallback: np.ndarray       # [n_s] weight of each satellite's virtual antenna

    @classmethod
    def from_edges(cls, arrays: ScenarioArrays, table: ContactTable,
                   row: np.ndarray, weight: np.ndarray, dtil: np.ndarray, dc: np.ndarray,
                   fallback: np.ndarray) -> "SlotGraph":
        """The graph of one edge per contact-table row `row[k]`, between the row's
        satellite and station, with `fallback[s]` on satellite s's virtual antenna."""
        return cls(arrays=arrays, edge_sat=table.sat[row], edge_gs=table.gs[row], edge_row=row,
                   edge_w=weight, edge_dtil=dtil, edge_dc=dc, fallback=fallback)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The whole [n_s, n_real + n_s] weight matrix, built on first use: real
        antennas, then one virtual antenna per satellite; +inf where no edge is."""
        n_s = len(self.fallback)
        per_station = np.full((n_s, len(self.arrays.gs_ids)), np.inf)
        per_station[self.edge_sat, self.edge_gs] = self.edge_w
        virtual = np.where(np.eye(n_s, dtype=bool), self.fallback[:, None], np.inf)
        return np.hstack([np.repeat(per_station, self.arrays.antenna_counts, axis=1), virtual])

    @property
    def n_real(self) -> int:
        return self.arrays.n_real_antennas

    @property
    def candidates(self) -> dict[tuple[int, int], EdgeCandidate]:
        """(satellite position, station position) -> EdgeCandidate of each edge."""
        dcs = map(self.arrays.dc_ids.__getitem__, self.edge_dc.tolist())
        return dict(zip(zip(self.edge_sat.tolist(), self.edge_gs.tolist()),
                        map(EdgeCandidate, dcs, self.edge_w.tolist(), self.edge_dtil.tolist())))


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
                    arrays: ScenarioArrays) -> SlotGraph:
    """The broker's slot graph: drift-plus-penalty edges, zero-weight virtuals.

    Every edge of the slot is computed in one pass over the slot's table rows.
    """
    si, gi, rate = table.slot_contacts(slot)
    backlog = np.array([states[sat_id].total_mb for sat_id in arrays.sat_ids])
    weight, dtil, di = _edge_terms(backlog[si], gi, rate, q, scenario, arrays)
    rows = table.slot_rows(slot)
    return SlotGraph.from_edges(arrays, table, np.arange(rows.start, rows.stop), weight, dtil, di,
                                np.zeros(len(backlog)))


def hungarian_min_matching(graph: SlotGraph) -> tuple[tuple[AssignmentTriple, ...], float]:
    """Minimum-weight left-perfect matching on the slot graph, with its total
    edge weight; the kernel sees only the block's contested satellites."""
    arrays, sat, gs, weight = graph.arrays, graph.edge_sat, graph.edge_gs, graph.edge_w
    gains = weight < graph.fallback[sat]
    if not gains.any():
        return (), 0.0
    is_row = np.bincount(sat[gains], minlength=len(graph.fallback)) > 0
    is_gs = np.bincount(gs[gains], minlength=len(arrays.gs_ids)) > 0
    k = np.flatnonzero(is_row[sat] & is_gs[gs])  # every edge inside the block
    # (weight, station, satellite, edge) of each, least (weight, station) first
    edges = sorted(zip(weight[k].tolist(), gs[k].tolist(), sat[k].tolist(), k.tolist()))
    rows_at = Counter(g for _, g, _, _ in edges)
    contested = {s for _, g, s, _ in edges if rows_at[g] > 1}
    # satellite -> (edge, antenna): an uncontested row's least (weight, station) edge, antenna 0
    pick = {s: (ek, 0) for _, _, s, ek in reversed(edges) if s not in contested}
    if contested:  # the block of the contested rows and of their stations
        edges = [edge for edge in edges if edge[2] in contested]
        rows = sorted(contested)
        is_gs = np.bincount([g for _, g, _, _ in edges], minlength=len(arrays.gs_ids)) > 0
        end = np.cumsum(arrays.antenna_counts * is_gs).tolist()
        col0 = [0] + end[:-1]  # station g's antennas are block columns col0[g]:end[g]
        n_rows, n_cols = len(rows), end[-1]
        cost = np.full((n_rows, n_cols + n_rows), np.inf)
        # row r's virtual antenna is column n_cols + r, every (row length + 1)th cell
        cost.reshape(-1)[n_cols::n_cols + n_rows + 1] = graph.fallback[rows]
        for w, g, s, _ in edges:
            cost[bisect.bisect_left(rows, s), col0[g]:end[g]] = w
        edge_at = {(s, g): ek for _, g, s, ek in edges}
        # only finite cells are assigned: one of the row's edges, or its own virtual antenna
        for s, col in zip(rows, hungarian.min_cost_assignment(cost).tolist()):
            if col < n_cols:
                g = bisect.bisect_right(col0, col) - 1  # empty stations share the next col0
                pick[s] = (edge_at[s, g], col - col0[g])
    triples, objective = [], 0.0
    # rows follow the sorted satellite ids, so the triples come out sorted
    for ek, antenna in map(pick.get, sorted(pick)):
        objective += weight.item(ek)
        triples.append(AssignmentTriple(graph.edge_row.item(ek), antenna, graph.edge_dc.item(ek)))
    return tuple(triples), objective


def dump_weight_matrix(graph: SlotGraph, path: str) -> None:
    """Debug CSV of the slot's weight matrix (satellites x antenna columns)."""
    arrays = graph.arrays
    cols = [f"{gs_id}#{a}" for gs_id, n in zip(arrays.gs_ids, arrays.antenna_counts.tolist())
            for a in range(n)]
    cols += [f"virtual:{sid}" for sid in arrays.sat_ids]
    write_csv(path, ["satellite"] + cols,
              ([sid] + w for sid, w in zip(arrays.sat_ids, graph.weights.tolist())))


# ---------------------------------------------------------------------------
# independent feasibility validator


def check_assignment(triples: tuple[AssignmentTriple, ...], t: int, arrays: ScenarioArrays,
                     table: ContactTable) -> list[str]:
    """Violations of slot t's constraints; empty when feasible.

    t is the slot that the caller runs, so a decision built for another slot
    fails. Checks: each triple's contact row is one of slot t's rows (so its
    station is within view); each satellite appears in at most one row; the
    antenna exists at the row's station and is not double-booked; the data
    center exists. Negative positions are out of range, not counted from the
    end.
    """
    violations: list[str] = []
    rows = table.slot_rows(t)
    n_d = len(arrays.dc_ids)
    seen_sats: set[int] = set()
    used_antennas: set[tuple[int, int]] = set()
    for tr in triples:
        k = tr.contact
        if k not in rows:
            violations.append(f"constraint(visibility): contact row {k} is not one of "
                              f"slot {t}'s rows [{rows.start}, {rows.stop})")
            continue
        si, gi = table.sat.item(k), table.gs.item(k)
        if si in seen_sats:
            violations.append(f"constraint(single-selection): satellite "
                              f"{table.sat_ids[si]!r} assigned twice")
        seen_sats.add(si)
        if not 0 <= tr.antenna < arrays.antenna_counts.item(gi):
            violations.append(f"constraint(antenna-count): station {table.gs_ids[gi]!r} "
                              f"has no antenna {tr.antenna}")
        elif (gi, tr.antenna) in used_antennas:
            violations.append(f"constraint(antenna-count): antenna {tr.antenna} of station "
                              f"{table.gs_ids[gi]!r} double-booked")
        used_antennas.add((gi, tr.antenna))
        if not 0 <= tr.dc < n_d:
            violations.append(f"unknown data center position {tr.dc} (scenario has {n_d})")
    return violations
