"""Comparison policies behind the same per-slot interface as the broker.

SG restricts the greedy broker to a single provider's stations and data
centers; BG greedily downlinks whatever is backlogged via the cheapest pair
per MB; BR picks uniformly at random; BWG adds withholding until a full slot
of link capacity can be used; ILP-HPQ downlinks only satellites whose oldest
data approaches the latency threshold, via a forced min-cost matching.
None of the baselines rents an antenna for an empty downlink.
Each policy takes the scenario and the run's ScenarioArrays, and answers a
slot with a tuple of AssignmentTriples.
"""

from __future__ import annotations

import numpy as np

from skygs import accounting, rng
from skygs.model import Scenario
from skygs.orbit import ContactTable
from skygs.queues import SatelliteState
from skygs.scheduler import (AssignmentTriple, ScenarioArrays, SlotGraph, build_bipartite,
                             hungarian_min_matching)


def _best_dc_by_cost(arrays: ScenarioArrays, dc_positions: list[int]) -> int:
    """Cheapest data center per MB among the allowed ones; ties to lowest id."""
    return min(dc_positions, key=arrays.dc_cost_per_mb.__getitem__)


def _slot_links(table: ContactTable, slot: int) -> dict[int, list[tuple[int, float, int]]]:
    """Satellite position -> [(station position, rate, table row)] of the slot's
    contacts, satellites and then stations in id order. A desk slot has too few
    contacts for numpy to pay."""
    links: dict[int, list[tuple[int, float, int]]] = {}
    columns = (c.tolist() for c in table.slot_contacts(slot))
    for k, s, g, rate in zip(table.slot_rows(slot), *columns):
        links.setdefault(s, []).append((g, rate, k))
    return links


class _GreedyCore:
    """Base of SG/BG/BWG: cost-effective pair selection.

    Satellites with data are served in descending backlog order; each takes
    the free antenna and data center minimizing the cost per MB, tie-broken
    by lowest ids.
    """

    def __init__(self, scenario: Scenario, arrays: ScenarioArrays, *,
                 providers: set[str] | None = None, require_full_slot: bool = False):
        self.arrays = arrays
        self.scenario = scenario
        self.require_full_slot = require_full_slot
        if providers is None:
            self.gs_allowed = set(range(len(self.arrays.gs_ids)))
            dc_positions = list(range(len(self.arrays.dc_ids)))
        else:
            self.gs_allowed = {i for i, p in enumerate(self.arrays.provider_gs)
                               if p in providers}
            dc_positions = [i for i, p in enumerate(self.arrays.provider_dc)
                            if p in providers]
        self.best_dc = _best_dc_by_cost(self.arrays, dc_positions)
        # Python scalars: a slot prices each of its contacts one at a time
        self.price_slot = arrays.price_slot.tolist()
        self.antenna_counts = arrays.antenna_counts.tolist()
        self.dc = arrays.dc_price[self.best_dc].item(), arrays.dc_kappa[self.best_dc].item()

    def schedule(self, states: dict[str, SatelliteState], q: float, slot: int,
                 table: ContactTable) -> tuple[AssignmentTriple, ...]:
        tau = self.scenario.tau
        links = _slot_links(table, slot)
        # satellites with a contact, in id order, and then a stable sort by backlog:
        # ties go to the lowest id
        backlog = {si: states[self.arrays.sat_ids[si]].total_mb for si in links}
        ordered = sorted((si for si, mb in backlog.items() if mb > 0),
                         key=lambda si: -backlog[si])
        given = [0] * len(self.antenna_counts)  # antennas of each station given so far
        triples: list[AssignmentTriple] = []
        for si in ordered:
            best = None  # (cost per MB, g_pos, table row)
            for g_pos, rate, k in links[si]:
                if g_pos not in self.gs_allowed or given[g_pos] == self.antenna_counts[g_pos]:
                    continue
                capacity = rate * tau
                if self.require_full_slot and backlog[si] < capacity:
                    continue
                dtil = min(capacity, backlog[si])
                cr, cc = accounting.downlink_cost(dtil, self.price_slot[g_pos], *self.dc)
                per_mb = (cr + cc) / dtil
                # station positions follow the ids, so ties go to the lowest id
                if best is None or (per_mb, g_pos) < best[:2]:
                    best = (per_mb, g_pos, k)
            if best is None:
                continue
            _, g_pos, k = best
            triples.append(AssignmentTriple(contact=k, antenna=given[g_pos], dc=self.best_dc))
            given[g_pos] += 1
        # rows follow the satellite ids within a slot, and no two triples share a row
        return tuple(sorted(triples))


class BGPolicy(_GreedyCore):
    name = "bg"


class BWGPolicy(_GreedyCore):
    name = "bwg"

    def __init__(self, scenario: Scenario, arrays: ScenarioArrays):
        super().__init__(scenario, arrays, require_full_slot=True)


class SGPolicy(_GreedyCore):
    name = "sg"

    def __init__(self, scenario: Scenario, arrays: ScenarioArrays):
        # validation fills in the provider and checks that it owns a station and a data center
        super().__init__(scenario, arrays, providers={scenario.policy_params["provider"]})


class BRPolicy:
    """Uniform random choices, drawn for the whole horizon at set-up.

    Draw row [slot, :, s] holds satellite position s's (sorted ids) order key,
    contact pick and data-center pick for that slot: backlogged satellites are
    served in ascending key order, each taking a uniform free antenna in view
    and a uniform data center. Every slot and satellite has its own draws.
    """

    name = "br"

    def __init__(self, scenario: Scenario, arrays: ScenarioArrays):
        self.arrays = arrays
        n_s, horizon = len(self.arrays.sat_ids), scenario.horizon
        self.draws = rng.uniform_at(scenario.seed, rng.TAG_BR_POLICY, (),
                                    np.arange(3 * n_s * horizon)).reshape(horizon, 3, n_s)

    def schedule(self, states, q, slot, table):
        arrays = self.arrays
        key, pick, dc_pick = self.draws[slot].tolist()
        n_d = len(arrays.dc_ids)
        eligible = [si for si, sat_id in enumerate(arrays.sat_ids) if states[sat_id].total_mb > 0]
        free = {g_pos: list(range(n)) for g_pos, n in enumerate(arrays.antenna_counts.tolist())}
        links = _slot_links(table, slot)
        triples: list[AssignmentTriple] = []
        for si in sorted(eligible, key=key.__getitem__):
            # one entry per free compatible antenna
            choices = [(g_pos, k, antenna) for g_pos, _, k in links.get(si, ())
                       for antenna in free[g_pos]]
            if not choices:
                continue
            g_pos, k, antenna = choices[int(pick[si] * len(choices))]
            free[g_pos].remove(antenna)
            triples.append(AssignmentTriple(contact=k, antenna=antenna, dc=int(dc_pick[si] * n_d)))
        return tuple(sorted(triples))


class IlpHpqPolicy:
    """Per-slot cost minimizer with a forced high-priority downlink queue.

    It prices the edges and fallbacks of the broker's slot graph: each edge
    costs its rental plus compute at the cheapest data center, and a
    satellite whose oldest backlogged data has waited at least rho * xi
    minutes becomes high priority, its fallback priced above the slot's edges
    combined, so the min-cost matching downlinks it whenever an antenna is in
    view. The per-slot feasible region is an assignment polytope, so matching
    solves the slot problem exactly without an external programming solver.
    Real costs are never negative, so only high-priority satellites can gain, and
    only those that share a station reach the matching kernel; a free downlink
    ties with doing nothing, and the tie goes to doing nothing.
    """

    name = "ilp_hpq"

    def __init__(self, scenario: Scenario, arrays: ScenarioArrays):
        self.arrays = arrays
        self.scenario = scenario
        self.graph: SlotGraph | None = None  # the graph of the latest slot
        self.rho = scenario.policy_params["rho"]  # validation fills in its default
        self.best_dc = _best_dc_by_cost(self.arrays, list(range(len(self.arrays.dc_ids))))

    def schedule(self, states, q, slot, table):
        arrays = self.arrays
        tau, xi = self.scenario.tau, self.scenario.xi
        backlog = np.array([states[sat_id].total_mb for sat_id in arrays.sat_ids])
        si, gi, rate = table.slot_contacts(slot)
        held = backlog[si] > 0
        row = table.slot_rows(slot).start + np.flatnonzero(held)
        si, gi = si[held], gi[held]
        dtil = np.minimum(rate[held] * tau, backlog[si])
        cr, cc = accounting.downlink_cost(dtil, arrays.price_slot[gi],
                                          arrays.dc_price[self.best_dc],
                                          arrays.dc_kappa[self.best_dc])
        cost = cr + cc

        m_forced = sum(np.abs(cost).tolist()) + 1.0
        fallback = np.zeros(len(backlog))
        for k, sat_id in enumerate(arrays.sat_ids):
            oldest = states[sat_id].oldest_arrival_slot()
            if oldest is not None and (slot - oldest) * tau >= self.rho * xi:
                fallback[k] = m_forced
        self.graph = SlotGraph.from_edges(arrays, table, row, cost, dtil,
                                          np.repeat(self.best_dc, len(cost)), fallback)
        return hungarian_min_matching(self.graph)[0]


class SkyGSPolicy:
    name = "skygs"

    def __init__(self, scenario: Scenario, arrays: ScenarioArrays):
        self.arrays = arrays
        self.scenario = scenario
        self.graph: SlotGraph | None = None  # the graph of the latest slot

    def schedule(self, states, q, slot, table):
        self.graph = build_bipartite(states, q, slot, self.scenario, table, self.arrays)
        return hungarian_min_matching(self.graph)[0]


_POLICY_CLASSES = {cls.name: cls for cls in (SkyGSPolicy, SGPolicy, BGPolicy, BRPolicy,
                                              BWGPolicy, IlpHpqPolicy)}


def make_policy(scenario: Scenario, arrays: ScenarioArrays):
    """The scenario's policy on the run's arrays; validation has checked its params."""
    return _POLICY_CLASSES[scenario.policy](scenario, arrays)
