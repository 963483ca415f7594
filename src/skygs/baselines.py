"""Comparison policies behind the same per-slot interface as the broker.

SG restricts the greedy broker to a single provider's stations and data
centers; BG greedily downlinks whatever is backlogged via the cheapest pair
per MB; BR picks uniformly at random; BWG adds withholding until a full slot
of link capacity can be used; ILP-HPQ downlinks only satellites whose oldest
data approaches the latency threshold, via a forced min-cost matching.
None of the baselines rents an antenna for an empty downlink.
"""

from __future__ import annotations

import numpy as np

from skygs import accounting, rng
from skygs.model import DEFAULT_RHO, Scenario
from skygs.orbit import ContactTable
from skygs.queues import SatelliteState
from skygs.scheduler import (Assignment, AssignmentTriple, ScenarioArrays, SlotGraph,
                             build_bipartite, hungarian_min_matching)


def _best_dc_by_cost(arrays: ScenarioArrays, dc_positions: list[int]) -> int:
    """Cheapest data center per MB among the allowed ones; ties to lowest id."""
    _, per_mb = accounting.downlink_cost(1.0, 0.0, arrays.dc_price, arrays.dc_kappa)
    return min(dc_positions, key=per_mb.__getitem__)


def _slot_links(table: ContactTable, slot: int) -> dict[int, list[tuple[int, float, int]]]:
    """Satellite position -> [(station position, rate, table row)] of the slot's
    contacts, in station id order. A desk slot has too few contacts for numpy
    to pay."""
    links: dict[int, list[tuple[int, float, int]]] = {}
    rows = zip(*(c.tolist() for c in table.slot_contacts(slot)))
    for k, (s, g, rate) in enumerate(rows, int(table.slot_ptr[slot])):
        links.setdefault(s, []).append((g, rate, k))
    return links


class _GreedyCore:
    """Base of SG/BG/BWG: cost-effective pair selection.

    Satellites with data are served in descending backlog order; each takes
    the free antenna and data center minimizing the cost per MB, tie-broken
    by lowest ids.
    """

    def __init__(self, scenario: Scenario, *, providers: set[str] | None = None,
                 require_full_slot: bool = False):
        self.arrays = ScenarioArrays.from_scenario(scenario)
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

    def schedule(self, states: dict[str, SatelliteState], q: float, slot: int,
                 table: ContactTable) -> Assignment:
        arrays = self.arrays
        tau = self.scenario.tau
        free = {g_pos: list(range(n)) for g_pos, n in enumerate(arrays.antenna_counts.tolist())}
        backlog = [states[sat_id].total_mb for sat_id in arrays.sat_ids]
        # a stable sort of positions in id order: ties go to the lowest id
        ordered = sorted((si for si, mb in enumerate(backlog) if mb > 0),
                         key=lambda si: -backlog[si])
        links = _slot_links(table, slot)
        dc = arrays.dc_price[self.best_dc], arrays.dc_kappa[self.best_dc]
        triples: list[AssignmentTriple] = []
        for si in ordered:
            best = None  # (cost per MB, g_pos, table row)
            for g_pos, rate, k in links.get(si, ()):
                if g_pos not in self.gs_allowed or not free[g_pos]:
                    continue
                capacity = rate * tau
                if self.require_full_slot and backlog[si] < capacity:
                    continue
                dtil = min(capacity, backlog[si])
                cr, cc = accounting.downlink_cost(dtil, arrays.price_slot[g_pos], *dc)
                per_mb = (cr + cc) / dtil
                # station positions follow the ids, so ties go to the lowest id
                if best is None or (per_mb, g_pos) < best[:2]:
                    best = (per_mb, g_pos, k)
            if best is None:
                continue
            _, g_pos, k = best
            triples.append(AssignmentTriple(contact=k, antenna=free[g_pos].pop(0),
                                            dc=self.best_dc))
        # rows follow the satellite ids within a slot
        triples.sort(key=lambda tr: tr.contact)
        return Assignment(slot=slot, triples=tuple(triples))


class BGPolicy(_GreedyCore):
    name = "bg"


class BWGPolicy(_GreedyCore):
    name = "bwg"

    def __init__(self, scenario: Scenario):
        super().__init__(scenario, require_full_slot=True)


class SGPolicy(_GreedyCore):
    name = "sg"

    def __init__(self, scenario: Scenario):
        # validation fills in the provider and checks that it owns a station and a data center
        super().__init__(scenario, providers={scenario.policy_params["provider"]})


class BRPolicy:
    name = "br"

    def __init__(self, scenario: Scenario):
        self.arrays = ScenarioArrays.from_scenario(scenario)
        self.scenario = scenario

    def schedule(self, states, q, slot, table):
        arrays = self.arrays
        gen = rng.stream(self.scenario.seed, rng.TAG_BR_POLICY, slot)
        # satellite positions follow the sorted ids
        eligible = [si for si, sat_id in enumerate(arrays.sat_ids) if states[sat_id].total_mb > 0]
        order = [eligible[i] for i in gen.permutation(len(eligible))]
        free = {g_pos: list(range(n)) for g_pos, n in enumerate(arrays.antenna_counts.tolist())}
        links = _slot_links(table, slot)
        triples: list[AssignmentTriple] = []
        for si in order:
            # one entry per free compatible antenna
            choices = [(g_pos, k, antenna) for g_pos, _, k in links.get(si, ())
                       for antenna in free[g_pos]]
            if not choices:
                continue
            g_pos, k, antenna = choices[int(gen.integers(len(choices)))]
            free[g_pos].remove(antenna)
            triples.append(AssignmentTriple(contact=k, antenna=antenna,
                                            dc=int(gen.integers(len(arrays.dc_ids)))))
        triples.sort(key=lambda tr: tr.contact)
        return Assignment(slot=slot, triples=tuple(triples))


class IlpHpqPolicy:
    """Per-slot cost minimizer with a forced high-priority downlink queue.

    It prices the edges and fallbacks of the broker's slot graph: each edge
    costs its rental plus compute at the cheapest data center, and a
    satellite whose oldest backlogged data has waited at least rho * xi
    minutes becomes high priority, its fallback priced above the slot's edges
    combined, so the min-cost matching downlinks it whenever an antenna is in
    view. The per-slot feasible region is an assignment polytope, so matching
    solves the slot problem exactly without an external programming solver.
    Real costs are never negative, so only high-priority satellites reach the
    matching kernel; a free downlink ties with doing nothing, and the tie goes
    to doing nothing.
    """

    name = "ilp_hpq"

    def __init__(self, scenario: Scenario):
        self.arrays = ScenarioArrays.from_scenario(scenario)
        self.scenario = scenario
        self.graph: SlotGraph | None = None  # the graph of the latest slot
        self.rho = scenario.policy_params.get("rho", DEFAULT_RHO)
        self.best_dc = _best_dc_by_cost(self.arrays, list(range(len(self.arrays.dc_ids))))

    def schedule(self, states, q, slot, table):
        arrays = self.arrays
        tau, xi = self.scenario.tau, self.scenario.xi
        backlog = np.array([states[sat_id].total_mb for sat_id in arrays.sat_ids])
        si, gi, rate = table.slot_contacts(slot)
        held = backlog[si] > 0
        row = np.arange(*table.slot_ptr[slot:slot + 2])[held]
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
        self.graph = SlotGraph.from_edges(slot, arrays, table, row, cost, dtil,
                                          np.repeat(self.best_dc, len(cost)), fallback)
        return hungarian_min_matching(self.graph)[0]


class SkyGSPolicy:
    name = "skygs"

    def __init__(self, scenario: Scenario):
        self.arrays = ScenarioArrays.from_scenario(scenario)
        self.scenario = scenario
        self.graph: SlotGraph | None = None  # the graph of the latest slot

    def schedule(self, states, q, slot, table):
        self.graph = build_bipartite(states, q, slot, self.scenario, table, self.arrays)
        return hungarian_min_matching(self.graph)[0]


_POLICY_CLASSES = {cls.name: cls for cls in (SkyGSPolicy, SGPolicy, BGPolicy, BRPolicy,
                                              BWGPolicy, IlpHpqPolicy)}


def make_policy(scenario: Scenario):
    """Instantiate the policy the scenario selects; validation has checked its params."""
    return _POLICY_CLASSES[scenario.policy](scenario)
