"""Brute-force oracle: the broker's slot objective by exhaustive enumeration.

brute_force_schedule tries every feasible assignment of a small slot instance
and evaluates each assigned satellite's drift-plus-penalty term from the
scenario's raw prices, rates and intensities. It shares no formula with the
code it checks: Q's input is worked out here, not read from the queue layer,
and the cost and service latency of a downlink are derived again rather than
taken from the accounting layer. tests/test_layout.py keeps it that way.
"""

from __future__ import annotations

import numpy as np

from skygs.model import Scenario
from skygs.orbit import ContactTable
from skygs.scheduler import AssignmentTriple, ScenarioArrays

BRUTE_FORCE_MAX_VISIBLE = 6
BRUTE_FORCE_MAX_ANTENNAS = 6
BRUTE_FORCE_MAX_DCS = 4


class InstanceTooLargeError(ValueError):
    """brute_force_schedule refuses instances above its enumeration guard."""


def _triple_contribution(backlog: float, rate: float, gi: int, di: int,
                         q: float, scenario: Scenario, arrays: ScenarioArrays) -> float:
    """Objective contribution of one satellite holding `backlog` MB, assigned
    to station `gi` at `rate` and data center `di`, evaluated directly.

    Drift-plus-penalty of L = sum(B^2) / 2 + Q^2 / (2 tau xi): V times the
    slot's cost, the backlog drift of the downlink, and Q's drift from the
    change the downlink makes to the slot's queue input against holding the
    data onboard. Q's input is tau per MB left onboard plus the service
    latency of what moved; the arrivals' allowance is the same either way.
    """
    tau, xi = scenario.tau, scenario.xi
    dtil = min(rate * tau, backlog)
    service = dtil / rate + dtil / arrays.backhaul[gi, di] + arrays.dc_kappa[di] * dtil
    cost = arrays.price_slot[gi] + arrays.dc_price[di] * arrays.dc_kappa[di] * dtil
    sent = tau * (backlog - dtil) + service
    held = tau * backlog
    return scenario.v * cost - backlog * dtil + q * (sent - held) / (tau * xi)


def brute_force_schedule(backlogs: dict[str, float], q: float, slot: int,
                         scenario: Scenario,
                         table: ContactTable) -> tuple[tuple[AssignmentTriple, ...], float]:
    """Exhaustive minimizer over all feasible assignments: its triples and its
    objective; `backlogs` holds each satellite's backlog in MB by id."""
    arrays = ScenarioArrays.from_scenario(scenario)
    # station and antenna within it of each real antenna column, from the counts
    antenna_station = np.repeat(np.arange(len(arrays.gs_ids)), arrays.antenna_counts)
    antenna_no = np.arange(len(antenna_station)) - arrays.station_col0[antenna_station]
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
    for k, s, g_pos, rate in zip(table.slot_rows(slot), row_sat, row_gs, row_rate):
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
        backlog = backlogs[arrays.sat_ids[s]]
        for ant_col, d_pos, rate, k in options[s]:
            if ant_col in used:
                continue
            gi = int(antenna_station[ant_col])
            contrib = _triple_contribution(backlog, rate, gi, d_pos, q, scenario, arrays)
            used.add(ant_col)
            choice[s] = (ant_col, d_pos, rate, k)
            recurse(idx + 1, used, obj + contrib, choice)
            used.discard(ant_col)
            del choice[s]

    recurse(0, set(), 0.0, {})

    triples = []
    for s, (ant_col, d_pos, _, k) in sorted(best_choice.items()):
        triples.append(AssignmentTriple(contact=k, antenna=int(antenna_no[ant_col]), dc=d_pos))
    return tuple(triples), float(best_obj)
