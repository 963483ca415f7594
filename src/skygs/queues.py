"""Onboard backlog dynamics and the latency virtual queue.

A backlog is a FIFO over its arrivals, the cumulative arrival curve of
Le Boudec & Thiran, *Network Calculus* (2001), ch. 1: parallel lists of each
positive arrival's slot and MB, and a head index at the oldest MB onboard. A
partial downlink splits the head arrival in place, so latency is exact per
arrival, and the drained prefix goes once it reaches TRIM_AT and half the lists.
Only this module reads the lists: advance_backlog fills them, actual_downlink
drains them and prices the wait, and oldest_arrival_slot and onboard read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from skygs import rng
from skygs.model import Scenario

MINUTES_PER_DAY = 1440.0
TRIM_AT = 64


class DataChunk(NamedTuple):
    arrival_slot: int
    size_mb: float


@dataclass
class SatelliteState:
    """FIFO backlog for one satellite: its arrivals from `head` on are onboard."""

    satellite_id: str
    arrival_slots: list[int] = field(default_factory=list, init=False, repr=False)
    arrival_mb: list[float] = field(default_factory=list, init=False, repr=False)
    head: int = field(default=0, init=False)
    total_mb: float = field(default=0.0, init=False)

    def oldest_arrival_slot(self) -> int | None:
        return self.arrival_slots[self.head] if self.head < len(self.arrival_slots) else None

    def onboard(self) -> list[DataChunk]:
        """The backlog's chunks in FIFO order, the head's remainder first."""
        return list(map(DataChunk, self.arrival_slots[self.head:], self.arrival_mb[self.head:]))


def actual_downlink(state: SatelliteState, capacity_mb: float, slot: int,
                    tau: float) -> tuple[float, list[float]]:
    """Move min(capacity, backlog) from the FIFO head at `slot`: the MB moved and each
    drained arrival's queuing latency, size * (slot - arrival slot) * tau, in FIFO order.
    A part-drained arrival's rest stays at the head; a later arrival raises ValueError."""
    if capacity_mb < 0:
        raise ValueError("capacity must be >= 0")
    slots, sizes, i, n = state.arrival_slots, state.arrival_mb, state.head, len(state.arrival_mb)
    moved, terms, remaining = 0.0, [], min(capacity_mb, state.total_mb)
    while remaining > 0 and i < n:
        arrival, size_mb = slots[i], sizes[i]
        if arrival > slot:
            raise ValueError(f"chunk arrived at slot {arrival}, popped at earlier slot {slot}")
        if size_mb <= remaining:
            i += 1
            remaining -= size_mb
        else:
            sizes[i] = size_mb - remaining
            size_mb, remaining = remaining, 0.0
        moved += size_mb
        terms.append(size_mb * (slot - arrival) * tau)
    state.total_mb = max(state.total_mb - moved, 0.0) if i < n else 0.0
    if i == n or i >= TRIM_AT and 2 * i >= n:
        del slots[:i], sizes[:i]
        i = 0
    state.head = i
    return moved, terms


def advance_backlog(state: SatelliteState, arrivals_mb: float, slot: int) -> None:
    """Append this slot's arrivals after the downlink step."""
    if arrivals_mb < 0:
        raise ValueError("arrivals must be >= 0")
    if arrivals_mb > 0:
        state.arrival_slots.append(slot)
        state.arrival_mb.append(arrivals_mb)
        state.total_mb += arrivals_mb


def latency_accrual(backlog_mb: float, service_latency: float, arrivals_mb: float,
                    tau: float, xi: float) -> float:
    """Per-slot input to the latency virtual queue, in MB-minutes.

    Every MB still onboard at the end of the slot waits one more slot
    (tau * backlog), what moved this slot adds its transmission and
    processing latency, and this slot's arrivals bring their allowance of
    xi minutes each. Summed over a run this is the latency of the delivered
    data plus the age so far of the data still onboard, minus xi times the
    arrived volume: the per-MB threshold charged as latency accrues rather
    than when data departs, so holding data is never free.
    """
    return tau * backlog_mb + service_latency - xi * arrivals_mb


def update_virtual_queue(q: float, accrual: float) -> float:
    """Q(t+1) = max(Q(t) + accrual(t), 0), with accrual from latency_accrual."""
    if q < 0:
        raise ValueError("virtual queue must be >= 0")
    return max(q + accrual, 0.0)


class ArrivalModel:
    """Deterministic per-run arrival process.

    Each satellite draws its daily volume once from its configured range, and
    collects during "on" slots of a duty-cycle mask; both derive from the
    master seed, so arrivals are identical across policies on the same seed.
    On slots carry daily_volume / (1440 * duty_cycle) MB, off slots zero.
    The whole horizon is drawn up front: `mb[i, t]` is the MB that the
    scenario's i-th satellite collects in slot t.
    """

    def __init__(self, scenario: Scenario):
        sats = scenario.satellites
        self._row = {sat.id: si for si, sat in enumerate(sats)}
        lo, hi = np.array([sat.daily_volume_mb for sat in sats], dtype=float).reshape(-1, 2).T
        duty = np.array([sat.duty_cycle for sat in sats])
        rows = np.arange(len(sats))
        volume = rng.uniform_at(scenario.seed, rng.TAG_DAILY_VOLUME, (rows,), 0, lo, hi)
        per_slot = volume * scenario.tau / (MINUTES_PER_DAY * duty)
        self.mb = np.repeat(per_slot[:, None], scenario.horizon, axis=1)
        gated = rows[duty < 1.0]
        draws = rng.uniform_at(scenario.seed, rng.TAG_ARRIVAL_MASK, (gated[:, None],),
                               np.arange(scenario.horizon))
        self.mb[gated] = np.where(draws < duty[gated, None], per_slot[gated, None], 0.0)

    def arrivals_for_slot(self, satellite_id: str, slot: int) -> float:
        return float(self.mb[self._row[satellite_id], slot])
