"""Onboard backlog dynamics and the latency virtual queue.

Backlogs are FIFO sequences of chunks, each chunk aggregating the data that
arrived in one slot. A chunk is a NamedTuple of its arrival slot and MB, so a
slot's arrival or a split on a partial downlink costs one tuple. Aggregation
is exact for latency accounting because every MB in a chunk shares the same
arrival slot; splitting a chunk on a partial downlink keeps the remainder at
the head with its original arrival slot.
Only this module reads the chunks: others fill a backlog with advance_backlog,
drain it with actual_downlink, and read queuing_latency and oldest_arrival_slot.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from skygs import rng
from skygs.model import Scenario

MINUTES_PER_DAY = 1440.0


class DataChunk(NamedTuple):
    arrival_slot: int
    size_mb: float


# DataChunk((arrival_slot, size_mb)) without NamedTuple's Python-level __new__:
# the slot loop builds one per arrival and one per split
_chunk = functools.partial(tuple.__new__, DataChunk)


@dataclass
class SatelliteState:
    """FIFO backlog for one satellite, compared by value."""

    satellite_id: str
    chunks: deque[DataChunk] = field(default_factory=deque, init=False)
    total_mb: float = field(default=0.0, init=False)

    def __repr__(self) -> str:
        return f"SatelliteState({self.satellite_id!r}, total={self.total_mb:.1f} MB)"

    def oldest_arrival_slot(self) -> int | None:
        return self.chunks[0].arrival_slot if self.chunks else None


def actual_downlink(state: SatelliteState, capacity_mb: float) -> tuple[float, list[DataChunk]]:
    """Pop min(capacity, backlog) from the FIFO head.

    Returns the amount moved and the popped chunks (with their arrival slots,
    for latency accounting). A partially-consumed chunk is split; the
    remainder stays at the head.
    """
    if capacity_mb < 0:
        raise ValueError("capacity must be >= 0")
    moved = 0.0
    popped: list[DataChunk] = []
    remaining, chunks = min(capacity_mb, state.total_mb), state.chunks
    while remaining > 0 and chunks:
        head = chunks[0]
        arrival, size_mb = head
        if size_mb <= remaining:
            chunks.popleft()
            popped.append(head)
            moved += size_mb
            remaining -= size_mb
        else:
            popped.append(_chunk((arrival, remaining)))
            chunks[0] = _chunk((arrival, size_mb - remaining))
            moved += remaining
            remaining = 0.0
    state.total_mb = max(state.total_mb - moved, 0.0) if chunks else 0.0
    return moved, popped


def queuing_latency(popped: list[DataChunk], slot: int, tau: float) -> float:
    """Sum over popped chunks of size * (slot - arrival_slot) * tau."""
    total = 0.0
    for arrival, size_mb in popped:
        if arrival > slot:
            raise ValueError(f"chunk arrived at slot {arrival}, popped at earlier slot {slot}")
        total += size_mb * (slot - arrival) * tau
    return total


def advance_backlog(state: SatelliteState, arrivals_mb: float, slot: int) -> None:
    """Append this slot's arrivals after the downlink step."""
    if arrivals_mb < 0:
        raise ValueError("arrivals must be >= 0")
    if arrivals_mb > 0:
        state.chunks.append(_chunk((slot, arrivals_mb)))
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
