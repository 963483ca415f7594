"""Onboard backlog dynamics and the latency virtual queue.

Backlogs are FIFO sequences of chunks, each chunk aggregating the data that
arrived in one slot. Aggregation is exact for latency accounting because every
MB in a chunk shares the same arrival slot; splitting a chunk on a partial
downlink keeps the remainder at the head with its original arrival slot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from skygs import rng
from skygs.model import Scenario

MINUTES_PER_DAY = 1440.0


@dataclass(frozen=True)
class DataChunk:
    arrival_slot: int
    size_mb: float


class SatelliteState:
    """FIFO backlog for one satellite."""

    def __init__(self, satellite_id: str):
        self.satellite_id = satellite_id
        self.chunks: deque[DataChunk] = deque()
        self.total_mb = 0.0

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
    remaining = min(capacity_mb, state.total_mb)
    while remaining > 0 and state.chunks:
        head = state.chunks[0]
        if head.size_mb <= remaining:
            state.chunks.popleft()
            popped.append(head)
            moved += head.size_mb
            remaining -= head.size_mb
        else:
            popped.append(DataChunk(head.arrival_slot, remaining))
            state.chunks[0] = DataChunk(head.arrival_slot, head.size_mb - remaining)
            moved += remaining
            remaining = 0.0
    state.total_mb = max(state.total_mb - moved, 0.0)
    if not state.chunks:
        state.total_mb = 0.0
    return moved, popped


def advance_backlog(state: SatelliteState, arrivals_mb: float, slot: int) -> None:
    """Append this slot's arrivals after the downlink step."""
    if arrivals_mb < 0:
        raise ValueError("arrivals must be >= 0")
    if arrivals_mb > 0:
        state.chunks.append(DataChunk(slot, arrivals_mb))
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

    def __init__(self, scenario: Scenario, seed: int | None = None):
        seed = scenario.seed if seed is None else seed
        self._row = {sat.id: si for si, sat in enumerate(scenario.satellites)}
        self.mb = np.zeros((len(scenario.satellites), scenario.horizon))
        for si, sat in enumerate(scenario.satellites):
            lo, hi = sat.daily_volume_mb
            volume = float(rng.uniform(seed, rng.TAG_DAILY_VOLUME, (si,), 1, lo, hi)[0])
            per_slot = volume * scenario.tau / (MINUTES_PER_DAY * sat.duty_cycle)
            if sat.duty_cycle >= 1.0:
                self.mb[si] = per_slot
            else:
                draws = rng.uniform(seed, rng.TAG_ARRIVAL_MASK, (si,), scenario.horizon, 0.0, 1.0)
                self.mb[si, draws < sat.duty_cycle] = per_slot

    def arrivals_for_slot(self, satellite_id: str, slot: int) -> float:
        return float(self.mb[self._row[satellite_id], slot])
