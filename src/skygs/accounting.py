"""Latency components, monetary costs, and run metrics.

Latency is accounted in unit-minutes: every MB is charged its own queuing
wait, 1/R transmission time on each hop, and kappa minutes of processing.
The queuing wait comes from queues.actual_downlink, as it drains the FIFO.
Propagation delay is excluded (negligible at LEO altitudes). Antenna rental
is charged per antenna-slot whenever an antenna is assigned, independent of
how many MB actually move.

service_latency and downlink_cost are the one formula for what moving MB
from a station to a data center takes and costs. The broker's edge weights
and data-center choice, the baselines' prices and the engine's downlink
records all read them, so what a policy priced is what the run books; only
the brute-force test oracle in tests/oracle.py derives the same terms again,
on purpose, to check the weights.

A DownlinkRecord is a NamedTuple whose fields from satellite_id on are the
records CSV's columns between policy and q_after, in order: write_run_csv
writes each event row from the record's slice, so adding, removing or
reordering a field changes that file's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from skygs.model import write_csv


class DownlinkRecord(NamedTuple):
    slot: int
    satellite_id: str
    ground_station_id: str
    antenna: int
    data_center_id: str
    mb: float
    lq: float
    lt1: float
    lt2: float
    lc: float
    l_total: float
    cr: float
    cc: float
    c_total: float
    phi_s: float


@dataclass(frozen=True)
class RunMetrics:
    total_cost: float
    avg_latency_min_per_mb: float | None  # None when nothing was downlinked
    violation_rate: float
    final_backlog_mb: float
    mean_q: float
    max_q: float


def service_latency(mb, rate_mb_per_min, backhaul_mb_per_min, intensity_min_per_mb):
    """(lt1, lt2, lc): the minutes to send `mb` MB over the ground link, to carry
    them over the station's backhaul to the data center, and to process them
    there. Elementwise over numbers or numpy arrays; every rate is positive,
    as the contact table and scenario validation guarantee."""
    return (mb / rate_mb_per_min, mb / backhaul_mb_per_min, intensity_min_per_mb * mb)


def downlink_cost(mb, price_per_slot, dc_price_per_min, intensity_min_per_mb):
    """(rental, compute) of one assigned antenna-slot that moves `mb` MB.

    Rental is the full per-slot antenna price even when `mb` is below
    capacity, or zero; compute is the data center's price per minute times
    its processing minutes. Elementwise over numbers or numpy arrays.
    """
    return price_per_slot, dc_price_per_min * intensity_min_per_mb * mb


def aggregate_metrics(records: list[DownlinkRecord], xi: float,
                      final_backlog_mb: float, q_trace) -> RunMetrics:
    """Run-level metrics from the per-event records.

    Average latency is total unit-minutes over total MB. The violation rate
    is the fraction of downlink events whose per-MB average latency exceeds
    xi; events that moved no data have no per-MB latency and are excluded.
    """
    total_cost = float(sum(r.c_total for r in records))
    total_mb = float(sum(r.mb for r in records))
    total_latency = float(sum(r.l_total for r in records))
    avg_latency = (total_latency / total_mb) if total_mb > 0 else None
    events = [r for r in records if r.mb > 0]
    if events:
        violations = sum(1 for r in events if r.l_total / r.mb > xi)
        violation_rate = violations / len(events)
    else:
        violation_rate = 0.0
    q_list = list(q_trace)
    mean_q = float(sum(q_list) / len(q_list)) if q_list else 0.0
    max_q = float(max(q_list)) if q_list else 0.0
    return RunMetrics(
        total_cost=total_cost,
        avg_latency_min_per_mb=avg_latency,
        violation_rate=violation_rate,
        final_backlog_mb=final_backlog_mb,
        mean_q=mean_q,
        max_q=max_q,
    )


RUN_CSV_HEADER = ["slot", "policy", "satellite", "ground_station", "antenna", "data_center",
                  "mb", "lq", "lt1", "lt2", "lc", "l_total", "cr", "cc", "c_total",
                  "phi_s", "q_after"]


def write_run_csv(path: str, policy: str, records: list[DownlinkRecord],
                  q_trace, backlog_trace) -> None:
    """One row per downlink event plus one summary row per slot.

    The summary row leaves `satellite` empty and carries Q(t+1) in `q_after`
    and the total backlog after arrivals in `mb`. `records` are in slot
    order, as the engine appends them.
    """
    def rows():
        i = 0
        for t, (backlog, q_after) in enumerate(zip(backlog_trace, q_trace)):
            while i < len(records) and records[i].slot == t:
                yield [t, policy, *records[i][1:], q_after]
                i += 1
            yield [t, policy, "", "", "", "", backlog] + [""] * 9 + [q_after]

    write_csv(path, RUN_CSV_HEADER, rows())
