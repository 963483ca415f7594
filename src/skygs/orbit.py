"""Per-slot visibility and link rates.

Two sources: an analytic circular-orbit propagator (period from the orbit
altitude, sub-satellite track over a rotating spherical Earth) or an external
contact-plan CSV. Either way the result is an immutable ContactTable holding,
for every slot, which satellites see which stations and at what link rate.

The table is columnar, compressed sparse rows over slots. The columns `sat`,
`gs`, `elevation_deg` and `rate_mb_per_min` hold one row per contact, sorted
by (slot, satellite, station), and slot t's contacts are the rows
slot_ptr[t]:slot_ptr[t + 1]. Only this module reads slot_ptr: others get a
slot's row range from ContactTable.slot_rows and its columns from
slot_contacts. `sat` and `gs` are positions in the table's sorted satellite
and station ids, the order of scheduler.ScenarioArrays, so every policy reads
a slot's rows as they stand.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from skygs import rng
from skygs.model import Scenario, write_csv

EARTH_RADIUS_KM = 6371.0
MU_KM3_S2 = 398600.4418
EARTH_ROT_DEG_PER_MIN = 360.0 / 1436.0

CONTACT_PLAN_HEADER = ["slot", "satellite_id", "ground_station_id", "elevation_deg",
                       "rate_mb_per_min"]


class ContactPlanError(ValueError):
    """A contact-plan file failed to parse or validate."""


def orbital_period_minutes(altitude_km: float) -> float:
    """Circular-orbit period from the semi-major axis (Earth radius + altitude)."""
    a_m = (EARTH_RADIUS_KM + altitude_km) * 1e3
    return 2.0 * math.pi * math.sqrt(a_m ** 3 / (MU_KM3_S2 * 1e9)) / 60.0


def subsatellite_point(satellite, t_minutes):
    """Geodetic sub-satellite point(s) at the given elapsed time(s) in minutes.

    Accepts a scalar or an ndarray of times; returns (lat_deg, lon_deg) with
    longitudes normalized to [-180, 180).
    """
    t = np.asarray(t_minutes, dtype=float)
    period = orbital_period_minutes(satellite.altitude_km)
    u = np.radians(satellite.phase_deg + 360.0 * t / period)  # argument of latitude
    inc = math.radians(satellite.inclination_deg)
    lat = np.degrees(np.arcsin(np.sin(inc) * np.sin(u)))
    lon_inertial = satellite.raan_deg + np.degrees(np.arctan2(math.cos(inc) * np.sin(u), np.cos(u)))
    lon = (lon_inertial - EARTH_ROT_DEG_PER_MIN * t + 180.0) % 360.0 - 180.0
    if np.ndim(t_minutes) == 0:
        return float(lat), float(lon)
    return lat, lon


def elevation_deg(sub_lat, sub_lon, altitude_km, station_lat, station_lon):
    """Elevation of the satellite above the station's local horizon (spherical Earth).

    Negative when the satellite is below the horizon. Broadcasts over its
    arguments: station coordinates given as column vectors yield one row of
    elevations per station.
    """
    lat1 = np.radians(np.asarray(sub_lat, dtype=float))
    lon1 = np.radians(np.asarray(sub_lon, dtype=float))
    lat2 = np.radians(np.asarray(station_lat, dtype=float))
    lon2 = np.radians(np.asarray(station_lon, dtype=float))
    cos_gamma = np.clip(
        np.sin(lat1) * np.sin(lat2) + np.cos(lat1) * np.cos(lat2) * np.cos(lon1 - lon2),
        -1.0, 1.0)
    sin_gamma = np.sqrt(1.0 - cos_gamma ** 2)
    k = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    el = np.degrees(np.arctan2(cos_gamma - k, sin_gamma))
    return float(el) if el.ndim == 0 else el


class Contact(NamedTuple):
    slot: int
    satellite_id: str
    ground_station_id: str
    elevation_deg: float
    rate_mb_per_min: float


class ContactTable:
    """Immutable contacts of every slot as CSR columns (see the module docstring),
    for the sorted satellite and station ids of one scenario."""

    def __init__(self, n_slots: int, sat_ids: tuple[str, ...], gs_ids: tuple[str, ...],
                 slot: np.ndarray, sat: np.ndarray, gs: np.ndarray,
                 elevation: np.ndarray, rate: np.ndarray):
        """Contacts as columns in any row order, `sat` and `gs` being positions in
        the sorted `sat_ids` and `gs_ids`. Raises ValueError on a slot outside
        [0, n_slots), a rate that is not finite and positive, or a second row
        for one (slot, satellite, station)."""
        slot, sat, gs = (np.asarray(c, dtype=np.int64) for c in (slot, sat, gs))
        rate = np.asarray(rate, dtype=float)
        outside = (slot < 0) | (slot >= n_slots)
        if outside.any():
            raise ValueError(f"slot {slot[outside][0]} outside [0, {n_slots})")
        bad = ~(np.isfinite(rate) & (rate > 0))
        if bad.any():
            raise ValueError(f"rate {rate[bad][0]} is not finite and positive")
        key = (slot * len(sat_ids) + sat) * len(gs_ids) + gs
        order = np.argsort(key, kind="stable")
        twice = np.nonzero(np.diff(key[order]) == 0)[0]
        if twice.size:
            k = order[twice[0]]
            raise ValueError(f"duplicate contact "
                             f"{(int(slot[k]), sat_ids[sat[k]], gs_ids[gs[k]])}")
        self.n_slots = n_slots
        self.sat_ids, self.gs_ids = tuple(sat_ids), tuple(gs_ids)
        self.slot_ptr = np.searchsorted(slot[order], np.arange(n_slots + 1))
        self.sat, self.gs = sat[order], gs[order]
        self.elevation_deg = np.asarray(elevation, dtype=float)[order]
        self.rate_mb_per_min = rate[order]

    @classmethod
    def from_contacts(cls, n_slots: int, sat_ids: Iterable[str], gs_ids: Iterable[str],
                      contacts: Iterable[Contact]) -> "ContactTable":
        """The table of these Contact rows for these satellite and station ids.
        Raises ValueError on a row naming another id, as well as the constructor's."""
        sat_ids, gs_ids = tuple(sorted(sat_ids)), tuple(sorted(gs_ids))
        slot, sats, stations, elevation, rate = list(zip(*contacts)) or [()] * 5
        for kind, named, ids in (("satellite", sats, sat_ids),
                                 ("ground station", stations, gs_ids)):
            unknown = set(named) - set(ids)
            if unknown:
                raise ValueError(f"unknown {kind} {min(unknown)!r}")
        return cls(n_slots, sat_ids, gs_ids, slot, np.searchsorted(sat_ids, sats),
                   np.searchsorted(gs_ids, stations), elevation, rate)

    def slot_rows(self, slot: int) -> range:
        """The table rows of the slot's contacts, for a slot in [0, n_slots)."""
        return range(int(self.slot_ptr[slot]), int(self.slot_ptr[slot + 1]))

    def slot_contacts(self, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(satellite position, station position, rate) views of the slot's rows."""
        lo, hi = self.slot_ptr[slot], self.slot_ptr[slot + 1]
        return self.sat[lo:hi], self.gs[lo:hi], self.rate_mb_per_min[lo:hi]

    def all_contacts(self) -> list[Contact]:
        """Every row as a Contact, in (slot, satellite, station) order."""
        columns = (np.repeat(np.arange(self.n_slots), np.diff(self.slot_ptr)), self.sat,
                   self.gs, self.elevation_deg, self.rate_mb_per_min)
        return [Contact(t, self.sat_ids[s], self.gs_ids[g], e, r)
                for t, s, g, e, r in zip(*(c.tolist() for c in columns))]


def scenario_ids(scenario: Scenario) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The scenario's satellite and station ids, sorted: a table's position order."""
    return (tuple(sorted(s.id for s in scenario.satellites)),
            tuple(sorted(g.id for g in scenario.ground_stations)))


def build_contact_table(scenario: Scenario) -> ContactTable:
    """Contact table for t in [0, horizon), from file or propagator."""
    if scenario.contact_plan_path is not None:
        return read_contact_plan(scenario.contact_plan_path, scenario)
    return _propagate_contacts(scenario)


def _propagate_contacts(scenario: Scenario) -> ContactTable:
    T = scenario.horizon
    t_mid = (np.arange(T) + 0.5) * scenario.tau
    sat_ids, gs_ids = scenario_ids(scenario)
    stations = scenario.ground_stations
    # one row of elevations per station, from the stations' column vectors
    gs_lat = np.array([g.lat_deg for g in stations])[:, None]
    gs_lon = np.array([g.lon_deg for g in stations])[:, None]
    sat_pos = np.array([sat_ids.index(s.id) for s in scenario.satellites], dtype=np.int64)
    gs_pos = np.array([gs_ids.index(g.id) for g in stations], dtype=np.int64)
    # per contact: slot, satellite and station positions in the scenario file, elevation
    columns = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    for si, sat in enumerate(scenario.satellites):
        lat, lon = subsatellite_point(sat, t_mid)
        el = elevation_deg(lat, lon, sat.altitude_km, gs_lat, gs_lon)
        gi, t = np.nonzero(el >= scenario.elevation_mask_deg)
        columns.append((t, np.full(len(t), si), gi, el[gi, t]))
    t, si, gi, el = (np.concatenate(c) for c in zip(*columns))
    # a contact's noise is draw t of its (satellite, station) stream, keyed by
    # file positions, so draws never depend on which contacts a schedule uses
    noise = rng.uniform_at(scenario.seed, rng.TAG_RATE_NOISE, (si, gi), t, *scenario.noise)
    rate = scenario.r_max * np.sin(np.radians(el)) * noise
    return ContactTable(T, sat_ids, gs_ids, t, sat_pos[si], gs_pos[gi], el, rate)


def write_contact_plan(table: ContactTable, path: str) -> None:
    write_csv(path, CONTACT_PLAN_HEADER, table.all_contacts())


def read_contact_plan(path: str, scenario: Scenario) -> ContactTable:
    """Load and validate a contact-plan CSV against the scenario."""
    rate_cap = scenario.r_max * scenario.noise[1]
    contacts: list[Contact] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ContactPlanError(f"{path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CONTACT_PLAN_HEADER:
            raise ContactPlanError(
                f"{path}: line 1: expected header {','.join(CONTACT_PLAN_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ContactPlanError(f"{path}: line {lineno}: expected 5 fields, got {len(row)}")
            try:
                slot = int(row[0])
                el = float(row[3])
                rate = float(row[4])
            except ValueError as exc:
                raise ContactPlanError(f"{path}: line {lineno}: {exc}") from None
            if not scenario.elevation_mask_deg <= el <= 90.0:
                raise ContactPlanError(
                    f"{path}: line {lineno}: elevation {el} outside "
                    f"[mask {scenario.elevation_mask_deg}, 90]")
            if not 0 < rate <= rate_cap:
                raise ContactPlanError(
                    f"{path}: line {lineno}: rate {rate} outside (0, {rate_cap}]")
            contacts.append(Contact(slot, row[1], row[2], el, rate))
    try:
        return ContactTable.from_contacts(scenario.horizon, *scenario_ids(scenario), contacts)
    except ValueError as exc:  # unknown ids, slots outside the horizon, duplicates
        raise ContactPlanError(f"{path}: {exc}") from None
