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

A (satellite, station, slot) cell is a contact when its elevation is at or
above the mask and above 0 degrees, so its rate r_max sin(elevation) is
positive even at a 0-degree mask. The propagator evaluates elevation only on
the (station, slot) cells inside each satellite's visibility cone: the
Earth-central angle between station and sub-satellite point is at most
lambda_max = 90 - mask - asin(k cos mask) degrees, k = R / (R + h) (Wertz &
Larson, Space Mission Analysis and Design, 3rd ed., sec. 5.2). A cell is a
candidate when the dot product of the two unit vectors is at least
cos(lambda_max) - CONE_MARGIN. The margin dwarfs the rounding of either test,
so the elevation test on the candidates picks exactly the contacts that
testing every cell would. Contact plans are written from the columns in blocks.
numpy parses a plan's body as columns in one pass; a plan that it might read
otherwise than the csv module, or that fails a check, is read again row by row,
and that reader reports the bad line. Ids become positions in one place, by
sorted search in ContactTable._positions, for plan columns and for a caller's
rows alike, so no path holds an object per contact.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import NamedTuple

import numpy as np

from skygs import rng
from skygs.model import Scenario, write_csv

EARTH_RADIUS_KM = 6371.0
MU_KM3_S2 = 398600.4418
EARTH_ROT_DEG_PER_MIN = 360.0 / 1436.0

# a cell whose central-angle cosine is this far below the visibility cone's
# still has its elevation evaluated, so rounding never drops a contact
CONE_MARGIN = 1e-9
PLAN_BLOCK = 1024          # contact-plan rows written per block
PLAN_SCAN_BLOCK = 1 << 16  # contact-plan bytes scanned per block before numpy parses it
# a NUL, which numpy drops from the end of an id, and the separators \x1c-\x1f,
# which numpy skips around a number and int() and float() refuse
_MISREAD_BYTES = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")

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
        [0, n_slots), a position outside its ids, a slot or position that is
        not an integer, a rate that is not finite and positive, or a second row
        for one (slot, satellite, station)."""
        slot = _index_column("slot", slot, n_slots)
        sat = _index_column("satellite position", sat, len(sat_ids))
        gs = _index_column("station position", gs, len(gs_ids))
        rate = np.asarray(rate, dtype=float)
        bad = ~(np.isfinite(rate) & (rate > 0))
        if bad.any():
            raise ValueError(f"rate {rate[bad][0]} is not finite and positive")
        per_slot = len(sat_ids) * len(gs_ids)
        key = slot * per_slot + sat * len(gs_ids) + gs
        order = np.argsort(key, kind="stable")
        key = key[order]
        twice = np.nonzero(np.diff(key) == 0)[0]
        if twice.size:
            k = order[twice[0]]
            raise ValueError(f"duplicate contact "
                             f"{(int(slot[k]), sat_ids[sat[k]], gs_ids[gs[k]])}")
        self.n_slots = n_slots
        self.sat_ids, self.gs_ids = tuple(sat_ids), tuple(gs_ids)
        self.slot_ptr = np.searchsorted(key, np.arange(n_slots + 1) * per_slot)
        del key  # before the columns are gathered: a lower peak
        self.sat, self.gs = sat[order], gs[order]
        self.elevation_deg = np.asarray(elevation, dtype=float)[order]
        self.rate_mb_per_min = rate[order]

    @classmethod
    def from_contacts(cls, n_slots: int, sat_ids: Iterable[str], gs_ids: Iterable[str],
                      contacts: Iterable[tuple[int, str, str, float, float]]) -> "ContactTable":
        """The table of these (slot, satellite id, station id, elevation, rate) rows,
        streamed into typed columns. Raises ValueError on a row naming another id
        (satellites first, the least id first), and then the constructor's."""
        sat_ids, gs_ids = tuple(sorted(sat_ids)), tuple(sorted(gs_ids))
        slot, sat, gs, elevation, rate = (array(code) for code in "qqqdd")
        # each id is coded in order of first use; the codes become positions below
        sat_code: dict[str, int] = {}
        gs_code: dict[str, int] = {}
        for t, s, g, el, r in contacts:
            try:
                slot.append(t)
            except TypeError:  # a float slot: the constructor checks a float column
                slot = array("d", slot)
                slot.append(t)
            sat.append(sat_code.setdefault(s, len(sat_code)))
            gs.append(gs_code.setdefault(g, len(gs_code)))
            elevation.append(el)
            rate.append(r)
        # the ids as objects, so that one ending in a NUL stays itself
        sat_pos = cls._positions("satellite", sat_ids, np.array(list(sat_code), dtype=object))
        gs_pos = cls._positions("ground station", gs_ids, np.array(list(gs_code), dtype=object))
        return cls(n_slots, sat_ids, gs_ids, slot, sat_pos[np.asarray(sat)],
                   gs_pos[np.asarray(gs)], elevation, rate)

    @classmethod
    def from_id_columns(cls, n_slots: int, sat_ids: Iterable[str], gs_ids: Iterable[str],
                        slot: np.ndarray, sat: np.ndarray, gs: np.ndarray,
                        elevation: np.ndarray, rate: np.ndarray) -> "ContactTable":
        """The table of these columns, `sat` and `gs` holding ids as numpy strings,
        which cannot end in a NUL. Raises ValueError on an id not among the ids
        (satellites first, the least id first), and then the constructor's."""
        sat_ids, gs_ids = tuple(sorted(sat_ids)), tuple(sorted(gs_ids))
        sat = cls._positions("satellite", sat_ids, sat)
        gs = cls._positions("ground station", gs_ids, gs)
        return cls(n_slots, sat_ids, gs_ids, slot, sat, gs, elevation, rate)

    @staticmethod
    def _positions(kind: str, ids: tuple[str, ...], names: np.ndarray) -> np.ndarray:
        """Positions of the names in the sorted ids, by sorted search and an equality
        check: the one place where ids become positions. Raises ValueError on the
        least name that is not an id."""
        sorted_ids = np.array(ids, dtype=object if names.dtype == object else str)
        pos = np.searchsorted(sorted_ids, names)
        known = pos < len(ids)
        known[known] = sorted_ids[pos[known]] == names[known]
        if not known.all():
            raise ValueError(f"unknown {kind} {min(names[~known].tolist())!r}")
        return pos

    def slot_rows(self, slot: int) -> range:
        """The table rows of the slot's contacts, for a slot in [0, n_slots)."""
        return range(int(self.slot_ptr[slot]), int(self.slot_ptr[slot + 1]))

    def slot_contacts(self, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(satellite position, station position, rate) views of the slot's rows."""
        lo, hi = self.slot_ptr[slot], self.slot_ptr[slot + 1]
        return self.sat[lo:hi], self.gs[lo:hi], self.rate_mb_per_min[lo:hi]

    def rows(self, lo: int, hi: int) -> Iterator[tuple[int, str, str, float, float]]:
        """(slot, satellite id, station id, elevation, rate) of rows lo:hi."""
        slot = np.searchsorted(self.slot_ptr, np.arange(lo, hi), "right") - 1
        sat, gs, el, rate = (c[lo:hi].tolist() for c in (
            self.sat, self.gs, self.elevation_deg, self.rate_mb_per_min))
        return zip(slot.tolist(), map(self.sat_ids.__getitem__, sat),
                   map(self.gs_ids.__getitem__, gs), el, rate)

    def all_contacts(self) -> list[Contact]:
        """Every row as a Contact, in (slot, satellite, station) order."""
        return list(map(Contact._make, self.rows(0, len(self.sat))))


def _index_column(name: str, values: np.ndarray, n: int) -> np.ndarray:
    """The values as int64, or ValueError on the first that is not an integer in [0, n)."""
    given = np.asarray(values)
    if given.dtype.kind not in "biu":
        whole = np.isfinite(given) & (np.floor(given) == given)
        if not whole.all():
            raise ValueError(f"{name} {given[~whole][0]} is not an integer in [0, {n})")
    outside = (given < 0) | (given >= n)
    if outside.any():
        raise ValueError(f"{name} {given[outside][0]} outside [0, {n})")
    return given.astype(np.int64, copy=False)


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
    sat_ids, gs_ids = scenario_ids(scenario)
    t, si, gi, el = _visible_cells(scenario)
    # a contact's noise is draw t of its (satellite, station) stream, keyed by
    # file positions, so draws never depend on which contacts a schedule uses
    rate = rng.uniform_at(scenario.seed, rng.TAG_RATE_NOISE, (si, gi), t, *scenario.noise)
    rate *= scenario.r_max * np.sin(np.radians(el))
    si = np.array([sat_ids.index(s.id) for s in scenario.satellites], dtype=np.int64)[si]
    gi = np.array([gs_ids.index(g.id) for g in scenario.ground_stations], dtype=np.int64)[gi]
    return ContactTable(scenario.horizon, sat_ids, gs_ids, t, si, gi, el, rate)


def _visible_cells(scenario: Scenario) -> tuple[np.ndarray, ...]:
    """Slot, satellite and station positions in the scenario file, and
    elevation, of every (satellite, station, slot) cell that is a contact."""
    t_mid = (np.arange(scenario.horizon) + 0.5) * scenario.tau
    mask = scenario.elevation_mask_deg
    gs_lat = np.array([g.lat_deg for g in scenario.ground_stations])
    gs_lon = np.array([g.lon_deg for g in scenario.ground_stations])
    gs_unit = [c[:, None] for c in _unit_vectors(gs_lat, gs_lon)]
    columns = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    for si, sat in enumerate(scenario.satellites):
        lat, lon = subsatellite_point(sat, t_mid)
        # the (station, slot) cells inside the visibility cone, by the cosine of
        # the central angle between the station and the sub-satellite point
        k = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + sat.altitude_km)
        cap_deg = 90.0 - mask - math.degrees(math.asin(k * math.cos(math.radians(mask))))
        cos_angle = sum(g * s for g, s in zip(gs_unit, _unit_vectors(lat, lon)))
        gi, t = np.nonzero(cos_angle >= math.cos(math.radians(cap_deg)) - CONE_MARGIN)
        el = elevation_deg(lat[t], lon[t], sat.altitude_km, gs_lat[gi], gs_lon[gi])
        seen = (el >= mask) & (el > 0.0)
        columns.append((t[seen], np.full(np.count_nonzero(seen), si), gi[seen], el[seen]))
    return tuple(np.concatenate(c) for c in zip(*columns))


def _unit_vectors(lat_deg: np.ndarray, lon_deg: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, y, z) of the unit vectors to these points of the sphere."""
    lat, lon = np.radians(lat_deg), np.radians(lon_deg)
    cos_lat = np.cos(lat)
    return cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)


def write_contact_plan(table: ContactTable, path: str) -> None:
    """Write the table as a contact-plan CSV, PLAN_BLOCK rows at a time."""
    n = len(table.sat)
    write_csv(path, CONTACT_PLAN_HEADER, chain.from_iterable(
        table.rows(lo, min(lo + PLAN_BLOCK, n)) for lo in range(0, n, PLAN_BLOCK)))


def read_contact_plan(path: str, scenario: Scenario) -> ContactTable:
    """Load and validate a contact-plan CSV against the scenario. numpy parses it
    as columns; a plan that it does not take whole is read row by row, which
    reports the earliest bad line, then unknown ids, then the table's own checks."""
    table = _plan_columns(path, scenario)
    if table is not None:
        return table
    try:
        return ContactTable.from_contacts(scenario.horizon, *scenario_ids(scenario),
                                          _plan_rows(path, scenario))
    except ContactPlanError:
        raise
    except ValueError as exc:  # unknown ids, slots outside the horizon, duplicates
        raise ContactPlanError(f"{path}: {exc}") from None


def _plan_columns(path: str, scenario: Scenario) -> ContactTable | None:
    """The plan's table, its body parsed by numpy in one pass and checked as
    columns; None when an id holds a NUL or a quote, the plan is not plain or
    has no row, or any check fails, so that every table or error is the row
    reader's."""
    sat_ids, gs_ids = scenario_ids(scenario)
    if any("\0" in i or '"' in i for i in sat_ids + gs_ids):
        return None
    # a longer id is cut to this width, and so is unknown
    width = max(map(len, sat_ids + gs_ids), default=0) + 1
    columns = np.dtype([("slot", "i8"), ("sat", f"U{width}"), ("gs", f"U{width}"),
                        ("elevation", "f8"), ("rate", "f8")])
    try:
        if not _plan_is_plain(path):
            return None
        with open(path, "r", encoding="utf-8", newline="") as fh:
            if next(fh, "").rstrip("\r\n") != ",".join(CONTACT_PLAN_HEADER):
                return None
            # numpy warns on a body of blank lines only
            first = next((line for line in fh if line.rstrip("\r\n")), None)
            if first is None:
                return None
            # quotes are text: a quoted field, one that spans lines included, fails
            # to parse or names no id, and so the row reader reads it
            plan = np.loadtxt(chain([first], fh), dtype=columns, delimiter=",",
                              quotechar=None, comments=None, ndmin=1)
        el, rate = plan["elevation"], plan["rate"]
        if not ((scenario.elevation_mask_deg <= el) & (el <= 90.0) & (rate > 0)
                & (rate <= scenario.r_max * scenario.noise[1])).all():
            return None
        return ContactTable.from_id_columns(scenario.horizon, sat_ids, gs_ids, plan["slot"],
                                            plan["sat"], plan["gs"], el, rate)
    except (OSError, ValueError):  # the row reader reports it
        return None


def _plan_is_plain(path: str) -> bool:
    """Whether numpy reads the file's fields as the row reader does: no block of it
    holds a byte of _MISREAD_BYTES, a run of 2,048 zeros (int() refuses a slot
    of more than 4,300 digits) or no line end (the csv reader refuses a field
    of more than 131,072 characters, and such a line fills a whole block)."""
    with open(path, "rb") as fh:
        while block := fh.read(PLAN_SCAN_BLOCK):
            if (any(b in block for b in _MISREAD_BYTES) or b"0" * 2048 in block
                    or len(block) == PLAN_SCAN_BLOCK and b"\n" not in block
                    and b"\r" not in block):
                return False
    return True


def _csv_rows(path: str, fh) -> Iterator[list[str]]:
    """The rows of an open plan; the csv module's error names its line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ContactPlanError(f"{path}: line {reader.line_num}: {exc}") from None


def _plan_rows(path: str, scenario: Scenario) -> Iterator[tuple[int, str, str, float, float]]:
    """(slot, satellite id, station id, elevation, rate) of each checked plan line."""
    rate_cap = scenario.r_max * scenario.noise[1]
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ContactPlanError(f"{path}: {exc}") from None
    with fh:
        reader = _csv_rows(path, fh)
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
            if not -2 ** 63 <= slot < 2 ** 63:  # beyond 64 bits, so beyond any horizon
                raise ContactPlanError(f"{path}: line {lineno}: slot {slot} outside "
                                       f"[0, {scenario.horizon})")
            yield slot, row[1], row[2], el, rate
