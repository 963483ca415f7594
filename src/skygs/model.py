"""Domain types, unit conventions, and scenario validation.

Canonical units throughout the package: data in MB, rates in MB/minute,
time in minutes (slot index times tau), money in USD. Inputs expressed in
Gbps, $/hour, or h/GB are converted once at load time and never afterwards.
Every CSV the package writes goes through write_csv, which fixes the output
number format.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

MB_PER_MIN_PER_GBPS = 7500.0  # 1e9 bits/s / 8 / 1e6 bytes-per-MB * 60 s/min

POLICIES = ("skygs", "sg", "bg", "br", "bwg", "ilp_hpq")
POLICY_PARAMS = ("provider", "rho")  # sg's provider, ilp_hpq's high-priority share of xi
DEFAULT_RHO = 0.8

DEFAULT_ELEVATION_MASK_DEG = 10.0
DEFAULT_R_MAX_MB_PER_MIN = 1.6 * MB_PER_MIN_PER_GBPS  # 12,000
DEFAULT_NOISE = (0.9, 1.1)
DEFAULT_BACKHAUL_MB_PER_MIN = 1.0 * MB_PER_MIN_PER_GBPS  # 7,500


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# unit parsing

_RATE_UNITS = {
    "gbps": MB_PER_MIN_PER_GBPS,
    "mbps": MB_PER_MIN_PER_GBPS / 1000.0,
    "mb/min": 1.0,
    "mb/s": 60.0,
}
_PRICE_UNITS = {  # to $/min
    "$/min": 1.0,
    "$/h": 1.0 / 60.0,
    "$/hour": 1.0 / 60.0,
}
_INTENSITY_UNITS = {  # to min/MB
    "min/mb": 1.0,
    "h/gb": 60.0 / 1000.0,
}


def _parse_with_units(value: Any, units: Mapping[str, float], what: str, where: str) -> float:
    """Parse a bare number (already canonical) or a "<number> <unit>" string."""
    if isinstance(value, bool):
        raise ScenarioError(f"{where}: {what} must be a number or unit string")
    if isinstance(value, (int, float)):
        return _as_number(value, where)
    if isinstance(value, str):
        parts = value.split()
        if len(parts) == 2:
            try:
                magnitude = float(parts[0])
            except ValueError:
                raise ScenarioError(f"{where}: cannot parse {what} {value!r}") from None
            factor = units.get(parts[1].lower())
            if factor is None:
                raise ScenarioError(
                    f"{where}: unknown {what} unit {parts[1]!r} (expected one of {sorted(units)})"
                )
            return _as_number(magnitude * factor, where)
    raise ScenarioError(f"{where}: cannot parse {what} {value!r}")


def parse_rate(value: Any, where: str = "rate") -> float:
    """Rate to MB/min. Bare numbers are taken as MB/min."""
    return _parse_with_units(value, _RATE_UNITS, "rate", where)


def parse_price_per_min(value: Any, where: str = "price") -> float:
    """Price to $/min. Bare numbers are taken as $/min."""
    return _parse_with_units(value, _PRICE_UNITS, "price", where)


def parse_intensity(value: Any, where: str = "intensity") -> float:
    """Processing intensity to min/MB. Bare numbers are taken as min/MB."""
    return _parse_with_units(value, _INTENSITY_UNITS, "intensity", where)


# ---------------------------------------------------------------------------
# domain types (immutable after validation; safe to share across runs)


@dataclass(frozen=True)
class Satellite:
    id: str
    altitude_km: float
    inclination_deg: float
    raan_deg: float
    phase_deg: float
    daily_volume_mb: tuple[float, float]  # range a run draws from, once per satellite
    duty_cycle: float = 1.0


@dataclass(frozen=True)
class GroundStation:
    id: str
    provider: str
    lat_deg: float
    lon_deg: float
    antennas: int
    price_per_slot: float  # $ per antenna-slot
    backhaul_mb_per_min: dict[str, float] = field(default_factory=dict)  # dc id -> MB/min


@dataclass(frozen=True)
class DataCenter:
    id: str
    provider: str
    price_per_min: float  # $ per minute of processing
    intensity_min_per_mb: float  # minutes of processing per MB


@dataclass(frozen=True)
class Scenario:
    satellites: tuple[Satellite, ...]
    ground_stations: tuple[GroundStation, ...]
    data_centers: tuple[DataCenter, ...]
    tau: float  # slot length, minutes
    horizon: int  # number of slots
    xi: float  # latency threshold, minutes per MB unit
    v: float  # drift-plus-penalty trade-off weight
    seed: int
    policy: str = "skygs"
    policy_params: dict[str, Any] = field(default_factory=dict)
    elevation_mask_deg: float = DEFAULT_ELEVATION_MASK_DEG
    r_max: float = DEFAULT_R_MAX_MB_PER_MIN
    noise: tuple[float, float] = DEFAULT_NOISE
    contact_plan_path: str | None = None

    def to_json_dict(self) -> dict[str, Any]:
        """Canonical JSON form (all values in canonical units), one key per
        dataclass field. Validating this dict again reproduces an identical
        Scenario, whose station backhaul maps validation keeps sorted by id.
        """
        return {
            "satellites": [asdict(s) for s in self.satellites],
            "ground_stations": [asdict(g) for g in self.ground_stations],
            "data_centers": [asdict(d) for d in self.data_centers],
            "sim": {name: getattr(self, name) for name in SIM_FIELDS},
        }


# every field after the satellites, stations and data centers, in order
SIM_FIELDS = tuple(f.name for f in fields(Scenario))[3:]


# ---------------------------------------------------------------------------
# validation


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _as_number(value: Any, where: str) -> float:
    """value as a float; json also reads Infinity, NaN, 1e999 and 1 followed by
    400 zeros (an int too large for a float), which are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioError(f"{where}: must be finite, got an int too large for a float") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: must be finite, got {value!r}")
    return number


def _volume_range(raw: Any, where: str) -> tuple[float, float]:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        lo = hi = _as_number(raw, where)
    elif isinstance(raw, (list, tuple)) and len(raw) == 2:
        lo = _as_number(raw[0], where)
        hi = _as_number(raw[1], where)
    else:
        raise ScenarioError(f"{where}: daily_volume_mb must be a number or [lo, hi]")
    _require(0 < lo <= hi, f"{where}: daily volume range must satisfy 0 < lo <= hi")
    return (lo, hi)


def _one_of(raw: Mapping[str, Any], where: str, key: str, unit_key: str, parse) -> float:
    """A field given as `key`, a number in canonical units, or as `unit_key`,
    which parse(value, where) reads; a record that gives both is refused."""
    _require(not (key in raw and unit_key in raw), f"{where}: give {key} or {unit_key}, not both")
    if key in raw:
        return _as_number(raw[key], f"{where}.{key}")
    return parse(raw.get(unit_key), f"{where}.{unit_key}")


def _validate_satellite(raw: Mapping[str, Any]) -> Satellite:
    sid = raw.get("id")
    _require(isinstance(sid, str) and sid != "", "satellite: missing id")
    where = f"satellite {sid!r}"
    alt = _as_number(raw.get("altitude_km"), f"{where}.altitude_km")
    _require(alt > 0, f"{where}: altitude_km must be > 0")
    duty = _as_number(raw.get("duty_cycle", 1.0), f"{where}.duty_cycle")
    _require(0 < duty <= 1, f"{where}: duty_cycle must be in (0, 1]")
    return Satellite(
        id=sid,
        altitude_km=alt,
        inclination_deg=_as_number(raw.get("inclination_deg", 0.0), f"{where}.inclination_deg"),
        raan_deg=_as_number(raw.get("raan_deg", 0.0), f"{where}.raan_deg"),
        phase_deg=_as_number(raw.get("phase_deg", 0.0), f"{where}.phase_deg"),
        daily_volume_mb=_volume_range(raw.get("daily_volume_mb"), f"{where}.daily_volume_mb"),
        duty_cycle=duty,
    )


def _validate_station(raw: Mapping[str, Any], tau: float, dc_ids: list[str],
                      default_backhaul: float | None) -> GroundStation:
    gid = raw.get("id")
    _require(isinstance(gid, str) and gid != "", "ground_station: missing id")
    where = f"ground_station {gid!r}"
    provider = raw.get("provider")
    _require(isinstance(provider, str) and provider != "", f"{where}: missing provider")
    antennas = raw.get("antennas")
    if isinstance(antennas, bool) or not isinstance(antennas, int):
        raise ScenarioError(f"{where}: antennas must be an integer")
    _require(antennas >= 1, f"{where}: antennas must be >= 1 (got {antennas})")
    lat = _as_number(raw.get("lat_deg"), f"{where}.lat_deg")
    lon = _as_number(raw.get("lon_deg"), f"{where}.lon_deg")
    _require(abs(lat) <= 90, f"{where}: lat_deg must be within [-90, 90]")
    _require(-180 <= lon < 180, f"{where}: lon_deg must be within [-180, 180)")
    price_slot = _one_of(raw, where, "price_per_slot", "price",
                         lambda value, at: parse_price_per_min(value, at) * tau)
    _require(price_slot >= 0, f"{where}: price must be >= 0")

    map_keys = [key for key in ("backhaul_mb_per_min", "backhaul") if key in raw]
    _require(len(map_keys) < 2, f"{where}: give backhaul_mb_per_min or backhaul, not both")
    overrides = raw[map_keys[0]] if map_keys else {}
    if not isinstance(overrides, Mapping):
        raise ScenarioError(f"{where}: backhaul must map data-center id -> rate")
    backhaul: dict[str, float] = {}
    for dc_id, rate in overrides.items():
        _require(dc_id in dc_ids, f"{where}: backhaul references unknown data center {dc_id!r}")
        backhaul[dc_id] = parse_rate(rate, f"{where}.backhaul[{dc_id}]")
    for dc_id in dc_ids:
        if dc_id not in backhaul:
            if default_backhaul is not None:
                backhaul[dc_id] = default_backhaul
            elif map_keys:
                # an explicit partial map with no global fallback is a mistake
                raise ScenarioError(
                    f"incomplete backhaul matrix: {where} has no rate for data center "
                    f"{dc_id!r} and sim.backhaul_rate is not set"
                )
            else:
                backhaul[dc_id] = DEFAULT_BACKHAUL_MB_PER_MIN
    for dc_id, rate in backhaul.items():
        _require(rate > 0, f"{where}: backhaul rate to {dc_id!r} must be > 0")
    return GroundStation(
        id=gid, provider=provider, lat_deg=lat, lon_deg=lon,
        antennas=antennas, price_per_slot=price_slot,
        backhaul_mb_per_min=dict(sorted(backhaul.items())),
    )


def _validate_data_center(raw: Mapping[str, Any]) -> DataCenter:
    did = raw.get("id")
    _require(isinstance(did, str) and did != "", "data_center: missing id")
    where = f"data_center {did!r}"
    provider = raw.get("provider")
    _require(isinstance(provider, str) and provider != "", f"{where}: missing provider")
    price = _one_of(raw, where, "price_per_min", "price", parse_price_per_min)
    intensity = _one_of(raw, where, "intensity_min_per_mb", "intensity", parse_intensity)
    _require(price >= 0, f"{where}: price must be >= 0")
    _require(intensity > 0, f"{where}: intensity must be > 0")
    return DataCenter(id=did, provider=provider, price_per_min=price,
                      intensity_min_per_mb=intensity)


def _records(raw: Mapping[str, Any], key: str, validate: Callable[[Mapping], Any]) -> list:
    """The records listed under `key`, none when it is absent, each validated;
    a value that is not a list of objects, or an id given twice, is refused."""
    items = raw.get(key, [])
    _require(isinstance(items, list) and all(isinstance(i, Mapping) for i in items),
             f"{key}: expected a list of objects")
    records, seen = [validate(item) for item in items], set()
    for record in records:
        _require(record.id not in seen, f"duplicate {key[:-1].replace('_', ' ')} id {record.id!r}")
        seen.add(record.id)
    return records


def _sim_fields(sim: Mapping[str, Any], ground_stations: Sequence[GroundStation],
                data_centers: Sequence[DataCenter]) -> dict[str, Any]:
    """The Scenario fields `tau` through `contact_plan_path` from a `sim` section,
    checked and in canonical units.

    The policy's parameters are checked too: sg takes the provider that sorts
    first unless one is named, and that provider must own a ground station and
    a data center; ilp_hpq takes rho in (0, 1], DEFAULT_RHO unless given.
    """
    tau = _tau(sim)
    for key in ("horizon", "xi", "seed"):
        if key not in sim:
            raise ScenarioError(f"sim.{key}: missing")
    horizon = sim["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ScenarioError("sim.horizon: must be an integer")
    _require(horizon >= 1, "sim.horizon: must be >= 1")
    xi = _as_number(sim["xi"], "sim.xi")
    _require(xi > 0, "sim.xi: must be > 0")
    v = _as_number(sim.get("v", 0.0), "sim.v")
    _require(v >= 0, "sim.v: must be >= 0")
    seed = sim["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("sim.seed: must be an integer")
    _require(0 <= seed < 2 ** 64, "sim.seed: must be in [0, 2**64)")

    mask = _as_number(sim.get("elevation_mask_deg", DEFAULT_ELEVATION_MASK_DEG),
                      "sim.elevation_mask_deg")
    _require(0 <= mask < 90, "sim.elevation_mask_deg: must be in [0, 90)")
    r_max = parse_rate(sim.get("r_max", DEFAULT_R_MAX_MB_PER_MIN), "sim.r_max")
    _require(r_max > 0, "sim.r_max: must be > 0")

    noise_raw = sim.get("noise", DEFAULT_NOISE)
    if not (isinstance(noise_raw, (list, tuple)) and len(noise_raw) == 2):
        raise ScenarioError("sim.noise: must be [lo, hi]")
    noise = (_as_number(noise_raw[0], "sim.noise[0]"), _as_number(noise_raw[1], "sim.noise[1]"))
    _require(0 < noise[0] <= noise[1] < 2, "sim.noise: range must lie within (0, 2)")

    policy = policy_name(sim.get("policy", "skygs"))
    policy_params = sim.get("policy_params", {})
    _require(isinstance(policy_params, Mapping), "sim.policy_params: must be an object")
    policy_params = dict(policy_params)
    for key in policy_params:
        _require(key in POLICY_PARAMS, f"sim.policy_params: unknown key {key!r} "
                                       f"(valid: {', '.join(POLICY_PARAMS)})")
    if policy == "sg":
        owners = [g.provider for g in ground_stations]
        if policy_params.get("provider") is None:
            policy_params["provider"] = min(owners, default=None)
        provider = policy_params["provider"]
        _require(provider in owners,
                 f"sim.policy_params.provider: {provider!r} owns no ground stations")
        _require(any(d.provider == provider for d in data_centers),
                 f"sim.policy_params.provider: {provider!r} owns no data centers")
    if policy == "ilp_hpq":
        rho = _as_number(policy_params.get("rho", DEFAULT_RHO), "sim.policy_params.rho")
        _require(0 < rho <= 1, "sim.policy_params.rho: must be in (0, 1]")
        policy_params["rho"] = rho

    contact_plan_path = sim.get("contact_plan_path")
    if contact_plan_path is not None and not isinstance(contact_plan_path, str):
        raise ScenarioError("sim.contact_plan_path: must be a string path or null")

    return dict(tau=tau, horizon=horizon, xi=xi, v=v, seed=seed, policy=policy,
                policy_params=policy_params, elevation_mask_deg=mask, r_max=r_max,
                noise=noise, contact_plan_path=contact_plan_path)


def policy_name(value: Any) -> str:
    """The policy `value` names, lower-cased; an unknown name is rejected with
    the scenario file's sim.policy message, wherever it comes from."""
    if not isinstance(value, str) or value.lower() not in POLICIES:
        raise ScenarioError(f"sim.policy: unknown policy {value!r} (valid: {', '.join(POLICIES)})")
    return value.lower()


def _tau(sim: Mapping[str, Any]) -> float:
    if "tau" not in sim:
        raise ScenarioError("sim.tau: missing")
    tau = _as_number(sim["tau"], "sim.tau")
    _require(tau > 0, "sim.tau: must be > 0")
    return tau


def validate_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Validate a parsed scenario document and convert all units.

    Idempotent: re-validating `scenario.to_json_dict()` yields an equal
    Scenario. Raises ScenarioError naming the offending field otherwise.
    """
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario: expected a JSON object")
    sim = raw.get("sim")
    if not isinstance(sim, Mapping):
        raise ScenarioError("scenario: missing 'sim' section")

    data_centers = _records(raw, "data_centers", _validate_data_center)
    _require(bool(data_centers), "data_centers: scheduling requires at least one data center")
    dc_ids = [d.id for d in data_centers]

    default_backhaul = sim.get("backhaul_rate")
    if default_backhaul is not None:
        default_backhaul = parse_rate(default_backhaul, "sim.backhaul_rate")

    # station prices are per slot, so tau is read before the other sim fields
    tau = _tau(sim)
    stations = _records(raw, "ground_stations",
                        lambda g: _validate_station(g, tau, dc_ids, default_backhaul))
    satellites = _records(raw, "satellites", _validate_satellite)

    return Scenario(satellites=tuple(satellites), ground_stations=tuple(stations),
                    data_centers=tuple(data_centers),
                    **_sim_fields(sim, stations, data_centers))


def with_overrides(scenario: Scenario, *, policy: str | None = None, seed: int | None = None,
                   v: float | None = None, xi: float | None = None,
                   contact_plan_path: str | None = None) -> Scenario:
    """The scenario with each sim field given (not None) replaced, checked like a
    scenario file's; its satellites, stations and data centers are not checked again."""
    given = dict(policy=policy, seed=seed, v=v, xi=xi, contact_plan_path=contact_plan_path)
    overrides = {name: value for name, value in given.items() if value is not None}
    if not overrides:
        return scenario
    sim = {name: getattr(scenario, name) for name in SIM_FIELDS}
    return replace(scenario, **_sim_fields({**sim, **overrides}, scenario.ground_stations,
                                           scenario.data_centers))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    return validate_scenario(raw)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header line and then the rows. The csv module writes a float,
    numpy's included, as its shortest round-trip repr and None as an empty
    field, so no caller formats a cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
