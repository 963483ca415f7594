"""Ready-made scenario documents.

desk_scenario reads the small reference world, the checkout's
scenarios/desk.json: 10 sun-synchronous satellites, 6 stations across three
providers, 8 data centers. Its three near-polar stations per hemisphere sit
at 120-degree longitude spacing, so every polar crossing of a sun-synchronous
orbit is a usable pass for every satellite (the nearest station is at most
~60 degrees of longitude away), which keeps per-satellite contact gaps near
the half-orbit period. Each provider owns one northern and one southern
station, so the single-provider baseline sees only a third of the crossings.

full_scale_scenario builds a large world (153 satellites, 48 stations, 109
data centers) for performance checks. Both return raw dicts; run them through
validate_scenario. They serve the tests and the benchmark, which run from a
checkout; no module of the package imports them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

DESK = Path(__file__).resolve().parents[2] / "scenarios" / "desk.json"
SSO_INCLINATION_DEG = 97.4
SSO_ALTITUDE_KM = 475.0


def desk_scenario(seed: int = 1, *, policy: str = "skygs", v: float = 5e4,
                  horizon: int = 1440) -> dict[str, Any]:
    """A fresh copy of the desk file with these four sim values set in place,
    which keeps the file's key order."""
    raw = json.loads(DESK.read_text(encoding="utf-8"))
    raw["sim"].update(seed=seed, policy=policy, v=v, horizon=horizon)
    return raw


def full_scale_scenario(seed: int = 1, *, horizon: int = 1,
                         policy: str = "skygs", v: float = 5e6) -> dict[str, Any]:
    satellites = [
        {
            "id": f"sat-{k:03d}",
            "altitude_km": SSO_ALTITUDE_KM,
            "inclination_deg": SSO_INCLINATION_DEG,
            "raan_deg": (k * 47.0) % 360.0,
            "phase_deg": (k * 137.0) % 360.0,
            "daily_volume_mb": [900_000, 1_100_000],
            "duty_cycle": 1.0,
        }
        for k in range(153)
    ]
    providers = ["provider-a", "provider-b", "provider-c"]
    prices = {"provider-a": 18.0, "provider-b": 22.0, "provider-c": 26.0}
    stations = []
    for k in range(48):
        provider = providers[k % 3]
        lat = -80.0 + 160.0 * ((k * 7) % 48) / 47.0
        lon = -180.0 + 360.0 * ((k * 11) % 48) / 48.0
        stations.append({
            "id": f"gs-{k:02d}",
            "provider": provider,
            "lat_deg": round(lat, 4),
            "lon_deg": round(lon, 4),
            "antennas": 1 + (k % 3),
            "price": f"{prices[provider]} $/min",
        })
    data_centers = [
        {
            "id": f"dc-{k:03d}",
            "provider": providers[k % 3],
            "price": f"{0.5 + 0.5 * ((k * 5) % 109) / 108:.4f} $/h",
            "intensity": f"{0.1 + 0.1 * ((k * 13) % 109) / 108:.4f} h/GB",
        }
        for k in range(109)
    ]
    return {
        "satellites": satellites,
        "ground_stations": stations,
        "data_centers": data_centers,
        "sim": {
            "tau": 1.0,
            "horizon": horizon,
            "xi": 60.0,
            "v": v,
            "seed": seed,
            "policy": policy,
            "policy_params": {},
            "elevation_mask_deg": 10.0,
            "r_max": "1.6 Gbps",
            "noise": [0.9, 1.1],
            "backhaul_rate": "1 Gbps",
        },
    }
