"""Ready-made scenario documents: the two reference worlds of the checkout's
scenarios/ directory, read as raw dicts. Run them through validate_scenario.
They serve the tests and the benchmark, which run from a checkout; no module
of the package imports them.

desk_scenario reads the small reference world, scenarios/desk.json: 10
sun-synchronous satellites, 6 stations across three providers, 8 data
centers. Its three near-polar stations per hemisphere sit at 120-degree
longitude spacing, so every polar crossing of a sun-synchronous orbit is a
usable pass for every satellite (the nearest station is at most ~60 degrees
of longitude away), which keeps per-satellite contact gaps near the
half-orbit period. Each provider owns one northern and one southern station,
so the single-provider baseline sees only a third of the crossings.

full_scale_scenario reads the large world, scenarios/full_scale.json, for
performance checks: 153 satellites, 48 stations, 109 data centers. It was
generated once from this recipe, with providers a, b and c taken in turn
(entity k belongs to provider k mod 3):
- satellite k (sat-000 ... sat-152): a sun-synchronous orbit at 475 km and
  97.4 degrees, RAAN 47k mod 360 and phase 137k mod 360 degrees, collecting
  0.9-1.1 M MB a day at duty cycle 1;
- station k (gs-00 ... gs-47): latitude -80 + 160 * (7k mod 48) / 47 and
  longitude -180 + 360 * (11k mod 48) / 48 degrees, both rounded to 4
  places, with 1 + k mod 3 antennas, at 18, 22 or 26 $/min by provider;
- data center k (dc-000 ... dc-108): 0.5 + 0.5 * (5k mod 109) / 108 $/h and
  0.1 + 0.1 * (13k mod 109) / 108 h/GB, both to 4 decimals.
Its sim section holds tau 1, xi 60, a 10-degree elevation mask, a 1.6 Gbps
link rate with 0.9-1.1 noise and 1 Gbps backhaul.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

DESK = Path(__file__).resolve().parents[2] / "scenarios" / "desk.json"
FULL_SCALE = DESK.with_name("full_scale.json")


def _world(path: Path, **sim: Any) -> dict[str, Any]:
    """A fresh copy of the world file with these sim values set in place,
    which keeps the file's key order."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["sim"].update(sim)
    return raw


def desk_scenario(seed: int = 1, *, policy: str = "skygs", v: float = 5e4,
                  horizon: int = 1440) -> dict[str, Any]:
    return _world(DESK, seed=seed, policy=policy, v=v, horizon=horizon)


def full_scale_scenario(seed: int = 1, *, horizon: int = 1,
                         policy: str = "skygs", v: float = 5e6) -> dict[str, Any]:
    return _world(FULL_SCALE, seed=seed, policy=policy, v=v, horizon=horizon)
