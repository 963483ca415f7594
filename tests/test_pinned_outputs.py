"""Output digests pinned across commits.

Criterion 9 only checks that two processes agree with each other. These
SHA-256 digests check that a commit writes byte for byte what the commit
before it wrote: the desk seed-1 contact plan, a 48-slot full-scale plan at
seed 1, the desk seed-1 records and summary of every policy, and those of
skygs and ilp_hpq in a desk world whose backhaul rate varies by station and
data center, so that the broker's data-center choice turns on the backhaul
latency. A refactor
must leave them as they are. A change that moves them on purpose updates the
constants and says why in CHANGES.md; ROADMAP items 3 (independent random
streams) and 4 (latency units) are expected to.
"""

import hashlib
import json
from pathlib import Path

import pytest

from skygs import cli
from skygs.model import POLICIES
from skygs.scenarios import desk_scenario, full_scale_scenario

DESK = Path(__file__).resolve().parents[1] / "scenarios" / "desk.json"
BACKHAUL_MBPS = (20, 50, 100, 250, 500, 1000, 2000)
BACKHAUL_POLICIES = ("skygs", "ilp_hpq")


def varied_backhaul_desk():
    """The desk world at V = 1e7, where Q grows large enough for backhaul
    latency to move the broker's data-center choice, with each station's
    backhaul to each data center drawn from BACKHAUL_MBPS by a fixed rule."""
    raw = desk_scenario(1, v=1e7)
    for gi, station in enumerate(raw["ground_stations"]):
        station["backhaul"] = {
            dc["id"]: f"{BACKHAUL_MBPS[(3 * gi + 5 * di) % len(BACKHAUL_MBPS)]} Mbps"
            for di, dc in enumerate(raw["data_centers"])}
    return raw

PINNED = {
    "desk_plan.csv":
        "f072aeb3ba9877ed4e348b3025107c71103cf7ef1b6e20b81ce967d5efbeb62e",
    "full_scale_48_plan.csv":
        "7529a7b29fbb4ceca68e22f86a96be5b3b01b43a4295c99ba8872afd2cb1d4cb",
    "records_skygs_seed1.csv":
        "bcc4a240fcd150deb086abcac34cf3dad250bd2ec21117394e35c7f57bbe2eee",
    "summary_skygs_seed1.json":
        "8627590242d889ee78ccf46b633dab16fa1c3840bc666c2290c5ef14818365b5",
    "records_bg_seed1.csv":
        "2033142950d303accd3bccdef7ae90b46c697f9f4811f7dcfa5c5185825ea704",
    "summary_bg_seed1.json":
        "ee3864f6797f559756d6ec4e927a86d1f30d1059da27abe74fb038967e8d8168",
    "records_sg_seed1.csv":
        "dc71dfbeede4e96ada486853266c8b67e465b25936c4607a88f8b6a666c66cf4",
    "summary_sg_seed1.json":
        "b3d7e5a1affc6a591bb74a9f15f3861b4619acb3fc9d235d3331a2881caf842e",
    "records_br_seed1.csv":
        "ed924f624623bc70bd45e5387ffded4aa3f4444b7f8ccb05147a95eb1244065c",
    "summary_br_seed1.json":
        "11e8bf1a1849862d510215a6fd44705d81aadb4114e21d5bd4ad664f9be4ff80",
    "records_bwg_seed1.csv":
        "96f14cf9bdf1af2fa106612be9eda48d9656952902ce7e3b4fd237f012b7034a",
    "summary_bwg_seed1.json":
        "1c1749d3274e2f894f70282a21fb5b7c22156ed041c9c036e98173b7254593ac",
    "records_ilp_hpq_seed1.csv":
        "84490afed629678a8364f554d119f5d76f5c9e4d78352bd479b5793eff579aa6",
    "summary_ilp_hpq_seed1.json":
        "8b18c2a35080975a8e594cb1ecdd3b1328b1856a91849fd110325ccc9e175768",
    "backhaul/records_skygs_seed1.csv":
        "058a2c54b671454482292071f6da18e5380351ff56420efd3128919ddc8c5f62",
    "backhaul/summary_skygs_seed1.json":
        "5e3583da956114f10e2a1b1150acf09edc0b10ebafccaec07be75d6262d2cff6",
    "backhaul/records_ilp_hpq_seed1.csv":
        "4b0378667e7be508b8e8e956d079aec3fd965a8846185f78e0d8ab98091c4a77",
    "backhaul/summary_ilp_hpq_seed1.json":
        "1006cbc85ad30bbf6db672164a0b0cad0b17154cf3dfe4e96a8cbbc1db2d8791",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    full = out / "full_scale_48.json"
    full.write_text(json.dumps(full_scale_scenario(1, horizon=48)), encoding="utf-8")
    backhaul = out / "desk_backhaul.json"
    backhaul.write_text(json.dumps(varied_backhaul_desk()), encoding="utf-8")
    runs = [["gen-contacts", "--scenario", str(DESK), "--out", str(out / "desk_plan.csv")],
            ["gen-contacts", "--scenario", str(full), "--out",
             str(out / "full_scale_48_plan.csv")]]
    runs += [["simulate", "--scenario", str(DESK), "--policy", policy, "--seed", "1",
              "--out", str(out)] for policy in POLICIES]
    runs += [["simulate", "--scenario", str(backhaul), "--policy", policy,
              "--out", str(out / "backhaul")] for policy in BACKHAUL_POLICIES]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return out


@pytest.mark.parametrize("name", list(PINNED))
def test_output_digest_is_pinned(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == PINNED[name]
