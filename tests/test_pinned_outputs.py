"""Output digests pinned across commits.

Criterion 9 only checks that two processes agree with each other. These
SHA-256 digests check that a commit writes byte for byte what the commit
before it wrote: the desk seed-1 contact plan, a 48-slot full-scale plan at
seed 1 with the skygs, bg and ilp_hpq records and summaries of that world,
whose slots give the matching kernel many rows in many components (ilp_hpq
once more at rho = 0.25, since at the default rho no backlog in 48 slots ages
to rho * xi and that run downlinks nothing), the records and summary of a
96-slot full-scale skygs run at V = 1e8, the one pinned full-scale run in
which Q turns positive (in 37 slots, each row's q_after pins it), the desk
seed-1 records and summary of every policy, and those of skygs and ilp_hpq
in a desk world whose backhaul rate varies by station and data center, so
that the broker's data-center choice turns on the backhaul latency. The desk file's `compare --seeds 1,2` and
`sweep-v --v-list 0,1e4,1e7 --xi 50` CSVs, the skygs weight dumps of a
48-slot desk run at V = 1e7 (over the sorted file names and bytes), and the
records of a 3-slot desk world with no satellites pin every CSV writer,
down to an empty run's `0.0` backlog. Two more pin
the canonical JSON text of a validated scenario (the desk file and the
full-scale world at seed 1), and one the column order of `compare`'s CSV.
A refactor must leave them as they are. A change that moves them on purpose updates the
constants and says why in CHANGES.md; ROADMAP items 4 (independent random
streams) and 5 (latency units) are expected to.
"""

import hashlib
import json
from pathlib import Path

import pytest

from skygs import cli
from skygs.model import POLICIES, validate_scenario
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


def digest(path: Path) -> str:
    """SHA-256 of a file's bytes, or of a directory's file names and bytes in
    name order."""
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(path.iterdir()):
            h.update(f.name.encode("utf-8"))
            h.update(f.read_bytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


PINNED = {
    "desk_plan.csv":
        "f072aeb3ba9877ed4e348b3025107c71103cf7ef1b6e20b81ce967d5efbeb62e",
    "full_scale_48_plan.csv":
        "7529a7b29fbb4ceca68e22f86a96be5b3b01b43a4295c99ba8872afd2cb1d4cb",
    "full_scale_48/records_skygs_seed1.csv":
        "b7e5cb8289a0109bad2e63b76accf721e98afb45f1136abe46176721eb7329ee",
    "full_scale_48/summary_skygs_seed1.json":
        "7f86fc176248fade97e12597ba2b0f6d0be571e669859f3ebe8a7878b097dc30",
    "full_scale_48/records_bg_seed1.csv":
        "da3a673fc46e24fd995af607d053d95cea79757f3467471aeb9f554f33732fa8",
    "full_scale_48/summary_bg_seed1.json":
        "202d7795cd936bd843a2cfc0727a0fddbd4e0cd12140772b33773b5c1f49e889",
    "full_scale_48/records_ilp_hpq_seed1.csv":
        "f6e5b6d8a01eeca610c460307285abe06022b71799c0c1ccf1f0ebe0f60a9d54",
    "full_scale_48/summary_ilp_hpq_seed1.json":
        "554456ca0dc73359153aa8ac51ccaedc7e9a5bec1d0a068330dabb7f0e6b27b8",
    "full_scale_48_rho/records_ilp_hpq_seed1.csv":
        "dd0748e913fea54e2384b3cd42e74717dd333304869dbb66eb60d10739633e14",
    "full_scale_48_rho/summary_ilp_hpq_seed1.json":
        "f854a90552b4bfc48304324baff0e495672d38eebce39746ddf49047557e0910",
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
        "ac45760bee33b29428efe17628245a959b771f644a4d717e79390375f6ced471",
    "summary_br_seed1.json":
        "731862f38ac89be40658cd3e74ee90943ab5e5a412c64a9a67b52bd5190cacd2",
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
    "compare_seeds_1_2.csv":
        "d13b4b21675407fd8270054cf0f74ff21ac582153f32a537d2b428853c04c6e5",
    "sweep_v.csv":
        "68ec7e899f287eaa5050062d8f93d56dd53d28928776ac7b01b3b042c71641b5",
    # a cell with no edge (no contact, another satellite's virtual antenna)
    # prints inf, where it printed the slot's finite bound before the kernel
    # read +inf as "no edge"; every other cell is unchanged
    "weights_48":
        "5d615967b12082be128017cd2bc2c929b0320a066c5c1828fb1fdc089daa0e3a",
    "no_satellites/records_skygs_seed1.csv":
        "d436f413aa9443769ae079e45c9bba747d878af8980ef79ab3e26ec3e91afbf9",
    "pressured/records_skygs_seed1.csv":
        "6ca6adb28b61af04918f2f7a0c616a56778649ed723bae64ae69f9eea580de5c",
    "pressured/summary_skygs_seed1.json":
        "7ccab21fe851d49bf85ae22ce8243c2d8268651fe01bc5b0d4dc6e76af1e35f7",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    full = out / "full_scale_48.json"
    full.write_text(json.dumps(full_scale_scenario(1, horizon=48)), encoding="utf-8")
    full_rho = out / "full_scale_48_rho.json"
    raw = full_scale_scenario(1, horizon=48)
    raw["sim"]["policy_params"] = {"rho": 0.25}
    full_rho.write_text(json.dumps(raw), encoding="utf-8")
    pressured = out / "full_scale_96_pressured.json"
    pressured.write_text(json.dumps(full_scale_scenario(1, horizon=96, v=1e8)), encoding="utf-8")
    backhaul = out / "desk_backhaul.json"
    backhaul.write_text(json.dumps(varied_backhaul_desk()), encoding="utf-8")
    desk_48 = out / "desk_48.json"
    desk_48.write_text(json.dumps(desk_scenario(1, v=1e7, horizon=48)), encoding="utf-8")
    no_sats = out / "no_satellites.json"
    no_sats.write_text(json.dumps({**desk_scenario(1, horizon=3), "satellites": []}),
                       encoding="utf-8")
    runs = [["gen-contacts", "--scenario", str(DESK), "--out", str(out / "desk_plan.csv")],
            ["gen-contacts", "--scenario", str(full), "--out",
             str(out / "full_scale_48_plan.csv")],
            ["simulate", "--scenario", str(full_rho), "--policy", "ilp_hpq", "--seed", "1",
             "--out", str(out / "full_scale_48_rho")]]
    runs += [["simulate", "--scenario", str(full), "--policy", policy, "--seed", "1",
              "--out", str(out / "full_scale_48")] for policy in ("skygs", "bg", "ilp_hpq")]
    runs += [["simulate", "--scenario", str(pressured), "--out", str(out / "pressured")]]
    runs += [["simulate", "--scenario", str(DESK), "--policy", policy, "--seed", "1",
              "--out", str(out)] for policy in POLICIES]
    runs += [["simulate", "--scenario", str(backhaul), "--policy", policy,
              "--out", str(out / "backhaul")] for policy in BACKHAUL_POLICIES]
    runs += [["compare", "--scenario", str(DESK), "--seeds", "1,2",
              "--out", str(out / "compare_seeds_1_2.csv")],
             ["sweep-v", "--scenario", str(DESK), "--v-list", "0,1e4,1e7", "--xi", "50",
              "--out", str(out / "sweep_v.csv")],
             ["simulate", "--scenario", str(desk_48), "--policy", "skygs",
              "--out", str(out / "desk_48"), "--dump-weights", str(out / "weights_48")],
             ["simulate", "--scenario", str(no_sats), "--out", str(out / "no_satellites")]]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return out


@pytest.mark.parametrize("name", list(PINNED))
def test_output_digest_is_pinned(outputs, name):
    assert digest(outputs / name) == PINNED[name]


SCENARIO_JSON_PINNED = {
    "desk.json": "9449da3af028563d66466a8f3ffed3be564cb5f707df2b2f80f2757655034875",
    "full_scale_scenario(1)":
        "e1e4c1108e577934e1e7fdce293dc7c5c7cff03c22b873513c398f72af596101",
}


@pytest.mark.parametrize("name", list(SCENARIO_JSON_PINNED))
def test_scenario_json_digest_is_pinned(name):
    raw = (json.loads(DESK.read_text(encoding="utf-8")) if name == "desk.json"
           else full_scale_scenario(1))
    text = json.dumps(validate_scenario(raw).to_json_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SCENARIO_JSON_PINNED[name]


def test_compare_csv_header_is_pinned(tmp_path):
    out = tmp_path / "compare.csv"
    assert cli.main(["compare", "--scenario", str(DESK), "--policies", "bg",
                     "--seeds", "1", "--out", str(out)]) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == ("policy,seed,status,total_cost,avg_latency_min_per_mb,"
                      "violation_rate,final_backlog_mb,mean_q,max_q")
