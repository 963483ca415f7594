"""Output digests pinned across commits.

Criterion 9 only checks that two processes agree with each other. These
SHA-256 digests check that a commit writes byte for byte what the commit
before it wrote: the desk seed-1 contact plan, a 48-slot full-scale plan at
seed 1, and the desk seed-1 records and summary of skygs and bg. A refactor
must leave them as they are. A change that moves them on purpose updates the
constants and says why in CHANGES.md; ROADMAP items 3 (independent random
streams) and 4 (latency units) are expected to.
"""

import hashlib
import json
from pathlib import Path

import pytest

from skygs import cli
from skygs.scenarios import full_scale_scenario

DESK = Path(__file__).resolve().parents[1] / "scenarios" / "desk.json"

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
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    full = out / "full_scale_48.json"
    full.write_text(json.dumps(full_scale_scenario(1, horizon=48)), encoding="utf-8")
    runs = [["gen-contacts", "--scenario", str(DESK), "--out", str(out / "desk_plan.csv")],
            ["gen-contacts", "--scenario", str(full), "--out",
             str(out / "full_scale_48_plan.csv")]]
    runs += [["simulate", "--scenario", str(DESK), "--policy", policy, "--seed", "1",
              "--out", str(out)] for policy in ("skygs", "bg")]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return out


@pytest.mark.parametrize("name", list(PINNED))
def test_output_digest_is_pinned(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == PINNED[name]
