import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skygs
from skygs import engine
from skygs.cli import main
from skygs.scenarios import desk_scenario
from skygs.scheduler import AssignmentTriple

DESK = Path(__file__).resolve().parents[1] / "scenarios" / "desk.json"
WORLDS = sorted(DESK.parent.glob("*.json"))


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(desk_scenario(seed=1, horizon=60, v=5e4)))
    return str(path)


@pytest.fixture()
def seed7_file(tmp_path):
    """A desk scenario file whose sim.seed is 7, not the desk file's 1."""
    path = tmp_path / "seed7.json"
    path.write_text(json.dumps(desk_scenario(seed=7, horizon=60, v=5e4)))
    return str(path)


def cli_bytes(tmp_path, name, argv):
    """The bytes `skygs <argv> --out <name>` writes."""
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


class TestValidate:
    def test_ok(self, scenario_file, capsys):
        assert main(["validate", "--scenario", scenario_file]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("world", WORLDS, ids=[path.name for path in WORLDS])
    def test_every_committed_world_is_valid(self, world, capsys):
        assert main(["validate", "--scenario", str(world)]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_missing_xi_exits_one(self, tmp_path, capsys):
        raw = desk_scenario(seed=1, horizon=60)
        del raw["sim"]["xi"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "sim.xi" in capsys.readouterr().err

    def test_unknown_policy_lists_valid(self, tmp_path, capsys):
        raw = desk_scenario(seed=1, horizon=60)
        raw["sim"]["policy"] = "wat"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "skygs" in err and "bwg" in err

    def test_no_data_centers_exits_one(self, tmp_path, capsys):
        raw = desk_scenario(seed=1, horizon=60)
        raw["data_centers"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: data_centers: scheduling requires at least one data center\n")

    def test_an_entity_list_of_non_objects_exits_one(self, tmp_path, capsys):
        raw = desk_scenario(seed=1, horizon=60)
        raw["ground_stations"] = [None]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == "error: ground_stations: expected a list of objects\n"

    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys):
        # json reads 1 followed by 400 zeros as an int that float() overflows
        text = json.dumps(desk_scenario(seed=1, horizon=60))
        path = tmp_path / "bad.json"
        path.write_text(text.replace('"altitude_km": 475.0', '"altitude_km": 1' + "0" * 400, 1))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == ("error: satellite 'sat-00'.altitude_km: must be "
                                           "finite, got an int too large for a float\n")

    def test_infinite_rate_exits_one(self, tmp_path, capsys):
        # json writes and reads Infinity; simulate must not reach the contact table with it
        raw = desk_scenario(seed=1, horizon=60)
        raw["sim"]["r_max"] = float("inf")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert "Infinity" in path.read_text()
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: sim.r_max: must be finite, got inf\n"


class TestGenContacts:
    def test_zero_satellites_header_only(self, tmp_path):
        raw = desk_scenario(seed=1, horizon=10)
        raw["satellites"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "plan.csv"
        assert main(["gen-contacts", "--scenario", str(path), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min"]

    def test_regeneration_identical_bytes(self, scenario_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["gen-contacts", "--scenario", scenario_file, "--out", str(out1)])
        main(["gen-contacts", "--scenario", scenario_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_polar_sat_equatorial_station_has_contacts(self, tmp_path):
        raw = {
            "satellites": [{"id": "s", "altitude_km": 475.0, "inclination_deg": 97.4,
                            "raan_deg": 0.0, "phase_deg": 0.0,
                            "daily_volume_mb": [1000, 1000]}],
            "ground_stations": [{"id": "g", "provider": "p", "lat_deg": 0.0,
                                 "lon_deg": 0.0, "antennas": 1, "price": "18 $/min"}],
            "data_centers": [{"id": "d", "provider": "p", "price": "1 $/h",
                              "intensity": "0.1 h/GB"}],
            "sim": {"tau": 1.0, "horizon": 1440, "xi": 60.0, "v": 0.0, "seed": 1,
                    "policy": "skygs", "backhaul_rate": "1 Gbps"},
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "plan.csv"
        assert main(["gen-contacts", "--scenario", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 1


class TestSimulate:
    def test_writes_artifacts(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                     "--policy", "bg", "--seed", "2"]) == 0
        records = out / "records_bg_seed2.csv"
        summary = out / "summary_bg_seed2.json"
        assert records.exists() and summary.exists()
        data = json.loads(summary.read_text())
        assert data["policy"] == "bg" and data["seed"] == 2

    def test_v_and_xi_overrides(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                     "--v", "5000000", "--xi", "60"]) == 0
        assert (out / "summary_skygs_seed1.json").exists()

    @pytest.mark.parametrize("flag, value", [("--xi", "0"), ("--xi", "-5"), ("--v", "-1"),
                                             ("--v", "inf")])
    def test_invalid_override_exits_one(self, scenario_file, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                     flag, value]) == 1
        assert f"error: sim.{flag[2:]}: must be" in capsys.readouterr().err
        assert not out.exists()

    def test_contact_plan_flag(self, scenario_file, tmp_path):
        plan = tmp_path / "plan.csv"
        main(["gen-contacts", "--scenario", scenario_file, "--out", str(plan)])
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                     "--contacts", str(plan)]) == 0

    def test_plan_field_past_the_csv_limit_exits_one(self, scenario_file, tmp_path, capsys):
        # 140,000 spaces before the elevation: past the csv module's 131,072-character
        # field limit, so the row reader reads the plan and the csv module refuses it
        raw = json.loads(Path(scenario_file).read_text())
        sat, gs = raw["satellites"][0]["id"], raw["ground_stations"][0]["id"]
        plan = tmp_path / "plan.csv"
        plan.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        f"0,{sat},{gs},{' ' * 140_000}45.0,100.0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                     "--contacts", str(plan)]) == 1
        assert capsys.readouterr().err == (
            f"error: {plan}: line 2: field larger than field limit (131072)\n")
        assert not out.exists()

    def test_dump_weights(self, tmp_path):
        raw = desk_scenario(seed=1, horizon=3, v=5e4)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        dump = tmp_path / "weights"
        assert main(["simulate", "--scenario", str(path), "--out", str(out),
                     "--dump-weights", str(dump)]) == 0
        files = sorted(dump.glob("weights_slot*.csv"))
        assert len(files) == 3
        header = files[0].read_text().splitlines()[0]
        assert header.startswith("satellite,")

    def test_dump_weights_respects_v_override(self, tmp_path):
        # the replayed matrices must reflect the overridden V, not the file's
        raw = desk_scenario(seed=1, horizon=2, v=5e4)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        dumps = {}
        for v in ("50000", "5000000"):
            dump = tmp_path / f"weights_{v}"
            assert main(["simulate", "--scenario", str(path),
                         "--out", str(tmp_path / f"out_{v}"),
                         "--v", v, "--dump-weights", str(dump)]) == 0
            dumps[v] = (dump / "weights_slot00001.csv").read_text()
        assert dumps["50000"] != dumps["5000000"]

    def test_dumped_weights_reproduce_the_run(self, tmp_path):
        assert_dump_reproduces_run(tmp_path, "skygs")

    def test_dumped_ilp_hpq_weights_reproduce_the_run(self, tmp_path):
        assert_dump_reproduces_run(tmp_path, "ilp_hpq")

    def test_dump_weights_refuses_a_used_directory(self, tmp_path, capsys):
        # a 5-slot run into a 12-slot run's directory would leave slots 5-11 beside its own;
        # the brackets are part of the name, not a glob pattern
        dump = tmp_path / "weights[0]"
        argv = {}
        for horizon in (12, 5):
            path = tmp_path / f"s{horizon}.json"
            path.write_text(json.dumps(desk_scenario(seed=1, horizon=horizon, v=5e4)))
            argv[horizon] = ["simulate", "--scenario", str(path),
                             "--out", str(tmp_path / f"out{horizon}"), "--dump-weights", str(dump)]
        assert main(argv[12]) == 0
        before = {f.name: f.read_bytes() for f in dump.iterdir()}
        assert len(before) == 12
        assert main(argv[5]) == 1
        assert capsys.readouterr().err == (
            f"error: dump_weights: {dump} already holds weight matrices\n")
        assert not (tmp_path / "out5").exists()
        assert {f.name: f.read_bytes() for f in dump.iterdir()} == before

    def test_dump_weights_needs_a_matching_policy(self, scenario_file, tmp_path, capsys):
        out, dump = tmp_path / "out", tmp_path / "weights"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                     "--policy", "bg", "--dump-weights", str(dump)]) == 1
        assert "error: dump_weights: policy 'bg'" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()


def assert_dump_reproduces_run(tmp_path, policy):
    """At V = 1e7 the backlog outgrows xi * arrivals and Q becomes positive;
    each dumped matrix must still be the one the run matched on, so its
    min-cost matching gives the run's downlinks slot by slot."""
    import csv

    import numpy as np

    from skygs import hungarian

    raw = desk_scenario(seed=1, horizon=150, v=1e7)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    out, dump = tmp_path / "out", tmp_path / "weights"
    assert main(["simulate", "--scenario", str(path), "--out", str(out),
                 "--policy", policy, "--dump-weights", str(dump)]) == 0
    assert json.loads((out / f"summary_{policy}_seed1.json").read_text())["max_q"] > 0
    run_downlinks = {}
    with open(out / f"records_{policy}_seed1.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["satellite"]:
                run_downlinks.setdefault(int(row["slot"]), set()).add(
                    (row["satellite"], f"{row['ground_station']}#{row['antenna']}"))
    assert run_downlinks, "expected downlinks in 150 slots"
    for t in range(150):
        with open(dump / f"weights_slot{t:05d}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        columns = rows[0][1:]
        weights = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        cols = hungarian.min_cost_assignment(weights)
        matched = {(r[0], columns[c]) for r, c in zip(rows[1:], cols.tolist())
                   if not columns[c].startswith("virtual:")}
        assert matched == run_downlinks.get(t, set()), t


@pytest.mark.parametrize("argv, package", [
    # scipy costs about 50 MB of resident memory on import; the CLI must not pay it
    ([], "scipy"),
    # every draw goes through rng.uniform_at, so no run loads numpy's generators
    (["compare", "--scenario", str(DESK), "--policies", "skygs,sg,bg,br,bwg,ilp_hpq"],
     "numpy.random"),
], ids=["cli-import-no-scipy", "desk-compare-no-numpy-random"])
def test_child_process_leaves_package_unloaded(tmp_path, argv, package):
    code = "import sys, skygs.cli\n"
    if argv:
        code += f"assert skygs.cli.main({argv + ['--out', str(tmp_path / 'out.csv')]!r}) == 0\n"
    code += f"print(sorted(m for m in sys.modules if (m + '.').startswith({package!r} + '.')))"
    src = str(Path(skygs.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip().splitlines()[-1] == "[]"


class TestCompare:
    def test_grid_rows_and_determinism(self, scenario_file, tmp_path):
        out1 = tmp_path / "cmp1.csv"
        out2 = tmp_path / "cmp2.csv"
        args = ["compare", "--scenario", scenario_file,
                "--policies", "skygs,sg,bg,br,bwg,ilp_hpq", "--seeds", "1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        lines = out1.read_text().splitlines()
        assert lines[0] == ("policy,seed,status,total_cost,avg_latency_min_per_mb,"
                            "violation_rate,final_backlog_mb,mean_q,max_q")
        assert len(lines) == 7
        assert out1.read_bytes() == out2.read_bytes()

    def test_omitted_seeds_run_the_files_seed(self, seed7_file, tmp_path):
        argv = ["compare", "--scenario", seed7_file, "--policies", "bg,skygs"]
        omitted = cli_bytes(tmp_path, "omitted.csv", argv)
        assert omitted == cli_bytes(tmp_path, "seeds7.csv", argv + ["--seeds", "7"])
        assert omitted.decode().splitlines()[1].startswith("bg,7,ok,")

    def test_unknown_policy_rejected(self, scenario_file, tmp_path):
        assert main(["compare", "--scenario", scenario_file, "--policies", "zzz",
                     "--out", str(tmp_path / "c.csv")]) == 1

    def test_invalid_override_exits_one(self, scenario_file, tmp_path, capsys):
        # checked once up front, not reported as a grid of failed rows
        out = tmp_path / "c.csv"
        assert main(["compare", "--scenario", scenario_file, "--xi", "0",
                     "--out", str(out)]) == 1
        assert "error: sim.xi: must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_seed_list_exits_one(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["compare", "--scenario", scenario_file, "--seeds", "1,x",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --seeds: expected a comma-separated list of integers\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, noun", [("--seeds", "", "integers"),
                                                   ("--seeds", " , ", "integers"),
                                                   ("--policies", ",", "names")])
    def test_empty_list_exits_one(self, scenario_file, tmp_path, capsys, flag, value, noun):
        out = tmp_path / "c.csv"
        assert main(["compare", "--scenario", scenario_file, flag, value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag}: expected a comma-separated list of {noun}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, given", [("--seeds", "1,1", "1"),
                                                    ("--seeds", "3, 2,3", "3"),
                                                    ("--policies", "bg,BG", "bg"),
                                                    ("--policies", "skygs, Bg ,bg", "bg")])
    def test_repeated_list_value_exits_one(self, scenario_file, tmp_path, capsys, flag, value,
                                           given):
        # policy names are compared lower-cased, as the scenario file's sim.policy
        out = tmp_path / "c.csv"
        assert main(["compare", "--scenario", scenario_file, flag, value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag}: {given} given twice\n"
        assert not out.exists()

    def test_unknown_policy_reported_as_given(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["compare", "--scenario", scenario_file, "--policies", "bg,ZZZ,ZZZ",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: sim.policy: unknown policy 'ZZZ' ")
        assert not out.exists()

    def test_failed_run_marked_others_proceed(self, tmp_path, capsys):
        # provider p1 owns stations but no data centers, so the sg row cannot
        # be scheduled; bg must still produce a valid row
        raw = desk_scenario(seed=1, horizon=20)
        for dc in raw["data_centers"]:
            dc["provider"] = "provider-b"
        raw["sim"]["policy_params"] = {"provider": "provider-a"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--scenario", str(path), "--policies", "sg,bg",
                     "--seeds", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("sg,1,failed,")
        assert lines[2].startswith("bg,1,ok,")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: run sg/seed 1 failed: ")


class TestExitCodes:
    def test_unwritable_out_is_runtime_failure(self, scenario_file, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        assert main(["simulate", "--scenario", scenario_file,
                     "--out", str(blocker)]) == 2

    def test_infeasible_assignment_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # a policy that books antenna 0 for every contact of the slot: two
        # satellites in view of one station double-book it
        path, plan, out = tmp_path / "s.json", tmp_path / "plan.csv", tmp_path / "out"
        path.write_text(json.dumps(desk_scenario(seed=1, horizon=3)))
        plan.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "0,sat-00,gs-n0,45.0,500\n0,sat-01,gs-n0,45.0,500\n")

        class DoubleBooking:
            name = "double"

            def schedule(self, states, q, slot, table):
                return tuple(AssignmentTriple(k, 0, 0) for k in table.slot_rows(slot))

        monkeypatch.setattr(engine, "make_policy", lambda scenario, arrays: DoubleBooking())
        assert main(["simulate", "--scenario", str(path), "--out", str(out),
                     "--contacts", str(plan)]) == 2
        assert capsys.readouterr().err == (
            "error: slot 0: policy 'double' infeasible: constraint(antenna-count): "
            "antenna 0 of station 'gs-n0' double-booked\n")
        assert not out.exists()


class TestSweepV:
    def test_rows_and_zero_v(self, scenario_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-v", "--scenario", scenario_file,
                     "--v-list", "0,1000,100000", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "v,total_cost,avg_latency_min_per_mb,violation_rate,mean_q"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,")

    def test_omitted_seed_runs_the_files_seed(self, seed7_file, tmp_path):
        argv = ["sweep-v", "--scenario", seed7_file, "--v-list", "0,1e5"]
        omitted = cli_bytes(tmp_path, "omitted.csv", argv)
        assert omitted == cli_bytes(tmp_path, "seed7.csv", argv + ["--seed", "7"])
        # the two seeds' sample paths differ, so the equality above is not vacuous
        assert omitted != cli_bytes(tmp_path, "seed1.csv", argv + ["--seed", "1"])

    def test_negative_v_exits_one(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-v", "--scenario", scenario_file,
                     "--v-list=-1e5", "--out", str(out)]) == 1
        assert "error: sim.v: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_v_list_exits_one(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-v", "--scenario", scenario_file, "--v-list", "1,x",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --v-list: expected a comma-separated list of numbers\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, given", [("0,0", "0.0"), ("1e5,2e5,100000", "100000.0")])
    def test_repeated_v_exits_one(self, scenario_file, tmp_path, capsys, value, given):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-v", "--scenario", scenario_file, "--v-list", value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --v-list: {given} given twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_v_list_exits_one(self, scenario_file, tmp_path, capsys, value):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-v", "--scenario", scenario_file, "--v-list", value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --v-list: expected a comma-separated list of numbers\n")
        assert not out.exists()
