import copy
import json
import math
import re
from pathlib import Path

import pytest

from skygs.model import (DEFAULT_RHO, ScenarioError, load_scenario, parse_intensity,
                         parse_price_per_min, parse_rate, validate_scenario, with_overrides)
from skygs.scenarios import desk_scenario, full_scale_scenario

DESK = Path(__file__).resolve().parents[1] / "scenarios" / "desk.json"
FULL_SCALE = DESK.with_name("full_scale.json")
MISSING = object()  # a field to delete rather than set


def tiny_raw(**sim_overrides):
    raw = {
        "satellites": [
            {"id": "sat-a", "altitude_km": 475.0, "inclination_deg": 97.4,
             "raan_deg": 0.0, "phase_deg": 0.0, "daily_volume_mb": [1000, 2000]},
        ],
        "ground_stations": [
            {"id": "gs-a", "provider": "p1", "lat_deg": 80.0, "lon_deg": 0.0,
             "antennas": 2, "price": "22 $/min"},
        ],
        "data_centers": [
            {"id": "dc-a", "provider": "p1", "price": "1 $/h", "intensity": "0.1 h/GB"},
        ],
        "sim": {"tau": 1.0, "horizon": 10, "xi": 60.0, "v": 100.0, "seed": 7,
                "policy": "skygs", "backhaul_rate": "1 Gbps"},
    }
    raw["sim"].update(sim_overrides)
    return raw


class TestUnitParsing:
    def test_gbps_to_mb_per_min(self):
        # 1.6e9 bits/s / 8 / 1e6 bytes-per-MB * 60 s/min = 12,000
        assert parse_rate("1.6 Gbps") == pytest.approx(12_000.0)

    def test_one_gbps(self):
        assert parse_rate("1 Gbps") == pytest.approx(7_500.0)

    def test_bare_number_is_mb_per_min(self):
        assert parse_rate(500) == 500.0

    def test_price_per_hour(self):
        assert parse_price_per_min("0.5 $/h") == pytest.approx(0.5 / 60)

    def test_price_per_min(self):
        assert parse_price_per_min("22 $/min") == 22.0

    def test_intensity_h_per_gb(self):
        # 0.1 h/GB = 6 min / 1000 MB
        assert parse_intensity("0.1 h/GB") == pytest.approx(0.006)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ScenarioError, match="unit"):
            parse_rate("3 furlongs")


class TestValidation:
    def test_valid_scenario_roundtrip(self):
        sc = validate_scenario(tiny_raw())
        assert sc.ground_stations[0].price_per_slot == 22.0
        assert sc.data_centers[0].intensity_min_per_mb == pytest.approx(0.006)

    def test_price_per_min_times_tau(self):
        sc = validate_scenario(tiny_raw(tau=2.0))
        assert sc.ground_stations[0].price_per_slot == 44.0

    def test_zero_antennas_names_station(self):
        raw = tiny_raw()
        raw["ground_stations"][0]["antennas"] = 0
        with pytest.raises(ScenarioError, match="gs-a"):
            validate_scenario(raw)

    def test_missing_xi(self):
        raw = tiny_raw()
        del raw["sim"]["xi"]
        with pytest.raises(ScenarioError, match="sim.xi"):
            validate_scenario(raw)

    def test_nonpositive_tau(self):
        with pytest.raises(ScenarioError, match="tau"):
            validate_scenario(tiny_raw(tau=0))

    def test_nonpositive_xi(self):
        with pytest.raises(ScenarioError, match="xi"):
            validate_scenario(tiny_raw(xi=-1))

    def test_unknown_policy_lists_valid(self):
        with pytest.raises(ScenarioError, match="skygs"):
            validate_scenario(tiny_raw(policy="nonsense"))

    def test_incomplete_backhaul(self):
        # an explicit partial backhaul map with no global default is an error
        raw = tiny_raw()
        del raw["sim"]["backhaul_rate"]
        raw["data_centers"].append(
            {"id": "dc-b", "provider": "p1", "price": "1 $/h", "intensity": "0.1 h/GB"})
        raw["ground_stations"][0]["backhaul"] = {"dc-a": 7500}
        with pytest.raises(ScenarioError, match="incomplete backhaul"):
            validate_scenario(raw)

    def test_no_backhaul_info_uses_builtin_default(self):
        raw = tiny_raw()
        del raw["sim"]["backhaul_rate"]
        sc = validate_scenario(raw)
        assert sc.ground_stations[0].backhaul_mb_per_min["dc-a"] == 7500.0

    def test_backhaul_override_per_pair(self):
        raw = tiny_raw()
        raw["ground_stations"][0]["backhaul"] = {"dc-a": "2 Gbps"}
        sc = validate_scenario(raw)
        assert sc.ground_stations[0].backhaul_mb_per_min["dc-a"] == pytest.approx(15_000.0)

    def test_backhaul_unknown_dc_rejected(self):
        raw = tiny_raw()
        raw["ground_stations"][0]["backhaul"] = {"nope": 100}
        with pytest.raises(ScenarioError, match="unknown data center"):
            validate_scenario(raw)

    @pytest.mark.parametrize("rate", [0, -7500, "0 Gbps"])
    def test_nonpositive_backhaul_rejected(self, rate):
        raw = tiny_raw()
        raw["ground_stations"][0]["backhaul"] = {"dc-a": rate}
        with pytest.raises(ScenarioError, match="backhaul rate to 'dc-a' must be > 0"):
            validate_scenario(raw)

    def test_nonpositive_default_backhaul_rejected(self):
        with pytest.raises(ScenarioError, match="backhaul rate to 'dc-a' must be > 0"):
            validate_scenario(tiny_raw(backhaul_rate="-1 Gbps"))

    @pytest.mark.parametrize("key, value", [("intensity_min_per_mb", 0.0),
                                            ("intensity_min_per_mb", -0.006),
                                            ("intensity", "0 h/GB")])
    def test_nonpositive_intensity_rejected(self, key, value):
        raw = tiny_raw()
        del raw["data_centers"][0]["intensity"]
        raw["data_centers"][0][key] = value
        with pytest.raises(ScenarioError, match="'dc-a': intensity must be > 0"):
            validate_scenario(raw)

    def test_every_pair_has_exactly_one_rate(self):
        sc = validate_scenario(desk_scenario())
        dc_ids = {d.id for d in sc.data_centers}
        for g in sc.ground_stations:
            assert set(g.backhaul_mb_per_min) == dc_ids

    def test_validation_idempotent(self):
        sc1 = validate_scenario(desk_scenario(seed=3))
        sc2 = validate_scenario(sc1.to_json_dict())
        assert sc1 == sc2
        assert sc1.to_json_dict() == sc2.to_json_dict()

    def test_duty_cycle_out_of_range(self):
        raw = tiny_raw()
        raw["satellites"][0]["duty_cycle"] = 1.5
        with pytest.raises(ScenarioError, match="duty_cycle"):
            validate_scenario(raw)

    def test_noise_range_bounds(self):
        with pytest.raises(ScenarioError, match="noise"):
            validate_scenario(tiny_raw(noise=[0.5, 2.5]))

    def test_duplicate_ids_rejected(self):
        raw = tiny_raw()
        raw["satellites"].append(copy.deepcopy(raw["satellites"][0]))
        with pytest.raises(ScenarioError, match="duplicate"):
            validate_scenario(raw)

    def test_sg_provider_must_exist(self):
        raw = tiny_raw(policy="sg", policy_params={"provider": "ghost"})
        with pytest.raises(ScenarioError, match="ghost"):
            validate_scenario(raw)

    def test_sg_provider_must_own_a_data_center(self):
        raw = tiny_raw(policy="sg", policy_params={"provider": "p1"})
        raw["data_centers"][0]["provider"] = "p2"
        with pytest.raises(ScenarioError, match="'p1' owns no data centers"):
            validate_scenario(raw)

    def test_unknown_policy_param_rejected(self):
        with pytest.raises(ScenarioError, match="sim.policy_params: unknown key 'metric'"):
            validate_scenario(tiny_raw(policy="bg", policy_params={"metric": "cost"}))

    def test_policy_override_fills_its_parameter(self):
        sc = validate_scenario(tiny_raw())
        assert sc.policy_params == {}
        assert with_overrides(sc, policy="sg").policy_params == {"provider": "p1"}
        assert with_overrides(sc, policy="ilp_hpq").policy_params == {"rho": DEFAULT_RHO}

    @pytest.mark.parametrize("section, field, value", [
        ("sim", "r_max", math.inf), ("sim", "r_max", "inf Gbps"), ("sim", "v", math.inf),
        ("sim", "xi", math.inf), ("sim", "tau", math.inf), ("sim", "noise", [0.9, math.nan]),
        ("sim", "backhaul_rate", "nan Gbps"), ("satellites", "altitude_km", math.inf),
        ("satellites", "inclination_deg", math.nan), ("satellites", "daily_volume_mb", math.inf),
        ("satellites", "daily_volume_mb", [1, math.inf]),
        ("ground_stations", "price_per_slot", math.inf), ("ground_stations", "lon_deg", -math.inf),
        ("data_centers", "price", "inf $/h"), ("data_centers", "intensity_min_per_mb", math.inf),
        pytest.param("satellites", "altitude_km", 10 ** 400, id="satellites-altitude_km-10**400")])
    def test_non_finite_number_names_its_field(self, section, field, value):
        # json.load reads Infinity, NaN and 1e999 as floats, and 1 followed by 400
        # zeros as an int too large for a float
        raw = tiny_raw()
        entry = raw[section] if section == "sim" else raw[section][0]
        # a canonical key replaces its unit key: a record spells each field once
        entry.pop({"price_per_slot": "price", "intensity_min_per_mb": "intensity"}.get(field), None)
        entry[field] = value
        with pytest.raises(ScenarioError, match=re.escape(field) + r"(\[\d\])?: must be finite"):
            validate_scenario(raw)

    @pytest.mark.parametrize("section, both, message", [
        ("ground_stations", {"price_per_slot": 1.0},
         "ground_station 'gs-a': give price_per_slot or price, not both"),
        ("ground_stations", {"backhaul": {"dc-a": "1 Gbps"}, "backhaul_mb_per_min": {"dc-a": 9.0}},
         "ground_station 'gs-a': give backhaul_mb_per_min or backhaul, not both"),
        ("data_centers", {"price_per_min": 1.0},
         "data_center 'dc-a': give price_per_min or price, not both"),
        ("data_centers", {"intensity_min_per_mb": 9.0},
         "data_center 'dc-a': give intensity_min_per_mb or intensity, not both")],
        ids=["station-price", "station-backhaul", "dc-price", "dc-intensity"])
    def test_a_field_spelled_both_ways_is_refused(self, section, both, message):
        # tiny_raw gives each price and intensity with units; `both` adds the other spelling
        raw = tiny_raw()
        raw[section][0].update(both)
        with pytest.raises(ScenarioError) as exc:
            validate_scenario(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("section, field, value, message", [
        ("ground_stations", "price", True,
         "ground_station 'gs-a'.price: price must be a number or unit string"),
        ("ground_stations", "price", "x $/min",
         "ground_station 'gs-a'.price: cannot parse price 'x $/min'"),
        ("ground_stations", "price", "cheap",
         "ground_station 'gs-a'.price: cannot parse price 'cheap'"),
        ("satellites", "altitude_km", "high",
         "satellite 'sat-a'.altitude_km: expected a number, got 'high'"),
        ("satellites", "daily_volume_mb", [1],
         "satellite 'sat-a'.daily_volume_mb: daily_volume_mb must be a number or [lo, hi]"),
        ("ground_stations", "antennas", 2.5, "ground_station 'gs-a': antennas must be an integer"),
        ("ground_stations", "backhaul", "1 Gbps",
         "ground_station 'gs-a': backhaul must map data-center id -> rate"),
        ("sim", "horizon", 10.5, "sim.horizon: must be an integer"),
        ("sim", "seed", "7", "sim.seed: must be an integer"),
        ("sim", "noise", 1.0, "sim.noise: must be [lo, hi]"),
        ("sim", "contact_plan_path", 3, "sim.contact_plan_path: must be a string path or null"),
        pytest.param("sim", "tau", MISSING, "sim.tau: missing", id="sim-tau-missing")])
    def test_malformed_value_names_its_field(self, section, field, value, message):
        raw = tiny_raw()
        entry = raw[section] if section == "sim" else raw[section][0]
        if value is MISSING:
            del entry[field]
        else:
            entry[field] = value
        with pytest.raises(ScenarioError) as exc:
            validate_scenario(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw, message", [
        ([], "scenario: expected a JSON object"),
        ({"satellites": []}, "scenario: missing 'sim' section")], ids=["list", "no-sim"])
    def test_malformed_document_rejected(self, raw, message):
        with pytest.raises(ScenarioError) as exc:
            validate_scenario(raw)
        assert str(exc.value) == message

    def test_file_that_is_not_json_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("not json")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert str(exc.value) == (
            f"{path}: not valid JSON (Expecting value: line 1 column 1 (char 0))")

    def test_lat_lon_bounds(self):
        raw = tiny_raw()
        raw["ground_stations"][0]["lat_deg"] = 95.0
        with pytest.raises(ScenarioError, match="lat_deg"):
            validate_scenario(raw)


def test_desk_file_is_the_desk_builder():
    # the CLI, the README and the benchmark run the file; tier-1 runs the builder
    assert json.loads(DESK.read_text()) == desk_scenario()


def test_full_scale_file_is_the_full_scale_builder():
    # the helper's world is the file's, with only its four sim values set, in place
    raw = json.loads(FULL_SCALE.read_text())
    raw["sim"].update(seed=7, horizon=240, policy="bg", v=1e8)
    assert json.dumps(full_scale_scenario(7, horizon=240, policy="bg", v=1e8)) == json.dumps(raw)
    raw["sim"].update(seed=1, horizon=1, policy="skygs", v=5e6)
    assert json.dumps(full_scale_scenario()) == json.dumps(raw)


@pytest.mark.parametrize("helper", [desk_scenario, full_scale_scenario])
def test_each_call_returns_a_fresh_world(helper):
    first, expected = helper(), json.dumps(helper())
    first["satellites"].clear()
    first["ground_stations"][0]["antennas"] = 99
    first["sim"]["noise"][0] = 0.0
    assert json.dumps(helper()) == expected


MALFORMED_LISTS = [("satellites", None), ("satellites", [1]), ("satellites", "abc"),
                   ("data_centers", {"a": 1}), ("ground_stations", [None]),
                   ("ground_stations", [["x"]])]


@pytest.mark.parametrize("key, value", MALFORMED_LISTS,
                         ids=[f"{key}={json.dumps(value)}" for key, value in MALFORMED_LISTS])
def test_an_entity_list_that_is_not_a_list_of_objects_is_refused(key, value):
    raw = {**json.loads(DESK.read_text()), key: value}
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(raw)
    assert str(exc.value) == f"{key}: expected a list of objects"
