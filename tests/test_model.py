import copy

import pytest

from skygs.model import (DEFAULT_RHO, ScenarioError, parse_intensity, parse_price_per_min,
                         parse_rate, validate_scenario, with_overrides)
from skygs.scenarios import desk_scenario


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

    def test_lat_lon_bounds(self):
        raw = tiny_raw()
        raw["ground_stations"][0]["lat_deg"] = 95.0
        with pytest.raises(ScenarioError, match="lat_deg"):
            validate_scenario(raw)
