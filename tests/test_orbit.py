import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygs import rng
from skygs.model import Satellite, validate_scenario
from skygs.orbit import (EARTH_ROT_DEG_PER_MIN, Contact, ContactPlanError, ContactTable,
                         build_contact_table, elevation_deg, orbital_period_minutes,
                         read_contact_plan, subsatellite_point, write_contact_plan)

EARTH_RADIUS = 6371.0


def make_sat(**kw):
    base = dict(id="s", altitude_km=475.0, inclination_deg=0.0, raan_deg=0.0,
                phase_deg=0.0, daily_volume_mb=(1000.0, 1000.0), duty_cycle=1.0)
    base.update(kw)
    return Satellite(**base)


class TestPropagation:
    def test_period_475km(self):
        # independent oracle: 2*pi*sqrt(a^3/mu) with a = (6371+475) km
        a_m = (EARTH_RADIUS + 475.0) * 1e3
        expected = 2 * math.pi * math.sqrt(a_m ** 3 / 3.986004418e14) / 60.0
        assert expected == pytest.approx(93.95, abs=0.01)  # ~94 minutes
        assert orbital_period_minutes(475.0) == pytest.approx(expected, rel=1e-12)

    def test_equatorial_epoch_near_origin(self):
        # slot 0 samples the slot midpoint, half a slot of motion past epoch:
        # latitude is exactly 0 for zero inclination, longitude within ~2 deg
        lat, lon = subsatellite_point(make_sat(), (0 + 0.5) * 1.0)
        assert lat == pytest.approx(0.0, abs=1e-12)
        assert abs(lon) < 2.5

    def test_phase_time_symmetry_non_rotating(self):
        # 180 deg of phase equals half a period of elapsed time, once the
        # Earth's rotation over each time is added back to the longitude
        period = orbital_period_minutes(475.0)
        sat_a = make_sat(phase_deg=180.0, inclination_deg=97.4)
        sat_b = make_sat(phase_deg=0.0, inclination_deg=97.4)
        # slot midpoints (slot + 0.5) * tau with tau = period / 2
        ta, tb = (0 + 0.5) * period / 2, (1 + 0.5) * period / 2
        pa = subsatellite_point(sat_a, ta)
        pb = subsatellite_point(sat_b, tb)
        assert pa[0] == pytest.approx(pb[0], abs=1e-9)
        gap = (pa[1] + EARTH_ROT_DEG_PER_MIN * ta) - (pb[1] + EARTH_ROT_DEG_PER_MIN * tb)
        assert (gap + 180.0) % 360.0 - 180.0 == pytest.approx(0.0, abs=1e-9)

    def test_max_latitude_is_inclination_complement(self):
        sat = make_sat(inclination_deg=97.4)
        t = np.linspace(0, orbital_period_minutes(475.0), 2000)
        lat, _ = subsatellite_point(sat, t)
        assert lat.max() == pytest.approx(180 - 97.4, abs=0.01)


class TestElevation:
    def test_zenith(self):
        assert elevation_deg(10.0, 20.0, 475.0, 10.0, 20.0) == pytest.approx(90.0)

    def test_beyond_horizon_negative(self):
        # horizon central angle for 475 km: arccos(R/(R+h)) ~ 21.47 deg
        limit = math.degrees(math.acos(EARTH_RADIUS / (EARTH_RADIUS + 475.0)))
        assert limit == pytest.approx(21.47, abs=0.01)
        el_inside = elevation_deg(0.0, limit - 1.0, 475.0, 0.0, 0.0)
        el_outside = elevation_deg(0.0, limit + 1.0, 475.0, 0.0, 0.0)
        assert el_inside > 0 > el_outside

    def test_antipode(self):
        assert elevation_deg(0.0, 0.0, 475.0, 0.0, -180.0) == pytest.approx(-90.0, abs=1e-6)

    def test_station_column_broadcasts_one_row_per_station(self):
        sub_lat, sub_lon = np.array([0.0, 5.0, 10.0]), np.array([0.0, 1.0, 2.0])
        lat, lon = np.array([[0.0], [20.0]]), np.array([[0.0], [-3.0]])
        el = elevation_deg(sub_lat, sub_lon, 475.0, lat, lon)
        assert el.shape == (2, 3)
        for g in range(2):
            for t in range(3):
                assert el[g, t] == elevation_deg(sub_lat[t], sub_lon[t], 475.0,
                                                 lat[g, 0], lon[g, 0])


def reference_noise(sc, si, gi):
    """The (satellite, station) pair's noise at every slot, from numpy's own
    generator over the pair's stream: si and gi are scenario-file positions."""
    lo, hi = sc.noise
    return lo + (hi - lo) * rng.stream(sc.seed, rng.TAG_RATE_NOISE, si, gi).random(sc.horizon)


def rate_noise(seed, si, gi, n_slots, noise):
    """The propagator's noise draws for one pair's first n_slots slots."""
    return rng.uniform_at(seed, rng.TAG_RATE_NOISE, (si, gi), np.arange(n_slots), *noise)


class TestGslRate:
    def test_zenith_full_rate(self):
        # a station under slot 0's sub-satellite point sees the satellite at zenith
        lat, lon = subsatellite_point(make_sat(inclination_deg=97.4), (0 + 0.5) * 1.0)
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw(lat=lat, lon=lon)],
                                            horizon=1))
        noise = reference_noise(sc, 0, 0)
        [contact] = build_contact_table(sc).all_contacts()
        assert contact.elevation_deg == pytest.approx(90.0)
        assert contact.rate_mb_per_min == pytest.approx(12_000.0 * noise[0], rel=1e-12)

    def test_sin_scaling(self):
        # every propagated rate is r_max * sin(elevation) * the pair's noise draw
        sc = validate_scenario(scenario_raw([sat_raw(), sat_raw("sat-b", phase=90.0)],
                                            [gs_raw(lat=83.0), gs_raw("gs-b", lat=-83.0)]))
        noise = {(si, gi): reference_noise(sc, si, gi) for si in range(2) for gi in range(2)}
        contacts = build_contact_table(sc).all_contacts()
        assert len(contacts) > 10
        for c in contacts:
            si = ["sat-a", "sat-b"].index(c.satellite_id)
            gi = ["gs-a", "gs-b"].index(c.ground_station_id)
            expected = (sc.r_max * math.sin(math.radians(c.elevation_deg))
                        * noise[si, gi][c.slot])
            assert c.rate_mb_per_min == pytest.approx(expected, rel=1e-12)

    def test_noise_deterministic(self):
        a = rate_noise(42, 1, 2, 100, (0.9, 1.1))
        b = rate_noise(42, 1, 2, 100, (0.9, 1.1))
        assert np.array_equal(a, b)
        assert ((a >= 0.9) & (a < 1.1)).all()

    def test_noise_streams_distinct(self):
        a = rate_noise(42, 1, 2, 100, (0.9, 1.1))
        b = rate_noise(42, 1, 3, 100, (0.9, 1.1))
        assert not np.array_equal(a, b)


def scenario_raw(satellites, stations, horizon=1440, mask=10.0, seed=1):
    return {
        "satellites": satellites,
        "ground_stations": stations,
        "data_centers": [
            {"id": "dc-a", "provider": "p", "price": "1 $/h", "intensity": "0.1 h/GB"}],
        "sim": {"tau": 1.0, "horizon": horizon, "xi": 60.0, "v": 0.0, "seed": seed,
                "policy": "skygs", "elevation_mask_deg": mask, "r_max": 12_000.0,
                "backhaul_rate": "1 Gbps"},
    }


def sat_raw(sid="sat-a", incl=97.4, raan=0.0, phase=0.0):
    return {"id": sid, "altitude_km": 475.0, "inclination_deg": incl,
            "raan_deg": raan, "phase_deg": phase, "daily_volume_mb": [1000, 1000]}


def gs_raw(gid="gs-a", lat=80.0, lon=0.0, antennas=2):
    return {"id": gid, "provider": "p", "lat_deg": lat, "lon_deg": lon,
            "antennas": antennas, "price": "22 $/min"}


class TestContactTable:
    def test_equatorial_orbit_never_seen_at_high_latitude(self):
        sc = validate_scenario(scenario_raw([sat_raw(incl=0.0)], [gs_raw(lat=80.0)]))
        table = build_contact_table(sc)
        assert table.all_contacts() == []

    def test_polar_orbit_seen_at_equator_station(self):
        sc = validate_scenario(scenario_raw([sat_raw(incl=97.4)], [gs_raw(lat=0.0)]))
        table = build_contact_table(sc)
        assert len(table.all_contacts()) >= 1

    def test_determinism(self):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw(lat=83.0)]))
        a, b = build_contact_table(sc), build_contact_table(sc)
        assert a.all_contacts() == b.all_contacts()

    def test_invariants(self):
        sc = validate_scenario(scenario_raw([sat_raw(), sat_raw("sat-b", phase=90.0)],
                                            [gs_raw(lat=83.0), gs_raw("gs-b", lat=-83.0)]))
        table = build_contact_table(sc)
        cap = sc.r_max * sc.noise[1]
        for c in table.all_contacts():
            assert c.elevation_deg >= sc.elevation_mask_deg
            assert 0 < c.rate_mb_per_min <= cap
        assert table.slot_ptr[0] == 0 and table.slot_ptr[-1] == len(table.sat)
        for t in range(sc.horizon):
            si, gi, _ = table.slot_contacts(t)
            pairs = list(zip(si.tolist(), gi.tolist()))
            assert pairs == sorted(set(pairs))  # by satellite, then station, once each

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0, 359), st.floats(-80, 80))
    def test_invariants_random(self, seed, phase, station_lat):
        sc = validate_scenario(scenario_raw(
            [sat_raw(phase=phase)], [gs_raw(lat=station_lat)], horizon=120, seed=seed))
        table = build_contact_table(sc)
        cap = sc.r_max * sc.noise[1]
        for c in table.all_contacts():
            assert c.elevation_deg >= sc.elevation_mask_deg
            assert 0 < c.rate_mb_per_min <= cap


class TestContactPlanFile:
    def test_roundtrip(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw(lat=83.0)], horizon=300))
        table = build_contact_table(sc)
        path = tmp_path / "plan.csv"
        write_contact_plan(table, str(path))
        loaded = read_contact_plan(str(path), sc)
        assert (loaded.sat_ids, loaded.gs_ids) == (table.sat_ids, table.gs_ids)
        assert loaded.all_contacts() == table.all_contacts()

    def test_empty_plan(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n")
        table = read_contact_plan(str(path), sc)
        for t in range(10):
            assert all(c.size == 0 for c in table.slot_contacts(t))

    def test_single_row(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "3,sat-a,gs-a,45.0,500\n")
        table = read_contact_plan(str(path), sc)
        si, gi, rate = table.slot_contacts(3)
        assert [table.sat_ids[s] for s in si] == ["sat-a"]
        assert [table.gs_ids[g] for g in gi] == ["gs-a"]
        assert rate.tolist() == [500.0]
        assert all(c.size == 0 for c in table.slot_contacts(2))

    def test_parse_error_reports_line(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "3,sat-a,gs-a,45.0,oops\n")
        with pytest.raises(ContactPlanError, match="line 2"):
            read_contact_plan(str(path), sc)

    def test_unknown_id_rejected(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "3,ghost,gs-a,45.0,500\n")
        with pytest.raises(ContactPlanError, match="ghost"):
            read_contact_plan(str(path), sc)

    def test_duplicate_row_rejected(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "3,sat-a,gs-a,45.0,500\n"
                        "3,sat-a,gs-a,45.0,600\n")
        with pytest.raises(ContactPlanError,
                           match=r"plan\.csv: duplicate contact \(3, 'sat-a', 'gs-a'\)"):
            read_contact_plan(str(path), sc)

    def test_slot_outside_horizon_rejected(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "10,sat-a,gs-a,45.0,500\n")
        with pytest.raises(ContactPlanError, match=r"plan\.csv: slot 10 outside \[0, 10\)"):
            read_contact_plan(str(path), sc)

    def test_below_mask_rejected(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "3,sat-a,gs-a,4.0,500\n")
        with pytest.raises(ContactPlanError, match="mask"):
            read_contact_plan(str(path), sc)

    @pytest.mark.parametrize("elevation", ["nan", "inf", "95.0"])
    def test_elevation_outside_mask_to_zenith_rejected(self, tmp_path, elevation):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        f"3,sat-a,gs-a,{elevation},500\n")
        with pytest.raises(ContactPlanError, match=r"line 2: elevation .* outside \[mask"):
            read_contact_plan(str(path), sc)

    def test_used_by_build_when_configured(self, tmp_path):
        raw = scenario_raw([sat_raw()], [gs_raw()], horizon=10)
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "2,sat-a,gs-a,30.0,1000\n")
        raw["sim"]["contact_plan_path"] = str(path)
        sc = validate_scenario(raw)
        table = build_contact_table(sc)
        assert [c.slot for c in table.all_contacts()] == [2]


class TestCallerBuiltTable:
    """The constructor checks a caller's rows the way the plan reader's are checked."""

    def test_duplicate_row_rejected(self):
        rows = [Contact(1, "s", "g", 45.0, 500.0), Contact(1, "s", "g", 45.0, 600.0)]
        with pytest.raises(ValueError, match=r"duplicate contact \(1, 's', 'g'\)"):
            ContactTable.from_contacts(5, ["s"], ["g"], rows)

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError, match=r"slot -1 outside \[0, 5\)"):
            ContactTable.from_contacts(5, ["s"], ["g"], [Contact(-1, "s", "g", 45.0, 500.0)])

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown ground station 'h'"):
            ContactTable.from_contacts(5, ["s"], ["g"], [Contact(0, "s", "h", 45.0, 500.0)])

    def test_rows_sorted_by_slot_satellite_station(self):
        rows = [Contact(2, "b", "g", 30.0, 3.0), Contact(0, "b", "h", 40.0, 2.0),
                Contact(2, "a", "h", 50.0, 1.0), Contact(0, "b", "g", 60.0, 4.0)]
        table = ContactTable.from_contacts(3, ["b", "a"], ["h", "g"], rows)
        assert table.sat_ids == ("a", "b") and table.gs_ids == ("g", "h")
        assert table.slot_ptr.tolist() == [0, 2, 2, 4]
        assert [table.slot_rows(t) for t in range(3)] == [range(0, 2), range(2, 2), range(2, 4)]
        assert table.all_contacts() == sorted(rows)
        assert [c.tolist() for c in table.slot_contacts(2)] == [[0, 1], [1, 0], [1.0, 3.0]]

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_rate_not_finite_and_positive_rejected(self, rate):
        rows = [Contact(0, "s", "g", 45.0, 500.0), Contact(1, "s", "g", 45.0, rate)]
        with pytest.raises(ValueError, match=f"rate {rate} is not finite and positive"):
            ContactTable.from_contacts(5, ["s"], ["g"], rows)
