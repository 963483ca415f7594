import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instances import philox_stream
from skygs import orbit, rng
from skygs.cli import main
from skygs.model import Satellite, validate_scenario, write_csv
from skygs.orbit import (CONTACT_PLAN_HEADER, EARTH_ROT_DEG_PER_MIN, Contact, ContactPlanError,
                         ContactTable, build_contact_table, elevation_deg,
                         orbital_period_minutes, read_contact_plan, scenario_ids,
                         subsatellite_point, write_contact_plan)
from skygs.scenarios import full_scale_scenario

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
    return lo + (hi - lo) * philox_stream(sc.seed, rng.TAG_RATE_NOISE, si, gi).random(sc.horizon)


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

    def test_cell_at_zero_degrees_is_no_contact_at_a_zero_mask(self, tmp_path):
        # the satellite's slot-0 elevation from this station is exactly 0.0,
        # where the rate r_max * sin(0) would be 0
        sat = {**sat_raw(incl=0.0), "altitude_km": 300.0}
        station = gs_raw(lat=17.248205625855196, lon=1.8663630035668461)
        raw = scenario_raw([sat], [station], horizon=1, mask=0.0)
        sc = validate_scenario(raw)
        lat, lon = subsatellite_point(sc.satellites[0], 0.5 * sc.tau)
        assert elevation_deg(lat, lon, 300.0, station["lat_deg"], station["lon_deg"]) == 0.0
        assert len(build_contact_table(sc).sat) == 0
        path, out = tmp_path / "zero.json", tmp_path / "plan.csv"
        path.write_text(json.dumps(raw))
        assert main(["gen-contacts", "--scenario", str(path), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [",".join(orbit.CONTACT_PLAN_HEADER)]

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

    def test_missing_file_rejected(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = str(tmp_path / "absent.csv")
        with pytest.raises(ContactPlanError) as exc:
            read_contact_plan(path, sc)
        assert str(exc.value) == f"{path}: [Errno 2] No such file or directory: {path!r}"

    @pytest.mark.parametrize("text", [
        "", "3,sat-a,gs-a,45.0,500\n", "slot,satellite_id,ground_station_id,elevation_deg\n",
        "slot,sat,gs,elevation_deg,rate_mb_per_min\n"], ids=["empty", "no-header", "4-columns",
                                                            "renamed"])
    def test_wrong_header_rejected(self, tmp_path, text):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text(text)
        with pytest.raises(ContactPlanError) as exc:
            read_contact_plan(str(path), sc)
        assert str(exc.value) == (f"{path}: line 1: expected header slot,satellite_id,"
                                  "ground_station_id,elevation_deg,rate_mb_per_min")

    def test_used_by_build_when_configured(self, tmp_path):
        raw = scenario_raw([sat_raw()], [gs_raw()], horizon=10)
        path = tmp_path / "plan.csv"
        path.write_text("slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
                        "2,sat-a,gs-a,30.0,1000\n")
        raw["sim"]["contact_plan_path"] = str(path)
        sc = validate_scenario(raw)
        table = build_contact_table(sc)
        assert [c.slot for c in table.all_contacts()] == [2]


def brute_force_table(sc):
    """The scenario's contact table from elevation_deg over every (satellite,
    station, slot) cell, one elevation call per satellite broadcast over the
    stations, and the noise of each satellite's contacts in its own call. A
    contact is a cell at or above the mask and above 0 degrees."""
    sat_ids, gs_ids = scenario_ids(sc)
    t_mid = (np.arange(sc.horizon) + 0.5) * sc.tau
    gs_lat = np.array([[g.lat_deg] for g in sc.ground_stations])
    gs_lon = np.array([[g.lon_deg] for g in sc.ground_stations])
    gs_pos = np.array([gs_ids.index(g.id) for g in sc.ground_stations], dtype=np.int64)
    columns = []
    for si, sat in enumerate(sc.satellites):
        lat, lon = subsatellite_point(sat, t_mid)
        el = elevation_deg(lat, lon, sat.altitude_km, gs_lat, gs_lon)
        gi, t = np.nonzero((el >= sc.elevation_mask_deg) & (el > 0.0))
        noise = rng.uniform_at(sc.seed, rng.TAG_RATE_NOISE, (si, gi), t, *sc.noise)
        el = el[gi, t]
        columns.append((t, np.full(len(t), sat_ids.index(sat.id)), gs_pos[gi], el,
                        sc.r_max * np.sin(np.radians(el)) * noise))
    return ContactTable(sc.horizon, sat_ids, gs_ids, *(np.concatenate(c) for c in zip(*columns)))


def table_bytes(table):
    return [c.tobytes() for c in (table.slot_ptr, table.sat, table.gs, table.elevation_deg,
                                  table.rate_mb_per_min)]


def build_outcome(build, sc):
    """The table's column bytes, or the ValueError that building it raised,
    so that two builds which fail must fail alike."""
    try:
        return table_bytes(build(sc))
    except ValueError as exc:
        return repr(exc)


def cone_world(sats, stations, horizon, seed, mask, plant=None):
    """A validated world. plant = (slot, elevation, bearing, delta) adds a
    station that sees satellite 0 at about that elevation in that slot, from
    that bearing, and moves the mask to delta degrees from the elevation that
    elevation_deg gives there, so the cell sits on the cone's edge."""
    raw = scenario_raw(sats, stations, horizon=horizon, seed=seed, mask=mask)
    if plant is None:
        return validate_scenario(raw)
    t0, target, bearing, delta = plant
    sat = validate_scenario(raw).satellites[0]
    sub_lat, sub_lon = (c[t0] for c in subsatellite_point(sat, (np.arange(horizon) + 0.5)))
    # the central angle at which a station sees the satellite at the target elevation
    k = EARTH_RADIUS / (EARTH_RADIUS + sat.altitude_km)
    d = math.radians(90.0 - target) - math.asin(k * math.cos(math.radians(target)))
    p, b = math.radians(sub_lat), math.radians(bearing)
    lat = math.asin(min(1.0, max(-1.0, math.sin(p) * math.cos(d)
                                     + math.cos(p) * math.sin(d) * math.cos(b))))
    lon = sub_lon + math.degrees(math.atan2(math.sin(b) * math.sin(d) * math.cos(p),
                                            math.cos(d) - math.sin(p) * math.sin(lat)))
    station = gs_raw("gs-planted", lat=math.degrees(lat), lon=(lon + 180.0) % 360.0 - 180.0)
    raw["ground_stations"].append(station)
    el = elevation_deg(sub_lat, sub_lon, sat.altitude_km, np.array([[station["lat_deg"]]]),
                       np.array([[station["lon_deg"]]]))[0, 0]
    raw["sim"]["elevation_mask_deg"] = min(max(el + delta, 0.0), math.nextafter(90.0, 0.0))
    return validate_scenario(raw)


@st.composite
def cone_worlds(draw):
    """Small worlds at 300-2,000 km, any inclination, RAAN and phase, stations at
    any latitude, poles included, and a mask in [0, 90); half of them with a
    planted cell within 1e-9 degrees of the mask, on either side or on it."""
    angle = st.floats(0, 360, exclude_max=True)
    sats = [{"id": f"sat-{k}", "altitude_km": draw(st.floats(300, 2000)),
             "inclination_deg": draw(st.floats(0, 180)), "raan_deg": draw(angle),
             "phase_deg": draw(angle), "daily_volume_mb": [1000, 1000]}
            for k in range(draw(st.integers(1, 3)))]
    lat = st.one_of(st.sampled_from([-90.0, 90.0]), st.floats(-90, 90))
    lon = st.floats(-180, 180, exclude_max=True)
    stations = [gs_raw(f"gs-{k}", lat=draw(lat), lon=draw(lon))
                for k in range(draw(st.integers(1, 3)))]
    horizon = draw(st.integers(1, 120))
    plant = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, horizon - 1), st.floats(0, 90, exclude_max=True), angle,
        st.one_of(st.sampled_from([0.0, 1e-9, -1e-9]), st.floats(-1e-9, 1e-9)))))
    return cone_world(sats, stations, horizon, draw(st.integers(0, 2 ** 64 - 1)),
                      draw(st.floats(0, 90, exclude_max=True)), plant)


class TestConePrefilter:
    """The propagator evaluates elevation only inside each visibility cone, and
    picks exactly the contacts that evaluating every cell picks."""

    @settings(max_examples=300, deadline=None)
    @given(cone_worlds())
    # on the edge of the cone, where a mask just above 45 degrees narrows it most
    # if asin(k sin mask) is taken for asin(k cos mask)
    @example(cone_world([sat_raw()], [gs_raw()], 30, 1, 10.0, (7, 46.0, 30.0, 0.0)))
    @example(cone_world([sat_raw()], [gs_raw()], 30, 1, 10.0, (3, 20.0, 200.0, -1e-9)))
    def test_table_equals_the_every_cell_table_byte_for_byte(self, sc):
        assert build_outcome(build_contact_table, sc) == build_outcome(brute_force_table, sc)


FULL_SCALE_48 = full_scale_scenario(seed=1, horizon=48)
# bytes per contact of each path on the 48-slot full-scale world, as tracemalloc
# peaks, before the paths streamed columns: build 233, write 193, read 380
PARENT_BYTES_PER_CONTACT = {"build": 233, "write": 193, "read": 380}


class TestColumnarPaths:
    """Building, writing and reading a contact table hold no Python object per
    contact."""

    def test_no_path_builds_a_contact(self, monkeypatch, tmp_path):
        sc = validate_scenario(FULL_SCALE_48)

        def no_contact(*args, **kwargs):
            raise AssertionError("built a Contact")

        monkeypatch.setattr(orbit, "Contact", no_contact)
        table = build_contact_table(sc)
        path = str(tmp_path / "plan.csv")
        write_contact_plan(table, path)
        assert len(table.sat) > 0
        assert table_bytes(read_contact_plan(path, sc)) == table_bytes(table)

    @pytest.mark.parametrize("step", sorted(PARENT_BYTES_PER_CONTACT))
    def test_peak_bytes_per_contact_at_most_half_the_objects_figure(self, tmp_path, step):
        sc = validate_scenario(FULL_SCALE_48)
        path = str(tmp_path / "plan.csv")
        table = build_contact_table(sc)  # warm: imports and caches are not counted
        write_contact_plan(table, path)
        read_contact_plan(path, sc)
        run = {"build": lambda: build_contact_table(sc),
               "write": lambda: write_contact_plan(table, path),
               "read": lambda: read_contact_plan(path, sc)}[step]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / len(table.sat) <= PARENT_BYTES_PER_CONTACT[step] / 2

    def test_from_contacts_streams_a_generator_into_columns(self):
        # 200,000 rows (2,000 slots x 10 satellites x 10 stations), made one at a time
        sats, stations = [f"s{k}" for k in range(10)], [f"g{k}" for k in range(10)]
        rows = ((i // 100, sats[i % 10], stations[i // 10 % 10], 45.0, 500.0)
                for i in range(200_000))
        ContactTable.from_contacts(1, sats, stations, [(0, "s0", "g0", 45.0, 500.0)])  # warm
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = ContactTable.from_contacts(2_000, sats, stations, rows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(table.sat) == 200_000 and table.slot_ptr[-1] == 200_000
        # 212 bytes per row when the rows were gathered as tuples before mapping ids
        assert peak / 200_000 < 120

    def test_a_shuffled_plan_reads_as_from_contacts_on_its_rows(self, tmp_path):
        sc = validate_scenario(FULL_SCALE_48)
        rows = build_contact_table(sc).all_contacts()
        random.Random(5).shuffle(rows)
        path = tmp_path / "plan.csv"
        write_csv(str(path), CONTACT_PLAN_HEADER, rows)
        read = read_contact_plan(str(path), sc)
        built = ContactTable.from_contacts(sc.horizon, *scenario_ids(sc), iter(rows))
        assert (read.n_slots, read.sat_ids, read.gs_ids) == (
            built.n_slots, built.sat_ids, built.gs_ids)
        assert table_bytes(read) == table_bytes(built)


PLAN_HEADER = "slot,satellite_id,ground_station_id,elevation_deg,rate_mb_per_min\n"
GOOD_ROW = "3,sat-a,gs-a,45.0,500\n"
# one row per kind of line error, in the order they are checked within a line
FIELD_COUNT_ROW, FIELD_COUNT = "3,sat-a,gs-a,45.0\n", "expected 5 fields, got 4"
PARSE_ROW, PARSE = "3,sat-a,gs-a,45.0,oops\n", "could not convert string to float: 'oops'"
ELEVATION_ROW, ELEVATION = "3,sat-a,gs-a,4.0,500\n", "elevation 4.0 outside [mask 10.0, 90]"
RATE_ROW, RATE = "3,sat-a,gs-a,45.0,99999\n", "rate 99999.0 outside (0, 13200.000000000002]"
LINE_ERRORS = {"field count": (FIELD_COUNT_ROW, FIELD_COUNT), "parse": (PARSE_ROW, PARSE),
               "elevation": (ELEVATION_ROW, ELEVATION), "rate": (RATE_ROW, RATE)}


class TestContactPlanErrorOrder:
    """Which error a bad plan reports: the earliest bad line, whatever its kind;
    then unknown ids, satellites first; then the table's own checks (a slot
    outside the horizon, then a duplicate), all prefixed with the path."""

    @staticmethod
    def read(tmp_path, *rows):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text(PLAN_HEADER + "".join(rows))
        with pytest.raises(ContactPlanError) as info:
            read_contact_plan(str(path), sc)
        return str(info.value).removeprefix(f"{path}: ")

    @pytest.mark.parametrize("first", sorted(LINE_ERRORS))
    @pytest.mark.parametrize("second", sorted(LINE_ERRORS))
    def test_earliest_bad_line_wins_across_kinds(self, tmp_path, first, second):
        (row_a, message_a), (row_b, _) = LINE_ERRORS[first], LINE_ERRORS[second]
        got = self.read(tmp_path, GOOD_ROW, row_a, GOOD_ROW, row_b)
        assert got == f"line 3: {message_a}"

    @pytest.mark.parametrize("row, message", [
        ("x,sat-a,gs-a,4.0,99999\n", "invalid literal for int() with base 10: 'x'"),
        ("3,sat-a,gs-a,nope,99999\n", "could not convert string to float: 'nope'"),
        ("3,sat-a,gs-a,4.0,99999\n", ELEVATION),
        ("3,sat-a,gs-a,4.0,99999,6\n", "expected 5 fields, got 6"),
    ])
    def test_within_a_line_count_then_parse_then_elevation_then_rate(self, tmp_path, row,
                                                                       message):
        assert self.read(tmp_path, row) == f"line 2: {message}"

    def test_a_parse_error_beats_an_earlier_unknown_id(self, tmp_path):
        got = self.read(tmp_path, "3,ghost,gs-a,45.0,500\n", GOOD_ROW, "4,sat-a,gs-a,45.0,500\n",
                        PARSE_ROW)
        assert got == f"line 5: {PARSE}"

    def test_a_slot_beyond_64_bits_is_outside_the_horizon_at_its_line(self, tmp_path):
        got = self.read(tmp_path, GOOD_ROW, f"{2 ** 63},sat-a,gs-a,45.0,500\n", PARSE_ROW)
        assert got == f"line 3: slot {2 ** 63} outside [0, 10)"

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        assert self.read(tmp_path, "\n", GOOD_ROW, "\n", "\n", RATE_ROW) == f"line 6: {RATE}"

    def test_blank_lines_load(self, tmp_path):
        sc = validate_scenario(scenario_raw([sat_raw()], [gs_raw()], horizon=10))
        path = tmp_path / "plan.csv"
        path.write_text(PLAN_HEADER + "\n" + GOOD_ROW + "\n")
        assert read_contact_plan(str(path), sc).all_contacts() == [
            Contact(3, "sat-a", "gs-a", 45.0, 500.0)]

    def test_unknown_satellites_before_stations_least_id_first(self, tmp_path):
        got = self.read(tmp_path, "3,sat-a,gs-x,45.0,500\n", "4,zz,gs-a,45.0,500\n",
                        "5,ghost,gs-a,45.0,500\n")
        assert got == "unknown satellite 'ghost'"
        assert self.read(tmp_path, "3,sat-a,gs-y,45.0,500\n",
                         "4,sat-a,gs-x,45.0,500\n") == "unknown ground station 'gs-x'"

    def test_an_unknown_id_beats_an_earlier_slot_outside_the_horizon(self, tmp_path):
        got = self.read(tmp_path, "10,sat-a,gs-a,45.0,500\n", "3,sat-a,ghost,45.0,500\n")
        assert got == "unknown ground station 'ghost'"

    def test_a_slot_outside_the_horizon_beats_an_earlier_duplicate(self, tmp_path):
        got = self.read(tmp_path, GOOD_ROW, GOOD_ROW, "-1,sat-a,gs-a,45.0,500\n",
                        "12,sat-a,gs-a,45.0,500\n")
        assert got == "slot -1 outside [0, 10)"

    def test_the_duplicate_reported_is_the_least_contact(self, tmp_path):
        got = self.read(tmp_path, "5,sat-a,gs-a,45.0,500\n", "5,sat-a,gs-a,45.0,500\n",
                        "2,sat-a,gs-a,45.0,500\n", "2,sat-a,gs-a,45.0,600\n")
        assert got == "duplicate contact (2, 'sat-a', 'gs-a')"


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

    # (slot, satellite position, station position) of one row of a 2-slot table for
    # satellites a, b and station x; unchecked, each would land in another cell
    UNHOLDABLE = [(0, 2, 0, "satellite position 2 outside [0, 2)"),
                  (1, -1, 0, "satellite position -1 outside [0, 2)"),
                  (0, 0, 5, "station position 5 outside [0, 1)"),
                  (0, 0, -1, "station position -1 outside [0, 1)"),
                  (1.7, 0, 0, "slot 1.7 is not an integer in [0, 2)"),
                  (math.nan, 0, 0, "slot nan is not an integer in [0, 2)"),
                  (0, 0.5, 0, "satellite position 0.5 is not an integer in [0, 2)"),
                  (0, 0, 0.25, "station position 0.25 is not an integer in [0, 1)")]

    @pytest.mark.parametrize("slot, sat, gs, message", UNHOLDABLE,
                             ids=[message for *_, message in UNHOLDABLE])
    def test_position_the_table_cannot_hold_rejected(self, slot, sat, gs, message):
        with pytest.raises(ValueError) as exc:
            ContactTable(2, ("a", "b"), ("x",), [slot], [sat], [gs], [30.0], [100.0])
        assert str(exc.value) == message

    def test_integral_floats_are_positions(self):
        table = ContactTable(2, ("a", "b"), ("x",), [1.0], [1.0], [0.0], [30.0], [100.0])
        assert table.slot_ptr.tolist() == [0, 0, 1]
        assert table.all_contacts() == [Contact(1, "b", "x", 30.0, 100.0)]

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_rate_not_finite_and_positive_rejected(self, rate):
        rows = [Contact(0, "s", "g", 45.0, 500.0), Contact(1, "s", "g", 45.0, rate)]
        with pytest.raises(ValueError, match=f"rate {rate} is not finite and positive"):
            ContactTable.from_contacts(5, ["s"], ["g"], rows)
