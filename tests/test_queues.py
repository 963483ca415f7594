import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygs import engine
from skygs.model import validate_scenario
from skygs.orbit import Contact, ContactTable
from skygs.queues import (ArrivalModel, DataChunk, SatelliteState,
                          actual_downlink, advance_backlog, update_virtual_queue)
from skygs.scheduler import Assignment, AssignmentTriple, ScenarioArrays


def state_with(chunks):
    st_ = SatelliteState("s")
    for arr, size in chunks:
        st_.chunks.append(DataChunk(arr, size))
        st_.total_mb += size
    return st_


def downlinked(rate, tau, backlog_mb):
    """MB that engine.step moves in slot 0 over one contact at `rate` MB/min
    from a satellite holding `backlog_mb`."""
    sc = validate_scenario({
        "satellites": [{"id": "sat-a", "altitude_km": 475.0, "daily_volume_mb": 1.0}],
        "ground_stations": [{"id": "gs-a", "provider": "p", "lat_deg": 0.0, "lon_deg": 0.0,
                             "antennas": 1, "price_per_slot": 1.0}],
        "data_centers": [{"id": "dc-a", "provider": "p", "price_per_min": 1.0,
                          "intensity_min_per_mb": 0.006}],
        "sim": {"tau": tau, "horizon": 1, "xi": 60.0, "seed": 1},
    })
    table = ContactTable.from_contacts(1, ["sat-a"], ["gs-a"],
                                       [Contact(0, "sat-a", "gs-a", 45.0, rate)])

    class Downlink:
        name = "downlink"

        def schedule(self, states, q, slot, table):
            return Assignment(slot, (AssignmentTriple(contact=0, antenna=0, dc=0),))

    sim = engine.SimState(slot=0, states={"sat-a": state_with([(0, backlog_mb)])}, q=0.0)
    (record,) = engine.step(sim, Downlink(), sc, table, ArrivalModel(sc),
                            ScenarioArrays.from_scenario(sc))
    return record.mb


class TestCapacity:
    """A downlink moves at most one slot of its link: rate * tau MB."""

    def test_full_rate_slot(self):
        assert downlinked(12_000.0, 1.0, 20_000.0) == 12_000.0

    def test_simple(self):
        assert downlinked(500.0, 1.0, 20_000.0) == 500.0

    def test_fractional_slot(self):
        assert downlinked(1000.0, 0.5, 20_000.0) == 500.0


class TestActualDownlink:
    def test_backlog_limited(self):
        s = state_with([(0, 5000.0)])
        moved, popped = actual_downlink(s, 12_000.0)
        assert moved == 5000.0
        assert s.total_mb == 0.0
        assert not s.chunks
        assert popped == [DataChunk(0, 5000.0)]

    def test_capacity_limited_splits_chunk(self):
        s = state_with([(0, 20_000.0)])
        moved, popped = actual_downlink(s, 12_000.0)
        assert moved == 12_000.0
        assert s.total_mb == pytest.approx(8_000.0)
        # remainder keeps its original arrival slot at the head
        assert s.chunks[0] == DataChunk(0, 8_000.0)
        assert popped == [DataChunk(0, 12_000.0)]

    def test_zero_capacity(self):
        s = state_with([(0, 100.0)])
        moved, popped = actual_downlink(s, 0.0)
        assert moved == 0.0 and popped == []
        assert s.total_mb == 100.0

    def test_fifo_across_chunks(self):
        s = state_with([(0, 10.0), (1, 20.0), (2, 30.0)])
        moved, popped = actual_downlink(s, 25.0)
        assert moved == 25.0
        assert [c.arrival_slot for c in popped] == [0, 1]
        assert popped[1].size_mb == 15.0
        assert s.chunks[0] == DataChunk(1, 5.0)


class TestAdvanceBacklog:
    def test_dynamics_identity(self):
        # after a 100 MB drain, 694 MB of arrivals yields exactly 694
        s = state_with([(0, 100.0)])
        actual_downlink(s, 100.0)
        advance_backlog(s, 694.0, 1)
        assert s.total_mb == 694.0

    def test_zero_arrivals_noop(self):
        s = state_with([(0, 5.0)])
        advance_backlog(s, 0.0, 3)
        assert len(s.chunks) == 1

    def test_from_empty(self):
        s = SatelliteState("s")
        advance_backlog(s, 50.0, 7)
        assert s.total_mb == 50.0
        assert s.oldest_arrival_slot() == 7


class TestVirtualQueue:
    def test_clamps_at_zero(self):
        assert update_virtual_queue(5.0, -10.0) == 0.0

    def test_accumulates(self):
        assert update_virtual_queue(5.0, 3.0) == 8.0

    def test_zero_stays_zero(self):
        assert update_virtual_queue(0.0, 0.0) == 0.0

    def test_rejects_negative_queue(self):
        with pytest.raises(ValueError):
            update_virtual_queue(-1.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 5000.0), st.floats(0.0, 6000.0)),
                min_size=1, max_size=60))
def test_conservation_and_fifo(ops):
    """Arrivals = downlinked + residual, and pops are FIFO-ordered."""
    s = SatelliteState("s")
    total_in = 0.0
    total_out = 0.0
    last_pop_slot = -1
    for slot, (arrival, capacity) in enumerate(ops):
        if capacity > 0:
            moved, popped = actual_downlink(s, capacity)
            total_out += moved
            for c in popped:
                assert c.arrival_slot >= last_pop_slot
                last_pop_slot = c.arrival_slot
        if arrival > 0:
            advance_backlog(s, arrival, slot)
            total_in += arrival
    assert total_in == pytest.approx(total_out + s.total_mb, rel=1e-9, abs=1e-6)
    assert s.total_mb == pytest.approx(sum(c.size_mb for c in s.chunks), rel=1e-9, abs=1e-6)


def arrivals_scenario(duty, horizon=1440, volume=(1_000_000.0, 1_000_000.0)):
    return validate_scenario({
        "satellites": [
            {"id": "sat-a", "altitude_km": 475.0, "inclination_deg": 97.4,
             "raan_deg": 0.0, "phase_deg": 0.0,
             "daily_volume_mb": list(volume), "duty_cycle": duty},
        ],
        "ground_stations": [],
        "data_centers": [{"id": "dc-a", "provider": "p", "price_per_min": 1.0,
                          "intensity_min_per_mb": 0.006}],
        "sim": {"tau": 1.0, "horizon": horizon, "xi": 60.0, "v": 0.0, "seed": 11,
                "policy": "skygs"},
    })


class TestArrivals:
    def test_full_duty_uniform(self):
        model = ArrivalModel(arrivals_scenario(1.0))
        values = [model.arrivals_for_slot("sat-a", t) for t in range(100)]
        assert all(v == pytest.approx(1_000_000.0 / 1440) for v in values)

    def test_half_duty_on_off(self):
        model = ArrivalModel(arrivals_scenario(0.5))
        values = [model.arrivals_for_slot("sat-a", t) for t in range(1440)]
        on = [v for v in values if v > 0]
        assert on and all(v == pytest.approx(1_000_000.0 / 720) for v in on)
        assert any(v == 0.0 for v in values)
        # duty mask keeps roughly half the slots on
        assert 0.35 < len(on) / 1440 < 0.65

    def test_volume_drawn_from_range(self):
        model = ArrivalModel(arrivals_scenario(1.0, volume=(900_000.0, 1_100_000.0)))
        # at full duty every one of the day's 1440 slots carries volume / 1440
        assert 900_000.0 <= 1440 * model.arrivals_for_slot("sat-a", 0) <= 1_100_000.0

    def test_deterministic_across_instances(self):
        sc = arrivals_scenario(0.5)
        a = ArrivalModel(sc)
        b = ArrivalModel(sc)
        assert [a.arrivals_for_slot("sat-a", t) for t in range(200)] == \
               [b.arrivals_for_slot("sat-a", t) for t in range(200)]
