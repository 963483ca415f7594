import pytest

from skygs.accounting import (DownlinkRecord, aggregate_metrics,
                              computation_latency, costs, excess_latency,
                              queuing_latency, transmission_latency)
from skygs.queues import DataChunk


def record(slot=0, mb=1.0, l_total=0.0, c_total=0.0):
    lq = l_total
    return DownlinkRecord(slot=slot, satellite_id="s", ground_station_id="g",
                          antenna=0, data_center_id="d", mb=mb, lq=lq, lt1=0.0,
                          lt2=0.0, lc=0.0, l_total=l_total, cr=c_total, cc=0.0,
                          c_total=c_total, phi_s=0.0)


class TestQueuingLatency:
    def test_single_chunk(self):
        assert queuing_latency([DataChunk(0, 100.0)], 5, 1.0) == 500.0

    def test_same_slot_pop_is_zero(self):
        assert queuing_latency([DataChunk(5, 100.0)], 5, 1.0) == 0.0

    def test_two_chunks(self):
        popped = [DataChunk(7, 10.0), DataChunk(9, 20.0)]
        assert queuing_latency(popped, 10, 1.0) == 50.0

    def test_future_chunk_rejected(self):
        with pytest.raises(ValueError):
            queuing_latency([DataChunk(6, 1.0)], 5, 1.0)


class TestTransmission:
    def test_gsl(self):
        assert transmission_latency(600.0, 100.0) == 6.0

    def test_gsl_zero_data(self):
        assert transmission_latency(0.0, 100.0) == 0.0

    def test_gsl_full_slot(self):
        assert transmission_latency(12_000.0, 12_000.0) == 1.0

    def test_backhaul_one_gbps(self):
        assert transmission_latency(7_500.0, 7_500.0) == 1.0

    def test_backhaul_half(self):
        assert transmission_latency(3_750.0, 7_500.0) == 0.5

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            transmission_latency(1.0, 0.0)


class TestComputation:
    def test_point_one_hour_per_gb(self):
        assert computation_latency(1_000.0, 0.006) == pytest.approx(6.0)

    def test_zero(self):
        assert computation_latency(0.0, 0.006) == 0.0

    def test_other_intensity(self):
        assert computation_latency(500.0, 0.012) == pytest.approx(6.0)


class TestCosts:
    def test_rental_plus_compute(self):
        cr, cc, total = costs(1_000.0, 22.0, 1.0 / 60.0, 0.006)
        assert cr == 22.0
        assert cc == pytest.approx(0.1)
        assert total == pytest.approx(22.1)

    def test_empty_downlink_still_pays_rent(self):
        cr, cc, total = costs(0.0, 22.0, 1.0 / 60.0, 0.006)
        assert (cr, cc, total) == (22.0, 0.0, 22.0)


class TestExcessLatency:
    def test_positive(self):
        assert excess_latency(130.0, 2.0, 60.0) == pytest.approx(10.0)

    def test_no_downlink(self):
        assert excess_latency(0.0, 0.0, 60.0) == 0.0

    def test_negative(self):
        assert excess_latency(100.0, 2.0, 60.0) == pytest.approx(-20.0)


class TestAggregateMetrics:
    def test_costs_sum(self):
        recs = [record(c_total=10.0), record(c_total=5.0)]
        m = aggregate_metrics(recs, 60.0, 0.0, [0.0])
        assert m.total_cost == 15.0

    def test_violation_rate(self):
        recs = [record(mb=1.0, l_total=120.0), record(mb=1.0, l_total=30.0)]
        m = aggregate_metrics(recs, 60.0, 0.0, [0.0])
        assert m.violation_rate == 0.5

    def test_empty_run(self):
        m = aggregate_metrics([], 60.0, 0.0, [])
        assert m.total_cost == 0.0
        assert m.avg_latency_min_per_mb is None
        assert m.violation_rate == 0.0

    def test_average_latency_is_mb_weighted(self):
        recs = [record(mb=3.0, l_total=30.0), record(mb=1.0, l_total=50.0)]
        m = aggregate_metrics(recs, 60.0, 0.0, [0.0])
        assert m.avg_latency_min_per_mb == pytest.approx(80.0 / 4.0)

    def test_record_identities(self):
        r = record(mb=2.0, l_total=10.0, c_total=3.0)
        assert r.l_total == pytest.approx(r.lq + r.lt1 + r.lt2 + r.lc)
        assert r.c_total == pytest.approx(r.cr + r.cc)
