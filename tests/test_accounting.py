import numpy as np
import pytest

from skygs.accounting import (RUN_CSV_HEADER, DownlinkRecord, aggregate_metrics, downlink_cost,
                              service_latency)


def record(slot=0, mb=1.0, l_total=0.0, c_total=0.0):
    lq = l_total
    return DownlinkRecord(slot=slot, satellite_id="s", ground_station_id="g",
                          antenna=0, data_center_id="d", mb=mb, lq=lq, lt1=0.0,
                          lt2=0.0, lc=0.0, l_total=l_total, cr=c_total, cc=0.0,
                          c_total=c_total, phi_s=0.0)


class TestTransmission:
    """lt1 and lt2 of service_latency: MB over the hop's rate."""

    def test_gsl(self):
        assert service_latency(600.0, 100.0, 7_500.0, 0.006)[0] == 6.0

    def test_gsl_zero_data(self):
        assert service_latency(0.0, 100.0, 7_500.0, 0.006) == (0.0, 0.0, 0.0)

    def test_gsl_full_slot(self):
        assert service_latency(12_000.0, 12_000.0, 7_500.0, 0.006)[0] == 1.0

    def test_backhaul_one_gbps(self):
        assert service_latency(7_500.0, 12_000.0, 7_500.0, 0.006)[1] == 1.0

    def test_backhaul_half(self):
        assert service_latency(3_750.0, 12_000.0, 7_500.0, 0.006)[1] == 0.5


class TestComputation:
    """lc of service_latency: intensity times MB."""

    def test_point_one_hour_per_gb(self):
        assert service_latency(1_000.0, 12_000.0, 7_500.0, 0.006)[2] == pytest.approx(6.0)

    def test_zero(self):
        assert service_latency(0.0, 12_000.0, 7_500.0, 0.006)[2] == 0.0

    def test_other_intensity(self):
        assert service_latency(500.0, 12_000.0, 7_500.0, 0.012)[2] == pytest.approx(6.0)


class TestCosts:
    def test_rental_plus_compute(self):
        cr, cc = downlink_cost(1_000.0, 22.0, 1.0 / 60.0, 0.006)
        assert cr == 22.0
        assert cc == pytest.approx(0.1)

    def test_empty_downlink_still_pays_rent(self):
        assert downlink_cost(0.0, 22.0, 1.0 / 60.0, 0.006) == (22.0, 0.0)


class TestElementwise:
    """Both functions take numpy arrays and broadcast them, as the broker's
    edges and its per-station data-center choice use them."""

    def test_service_latency_over_edges(self):
        edges = [(600.0, 100.0, 7_500.0, 0.006), (0.0, 50.0, 7_500.0, 0.012),
                 (3_750.0, 12_000.0, 15_000.0, 0.002)]
        lt1, lt2, lc = service_latency(*(np.array(column) for column in zip(*edges)))
        assert list(zip(lt1, lt2, lc)) == [service_latency(*edge) for edge in edges]

    def test_stations_by_data_centers_at_one_mb(self):
        backhaul = np.array([[7_500.0, 750.0], [15_000.0, 7_500.0]])
        kappa = np.array([0.006, 0.012])
        _, lt2, lc = service_latency(1.0, 1.0, backhaul, kappa)
        assert lt2.shape == (2, 2) and lt2[0, 1] == 1.0 / 750.0
        assert lc.tolist() == [0.006, 0.012]
        _, cc = downlink_cost(1.0, 0.0, np.array([1.0, 0.5]), kappa)
        assert cc.tolist() == [0.006, 0.006]

    def test_rent_per_edge_compute_per_mb(self):
        cr, cc = downlink_cost(np.array([0.0, 1_000.0]), np.array([22.0, 18.0]),
                               1.0 / 60.0, 0.006)
        assert cr.tolist() == [22.0, 18.0]
        assert cc[0] == 0.0 and cc[1] == pytest.approx(0.1)


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


class TestRecordShape:
    """write_run_csv writes a record's fields from `satellite_id` on, in
    field order, between the `policy` and `q_after` columns."""

    def test_fields_are_the_records_csv_columns_in_order(self):
        columns = [c for c in RUN_CSV_HEADER if c not in ("policy", "q_after")]
        assert [f.removesuffix("_id") for f in DownlinkRecord._fields] == columns

    def test_immutable(self):
        r = record()
        with pytest.raises(AttributeError):
            r.mb = 2.0

    def test_compares_by_value(self):
        assert record(mb=2.0, c_total=1.0) == record(mb=2.0, c_total=1.0)
        assert record(mb=2.0) != record(mb=3.0)
