import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instances import (backlogs_of, contact_table, make_scenario, named, oracle_agreement,
                       random_instance, schedule_slot, states_for, table_for)
from oracle import InstanceTooLargeError, _triple_contribution, brute_force_schedule
from skygs import hungarian
from skygs.baselines import IlpHpqPolicy
from skygs.model import validate_scenario, with_overrides
from skygs.orbit import Contact
from skygs.scheduler import (AssignmentTriple, ScenarioArrays, build_bipartite, check_assignment,
                             hungarian_min_matching)


def edge(sc, table, states, q, si=0, gi=0):
    """The candidate edge (satellite position si, station position gi) of the
    broker's slot-0 graph."""
    return build_bipartite(states, q, 0, sc, table,
                           ScenarioArrays.from_scenario(sc)).candidates[(si, gi)]


class TestEdgeWeight:
    def test_pure_drift_backlog_limited(self):
        # V = Q = 0 and a 100 MB backlog: weight = -backlog * dtil = -10,000
        sc = make_scenario(n_sats=1, v=0.0)
        table = table_for(sc, [("sat-0", "gs-0", 12_000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        cand = edge(sc, table, states, 0.0)
        assert cand.dtil_mb == 100.0
        assert cand.weight == pytest.approx(-10_000.0)

    def test_zero_backlog_rental_only(self):
        sc = make_scenario(n_sats=1, v=1.0, dc_prices=[2.0, 1.0], dc_kappas=[0.01, 0.01])
        table = table_for(sc, [("sat-0", "gs-0", 12_000.0)])
        states = states_for(sc, {})
        cand = edge(sc, table, states, 0.0)
        assert cand.dtil_mb == 0.0
        assert cand.weight == pytest.approx(1.0 * 22.0)
        # best data center by lowest kappa * price
        assert cand.data_center_id == "dc-1"
        # an empty downlink has no service latency for Q to price
        assert edge(sc, table, states, 1e6).weight == cand.weight

    def test_degenerate_all_zero_matches_virtual(self):
        sc = make_scenario(n_sats=1, v=0.0)
        table = table_for(sc, [("sat-0", "gs-0", 12_000.0)])
        states = states_for(sc, {})
        cand = edge(sc, table, states, 0.0)
        assert cand.weight == 0.0

    def test_requires_contact(self):
        sc = make_scenario(n_sats=1)
        table = table_for(sc, [])
        states = states_for(sc, {})
        with pytest.raises(KeyError):
            edge(sc, table, states, 0.0)

    def test_dc_tie_breaks_to_lowest_id(self):
        sc = make_scenario(n_sats=1, v=1.0, dc_prices=[1.0, 1.0], dc_kappas=[0.01, 0.01])
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)]})
        cand = edge(sc, table, states, 0.0)
        assert cand.data_center_id == "dc-0"


class TestBuildBipartite:
    def test_no_contacts_all_virtual(self):
        sc = make_scenario(n_sats=3)
        table = table_for(sc, [])
        graph = build_bipartite(states_for(sc, {}), 0.0, 0, sc, table,
                                ScenarioArrays.from_scenario(sc))
        assert graph.edge_row.dtype == np.int64  # indexes table.sat, even when empty
        triples, objective = hungarian_min_matching(graph)
        assert triples == ()
        assert objective == 0.0

    def test_antenna_copies_share_weight(self):
        sc = make_scenario(n_sats=1, stations=((2, 22.0),))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        graph = build_bipartite(states, 0.0, 0, sc, table, ScenarioArrays.from_scenario(sc))
        assert graph.weights.shape == (1, 3)  # 2 real antennas + 1 virtual
        assert graph.weights[0, 0] == graph.weights[0, 1]
        assert graph.weights[0, 2] == 0.0

    def test_invisible_satellite_only_virtual(self):
        sc = make_scenario(n_sats=2, stations=((1, 22.0),))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)], "sat-1": [(0, 100.0)]})
        graph = build_bipartite(states, 0.0, 0, sc, table, ScenarioArrays.from_scenario(sc))
        big = graph.weights.max()
        assert graph.weights[1, 0] == big  # no contact for sat-1
        assert graph.weights[1, 2] == 0.0  # its own virtual


class TestMatching:
    def test_contention_goes_to_larger_backlog(self):
        sc = make_scenario(n_sats=2, stations=((1, 22.0),), v=0.0)
        table = table_for(sc, [("sat-0", "gs-0", 12_000.0), ("sat-1", "gs-0", 12_000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)], "sat-1": [(0, 70.0)]})
        triples, _ = schedule_slot(states, 0.0, 0, sc, table)
        assert len(triples) == 1
        assert named(triples[0], table, sc).satellite == "sat-0"

    def test_assignments_satisfy_constraints(self):
        sc = make_scenario(n_sats=3, stations=((1, 22.0), (2, 18.0)))
        table = table_for(sc, [("sat-0", "gs-0", 5000.0), ("sat-1", "gs-0", 5000.0),
                               ("sat-1", "gs-1", 3000.0), ("sat-2", "gs-1", 1000.0)])
        states = states_for(sc, {s.id: [(0, 4000.0)] for s in sc.satellites})
        triples, _ = schedule_slot(states, 0.0, 0, sc, table)
        assert check_assignment(triples, 0, ScenarioArrays.from_scenario(sc), table) == []


def test_kernel_sees_only_satellites_that_can_gain(monkeypatch):
    # sat-0 and sat-1 hold data in view of a station; sat-2 is in view with
    # an empty backlog, so its only edge costs the rental; sat-3 sees nothing
    sc = make_scenario(n_sats=4, stations=((2, 22.0), (1, 18.0)), v=1.0)
    table = table_for(sc, [("sat-0", "gs-0", 5000.0), ("sat-1", "gs-0", 5000.0),
                           ("sat-1", "gs-1", 3000.0), ("sat-2", "gs-1", 3000.0)])
    states = states_for(sc, {"sat-0": [(0, 4000.0)], "sat-1": [(0, 2000.0)]})
    seen = []
    kernel = hungarian.min_cost_assignment

    def spy(cost):
        seen.append(cost.shape)
        return kernel(cost)

    monkeypatch.setattr(hungarian, "min_cost_assignment", spy)
    graph = build_bipartite(states, 0.0, 0, sc, table, ScenarioArrays.from_scenario(sc))
    n_real = graph.n_real
    gains = (graph.weights[:, :n_real] < 0.0).any(axis=1)
    assert gains.tolist() == [True, True, False, False]
    triples, _ = hungarian_min_matching(graph)
    # two rows; the three gs-0/gs-1 antennas both rows can use, and their fallbacks
    assert seen == [(2, 3 + 2)]
    assert [named(tr, table, sc).satellite for tr in triples] == ["sat-0", "sat-1"]


class TestSkip:
    """A slot graph with no edge below its satellite's fallback returns no
    triples and objective 0 at once, without a kernel call, and doing nothing
    is scipy's minimum of the slot's weights: the sum of the fallbacks."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = hungarian.min_cost_assignment

        def spy(cost):
            calls.append(cost.shape)
            return kernel(cost)

        monkeypatch.setattr(hungarian, "min_cost_assignment", spy)
        return calls

    def assert_skipped(self, graph, kernel_calls):
        scipy_opt = pytest.importorskip("scipy.optimize")
        triples, objective = hungarian_min_matching(graph)
        assert triples == ()
        assert objective == 0.0
        assert kernel_calls == []
        rows, cols = scipy_opt.linear_sum_assignment(graph.weights)
        assert graph.weights[rows, cols].sum() == graph.fallback.sum()

    def test_slot_without_contacts(self, kernel_calls):
        sc = make_scenario(n_sats=3)
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        graph = build_bipartite(states, 0.0, 0, sc, table_for(sc, []),
                                ScenarioArrays.from_scenario(sc))
        assert len(graph.edge_w) == 0
        self.assert_skipped(graph, kernel_calls)

    def test_best_edge_ties_its_fallback(self, kernel_calls):
        # V = 0 and nothing onboard: every edge weighs exactly the zero fallback
        sc = make_scenario(n_sats=2, stations=((2, 22.0), (1, 18.0)), v=0.0)
        table = table_for(sc, [("sat-0", "gs-0", 5000.0), ("sat-0", "gs-1", 3000.0),
                               ("sat-1", "gs-1", 3000.0)])
        graph = build_bipartite(states_for(sc, {}), 0.0, 0, sc, table,
                                ScenarioArrays.from_scenario(sc))
        assert graph.edge_w.tolist() == [0.0, 0.0, 0.0]
        self.assert_skipped(graph, kernel_calls)

    def test_ilp_hpq_slot_without_high_priority(self, kernel_calls):
        # both satellites hold fresh data in view, so no fallback is forced
        sc = make_scenario(n_sats=2, stations=((1, 22.0),), v=1.0)
        table = table_for(sc, [("sat-0", "gs-0", 5000.0), ("sat-1", "gs-0", 3000.0)])
        states = states_for(sc, {"sat-0": [(0, 400.0)], "sat-1": [(0, 200.0)]})
        policy = IlpHpqPolicy(with_overrides(sc, policy="ilp_hpq"), ScenarioArrays.from_scenario(sc))
        assert policy.schedule(states, 0.0, 0, table) == ()
        graph = policy.graph
        assert (graph.fallback == 0.0).all() and (graph.edge_w > 0.0).all()
        self.assert_skipped(graph, kernel_calls)


def check(scenario, table, *triples, slot=0):
    """check_assignment's violations of the slot's triples (contact, antenna, dc)."""
    return check_assignment(tuple(AssignmentTriple(*t) for t in triples), slot,
                            ScenarioArrays.from_scenario(scenario), table)


class TestValidator:
    def test_flags_double_booked_antenna(self):
        sc = make_scenario(n_sats=2, stations=((1, 22.0),))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0), ("sat-1", "gs-0", 1000.0)])
        violations = check(sc, table, (0, 0, 0), (1, 0, 0))
        assert any("antenna" in v for v in violations)

    def test_flags_invisible_station(self):
        sc = make_scenario(n_sats=1)
        table = table_for(sc, [])
        violations = check(sc, table, (0, 0, 0))
        assert any("visibility" in v for v in violations)

    def test_flags_duplicate_satellite(self):
        sc = make_scenario(n_sats=1, stations=((2, 22.0),))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        violations = check(sc, table, (0, 0, 0), (0, 1, 0))
        assert any("single-selection" in v for v in violations)

    # rows by (slot, satellite, station): 0 (0, sat-0, gs-0), 1 (0, sat-0, gs-1),
    # 2 (0, sat-1, gs-0), 3 (1, sat-0, gs-0); the triple is meant for slot 0
    @pytest.mark.parametrize("row, wrong", [
        (3, "another slot"), (4, "out of range"), (-1, "out of range")])
    def test_flags_a_row_that_is_not_the_triples_contact(self, row, wrong):
        sc = make_scenario(n_sats=2, stations=((1, 22.0), (1, 18.0)))
        table = contact_table(sc, [Contact(t, s, g, 45.0, 1000.0) for t, s, g in (
            (0, "sat-0", "gs-0"), (0, "sat-0", "gs-1"), (0, "sat-1", "gs-0"),
            (1, "sat-0", "gs-0"))])
        assert check(sc, table, (0, 0, 0)) == []
        assert [v for v in check(sc, table, (row, 0, 0)) if "visibility" in v], wrong

    # gs-0 has two antennas and the scenario two data centers
    @pytest.mark.parametrize("antenna, dc, kind", [
        (2, 0, "antenna-count"), (-1, 0, "antenna-count"),
        (0, 2, "data center"), (0, -1, "data center")])
    def test_flags_an_antenna_or_data_center_out_of_range(self, antenna, dc, kind):
        sc = make_scenario(n_sats=1, stations=((2, 22.0),), n_dcs=2)
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        assert check(sc, table, (0, 1, 1)) == []
        assert [v for v in check(sc, table, (0, antenna, dc)) if kind in v]


class TestBruteForce:
    def test_empty_instance(self):
        sc = make_scenario(n_sats=1)
        table = table_for(sc, [])
        triples, objective = brute_force_schedule({"sat-0": 0.0}, 0.0, 0, sc, table)
        assert triples == () and objective == 0.0

    def test_three_way_enumeration(self):
        sc = make_scenario(n_sats=1, stations=((1, 22.0),), n_dcs=2, v=1.0)
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)]})
        triples, objective = brute_force_schedule(backlogs_of(states), 0.0, 0, sc, table)
        # oracle must match the matcher exactly on this trivial instance
        _, matched = schedule_slot(states, 0.0, 0, sc, table)
        assert objective == pytest.approx(matched, rel=1e-12)

    def test_guard_refuses_large_instances(self):
        sc = make_scenario(n_sats=1, stations=((4, 22.0), (4, 22.0)))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        with pytest.raises(InstanceTooLargeError):
            brute_force_schedule({"sat-0": 0.0}, 0.0, 0, sc, table)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_oracle_equivalence_random(seed):
    fast, exact = oracle_agreement(seed)
    assert fast == pytest.approx(exact, rel=1e-9, abs=1e-9)


def _station_level(graph, cols):
    """Matching as satellite -> station/virtual (antenna copies are interchangeable)."""
    out = []
    n_real = graph.n_real
    arrays = graph.arrays
    antenna_station = np.repeat(np.arange(len(arrays.gs_ids)), arrays.antenna_counts)
    for si, col in enumerate(cols.tolist()):
        out.append(("virtual", si) if col >= n_real
                   else ("real", int(antenna_station[col])))
    return out


def _total(weights, col4row):
    return float(weights[np.arange(len(col4row)), col4row].sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(2097152)  # two satellites tie exactly between two stations
def test_constant_shift_invariance(seed):
    """A per-satellite constant on all its edges leaves the argmin unchanged.

    Every left-perfect matching uses exactly one edge per satellite, so all
    totals move by the same amount. Antenna copies within a station carry
    equal weights, so invariance is asserted at the station level. When two
    optimal matchings tie exactly, the shift may pick the other one, which
    must then cost the same on the original weights.
    """
    rng = np.random.default_rng(seed)
    scenario, table, states, slot, q = random_instance(rng)
    graph = build_bipartite(states, q, slot, scenario, table,
                            ScenarioArrays.from_scenario(scenario))
    base_cols = hungarian.min_cost_assignment(graph.weights)
    shifted = graph.weights.copy()
    n_sats = len(graph.arrays.sat_ids)
    shifts = rng.uniform(-1e5, 1e5, size=n_sats)
    for i in range(n_sats):
        shifted[i, :] += shifts[i]
    shifted_cols = hungarian.min_cost_assignment(shifted)
    base_total = _total(graph.weights, base_cols)
    if _station_level(graph, base_cols) != _station_level(graph, shifted_cols):
        assert _total(graph.weights, shifted_cols) == pytest.approx(base_total, rel=1e-12)
    shifted_total = _total(shifted, shifted_cols)
    assert shifted_total == pytest.approx(base_total + shifts.sum(), rel=1e-9, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_scalar_and_vectorized_weights_agree(seed):
    """build_bipartite's batch math must equal the oracle's scalar evaluation of
    each edge's downlink, at a data center no other one beats."""
    rng = np.random.default_rng(seed)
    scenario, table, states, slot, q = random_instance(rng)
    graph = build_bipartite(states, q, slot, scenario, table,
                            ScenarioArrays.from_scenario(scenario))
    arrays = graph.arrays
    for si, gi, rate in zip(*(c.tolist() for c in table.slot_contacts(slot))):
        backlog = states[arrays.sat_ids[si]].total_mb
        batched = graph.candidates[(si, gi)]
        scalar = [_triple_contribution(backlog, rate, gi, d, q, scenario, arrays)
                  for d in range(len(arrays.dc_ids))]
        # the scalar form cancels terms as large as Q * backlog / xi
        cost = arrays.price_slot[gi] + (arrays.dc_price * arrays.dc_kappa).max() * batched.dtil_mb
        tol = 1e-12 * (scenario.v * cost + (backlog + q / scenario.xi) * backlog + 1.0)
        assert batched.weight == pytest.approx(
            scalar[arrays.dc_ids.index(batched.data_center_id)], abs=tol)
        assert batched.weight <= min(scalar) + tol
        assert batched.dtil_mb == min(rate * scenario.tau, backlog)
        col = int(arrays.station_col0[gi])
        assert graph.weights[si, col] == batched.weight


def test_q_dominant_limit_matches_oracle():
    # with Q huge the virtual-queue drift dominates; the matcher must agree
    # with enumeration, which awards the antenna to the downlink that takes
    # the most data out of the accruing backlog (the faster link), whatever
    # the age of that data
    sc = make_scenario(n_sats=2, stations=((1, 22.0),), v=0.0)
    table = table_for(sc, [("sat-0", "gs-0", 500.0), ("sat-1", "gs-0", 1000.0)],
                      slot=50)
    states = states_for(sc, {"sat-0": [(0, 900.0)], "sat-1": [(49, 900.0)]})
    triples, fast = schedule_slot(states, 1e9, 50, sc, table)
    oracle_triples, exact = brute_force_schedule(backlogs_of(states), 1e9, 50, sc, table)
    assert fast == pytest.approx(exact, rel=1e-9)
    assert named(triples[0], table, sc).satellite == "sat-1"
    assert named(oracle_triples[0], table, sc).satellite == "sat-1"


@pytest.mark.parametrize("q", [1e7, 1e9, 1e12])
def test_large_q_downlinks_backlog_older_than_threshold(q):
    # One visible satellite, a free antenna, and a backlog that has already
    # waited beyond xi. Holding it keeps charging Q for every minute onboard,
    # so a large Q must push the broker to downlink. V is high enough that
    # the backlog alone would not pay for the antenna.
    sc = make_scenario(n_sats=1, stations=((1, 22.0),), v=1e6)
    table = table_for(sc, [("sat-0", "gs-0", 1000.0)], slot=200)
    states = states_for(sc, {"sat-0": [(0, 600.0), (10, 300.0)]})
    assert schedule_slot(states, 0.0, 200, sc, table)[0] == ()
    triples, _ = schedule_slot(states, q, 200, sc, table)
    assert [named(tr, table, sc).satellite for tr in triples] == ["sat-0"]
    assert triples[0].contact == 0
    graph = build_bipartite(states, q, 200, sc, table, ScenarioArrays.from_scenario(sc))
    assert graph.candidates[(0, 0)].dtil_mb == 900.0


def dyadic(top, scale):
    """Multiples of 1/scale from 0 to top/scale: exact floats whose sums and
    products stay exact, so that equal scores tie exactly."""
    return st.integers(0, top).map(lambda k: k / scale)


@st.composite
def dc_worlds(draw):
    """A validated world of 1-3 stations and 1-5 data centers, each entity list
    in a shuffled file order, with dyadic prices, intensities and backhaul rates."""
    dc_ids = [f"dc-{k}" for k in range(draw(st.integers(1, 5)))]
    data_centers = [{"id": d, "provider": "p", "price_per_min": draw(dyadic(8, 4)),
                     "intensity_min_per_mb": draw(st.integers(1, 8)) / 8}
                    for d in draw(st.permutations(dc_ids))]
    stations = [{"id": f"gs-{j}", "provider": "p", "lat_deg": 0.0, "lon_deg": 0.0,
                 "antennas": 1, "price_per_slot": 1.0,
                 "backhaul_mb_per_min": {d: 2.0 ** draw(st.integers(-3, 3)) for d in dc_ids}}
                for j in draw(st.permutations(range(draw(st.integers(1, 3)))))]
    return validate_scenario({
        "satellites": [{"id": "sat-0", "altitude_km": 475.0, "daily_volume_mb": 1.0}],
        "ground_stations": stations, "data_centers": data_centers,
        "sim": {"tau": 1.0, "horizon": 1, "xi": 60.0, "v": 0.0, "seed": 1, "policy": "skygs"},
    })


WEIGHTS = st.one_of(st.just(0.0), dyadic(64, 8), st.just(2.0 ** 30))


@settings(max_examples=300, deadline=None)
@given(dc_worlds(), st.lists(st.tuples(WEIGHTS, WEIGHTS), min_size=1, max_size=3))
@example(make_scenario(n_dcs=3, dc_prices=[1.0, 0.5, 0.5], dc_kappas=[0.5, 0.5, 0.5]),
         [(1.0, 0.0), (1.0, 2.0 ** 30), (0.0, 0.0)])
def test_best_data_center_is_the_brute_force_argmin(scenario, weights):
    """For each station, the data center minimizing
    v * price * kappa + qw * (1 / backhaul + kappa), read from the scenario's
    own objects by id, ties going to the lowest id; (v, qw) runs from qw = 0
    to qw far above v, and changes between calls on one set of arrays."""
    arrays = ScenarioArrays.from_scenario(scenario)
    stations = {g.id: g for g in scenario.ground_stations}
    for v, qw in weights:
        want = [min(scenario.data_centers,
                    key=lambda d: (v * d.price_per_min * d.intensity_min_per_mb
                                   + qw * (1.0 / stations[gs_id].backhaul_mb_per_min[d.id]
                                           + d.intensity_min_per_mb), d.id)).id
                for gs_id in arrays.gs_ids]
        assert [arrays.dc_ids[di] for di in arrays.best_dc_per_station(v, qw)] == want
