import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instances import (contact_table, make_scenario, named, oracle_agreement,
                       random_instance, schedule_slot, states_for, table_for)
from skygs import hungarian
from skygs.orbit import Contact
from skygs.scheduler import (Assignment, AssignmentTriple, InstanceTooLargeError,
                             ScenarioArrays, _triple_contribution, brute_force_schedule,
                             build_bipartite, check_assignment, hungarian_min_matching)


def edge(sc, table, states, q, si=0, gi=0):
    """The candidate edge (satellite position si, station position gi) of the
    broker's slot-0 graph."""
    return build_bipartite(states, q, 0, sc, table).candidates[(si, gi)]


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
        graph = build_bipartite(states_for(sc, {}), 0.0, 0, sc, table)
        assignment, objective = hungarian_min_matching(graph)
        assert assignment.triples == ()
        assert objective == 0.0

    def test_antenna_copies_share_weight(self):
        sc = make_scenario(n_sats=1, stations=((2, 22.0),))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)]})
        graph = build_bipartite(states, 0.0, 0, sc, table)
        assert graph.weights.shape == (1, 3)  # 2 real antennas + 1 virtual
        assert graph.weights[0, 0] == graph.weights[0, 1]
        assert graph.weights[0, 2] == 0.0

    def test_invisible_satellite_only_virtual(self):
        sc = make_scenario(n_sats=2, stations=((1, 22.0),))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)], "sat-1": [(0, 100.0)]})
        graph = build_bipartite(states, 0.0, 0, sc, table)
        big = graph.weights.max()
        assert graph.weights[1, 0] == big  # no contact for sat-1
        assert graph.weights[1, 2] == 0.0  # its own virtual


class TestMatching:
    def test_contention_goes_to_larger_backlog(self):
        sc = make_scenario(n_sats=2, stations=((1, 22.0),), v=0.0)
        table = table_for(sc, [("sat-0", "gs-0", 12_000.0), ("sat-1", "gs-0", 12_000.0)])
        states = states_for(sc, {"sat-0": [(0, 100.0)], "sat-1": [(0, 70.0)]})
        assignment, _ = schedule_slot(states, 0.0, 0, sc, table)
        assert len(assignment.triples) == 1
        assert named(assignment.triples[0], table, sc).satellite == "sat-0"

    def test_assignments_satisfy_constraints(self):
        sc = make_scenario(n_sats=3, stations=((1, 22.0), (2, 18.0)))
        table = table_for(sc, [("sat-0", "gs-0", 5000.0), ("sat-1", "gs-0", 5000.0),
                               ("sat-1", "gs-1", 3000.0), ("sat-2", "gs-1", 1000.0)])
        states = states_for(sc, {s.id: [(0, 4000.0)] for s in sc.satellites})
        assignment, _ = schedule_slot(states, 0.0, 0, sc, table)
        assert check_assignment(assignment, ScenarioArrays.from_scenario(sc), table) == []


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
    graph = build_bipartite(states, 0.0, 0, sc, table)
    n_real = graph.n_real
    gains = (graph.weights[:, :n_real] < 0.0).any(axis=1)
    assert gains.tolist() == [True, True, False, False]
    assignment, _ = hungarian_min_matching(graph)
    # two rows; the three gs-0/gs-1 antennas both rows can use, and their fallbacks
    assert seen == [(2, 3 + 2)]
    assert [named(tr, table, sc).satellite for tr in assignment.triples] == ["sat-0", "sat-1"]


def check(scenario, table, *triples, slot=0):
    """check_assignment's violations of the slot's triples (contact, antenna, dc)."""
    assignment = Assignment(slot=slot, triples=tuple(AssignmentTriple(*t) for t in triples))
    return check_assignment(assignment, ScenarioArrays.from_scenario(scenario), table)


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
        assignment, objective = brute_force_schedule(states_for(sc, {}), 0.0, 0, sc, table)
        assert assignment.triples == () and objective == 0.0

    def test_three_way_enumeration(self):
        sc = make_scenario(n_sats=1, stations=((1, 22.0),), n_dcs=2, v=1.0)
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        states = states_for(sc, {"sat-0": [(0, 500.0)]})
        assignment, objective = brute_force_schedule(states, 0.0, 0, sc, table)
        # oracle must match the matcher exactly on this trivial instance
        _, matched = schedule_slot(states, 0.0, 0, sc, table)
        assert objective == pytest.approx(matched, rel=1e-12)

    def test_guard_refuses_large_instances(self):
        sc = make_scenario(n_sats=1, stations=((4, 22.0), (4, 22.0)))
        table = table_for(sc, [("sat-0", "gs-0", 1000.0)])
        with pytest.raises(InstanceTooLargeError):
            brute_force_schedule(states_for(sc, {}), 0.0, 0, sc, table)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_oracle_equivalence_random(seed):
    fast, exact = oracle_agreement(seed)
    assert fast == pytest.approx(exact, rel=1e-9, abs=1e-9)


def _station_level(graph, cols):
    """Matching as satellite -> station/virtual (antenna copies are interchangeable)."""
    out = []
    n_real = graph.n_real
    for si, col in enumerate(cols.tolist()):
        out.append(("virtual", si) if col >= n_real
                   else ("real", int(graph.arrays.antenna_station[col])))
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
    graph = build_bipartite(states, q, slot, scenario, table)
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
    graph = build_bipartite(states, q, slot, scenario, table)
    arrays = graph.arrays
    for si, gi, rate in zip(*(c.tolist() for c in table.slot_contacts(slot))):
        state = states[arrays.sat_ids[si]]
        batched = graph.candidates[(si, gi)]
        scalar = [_triple_contribution(state, rate, gi, d, q, scenario, arrays)
                  for d in range(len(arrays.dc_ids))]
        # the scalar form cancels terms as large as Q * backlog / xi
        cost = arrays.price_slot[gi] + (arrays.dc_price * arrays.dc_kappa).max() * batched.dtil_mb
        tol = 1e-12 * (scenario.v * cost + (state.total_mb + q / scenario.xi) * state.total_mb
                       + 1.0)
        assert batched.weight == pytest.approx(
            scalar[arrays.dc_ids.index(batched.data_center_id)], abs=tol)
        assert batched.weight <= min(scalar) + tol
        assert batched.dtil_mb == min(rate * scenario.tau, state.total_mb)
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
    assignment, fast = schedule_slot(states, 1e9, 50, sc, table)
    oracle_assignment, exact = brute_force_schedule(states, 1e9, 50, sc, table)
    assert fast == pytest.approx(exact, rel=1e-9)
    assert named(assignment.triples[0], table, sc).satellite == "sat-1"
    assert named(oracle_assignment.triples[0], table, sc).satellite == "sat-1"


@pytest.mark.parametrize("q", [1e7, 1e9, 1e12])
def test_large_q_downlinks_backlog_older_than_threshold(q):
    # One visible satellite, a free antenna, and a backlog that has already
    # waited beyond xi. Holding it keeps charging Q for every minute onboard,
    # so a large Q must push the broker to downlink. V is high enough that
    # the backlog alone would not pay for the antenna.
    sc = make_scenario(n_sats=1, stations=((1, 22.0),), v=1e6)
    table = table_for(sc, [("sat-0", "gs-0", 1000.0)], slot=200)
    states = states_for(sc, {"sat-0": [(0, 600.0), (10, 300.0)]})
    assert schedule_slot(states, 0.0, 200, sc, table)[0].triples == ()
    assignment, _ = schedule_slot(states, q, 200, sc, table)
    assert [named(tr, table, sc).satellite for tr in assignment.triples] == ["sat-0"]
    assert assignment.triples[0].contact == 0
    assert build_bipartite(states, q, 200, sc, table).candidates[(0, 0)].dtil_mb == 900.0
