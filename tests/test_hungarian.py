import itertools
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import make_scenario, states_for
from reference_kernel import (dense_min_cost_assignment, reference_assignment, reference_block,
                              slot_bound)
from skygs import baselines, engine, hungarian
from skygs.hungarian import min_cost_assignment
from skygs.model import validate_scenario, with_overrides
from skygs.orbit import ContactTable, build_contact_table
from skygs.scenarios import desk_scenario, full_scale_scenario
from skygs.scheduler import ScenarioArrays, SlotGraph, build_bipartite

scipy_opt = pytest.importorskip("scipy.optimize")


def assignment_cost(cost, col4row):
    """Total cost of the cells that col4row assigns."""
    return float(cost[np.arange(len(col4row)), col4row].sum())


def enumerate_min(cost):
    """Exhaustive minimum over all row-perfect assignments."""
    n, m = cost.shape
    best = np.inf
    for cols in itertools.permutations(range(m), n):
        total = sum(cost[i, c] for i, c in enumerate(cols))
        best = min(best, total)
    return best


class TestSmall:
    def test_contention_two_sats_one_antenna(self):
        # columns: shared antenna, sat-1 virtual, sat-2 virtual
        big = 1e6
        cost = np.array([[-5.0, 0.0, big],
                         [-3.0, big, 0.0]])
        cols = min_cost_assignment(cost)
        # hand enumeration: -5 + 0 beats 0 + -3
        assert assignment_cost(cost, cols) == pytest.approx(-5.0)
        assert cols[0] == 0 and cols[1] == 2

    def test_all_positive_prefers_virtuals(self):
        big = 1e6
        cost = np.array([[7.0, 0.0, big],
                         [2.0, big, 0.0]])
        cols = min_cost_assignment(cost)
        assert assignment_cost(cost, cols) == 0.0

    def test_single_negative_edge(self):
        cost = np.array([[-7.0, 0.0]])
        cols = min_cost_assignment(cost)
        assert assignment_cost(cost, cols) == -7.0

    def test_empty(self):
        assert min_cost_assignment(np.zeros((0, 3))).size == 0

    def test_rejects_more_rows_than_cols(self):
        with pytest.raises(ValueError):
            min_cost_assignment(np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        # NaN and -inf are rejected; +inf is accepted and means "no edge"
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="NaN or -inf"):
                min_cost_assignment(np.array([[bad, 0.0]]))
        inf = np.inf
        assert min_cost_assignment(np.array([[inf, 2.0]])).tolist() == [1]
        cost = np.array([[inf, 0.0, inf],
                         [-3.0, inf, 0.0]])
        assert min_cost_assignment(cost).tolist() == [1, 0]

    def test_rejects_an_infeasible_block(self):
        # both rows reach only column 0, and the last row no column at all
        inf = np.inf
        with pytest.raises(ValueError, match="row 1 cannot reach a free column"):
            min_cost_assignment(np.array([[1.0, inf], [2.0, inf]]))
        with pytest.raises(ValueError, match="row 1 cannot reach a free column"):
            min_cost_assignment(np.array([[1.0, 5.0], [inf, inf]]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_matches_enumeration(n_rows, extra_cols, seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(-100, 100, size=(n_rows, n_rows + extra_cols))
    cols = min_cost_assignment(cost)
    assert len(set(cols.tolist())) == n_rows  # a matching
    assert assignment_cost(cost, cols) == pytest.approx(enumerate_min(cost), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
def test_matches_scipy(n_rows, extra_cols, seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(-1000, 1000, size=(n_rows, n_rows + extra_cols))
    cols = min_cost_assignment(cost)
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, cols) == pytest.approx(cost[rows_s, cols_s].sum(), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.floats(0.0, 0.9), st.integers(0, 2 ** 32 - 1))
def test_sparse_matrices_match_scipy_or_raise_when_infeasible(n_rows, extra_cols, p_inf, seed):
    """+inf cells are missing edges: the kernel reaches scipy's minimum where
    a matching of every row exists, and raises where scipy finds none."""
    rng = np.random.default_rng(seed)
    cost = rng.uniform(-100, 100, size=(n_rows, n_rows + extra_cols))
    cost[rng.random(cost.shape) < p_inf] = np.inf
    try:
        rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    except ValueError:
        with pytest.raises(ValueError, match="cannot reach a free column"):
            min_cost_assignment(cost)
        return
    cols = min_cost_assignment(cost)
    assert len(set(cols.tolist())) == n_rows
    assert assignment_cost(cost, cols) == pytest.approx(cost[rows_s, cols_s].sum(), rel=1e-12)


def slot_graph(rng, n_sats, antennas, fallbacks, weights, groups=1, ties=False, sees=None,
               shuffle=False):
    """A one-slot graph through SlotGraph.from_edges, whose edge k is table
    row k, or in shuffled order with `shuffle`. Stations have the given
    antenna counts (an antenna column per antenna, repeating its station's
    edge weight), and satellite i's virtual antenna weighs fallbacks[i].
    Satellite i sees station g where sees(i, g) holds; by default, station g
    and satellite i are in group g % groups and i % groups, and a satellite
    sees each station of its own group with probability 0.6. weights() draws
    each contact's weight. Several groups give the gaining rows several
    components. With `ties`, one edge is set to its satellite's fallback, and
    one satellite's edges at two stations are made equal, where the graph has
    such edges."""
    scenario = make_scenario(n_sats=n_sats, stations=tuple((a, 1.0) for a in antennas))
    arrays = ScenarioArrays.from_scenario(scenario)
    fallbacks = np.asarray(fallbacks, dtype=float)
    if sees is None:
        def sees(i, g):
            return i % groups == g % groups and rng.random() < 0.6
    pairs = [(i, g) for i in range(n_sats) for g in range(len(antennas)) if sees(i, g)]
    sat = np.array([i for i, _ in pairs], dtype=np.int64)
    gs = np.array([g for _, g in pairs], dtype=np.int64)
    n = len(pairs)
    weight = np.array([weights() for _ in range(n)], dtype=float)
    if ties and n:
        k = int(rng.integers(n))
        weight[k] = fallbacks[sat[k]]
        shared = [i for i in range(n_sats) if (sat == i).sum() >= 2]
        if shared:
            k0, k1 = np.nonzero(sat == shared[int(rng.integers(len(shared)))])[0][:2]
            weight[k1] = weight[k0]
    table = ContactTable(1, arrays.sat_ids, arrays.gs_ids, np.zeros(n), sat, gs,
                         np.full(n, 45.0), np.ones(n))
    row = rng.permutation(n) if shuffle else np.arange(n)
    return SlotGraph.from_edges(arrays, table, row, weight[row], np.ones(n),
                                np.zeros(n, dtype=np.int64), fallbacks)


def graph_col4row(graph, triples):
    """The matching's column per satellite row of graph.weights: the antenna
    column of each triple, the satellite's own virtual antenna otherwise."""
    cols = graph.n_real + np.arange(len(graph.fallback))
    for tr in triples:
        k = int(np.nonzero(graph.edge_row == tr.contact)[0][0])
        cols[graph.edge_sat[k]] = graph.arrays.station_col0[graph.edge_gs[k]] + tr.antenna
    return cols


def components(graph):
    """Connected components of the gaining rows, two rows joined when both
    gain at one station."""
    gains = graph.edge_w < graph.fallback[graph.edge_sat]
    parent = {int(si): int(si) for si in graph.edge_sat[gains]}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    first = {}
    for si, gi in zip(graph.edge_sat[gains].tolist(), graph.edge_gs[gains].tolist()):
        if gi in first:
            parent[find(si)] = find(first[gi])
        first.setdefault(gi, si)
    return len({find(si) for si in parent})


def assert_slot_matching(cost, cols):
    """A matching that uses no +inf cell and no other row's fallback."""
    n_sats = cost.shape[0]
    n_real = cost.shape[1] - n_sats
    assert len(set(cols.tolist())) == n_sats
    assert (cost[np.arange(n_sats), cols] < np.inf).all()
    fallback = cols >= n_real
    assert (cols[fallback] - n_real == np.nonzero(fallback)[0]).all()


def assert_objective(graph, cols, objective):
    """The matcher's objective is the edge weight of the cells it chose."""
    real = cols < graph.n_real
    assert objective == pytest.approx(assignment_cost(graph.weights[real], cols[real]),
                                      rel=1e-12, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_paths_identical_on_slot_shaped_matrices(n_sats, antennas_per_station, groups, seed):
    """Slot graphs are tie-heavy: duplicated antenna columns, +inf
    everywhere else, zeros on the private virtual diagonal.
    The graph matcher and the kernel on the full matrix pick the same columns
    (no weight ties a fallback here) and reach scipy's minimum."""
    rng = np.random.default_rng(seed)
    n_stations = int(rng.integers(1, 4))
    graph = slot_graph(rng, n_sats, [antennas_per_station] * n_stations, np.zeros(n_sats),
                       lambda: rng.uniform(-1e6, 1e3), groups)
    triples, objective = checked_match(graph)
    pruned = graph_col4row(graph, triples)
    cost = graph.weights
    assert np.array_equal(pruned, min_cost_assignment(cost))
    assert_slot_matching(cost, pruned)
    assert_objective(graph, pruned, objective)
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, pruned) == pytest.approx(cost[rows_s, cols_s].sum(),
                                                         rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.booleans(), st.booleans(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_pruned_matcher_reaches_the_minimum(n_sats, antennas, forced, ties, groups, seed):
    """Duplicated antenna columns, rows without a contact, rows whose real
    cells are all positive, positive fallbacks (a forced downlink, as in
    ilp_hpq) and weights drawn from a small set, so real cells often tie a
    fallback exactly, with planted ties on demand and gaining rows in up to
    three components. The graph matcher reaches the full-matrix kernel's and
    scipy's total and uses no +inf cell and no other row's fallback."""
    rng = np.random.default_rng(seed)
    levels = np.array([-3.0, -1.0, 0.0, 2.0, 5.0])
    fallbacks = np.where(rng.random(n_sats) < 0.5, 5.0, 0.0) if forced else np.zeros(n_sats)
    graph = slot_graph(rng, n_sats, antennas, fallbacks, lambda: float(rng.choice(levels)),
                       groups, ties)
    triples, objective = checked_match(graph)
    pruned = graph_col4row(graph, triples)
    cost = graph.weights
    assert_slot_matching(cost, pruned)
    assert_objective(graph, pruned, objective)
    full = assignment_cost(cost, min_cost_assignment(cost))
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, pruned) == full == cost[rows_s, cols_s].sum()
    # a row that cannot beat its fallback takes it
    n_real = graph.n_real
    no_gain = cost[:, :n_real].min(axis=1, initial=np.inf) >= cost[np.arange(n_sats),
                                                                   n_real + np.arange(n_sats)]
    assert (pruned[no_gain] == n_real + np.nonzero(no_gain)[0]).all()


def test_gaining_rows_in_several_components():
    """Satellites in three groups that share no station: the gaining rows
    fall into several components, and the graph matcher still picks the
    full-matrix kernel's columns and reaches scipy's minimum."""
    split = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        graph = slot_graph(rng, 9, [2, 1, 1, 2, 1, 3], np.zeros(9),
                           lambda: rng.uniform(-1e6, 1e3), groups=3)
        split += components(graph) >= 2
        triples, objective = checked_match(graph)
        pruned = graph_col4row(graph, triples)
        cost = graph.weights
        assert np.array_equal(pruned, min_cost_assignment(cost))
        assert_objective(graph, pruned, objective)
        rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
        assert assignment_cost(cost, pruned) == pytest.approx(cost[rows_s, cols_s].sum(),
                                                             rel=1e-12)
    assert split >= 30


def test_kernel_on_a_whole_full_scale_slot_matrix():
    """153 satellites and 48 stations of two antennas give the full-scale
    slot matrix, 153 x 249; the kernel solves it whole and reaches scipy's
    total."""
    rng = np.random.default_rng(11)
    graph = slot_graph(rng, 153, [2] * 48, np.zeros(153), lambda: rng.uniform(-1e6, 1e3))
    cost = graph.weights
    assert cost.shape == (153, 249)
    cols = min_cost_assignment(cost)
    assert_slot_matching(cost, cols)
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, cols) == pytest.approx(cost[rows_s, cols_s].sum(), rel=1e-12)


def test_broker_reaches_the_minimum_on_the_all_backlogged_full_scale_slot():
    """Criterion 10's slot: every full-scale satellite holds 30 chunks, so
    every satellite in view can gain and the kernel gets its largest matrix.
    The broker's matching reaches scipy's minimum of the slot's weights."""
    scenario = validate_scenario(full_scale_scenario(seed=1))
    table = build_contact_table(scenario)
    rng = np.random.default_rng(0)
    states = states_for(scenario, {sat.id: [(-k, float(rng.uniform(100, 2000)))
                                            for k in range(30)]
                                   for sat in scenario.satellites})
    graph = build_bipartite(states, 123.0, 0, scenario, table,
                            ScenarioArrays.from_scenario(scenario))
    assert len(np.unique(graph.edge_sat[graph.edge_w < 0.0])) > 60  # kernel rows
    triples, objective = checked_match(graph)
    cols = graph_col4row(graph, triples)
    cost = graph.weights
    assert_slot_matching(cost, cols)
    assert_objective(graph, cols, objective)
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, cols) == pytest.approx(cost[rows_s, cols_s].sum(), rel=1e-12)


def assert_kernels_agree(cost, bound):
    """The sparse kernel on the +inf block picks the dense reference kernel's
    columns on the same block with `bound` in place of each +inf cell."""
    dense = dense_min_cost_assignment(np.where(np.isinf(cost), bound, cost))
    assert np.array_equal(min_cost_assignment(cost), dense)


class MatchCall(NamedTuple):
    reference: np.ndarray      # reference_block of the graph the matcher received
    bound: float               # slot_bound of that graph
    expected: tuple            # reference_assignment of that graph
    result: tuple              # the matcher's (triples, objective)
    block: np.ndarray | None   # the block it handed the kernel, None without a call


def kernel_blocks(run):
    """Every call that `run()` makes to the matcher through a matching policy,
    paired with the kernel call it made, if any: a MatchCall each, read from
    the graph that the matcher received."""
    calls, blocks = [], {}
    kernel, match = hungarian.min_cost_assignment, baselines.hungarian_min_matching

    def spy_match(graph):
        calls.append([reference_block(graph), slot_bound(graph.edge_w, graph.fallback),
                      reference_assignment(graph)])
        result = match(graph)
        calls[-1].append(result)
        return result

    def spy_kernel(cost):
        assert calls and len(calls) - 1 not in blocks  # at most one call per match
        blocks[len(calls) - 1] = cost.copy()
        return kernel(cost)

    with mock.patch.object(hungarian, "min_cost_assignment", spy_kernel), \
            mock.patch.object(baselines, "hungarian_min_matching", spy_match):
        run()
    return [MatchCall(*call, blocks.get(i)) for i, call in enumerate(calls)]


def contested_block(reference):
    """The contested part of a reference block: the rows that have a finite
    cell in an antenna column where another row has one too, the antenna
    columns where one of them is finite, and their own virtual columns, in the
    block's order."""
    n_real = reference.shape[1] - len(reference)
    finite = reference[:, :n_real] < np.inf
    contested = (finite & (finite.sum(axis=0) > 1)).any(axis=1)
    cols = np.append(np.flatnonzero(finite[contested].any(axis=0)),
                     n_real + np.flatnonzero(contested))
    return reference[np.ix_(contested, cols)]


def assert_match_call(call):
    """The matcher returns the reference matcher's assignment and objective,
    exactly, and calls the kernel exactly when a block row is contested, then
    on the contested part of the reference block, cell for cell, where both
    kernels pick the same columns."""
    assert call.result == call.expected
    assert type(call.result[1]) is float
    contested = contested_block(call.reference)
    assert (call.block is not None) == (len(contested) > 0)
    if call.block is not None:
        assert call.block.dtype == np.float64
        assert np.array_equal(call.block, contested)
        assert_kernels_agree(call.block, call.bound)


def checked_match(graph):
    """hungarian_min_matching(graph), checked against the reference matcher
    and the contested part of the reference block."""
    calls = kernel_blocks(lambda: baselines.hungarian_min_matching(graph))
    assert len(calls) == 1
    assert_match_call(calls[0])
    return calls[0].result


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.booleans(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_sparse_kernel_picks_the_dense_kernels_columns(n_sats, antennas, forced, groups, seed):
    """On tie-heavy slot graphs, the whole weight matrix and the matcher's
    block each get the same columns from both kernels. The matcher returns
    the reference matcher's result and makes its one kernel call on the
    contested part of the reference block, and only when a row is contested."""
    rng = np.random.default_rng(seed)
    levels = np.array([-3.0, -1.0, 0.0, 2.0, 5.0])
    fallbacks = np.where(rng.random(n_sats) < 0.5, 5.0, 0.0) if forced else np.zeros(n_sats)
    graph = slot_graph(rng, n_sats, antennas, fallbacks, lambda: float(rng.choice(levels)),
                       groups, ties=True)
    assert_kernels_agree(graph.weights, slot_bound(graph.edge_w, graph.fallback))
    checked_match(graph)


def mixed_slot_graph(rng, n_private, n_shared, pool, forced):
    """Satellite i < n_private sees its own stations 2i and 2i + 1, each with
    probability 0.8, and each of the `pool` stations with probability 0.2;
    the other n_shared satellites see each pool station with probability 0.6.
    So a slot mixes uncontested satellites, some with two stations, and
    contested ones, some sharing a station only through an edge that does not
    gain. Weights come from a small set, so edges tie each other and their
    fallbacks (5 for about half the satellites when `forced`, else 0), and
    the edges come in shuffled order."""
    n_sats, n_own = n_private + n_shared, 2 * n_private
    antennas = rng.integers(1, 3, n_own).tolist() + list(pool)
    levels = np.array([-3.0, -1.0, 0.0, 2.0, 5.0])
    fallbacks = np.where(rng.random(n_sats) < 0.5, 5.0, 0.0) if forced else np.zeros(n_sats)

    def sees(i, g):
        if g >= n_own:
            return rng.random() < (0.2 if i < n_private else 0.6)
        return g // 2 == i and rng.random() < 0.8

    return slot_graph(rng, n_sats, antennas, fallbacks, lambda: float(rng.choice(levels)),
                      ties=True, sees=sees, shuffle=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_contested_and_uncontested_satellites_in_one_slot(n_private, n_shared, pool, forced,
                                                          seed):
    """On mixed slots, the matcher returns the reference matcher's result,
    calls the kernel on the contested part of the reference block only, and
    reaches scipy's minimum."""
    graph = mixed_slot_graph(np.random.default_rng(seed), n_private, n_shared, pool, forced)
    triples, _objective = checked_match(graph)
    cols = graph_col4row(graph, triples)
    cost = graph.weights
    assert_slot_matching(cost, cols)
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, cols) == cost[rows_s, cols_s].sum()


def test_mixed_slots_hold_every_kind_of_satellite():
    """The mixed slots are not all of one kind: over 60 seeds there are slots
    with contested and uncontested gaining satellites together, uncontested
    satellites whose cheapest edge ties at two stations, and satellites
    contested only through an edge that does not gain."""
    mixed = tied = through_no_gain = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        graph = mixed_slot_graph(rng, 3, 3, [1, 2], forced=seed % 2 == 0)
        sat, gs, w = graph.edge_sat.tolist(), graph.edge_gs.tolist(), graph.edge_w.tolist()
        gains = [w[k] < graph.fallback[sat[k]] for k in range(len(w))]
        rows = {sat[k] for k in range(len(w)) if gains[k]}
        stations = {gs[k] for k in range(len(w)) if gains[k]}
        block = [k for k in range(len(w)) if sat[k] in rows and gs[k] in stations]
        shared = {g for g in stations if sum(gs[k] == g for k in block) > 1}
        contested = {sat[k] for k in block if gs[k] in shared}
        mixed += bool(contested) and bool(rows - contested)
        for s in rows - contested:
            least = min(w[k] for k in block if sat[k] == s)
            tied += sum(w[k] == least for k in block if sat[k] == s) > 1
        through_no_gain += any(not any(gains[k] for k in block if sat[k] == s and gs[k] in shared)
                               for s in contested)
    assert min(mixed, tied, through_no_gain) >= 3, (mixed, tied, through_no_gain)


def full_scale_world():
    scenario = validate_scenario(full_scale_scenario(1, horizon=48, policy="skygs"))
    return scenario, build_contact_table(scenario)


def desk_world(policy):
    scenario = with_overrides(validate_scenario(desk_scenario(1)), policy=policy)
    return scenario, build_contact_table(scenario)


@pytest.mark.parametrize("world, kernel_called",
                         [(full_scale_world, True), (lambda: desk_world("skygs"), False),
                          (lambda: desk_world("ilp_hpq"), False)],
                         ids=["full-scale-48-skygs", "desk-skygs", "desk-ilp_hpq"])
def test_sparse_kernel_picks_the_dense_kernels_columns_on_every_block_of_a_run(world,
                                                                              kernel_called):
    """A run matches once per slot, and every match returns the reference
    matcher's result and calls the kernel only on the contested part of the
    reference block, where both kernels pick the same columns. No desk slot
    holds a contested satellite, so desk runs make no kernel call; the
    full-scale run does, on blocks that hold +inf cells."""
    scenario, table = world()
    calls = kernel_blocks(lambda: engine.run(scenario, table=table))
    assert len(calls) == scenario.horizon
    for call in calls:
        assert_match_call(call)
    assert sum(len(call.reference) > 0 for call in calls) > 0  # slots where a row gains
    blocks = [call.block for call in calls if call.block is not None]
    assert bool(blocks) == kernel_called
    assert sum(np.isinf(block).any() for block in blocks) > 0 or not kernel_called
