import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygs.hungarian import match_with_fallbacks, min_cost_assignment

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
        with pytest.raises(ValueError):
            min_cost_assignment(np.array([[np.inf, 0.0]]))


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


def slot_matrix(rng, n_sats, antennas, fallbacks, weights):
    """Slot-layout matrix: each station's antennas are duplicated columns, a
    large forbidden value sits everywhere else, and row i's private fallback
    column n_real + i holds fallbacks[i]. weights() draws a contact's weight;
    a row sees each station with probability 0.6."""
    n_real = sum(antennas)
    big = 1e9
    cost = np.full((n_sats, n_real + n_sats), big)
    starts = np.cumsum([0] + list(antennas))
    for i in range(n_sats):
        cost[i, n_real + i] = fallbacks[i]
        for s, count in enumerate(antennas):
            if rng.random() < 0.6:
                cost[i, starts[s]:starts[s] + count] = weights()
    return cost, big


def assert_slot_matching(cost, big, cols):
    """A matching that uses no forbidden cell and no other row's fallback."""
    n_sats = cost.shape[0]
    n_real = cost.shape[1] - n_sats
    assert len(set(cols.tolist())) == n_sats
    assert (cost[np.arange(n_sats), cols] < big).all()
    fallback = cols >= n_real
    assert (cols[fallback] - n_real == np.nonzero(fallback)[0]).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_paths_identical_on_slot_shaped_matrices(n_sats, antennas_per_station, seed):
    """Slot graphs are tie-heavy: duplicated antenna columns, a large
    forbidden value everywhere else, zeros on the private virtual diagonal.
    The pruned path and the kernel on the full matrix pick the same columns
    (no weight ties a fallback here) and reach scipy's minimum."""
    rng = np.random.default_rng(seed)
    n_stations = int(rng.integers(1, 4))
    cost, big = slot_matrix(rng, n_sats, [antennas_per_station] * n_stations,
                            np.zeros(n_sats), lambda: rng.uniform(-1e6, 1e3))
    pruned = match_with_fallbacks(cost)
    assert np.array_equal(pruned, min_cost_assignment(cost))
    assert_slot_matching(cost, big, pruned)
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, pruned) == pytest.approx(cost[rows_s, cols_s].sum(),
                                                         rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_pruned_matcher_reaches_the_minimum(n_sats, antennas, forced, seed):
    """Duplicated antenna columns, rows without a contact, rows whose real
    cells are all positive, positive fallbacks (a forced downlink, as in
    ilp_hpq) and weights drawn from a small set, so real cells often tie a
    fallback exactly. The pruned matcher reaches the full-matrix kernel's and
    scipy's total and uses no forbidden cell and no other row's fallback."""
    rng = np.random.default_rng(seed)
    levels = np.array([-3.0, -1.0, 0.0, 2.0, 5.0])
    fallbacks = np.where(rng.random(n_sats) < 0.5, 5.0, 0.0) if forced else np.zeros(n_sats)
    cost, big = slot_matrix(rng, n_sats, antennas, fallbacks,
                            lambda: float(rng.choice(levels)))
    pruned = match_with_fallbacks(cost)
    assert_slot_matching(cost, big, pruned)
    full = assignment_cost(cost, min_cost_assignment(cost))
    rows_s, cols_s = scipy_opt.linear_sum_assignment(cost)
    assert assignment_cost(cost, pruned) == full == cost[rows_s, cols_s].sum()
    # a row that cannot beat its fallback takes it
    n_real = cost.shape[1] - n_sats
    no_gain = cost[:, :n_real].min(axis=1, initial=np.inf) >= cost[np.arange(n_sats),
                                                                   n_real + np.arange(n_sats)]
    assert (pruned[no_gain] == n_real + np.nonzero(no_gain)[0]).all()
