"""The dense assignment kernel that skygs.hungarian replaced, kept as the
reference the sparse kernel must reproduce column for column.

It scans every off-tree column at each Dijkstra step, in ascending order, so
ties go to the lowest column; forbidden pairs must be encoded as a large
finite cost. Given such a matrix with its bound in place of each +inf cell,
it picks the same columns as the sparse kernel given the +inf matrix.

reference_block is the kernel block that skygs.scheduler.hungarian_min_matching
built before it skipped slots with no gaining edge and filled the block from
the gaining edges. The matcher now hands the kernel only the block's contested
rows, and their columns, cut from this block.

reference_assignment is that matcher before it took an uncontested row's
cheapest edge without the kernel, on the dense kernel: the assignment and
objective the matcher must still return.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from skygs.scheduler import AssignmentTriple


def slot_bound(weight, fallback):
    """The bound that stood in for "no edge" in a slot's matrix: above any sum
    of its edge weights and fallbacks."""
    return 4.0 * (1.0 + sum(np.abs(weight).tolist()) + sum(np.abs(fallback).tolist()))


def reference_block(graph) -> np.ndarray:
    """The kernel block of a slot graph: the rows of the satellites with an edge
    below their fallback, the antennas of the stations where one of them gains,
    then one virtual column per row; +inf where a row has no edge."""
    arrays = graph.arrays
    sat, gs, n_edges = graph.edge_sat, graph.edge_gs, len(graph.edge_w)
    gains = graph.edge_w < graph.fallback[sat]
    is_row = np.bincount(sat[gains], minlength=len(graph.fallback)) > 0
    is_gs = np.bincount(gs[gains], minlength=len(arrays.gs_ids)) > 0
    rows = np.flatnonzero(is_row)
    row_of, gs_of = np.cumsum(is_row) - 1, np.cumsum(is_gs) - 1
    # the edge at each (row, station) of the block, n_edges where there is none
    k = np.flatnonzero(is_row[sat] & is_gs[gs])
    edge_at = np.full((len(rows), np.count_nonzero(is_gs)), n_edges)
    edge_at[row_of[sat[k]], gs_of[gs[k]]] = k
    antenna_station = np.repeat(np.arange(len(arrays.gs_ids)), arrays.antenna_counts)
    real = np.flatnonzero(is_gs[antenna_station])
    col_gs = gs_of[antenna_station[real]]
    n_cols = len(real)
    cost = np.full((len(rows), n_cols + len(rows)), np.inf)
    cost[:, :n_cols] = np.append(graph.edge_w, np.inf)[edge_at[:, col_gs]]
    np.fill_diagonal(cost[:, n_cols:], graph.fallback[rows])
    return cost


def reference_assignment(graph) -> tuple[tuple[AssignmentTriple, ...], float]:
    """Minimum-weight left-perfect matching on the slot graph, with its total
    edge weight, from the dense kernel on the block of the satellites that can
    gain, with the slot's bound in place of each +inf cell."""
    arrays, sat, gs, weight = graph.arrays, graph.edge_sat, graph.edge_gs, graph.edge_w
    gains = weight < graph.fallback[sat]
    if not gains.any():
        return (), 0.0
    is_row = np.bincount(sat[gains], minlength=len(graph.fallback)) > 0
    is_gs = np.bincount(gs[gains], minlength=len(arrays.gs_ids)) > 0
    rows = np.flatnonzero(is_row)
    end = np.cumsum(arrays.antenna_counts * is_gs).tolist()
    col0 = [0] + end[:-1]  # station g's antennas are block columns col0[g]:end[g]
    n_rows, n_cols = len(rows), end[-1]
    cost = np.full((n_rows, n_cols + n_rows), np.inf)
    # row r's virtual antenna is column n_cols + r, every (row length + 1)th cell
    cost.reshape(-1)[n_cols::n_cols + n_rows + 1] = graph.fallback[rows]
    k = np.flatnonzero(is_row[sat] & is_gs[gs])  # every edge inside the block
    edge_at = {}
    for r, g, w, ek in zip(np.searchsorted(rows, sat[k]).tolist(), gs[k].tolist(),
                           weight[k].tolist(), k.tolist()):
        cost[r, col0[g]:end[g]] = w
        edge_at[r, g] = ek
    bound = slot_bound(weight, graph.fallback)
    col4row = dense_min_cost_assignment(np.where(np.isinf(cost), bound, cost)).tolist()
    triples: list[AssignmentTriple] = []
    objective = 0.0
    # rows follow the sorted satellite ids, so the triples come out sorted
    # only finite cells are assigned: one of the row's edges, or its own virtual antenna
    for r, col in enumerate(col4row):
        if col < n_cols:
            g = bisect.bisect_right(col0, col) - 1  # empty stations share the next one's col0
            ek = edge_at[r, g]
            objective += float(weight[ek])
            triples.append(AssignmentTriple(contact=int(graph.edge_row[ek]),
                                            antenna=col - col0[g], dc=int(graph.edge_dc[ek])))
    return tuple(triples), objective


def dense_min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Row-to-column assignment minimizing total cost.

    cost: (n_rows, n_cols) with n_rows <= n_cols, finite entries.
    Returns col4row, the assigned column index for each row.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    n_rows, n_cols = cost.shape
    if n_rows == 0:
        return np.empty(0, dtype=np.int64)
    if n_rows > n_cols:
        raise ValueError(f"more rows than columns ({n_rows} > {n_cols})")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")

    costs = cost.tolist()
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        shortest = [math.inf] * n_cols
        path = [-1] * n_cols
        off_tree = list(range(n_cols))  # ascending, so ties go to the lowest column
        tree_rows: list[int] = []
        tree_cols: list[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            tree_rows.append(i)
            row, u_i = costs[i], u[i]
            j, min_next = -1, math.inf
            for c in off_tree:
                s = shortest[c]
                reduced = min_val + row[c] - u_i - v[c]
                if reduced < s:
                    shortest[c] = s = reduced
                    path[c] = i
                if s < min_next:
                    j, min_next = c, s
            min_val = min_next
            off_tree.remove(j)
            tree_cols.append(j)
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
        u[cur_row] += min_val
        for r in tree_rows[1:]:
            u[r] += min_val - shortest[col4row[r]]
        for c in tree_cols:
            v[c] -= min_val - shortest[c]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return np.array(col4row, dtype=np.int64)
