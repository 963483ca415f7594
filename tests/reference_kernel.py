"""The dense assignment kernel that skygs.hungarian replaced, kept as the
reference the sparse kernel must reproduce column for column.

It scans every off-tree column at each Dijkstra step, in ascending order, so
ties go to the lowest column; forbidden pairs must be encoded as a large
finite cost. Given such a matrix with its bound in place of each +inf cell,
it picks the same columns as the sparse kernel given the +inf matrix.
"""

from __future__ import annotations

import math

import numpy as np


def slot_bound(weight, fallback):
    """The bound that stood in for "no edge" in a slot's matrix: above any sum
    of its edge weights and fallbacks."""
    return 4.0 * (1.0 + sum(np.abs(weight).tolist()) + sum(np.abs(fallback).tolist()))


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
