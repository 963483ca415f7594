"""Min-cost rectangular assignment (shortest augmenting path with potentials).

This is the per-slot hot kernel: a vectorized numpy port of the shortest
augmenting path algorithm with deterministic lowest-index tie-breaking.
Slot matrices share one layout, which match_with_fallbacks exploits: real
antenna columns first, then one private fallback column per row on the
diagonal. Only the rows that can beat their fallback reach the kernel.

Costs may be negative. Rows must not outnumber columns, and every row must be
matchable (callers guarantee this by giving each row a private fallback
column). Forbidden pairs are encoded as a large finite cost.
"""

from __future__ import annotations

import numpy as np


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
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

    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col4row = np.full(n_rows, -1, dtype=np.int64)
    row4col = np.full(n_cols, -1, dtype=np.int64)
    for cur_row in range(n_rows):
        shortest = np.full(n_cols, np.inf)
        path = np.full(n_cols, -1, dtype=np.int64)
        on_tree_col = np.zeros(n_cols, dtype=bool)
        on_tree_row = np.zeros(n_rows, dtype=bool)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            on_tree_row[i] = True
            reduced = min_val + cost[i] - u[i] - v
            improve = ~on_tree_col & (reduced < shortest)
            shortest[improve] = reduced[improve]
            path[improve] = i
            masked = np.where(on_tree_col, np.inf, shortest)
            j = int(np.argmin(masked))
            min_val = float(masked[j])
            on_tree_col[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
        u[cur_row] += min_val
        grow = on_tree_row.copy()
        grow[cur_row] = False
        rows = np.nonzero(grow)[0]
        u[rows] += min_val - shortest[col4row[rows]]
        cols = np.nonzero(on_tree_col)[0]
        v[cols] -= min_val - shortest[cols]
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            swap = col4row[i]
            col4row[i] = j
            if i == cur_row:
                break
            j = int(swap)
    return col4row


def match_with_fallbacks(cost: np.ndarray) -> np.ndarray:
    """min_cost_assignment for a slot-layout matrix, on its useful part only.

    cost: (n_rows, n_real + n_rows); row i's private fallback is column
    n_real + i, and its other fallback cells must be forbidden. A row whose
    fallback is no worse than its best real cell takes the fallback, since
    swapping it there never raises the total. The kernel sees only the other
    rows and the real columns where at least one of them beats its fallback;
    no optimal matching uses any other real cell. Returns col4row over the
    full matrix. Without exact fallback ties the result equals the kernel's
    on the full matrix.
    """
    n_rows, n_cols = cost.shape
    n_real = n_cols - n_rows
    fallback_cols = n_real + np.arange(n_rows)
    gains = cost[:, :n_real] < cost[np.arange(n_rows), fallback_cols][:, None]
    rows = np.nonzero(gains.any(axis=1))[0]
    cols = np.concatenate([np.nonzero(gains[rows].any(axis=0))[0], fallback_cols[rows]])
    col4row = fallback_cols.copy()
    col4row[rows] = cols[min_cost_assignment(cost[np.ix_(rows, cols)])]
    return col4row
