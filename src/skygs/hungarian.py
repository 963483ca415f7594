"""Min-cost rectangular assignment (shortest augmenting path with potentials).

The per-slot hot kernel, on Python lists. A +inf cell means "no edge": each
Dijkstra step relaxes only the current row's finite cells, and the next tree
column comes from a heap keyed (distance, column), so ties go to the lowest
column (the sparse method of Jonker & Volgenant, Computing 38, 1987, and
Crouse, IEEE TAES 52(4), 2016). Blocks come pruned to the contested rows that
can beat their fallback (scheduler.hungarian_min_matching), and a slot with
none makes no call: a 240-slot full-scale broker run calls on 221 slots, with
blocks of 12.1 x 22.6 on average and 11.7% of cells finite, and every
full-scale satellite backlogged gives 67 x 111 (3.0%). On a 2-core Intel Xeon
sandbox (Python 3.11.7, numpy 2.4.6) the run's 221 blocks take 9-13 ms and
the 67 x 111 block 0.4 ms, against 23 and 2.0 ms for a scan of every cell;
its whole 153 x 249 slot matrix takes 1.0 ms, against 9.0.

Costs may be negative; NaN and -inf are rejected. Rows must not outnumber
columns, and every row must reach a free column through finite cells
(callers give each row a private fallback column).
"""

from __future__ import annotations

import heapq
import math

import numpy as np


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Row-to-column assignment minimizing total cost.

    cost: (n_rows, n_cols) with n_rows <= n_cols; +inf marks a pair with no
    edge. Returns col4row, the assigned column index for each row.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(f"more rows than columns ({n_rows} > {n_cols})")
    if not (cost > -math.inf).all():
        raise ValueError("cost matrix must not hold NaN or -inf")

    finite = cost < math.inf
    edges: list[list[tuple[int, float]]] = [[] for _ in range(n_rows)]
    # flat indices ascend, so each row's edges come in column order
    for k, w in zip(np.flatnonzero(finite).tolist(), cost[finite].tolist()):
        r, c = divmod(k, n_cols)
        edges[r].append((c, w))
    push, pop = heapq.heappush, heapq.heappop
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        shortest = [math.inf] * n_cols
        path = [-1] * n_cols
        in_tree = [False] * n_cols
        heap: list[tuple[float, int]] = []
        tree_rows: list[int] = []
        tree_cols: list[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            tree_rows.append(i)
            u_i = u[i]
            for c, w in edges[i]:
                if in_tree[c]:
                    continue
                reduced = min_val + w - u_i - v[c]
                if reduced < shortest[c]:
                    shortest[c] = reduced
                    path[c] = i
                    push(heap, (reduced, c))
            # a column's latest entry pops first; the tree holds it when older ones pop
            while heap and in_tree[heap[0][1]]:
                pop(heap)
            if not heap:
                raise ValueError(f"row {cur_row} cannot reach a free column")
            min_val, j = pop(heap)
            in_tree[j] = True
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
