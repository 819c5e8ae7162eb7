"""Numpy Neighbor-Joining and UPGMA used as test oracles.

These are the array implementations that salza.cluster replaced with
plain-float ones.  They join the same pairs in the same order; NJ's row sums
come from numpy's `sum`, which from 8 entries on adds in its own order.
"""

from __future__ import annotations

import numpy as np

from salza.cluster import DistanceMatrix, TreeNode


def neighbor_joining(dm: DistanceMatrix) -> TreeNode:
    nodes = [TreeNode(label=lb) for lb in dm.labels]
    d = np.array(dm.values, dtype=float)
    n = len(nodes)
    if n == 2:
        half = d[0, 1] / 2.0
        return TreeNode(children=[(nodes[0], half), (nodes[1], half)])
    while n > 3:
        r = d.sum(axis=1)
        q = (n - 2) * d - r[:, None] - r[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = np.unravel_index(np.argmin(q), q.shape)  # row-major: smallest pair on ties
        if i > j:
            i, j = j, i
        li = d[i, j] / 2.0 + (r[i] - r[j]) / (2.0 * (n - 2))
        lj = d[i, j] - li
        joined = TreeNode(children=[(nodes[i], li), (nodes[j], lj)])
        dk = (d[i, :] + d[j, :] - d[i, j]) / 2.0
        keep = [k for k in range(n) if k not in (i, j)]
        nodes = [nodes[k] for k in keep] + [joined]
        new = np.zeros((n - 1, n - 1))
        new[: n - 2, : n - 2] = d[np.ix_(keep, keep)]
        new[-1, : n - 2] = new[: n - 2, -1] = dk[keep]
        d = new
        n -= 1
    la = (d[0, 1] + d[0, 2] - d[1, 2]) / 2.0
    lb = (d[0, 1] + d[1, 2] - d[0, 2]) / 2.0
    lc = (d[0, 2] + d[1, 2] - d[0, 1]) / 2.0
    return TreeNode(children=[(nodes[0], la), (nodes[1], lb), (nodes[2], lc)])


def upgma(dm: DistanceMatrix) -> TreeNode:
    nodes = [TreeNode(label=lb) for lb in dm.labels]
    heights = [0.0] * len(nodes)
    sizes = [1] * len(nodes)
    d = np.array(dm.values, dtype=float)
    n = len(nodes)
    while n > 1:
        masked = d.copy()
        np.fill_diagonal(masked, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        if i > j:
            i, j = j, i
        h = d[i, j] / 2.0
        joined = TreeNode(children=[(nodes[i], h - heights[i]), (nodes[j], h - heights[j])])
        dk = (sizes[i] * d[i, :] + sizes[j] * d[j, :]) / (sizes[i] + sizes[j])
        keep = [k for k in range(n) if k not in (i, j)]
        new = np.zeros((n - 1, n - 1))
        new[: n - 2, : n - 2] = d[np.ix_(keep, keep)]
        new[-1, : n - 2] = new[: n - 2, -1] = dk[keep]
        d = new
        nodes = [nodes[k] for k in keep] + [joined]
        heights = [heights[k] for k in keep] + [h]
        sizes = [sizes[k] for k in keep] + [sizes[i] + sizes[j]]
        n -= 1
    return nodes[0]
