"""Hierarchical clustering of distance matrices: Neighbor-Joining and UPGMA.

Trees are rooted structures of (child, branch_length) pairs; NJ output is an
unrooted tree represented with an arbitrary root at the final join.  Branch
lengths from NJ may be negative and are preserved as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TreeNode:
    label: str | None = None
    children: list[tuple["TreeNode", float]] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list[str]:
        if self.is_leaf:
            return [self.label]
        out = []
        for child, _ in self.children:
            out.extend(child.leaves())
        return out


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", d)
        n = len(self.labels)
        if n < 2:
            raise ValueError("need at least two items")
        if d.shape != (n, n):
            raise ValueError("matrix shape does not match labels")
        bad = np.argwhere(~np.isfinite(d))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"non-finite distance {d[i, j]} between {self.labels[i]!r} and {self.labels[j]!r}")
        if not np.allclose(d, d.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("diagonal must be zero")
        if np.any(d < 0):
            raise ValueError("distances must be nonnegative")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be unique")


def neighbor_joining(dm: DistanceMatrix) -> TreeNode:
    """Saitou-Nei neighbor joining.

    Iteratively joins the pair minimizing the Q criterion; deterministic
    tie-break on the smallest index pair.  On additive matrices the generating
    topology and branch lengths are recovered exactly.
    """
    nodes = [TreeNode(label=lb) for lb in dm.labels]
    d = dm.values.copy()
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
    """Average-linkage agglomeration; node height is half the merge distance.

    On ultrametric matrices the merge heights are reconstructed exactly.
    Deterministic tie-break on the smallest index pair.
    """
    nodes = [TreeNode(label=lb) for lb in dm.labels]
    heights = [0.0] * len(nodes)
    sizes = [1] * len(nodes)
    d = dm.values.copy()
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


_NEWICK_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def _newick_label(label: str) -> str:
    if label and all(c in _NEWICK_SAFE for c in label):
        return label
    return "'" + label.replace("'", "''") + "'"


def to_newick(t: TreeNode) -> str:
    """Newick serialization with branch lengths and a terminating semicolon."""

    def render(node: TreeNode) -> str:
        if node.is_leaf:
            return _newick_label(node.label)
        inner = ",".join(f"{render(c)}:{bl:.9g}" for c, bl in node.children)
        return f"({inner})"

    return render(t) + ";"


def render_ascii(t: TreeNode) -> str:
    """Indented console rendering for quick inspection."""
    lines: list[str] = []

    def walk(node: TreeNode, prefix: str, branch: str):
        tag = node.label if node.is_leaf else "*"
        lines.append(f"{prefix}{branch}{tag}")
        for child, bl in node.children:
            walk(child, prefix + "    ", f"+-[{bl:.4g}]- ")

    walk(t, "", "")
    return "\n".join(lines) + "\n"
