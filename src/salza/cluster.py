"""Hierarchical clustering of distance matrices: Neighbor-Joining and UPGMA.

Trees are rooted structures of (child, branch_length) pairs; NJ output is an
unrooted tree represented with an arbitrary root at the final join.  Branch
lengths from NJ may be negative and are preserved as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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
    """Labels and their symmetric, finite, nonnegative distances with a zero diagonal.

    values may be given as nested sequences or an array of numbers; it is
    kept as a tuple of rows of floats.
    """

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if n < 2:
            raise ValueError("need at least two items")
        try:
            d = tuple(tuple(float(x) for x in row) for row in self.values)
        except TypeError:  # a row that is a number, or a cell that is a sequence
            d = ()
        if len(d) != n or any(len(row) != n for row in d):
            raise ValueError("matrix shape does not match labels")
        object.__setattr__(self, "values", d)
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if not math.isfinite(x):
                    raise ValueError(f"non-finite distance {x} between {self.labels[i]!r} and {self.labels[j]!r}")
        # numpy.allclose(d, d.T, atol=1e-12)
        if any(abs(a - b) > 1e-12 + 1e-5 * abs(b) for row, col in zip(d, zip(*d)) for a, b in zip(row, col)):
            raise ValueError("matrix must be symmetric")
        if any(d[i][i] != 0 for i in range(n)):
            raise ValueError("diagonal must be zero")
        if any(x < 0 for row in d for x in row):
            raise ValueError("distances must be nonnegative")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be unique")


def _row_sum(row: list[float]) -> float:
    """The sum of row, added strictly left to right, as numpy adds up to 7 entries.

    Not `sum` (compensated from Python 3.12) nor `math.fsum`: NJ's Q criterion
    ties exactly in real arithmetic (at n = 4, q01 = q23), so the bits of the
    sums pick the pair.
    """
    total = 0.0
    for x in row:
        total += x
    return total


def _closest(q: list[list[float]]) -> tuple[int, int]:
    """(i, j), i < j, of the least entry of q off its diagonal, which is overwritten.

    The first in row-major order over the whole matrix wins a tie, as
    numpy's argmin: q need not be exactly symmetric.
    """
    best, at = math.inf, (0, 0)
    for i, row in enumerate(q):
        row[i] = math.inf
        least = min(row)
        if least < best:
            best, at = least, (i, row.index(least))
    return min(at), max(at)


def _drop(items: list, i: int, j: int) -> list:
    """items without the entries at i and j, i < j."""
    return items[:i] + items[i + 1 : j] + items[j + 1 :]


def _joined(d: list[list[float]], i: int, j: int, dk: list[float]) -> list[list[float]]:
    """d without rows and columns i and j, then dk, the distances to their join,
    as the last row and column."""
    dk = _drop(dk, i, j)
    return [_drop(row, i, j) + [x] for row, x in zip(_drop(d, i, j), dk)] + [dk + [0.0]]


def neighbor_joining(dm: DistanceMatrix) -> TreeNode:
    """Saitou-Nei neighbor joining.

    Iteratively joins the pair minimizing the Q criterion; deterministic
    tie-break on the smallest index pair.  On additive matrices the generating
    topology and branch lengths are recovered exactly.
    """
    nodes = [TreeNode(label=lb) for lb in dm.labels]
    d = [list(row) for row in dm.values]
    n = len(nodes)
    if n == 2:
        half = d[0][1] / 2.0
        return TreeNode(children=[(nodes[0], half), (nodes[1], half)])
    while n > 3:
        r = [_row_sum(row) for row in d]
        i, j = _closest([[(n - 2) * x - ri - rj for x, rj in zip(row, r)] for row, ri in zip(d, r)])
        li = d[i][j] / 2.0 + (r[i] - r[j]) / (2.0 * (n - 2))
        lj = d[i][j] - li
        joined = TreeNode(children=[(nodes[i], li), (nodes[j], lj)])
        d = _joined(d, i, j, [(a + b - d[i][j]) / 2.0 for a, b in zip(d[i], d[j])])
        nodes = _drop(nodes, i, j) + [joined]
        n -= 1
    la = (d[0][1] + d[0][2] - d[1][2]) / 2.0
    lb = (d[0][1] + d[1][2] - d[0][2]) / 2.0
    lc = (d[0][2] + d[1][2] - d[0][1]) / 2.0
    return TreeNode(children=[(nodes[0], la), (nodes[1], lb), (nodes[2], lc)])


def upgma(dm: DistanceMatrix) -> TreeNode:
    """Average-linkage agglomeration; node height is half the merge distance.

    On ultrametric matrices the merge heights are reconstructed exactly.
    Deterministic tie-break on the smallest index pair.
    """
    nodes = [TreeNode(label=lb) for lb in dm.labels]
    heights = [0.0] * len(nodes)
    sizes = [1] * len(nodes)
    d = [list(row) for row in dm.values]
    while len(d) > 1:
        i, j = _closest([row.copy() for row in d])
        h = d[i][j] / 2.0
        joined = TreeNode(children=[(nodes[i], h - heights[i]), (nodes[j], h - heights[j])])
        si, sj = sizes[i], sizes[j]
        d = _joined(d, i, j, [(si * a + sj * b) / (si + sj) for a, b in zip(d[i], d[j])])
        nodes = _drop(nodes, i, j) + [joined]
        heights = _drop(heights, i, j) + [h]
        sizes = _drop(sizes, i, j) + [si + sj]
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
