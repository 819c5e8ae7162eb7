"""Directed algorithmic information over a set of strings and DAG extraction.

The influence of string i on string j is the drop in j's conditional
complexity when i joins the conditioning set: both terms condition on j's
own past plus every other string in the set, once without i and once with it.
"Causal" uses the position-aligned pasts of the conditioning strings,
"full" uses them in their entirety.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

import numpy as np

from .estimators import AdmissibleFunction, conditional_complexity
from .index import Index
from .lz import Context, Mode
from .params import DEFAULT_THRESHOLD

_KIND_MODES = {"causal": Mode.PAST_OF_BOTH, "full": Mode.PAST_AND_SOURCES}


@dataclass(frozen=True)
class StringSet:
    """Uniquely labeled, non-empty byte strings."""

    labels: tuple[str, ...]
    strings: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.strings):
            raise ValueError("labels and strings differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        for label, s in zip(self.labels, self.strings):
            if len(s) == 0:
                raise ValueError(f"empty string: {label!r}")

    def __len__(self):
        return len(self.strings)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, bytes]]) -> "StringSet":
        labels, strings = zip(*pairs)
        return cls(tuple(labels), tuple(bytes(s) for s in strings))


@dataclass
class DirectedInfoMatrix:
    """Asymmetric pairwise influence values; the diagonal is zero by convention.

    Off-diagonal entries may be slightly negative (estimation noise) and are
    never clamped.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    kind: str


def _term(X: StringSet, j: int, exclude: set[int], kind: str, f: AdmissibleFunction | None,
          index: Index | None = None) -> float:
    sources = tuple(s for k, s in enumerate(X.strings) if k != j and k not in exclude)
    ctx = Context(sources, _KIND_MODES[kind], index)
    return conditional_complexity(X.strings[j], ctx, f).value


def _check(X: StringSet, kind: str) -> None:
    if kind not in _KIND_MODES:
        raise ValueError(f"unknown kind: {kind}")
    if len(X) < 2:
        raise ValueError("need at least two strings")


def directed_info(X: StringSet, i: int, j: int, kind: str = "causal", f: AdmissibleFunction | None = None) -> float:
    """Influence of string i on string j: one cell of directed_info_matrix(X, kind, f)."""
    if i == j:
        raise ValueError("directed information is undefined for i == j")
    _check(X, kind)
    for name, k in (("i", i), ("j", j)):
        if not 0 <= k < len(X):
            raise ValueError(f"{name} = {k} is not in 0..{len(X) - 1}")
    return _term(X, j, {i}, kind, f) - _term(X, j, set(), kind, f)


def directed_info_matrix(
    X: StringSet,
    kind: str = "causal",
    f: AdmissibleFunction | None = None,
) -> DirectedInfoMatrix:
    """All ordered-pair influence values.

    One index over the set serves every term, the subtrahend (j
    conditioned on everything but itself) included.  Each term parses j
    against the regions of all strings but at most one, so the index
    serves it from one triple over the whole set: at each position, the
    longest match, the string giving it and the longest from any other
    string (see Index).  The causal triple comes from k runs of the
    aligned kernel over all strings together, k the least with
    C(k, ceil(k/2)) >= m distinct strings (4 at m = 6, 8 at 40, 9 at 80).
    Run q marks the strings whose codeword, one of ceil(k/2) runs, holds
    q.  r1 is the string whose codeword the runs reaching v1 make up, and
    the runs make up a codeword exactly where v2 < v1.  The full triple
    comes from one row and one own past per distinct string.
    """
    _check(X, kind)
    n = len(X)
    index = Index(X.strings)

    def column(j: int) -> list[float]:
        base = _term(X, j, set(), kind, f, index)
        return [_term(X, j, {i}, kind, f, index) - base if i != j else 0.0 for i in range(n)]

    values = np.array([column(j) for j in range(n)]).T.copy()
    return DirectedInfoMatrix(labels=X.labels, values=values, kind=kind)


def extract_dag(m: DirectedInfoMatrix, threshold: float = DEFAULT_THRESHOLD) -> list[tuple[int, int, float]]:
    """Edges (i, j, weight) with m[i][j] >= threshold.

    Cycles are possible under estimation noise; they trigger a warning, not
    an error.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be a finite number >= 0, not {threshold!r}")
    n = len(m.labels)
    edges = [
        (i, j, float(m.values[i, j]))
        for i in range(n)
        for j in range(n)
        if i != j and m.values[i, j] >= threshold
    ]
    if _has_cycle(edges):
        warnings.warn("extracted graph contains a cycle", stacklevel=2)
    return edges


def _has_cycle(edges: Iterable[tuple]) -> bool:
    """Whether the edges (i, j, ...), each from i to j, close a cycle."""
    graph = TopologicalSorter()
    for i, j, *_ in edges:
        graph.add(j, i)
    try:
        graph.prepare()
    except CycleError:
        return True
    return False


def to_dot(m: DirectedInfoMatrix, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Graphviz rendering of the thresholded graph.

    Edge thickness scales linearly with the influence value; the raw value is
    also emitted as a plain `weight` attribute for machine reading.
    """
    edges = extract_dag(m, threshold)
    wmax = max((w for _, _, w in edges), default=0.0)
    lines = ["digraph directed_information {"]
    for label in m.labels:
        lines.append(f'  "{_dot_escape(label)}";')
    for i, j, w in edges:
        pen = 0.5 + (3.5 * w / wmax if wmax > 0 else 0.0)
        lines.append(
            f'  "{_dot_escape(m.labels[i])}" -> "{_dot_escape(m.labels[j])}" '
            f'[weight="{w:.9g}", penwidth={pen:.3f}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')
