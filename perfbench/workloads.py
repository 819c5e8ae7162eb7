"""Seeded corpora, the salza commands each workload runs, and their output checks.

A workload writes its corpus into a work directory and returns the list of
CLI commands one pass runs, in order.  Every command names the files it
writes and carries a check that raises CheckError when the output is wrong.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from salza import synth
from salza.lz import SELF, Context, Factorization, Mode, Symbol, decode

ALPHA = 64

# Diamond DAG: process i copies from the processes with nonzero entries in
# row i; the last column is the innovation probability.
DIAMOND = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
    [0.0, 0.9, 0.0, 0.0, 0.0, 0.0, 0.1],
    [0.0, 0.6, 0.0, 0.0, 0.0, 0.0, 0.4],
    [0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5],
    [0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
])
DIAMOND_EDGES = {("p0", "p1"), ("p1", "p2"), ("p1", "p3"), ("p2", "p4"), ("p3", "p5"), ("p4", "p5")}

# Full and toy sizes.  Toy sizes keep the naive oracle fast enough to check
# every factorization a pass makes.
SIZES = {
    "nsd-markov64": {"full": 15_000, "toy": 300},
    "causality-dag4": {"full": 10_000, "toy": 2_500},
    "pair-binary": {"full": (16_384, 32_768), "toy": (256, 512)},
}


class CheckError(Exception):
    """An output file is missing, malformed or wrong."""


@dataclass
class Command:
    """One salza CLI invocation and the check of what it wrote."""

    key: str  # names the cli.<key>_s metric
    args: list[str]
    outputs: list[Path]
    check: Callable[[], None]
    takes_threads: bool = False
    tag: str = ""  # input size label, for the scaling exponent


@dataclass
class Workload:
    name: str
    commands: list[Command]
    inputs: list[Path]
    input_bytes: dict
    scaling: tuple[str, str] | None = None  # (small tag, large tag)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_tsv_matrix(path: Path) -> tuple[list[str], list[list[float]]]:
    """Parse a labeled square TSV matrix, independently of salza.tsv."""
    rows = [line.split("\t") for line in path.read_text().splitlines() if line]
    _require(len(rows) >= 2 and rows[0][0] == "", f"{path.name}: not a matrix")
    labels = rows[0][1:]
    _require(len(rows) == len(labels) + 1, f"{path.name}: row count")
    values = []
    for label, row in zip(labels, rows[1:]):
        _require(row[0] == label and len(row) == len(labels) + 1, f"{path.name}: row {label}")
        values.append([float(v) for v in row[1:]])
    return labels, values


def check_distance_matrix(path: Path, labels: list[str], low_closed: bool) -> None:
    """Exactly symmetric, zero diagonal, off-diagonal in (0, 1) or [0, 1)."""
    got, d = read_tsv_matrix(path)
    _require(got == labels, f"{path.name}: labels {got}")
    n = len(labels)
    for i in range(n):
        _require(d[i][i] == 0.0, f"{path.name}: diagonal {i}")
        for j in range(n):
            if i == j:
                continue
            v = d[i][j]
            _require(v == d[j][i], f"{path.name}: asymmetric at {i},{j}")
            ok = (0.0 <= v < 1.0) if low_closed else (0.0 < v < 1.0)
            _require(ok, f"{path.name}: value {v} at {i},{j}")


_LABEL = re.compile(r"[^(),:;]+")
_LENGTH = re.compile(r":([^(),:;]+)")


def newick_clades(text: str) -> tuple[list[str], set[frozenset[str]]]:
    """Leaves (in order) and the leaf set of every node of an unquoted Newick tree."""
    s = text.strip()
    pos = 0
    leaves: list[str] = []
    clades: set[frozenset[str]] = set()

    def node() -> frozenset[str]:
        nonlocal pos
        if s[pos] == "(":
            pos += 1
            members = set(node())
            while s[pos] == ",":
                pos += 1
                members |= node()
            _require(s[pos] == ")", "newick: expected ')'")
            pos += 1
        else:
            m = _LABEL.match(s, pos)
            _require(m is not None, f"newick: bad token at {pos}")
            leaves.append(m.group())
            members = {m.group()}
            pos = m.end()
        m = _LENGTH.match(s, pos)
        if m:
            _require(math.isfinite(float(m.group(1))), f"newick: branch length {m.group(1)}")
            pos = m.end()
        out = frozenset(members)
        clades.add(out)
        return out

    try:
        node()
    except IndexError:
        raise CheckError("newick: truncated") from None
    _require(s[pos:] == ";", "newick: trailing text")
    return leaves, clades


def check_tree(path: Path, labels: list[str], groups: list[frozenset[str]], rooted: bool) -> None:
    """Every group is a pure clade: a node's leaf set, or for an unrooted
    tree also the complement of one."""
    leaves, clades = newick_clades(path.read_text())
    _require(sorted(leaves) == sorted(labels), f"{path.name}: leaf set")
    everyone = frozenset(labels)
    for g in groups:
        pure = g in clades or (not rooted and everyone - g in clades)
        _require(pure, f"{path.name}: {sorted(g)} is not a clade")


_EDGE = re.compile(r'^\s*"([^"]*)" -> "([^"]*)"', re.M)


def check_dot(path: Path, truth: set[tuple[str, str]]) -> None:
    edges = set(_EDGE.findall(path.read_text()))
    _require(edges == truth, f"{path.name}: edges {sorted(edges)}")


def check_dump(path: Path, target: bytes, sources: list[bytes], labels: list[str],
               mode: Mode, first: tuple) -> None:
    """The symbol dump starts with the expected row and decodes back to target."""
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    _require(rows[0] == ["pos", "length", "kind", "source", "offset|byte"], f"{path.name}: header")
    _require(len(rows) > 1 and tuple(rows[1]) == first, f"{path.name}: first row {rows[1:2]}")
    symbols = []
    pos = 0
    for row in rows[1:]:
        _require(len(row) == 5 and int(row[0]) == pos, f"{path.name}: row {row}")
        length = int(row[1])
        if row[2] == "lit":
            symbols.append(Symbol(length=1, literal=int(row[4])))
        else:
            _require(row[2] == "ref", f"{path.name}: kind {row[2]}")
            src = SELF if row[3] == "self" else labels.index(row[3])
            symbols.append(Symbol(length=length, source=src, offset=int(row[4])))
        pos += length
    fact = Factorization(symbols=tuple(symbols), target_length=len(target), mode=mode)
    try:
        out = decode(fact, Context(tuple(sources), mode))
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    _require(out == target, f"{path.name}: decodes to other bytes")


def sticky_matrix(a: int = ALPHA) -> np.ndarray:
    m = np.full((a, a), 0.15 / (a - 1))
    np.fill_diagonal(m, 0.85)
    return m


def shift_matrix(a: int = ALPHA) -> np.ndarray:
    m = np.full((a, a), 0.15 / (a - 1))
    for i in range(a):
        m[i, (i + 1) % a] = 0.0
        m[i] = m[i] / m[i].sum() * 0.15
        m[i, (i + 1) % a] = 0.85
    return m


def sparse_matrix(a: int = ALPHA, seed: int = 123) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = np.zeros((a, a))
    for i in range(a):
        m[i, rng.choice(a, 4, replace=False)] = 0.25
    return m


def nsd_markov64(work: Path, seed: int, toy: bool) -> Workload:
    length = SIZES["nsd-markov64"]["toy" if toy else "full"]
    files, groups = [], []
    for mi, m in enumerate((sticky_matrix(), shift_matrix(), sparse_matrix())):
        group = []
        for c in range(4):
            label = f"m{mi}_c{c}"
            spec = synth.MarkovSpec(ALPHA, m, length, seed=50_000 + 1000 * seed + 100 * mi + c)
            path = work / label
            path.write_bytes(synth.generate_markov(spec))
            files.append(path)
            group.append(label)
        groups.append(frozenset(group))
    labels = [p.name for p in files]
    dist, nj, upgma = work / "dist.tsv", work / "nj.nwk", work / "upgma.nwk"
    commands = [
        Command("nsd", ["nsd", *map(str, files), "--out", str(dist)], [dist],
                lambda: check_distance_matrix(dist, labels, low_closed=False), takes_threads=True),
        Command("cluster_nj", ["cluster", str(dist), "--method", "nj", "--out", str(nj)], [nj],
                lambda: check_tree(nj, labels, groups, rooted=False)),
        Command("cluster_upgma", ["cluster", str(dist), "--method", "upgma", "--out", str(upgma)],
                [upgma], lambda: check_tree(upgma, labels, groups, rooted=True)),
    ]
    return Workload("nsd-markov64", commands, files, {"strings": len(files), "bytes_each": length})


def causality_dag4(work: Path, seed: int, toy: bool) -> Workload:
    length = SIZES["causality-dag4"]["toy" if toy else "full"]
    procs = synth.generate_dag_processes(
        synth.DagSpec(DIAMOND, length=length, seed=60_000 + seed, alphabet_size=4))
    files = []
    for label, blob in zip(procs.labels, procs.strings):
        path = work / label
        path.write_bytes(blob)
        files.append(path)
    labels = list(procs.labels)
    dot, matrix = work / "graph.dot", work / "di.tsv"

    def check():
        check_dot(dot, DIAMOND_EDGES)
        got, d = read_tsv_matrix(matrix)
        _require(got == labels, f"{matrix.name}: labels {got}")
        _require(all(d[i][i] == 0.0 for i in range(len(d))), f"{matrix.name}: diagonal")
        _require(all(math.isfinite(v) for row in d for v in row), f"{matrix.name}: non-finite")

    commands = [Command(
        "causality",
        ["causality", *map(str, files), "--kind", "causal", "--out", str(dot), "--matrix-out", str(matrix)],
        [dot, matrix], check, takes_threads=True)]
    return Workload("causality-dag4", commands, files, {"strings": len(files), "bytes_each": length})


def pair_binary(work: Path, seed: int, toy: bool) -> Workload:
    halves = SIZES["pair-binary"]["toy" if toy else "full"]
    rng = np.random.default_rng(seed)
    commands, files = [], []
    for half in halves:
        a, b, c = (rng.integers(0, 2, half, dtype=np.uint8).tobytes() for _ in range(3))
        d = work / f"h{half}"
        d.mkdir()
        x, y, xb, yb = d / "x", d / "y", a + b, b + c
        x.write_bytes(xb)
        y.write_bytes(yb)
        files += [x, y]
        out = d / "dist.tsv"
        commands.append(Command(
            "nsd", ["nsd", str(x), str(y), "--out", str(out)], [out],
            lambda out=out: check_distance_matrix(out, ["x", "y"], low_closed=True),
            takes_threads=True, tag=f"h{half}"))
    # factorize the largest pair, the last one the loop wrote
    dump = x.parent / "dump.tsv"
    first = ("0", str(half), "ref", "x", str(half))
    commands.append(Command(
        "factorize", ["factorize", str(y), str(x), "--mode", "past-all", "--out", str(dump)], [dump],
        lambda: check_dump(dump, yb, [xb], ["x"], Mode.PAST_AND_SOURCES, first)))
    return Workload("pair-binary", commands, files,
                    {"halves": list(halves), "string_bytes": [2 * h for h in halves]},
                    scaling=(f"h{halves[0]}", f"h{halves[1]}"))


WORKLOADS = {
    "nsd-markov64": nsd_markov64,
    "causality-dag4": causality_dag4,
    "pair-binary": pair_binary,
}


def prepare(name: str, work: Path, seed: int, toy: bool) -> tuple[Workload, float]:
    """Write the workload's corpus under work; return it with the generation time."""
    t0 = time.perf_counter()
    wl = WORKLOADS[name](work, seed, toy)
    return wl, time.perf_counter() - t0
