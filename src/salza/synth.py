"""Seeded synthetic data generators and the symbol-length formula study.

All generators are pure functions of their spec: the pseudo-random stream is
a PCG64 generator seeded from the spec, so outputs are bit-identical across
runs and platforms.  OS randomness is never used.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

import numpy as np

from .directed import StringSet, _has_cycle
from .estimators import Estimate, estimate_from_lengths, sigmoid_function, threshold_function
from .index import MAX_LENGTH


#: Draws taken at a time by generate_markov: 32 bytes each as Python floats.
_DRAWS = 1 << 16


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class MarkovSpec:
    alphabet_size: int
    transition: np.ndarray  # row-stochastic, (a, a)
    length: int
    seed: int

    def __post_init__(self):
        m = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "transition", m)
        a = self.alphabet_size
        if not 2 <= a <= 256:
            raise ValueError("alphabet size must be in [2, 256]")
        if m.shape != (a, a):
            raise ValueError("transition matrix shape does not match alphabet")
        if not np.isfinite(m).all():
            raise ValueError("transition matrix entries must be finite numbers")
        if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("transition matrix rows must sum to 1")
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"length must be in [1, {MAX_LENGTH}]")


def generate_markov(spec: MarkovSpec) -> bytes:
    """One realization of the first-order chain, uniform initial state,
    states mapped to byte values 0..alphabet_size-1.

    Each step bisects its state's row of cumulative probabilities as Python
    floats: the float64 comparisons of np.searchsorted, without a numpy call
    per byte.  The draws come in pieces, which leave the stream as it is.
    """
    rng = _rng(spec.seed)
    cum = np.cumsum(spec.transition, axis=1).tolist()
    a = spec.alphabet_size
    out = bytearray(spec.length)
    state = int(rng.integers(a))
    out[0] = state
    for lo in range(1, spec.length, _DRAWS):
        for k, draw in enumerate(rng.random(min(_DRAWS, spec.length - lo)).tolist(), lo):
            state = min(bisect_right(cum[state], draw), a - 1)
            out[k] = state
    return bytes(out)


@dataclass(frozen=True)
class DagSpec:
    """Dependent random processes wired by a connectivity matrix.

    connectivity is N x (N+1): entry (i, j < N) is the probability that
    process i copies a segment from the past of process j; the last column is
    the probability of emitting fresh uniform symbols (innovation).  Rows sum
    to 1 and the copy edges must form a DAG.  Segment lengths are
    max(3, round(copy_scale * p)) for copies and max(1, round(copy_scale * p))
    for innovation.
    """

    connectivity: np.ndarray
    length: int
    seed: int
    burn_in: int = 12
    copy_scale: float = 20.0
    alphabet_size: int = 256
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.connectivity, dtype=float)
        object.__setattr__(self, "connectivity", m)
        n = m.shape[0]
        if m.ndim != 2 or m.shape[1] != n + 1:
            raise ValueError("connectivity must be N x (N+1)")
        if not np.isfinite(m).all():
            raise ValueError("connectivity entries must be finite numbers")
        if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("connectivity rows must sum to 1")
        # edge j -> i whenever process i copies from process j
        if _has_cycle((j, i) for i, j in zip(*np.nonzero(m[:, :n]))):
            raise ValueError("connectivity must be acyclic")
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"length must be in [1, {MAX_LENGTH}]")
        if not 2 <= self.alphabet_size <= 256:
            raise ValueError("alphabet size must be in [2, 256]")
        if self.burn_in < 0:
            raise ValueError("burn-in must be >= 0")
        if not 0 < self.copy_scale < math.inf:
            raise ValueError(f"scale must be a finite number > 0, not {self.copy_scale!r}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"p{i}" for i in range(n)))
        elif len(self.labels) != n:
            raise ValueError("labels do not match process count")

    @property
    def n_processes(self) -> int:
        return self.connectivity.shape[0]


def generate_dag_processes(spec: DagSpec) -> StringSet:
    """Generate the N process strings round-robin.

    Each process starts with `burn_in` random symbols.  At each step a column
    of its connectivity row is drawn: a source column copies a segment from a
    uniformly random start in the aligned past of that source process (the
    part not beyond the copying process's own current length); the last
    column emits fresh uniform symbols.  A too-short past falls back to fresh
    symbols.  Output lengths equal spec.length exactly (final segment
    clipped).
    """
    rng = _rng(spec.seed)
    m = spec.connectivity
    n = spec.n_processes
    cum = np.cumsum(m, axis=1)
    target = spec.length

    def fresh(count: int) -> bytes:
        return rng.integers(0, spec.alphabet_size, size=count, dtype=np.uint8).tobytes()

    procs = [bytearray(fresh(spec.burn_in)) for _ in range(n)]
    while any(len(p) < target for p in procs):
        for i in range(n):
            if len(procs[i]) >= target:
                continue
            j = min(int(np.searchsorted(cum[i], rng.random(), side="right")), n)
            if j < n:
                seg = max(3, round(spec.copy_scale * m[i, j]))
                past = min(len(procs[j]), len(procs[i]))
                if past >= seg:
                    start = int(rng.integers(0, past - seg + 1))
                    procs[i] += procs[j][start : start + seg]
                else:
                    procs[i] += fresh(seg)
            else:
                seg = max(1, round(spec.copy_scale * m[i, j]))
                procs[i] += fresh(seg)
    return StringSet(labels=spec.labels, strings=tuple(bytes(p[:target]) for p in procs))


@dataclass(frozen=True)
class LengthProfileSpec:
    """Pure formula study: Poisson symbol lengths, no factorization."""

    mu: float
    l0: float
    target_length: int
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be a finite number > 0, not {self.mu!r}")
        if not 0 <= self.l0 < math.inf:
            raise ValueError(f"l0 must be a finite number >= 0, not {self.l0!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.target_length < 1:
            raise ValueError("target length must be positive")


@dataclass(frozen=True)
class LengthProfile:
    """Trial-averaged estimator factors under threshold and sigmoid weighting."""

    spec: LengthProfileSpec
    threshold: Estimate
    sigmoid: Estimate


def _poisson_lengths(rng: np.random.Generator, mu: float, total: int) -> np.ndarray:
    """Poisson draws truncated to >= 1 (zeros resampled) summing exactly to total.

    The draw that reaches total is cut down to what is left.
    """
    parts = []
    acc = 0
    while acc < total:
        batch = rng.poisson(mu, size=max(16, int(2 * (total - acc) / mu) + 1))
        draws = batch[batch > 0]
        ends = acc + np.cumsum(draws)
        k = int(np.searchsorted(ends, total))  # the first draw that reaches total
        if k < len(draws):
            draws = draws[: k + 1]
            draws[k] -= ends[k] - total
        parts.append(draws)
        acc += int(draws.sum())
    return np.concatenate(parts)


def length_profile(spec: LengthProfileSpec) -> LengthProfile:
    """Average the two-factor estimate over seeded Poisson length draws."""
    rng = _rng(spec.seed)
    ft = threshold_function(spec.l0)
    fs = sigmoid_function(spec.l0)
    sums = {"t": np.zeros(3), "s": np.zeros(3)}
    for _ in range(spec.trials):
        lengths = _poisson_lengths(rng, spec.mu, spec.target_length)
        for key, fn in (("t", ft), ("s", fs)):
            est = estimate_from_lengths(lengths, spec.target_length, fn)
            sums[key] += (est.value, est.spread, est.size)
    out = {}
    for key in ("t", "s"):
        v, s, z = sums[key] / spec.trials
        out[key] = Estimate(value=v, spread=s, size=z)
    return LengthProfile(spec=spec, threshold=out["t"], sigmoid=out["s"])


def parse_spec_file(path: str | Path, keys: Collection[str]) -> dict:
    """Plain key-value spec file with optional whitespace-separated matrix blocks.

    Lines are `key value`; a line consisting of just a key among
    {transition, connectivity} starts a numeric block read until a
    blank line or EOF.  `#` starts a comment.  A key outside keys is
    refused; a key given twice keeps its last value.
    """
    data: dict = {}
    matrix_key = None
    rows: list[list[float]] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if matrix_key and rows:
                data[matrix_key] = np.array(rows)
                matrix_key, rows = None, []
            continue
        if matrix_key is not None:
            try:
                rows.append([float(v) for v in line.split()])
                continue
            except ValueError:
                data[matrix_key] = np.array(rows)
                matrix_key, rows = None, []
        parts = line.split(None, 1)
        key = parts[0].lower()
        if key not in keys:
            raise ValueError(f"unknown key {key!r}")
        if key in ("transition", "connectivity") and len(parts) == 1:
            matrix_key = key
            continue
        if len(parts) != 2:
            raise ValueError(f"malformed spec line: {raw!r}")
        value = parts[1]
        try:
            data[key] = int(value)
        except ValueError:
            try:
                data[key] = float(value)
            except ValueError:
                data[key] = value
    if matrix_key and rows:
        data[matrix_key] = np.array(rows)
    return data
