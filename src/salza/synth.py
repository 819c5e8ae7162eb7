"""Seeded synthetic data generators and the symbol-length formula study.

All generators are pure functions of their spec: the pseudo-random stream is
a PCG64 generator seeded from the spec, so outputs are bit-identical across
runs and platforms.  OS randomness is never used.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

import numpy as np

from .directed import StringSet, _has_cycle
from .estimators import AdmissibleFunction, Estimate, estimate_from_lengths
from .index import MAX_LENGTH
from .tsv import read_text


#: Draws taken at a time by generate_markov: 32 bytes each as Python floats.
_DRAWS = 1 << 16


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


#: The range of each integer spec key, by its spec-file name.
_RANGES = {"alphabet": (2, 256), "length": (1, MAX_LENGTH), "burnin": (0, MAX_LENGTH),
           "seed": (0, math.inf), "trials": (1, 10**6), "realizations": (1, 10**4)}


def integer(key: str, value, least: int, most: float = math.inf) -> int:
    """value, an int, a numpy integer or a float with no fractional part, as an
    int in [least, most]; anything else is a ValueError that starts with key."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(number, numbers.Integral) and least <= number <= most:
        return int(number)
    rule = f"in [{least}, {most}]" if most < math.inf else f">= {least}"
    raise ValueError(f"{key} must be an integer {rule}, not {value!r}")


def _real(key: str, value, zero_ok: bool = False) -> float:
    """value, a real number, as a float that is finite and above 0 (or 0 too,
    if zero_ok); anything else is a ValueError that starts with key."""
    with contextlib.suppress(OverflowError):  # an int too large for a float
        number = float(value) if isinstance(value, numbers.Real) else math.nan
        if 0 < number < math.inf or zero_ok and number == 0:
            return number
    raise ValueError(f"{key} must be a finite number {'>=' if zero_ok else '>'} 0, not {value!r}")


def _integers(spec, **keys: str) -> None:
    """Sets each named field of a frozen spec to its value as an int, in the
    range of its spec-file key: keys maps each field to its key."""
    for field, key in keys.items():
        object.__setattr__(spec, field, integer(key, getattr(spec, field), *_RANGES[key]))


@dataclass(frozen=True)
class MarkovSpec:
    alphabet_size: int
    transition: np.ndarray  # row-stochastic, (a, a)
    length: int
    seed: int = 0

    def __post_init__(self):
        _integers(self, alphabet_size="alphabet", length="length", seed="seed")
        m = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "transition", m)
        if m.shape != (self.alphabet_size,) * 2:
            raise ValueError("transition matrix shape does not match alphabet")
        if not np.isfinite(m).all():
            raise ValueError("transition matrix entries must be finite numbers")
        if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("transition matrix rows must sum to 1")


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
    seed: int = 0
    burn_in: int = 12
    copy_scale: float = 20.0
    alphabet_size: int = 256
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        _integers(self, length="length", seed="seed", burn_in="burnin", alphabet_size="alphabet")
        object.__setattr__(self, "copy_scale", _real("scale", self.copy_scale))
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
        object.__setattr__(self, "mu", _real("mu", self.mu))
        if self.mu > 9.223372006484771e18:  # the largest mean numpy's Poisson sampler takes
            raise ValueError(f"mu must be at most 9.223372006484771e18, not {self.mu!r}")
        object.__setattr__(self, "l0", _real("l0", self.l0, zero_ok=True))
        _integers(self, target_length="length", trials="trials", seed="seed")


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
        draws = np.minimum(batch[batch > 0], total)  # a draw past total is cut below anyway; keeps the sums in int64
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
    fns = (AdmissibleFunction("threshold", spec.l0), AdmissibleFunction("sigmoid", spec.l0))
    sums = np.zeros((2, 3))  # value, spread, size: threshold, then sigmoid
    for _ in range(spec.trials):
        lengths = _poisson_lengths(rng, spec.mu, spec.target_length)
        for row, fn in zip(sums, fns):
            est = estimate_from_lengths(lengths, spec.target_length, fn)
            row += (est.value, est.spread, est.size)
    threshold, sigmoid = (Estimate(*row) for row in sums / spec.trials)
    return LengthProfile(spec=spec, threshold=threshold, sigmoid=sigmoid)


def _matrix(key: str, rows: list[list[float]]) -> np.ndarray:
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{key} rows must all have the same number of entries")
    return np.array(rows)


def _value(text: str):
    """An int, else a float, else the text itself."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def parse_spec_file(path: str | Path, keys: Collection[str], lists: Collection[str] = ()) -> dict:
    """Plain key-value spec file with optional whitespace-separated matrix blocks.

    Lines are `key value`; a line consisting of just a key among
    {transition, connectivity} starts a numeric block read until a
    blank line or EOF.  `#` starts a comment.  A value is an int, else a
    float, else its text; a key in lists takes a comma-separated list of
    them.  A key outside keys is refused; a key given twice keeps its last.
    """
    data: dict = {}
    matrix_key = None
    rows: list[list[float]] = []
    for raw in read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if matrix_key and rows:
                data[matrix_key] = _matrix(matrix_key, rows)
                matrix_key, rows = None, []
            continue
        if matrix_key is not None:
            try:
                rows.append([float(v) for v in line.split()])
                continue
            except ValueError:
                data[matrix_key] = _matrix(matrix_key, rows)
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
        data[key] = [_value(v) for v in parts[1].split(",")] if key in lists else _value(parts[1])
    if matrix_key and rows:
        data[matrix_key] = _matrix(matrix_key, rows)
    return data
