"""Admissible length-weighting functions and the complexity estimators.

The conditional estimate of a target given a context is the product of a
"spreading" factor S and a normalized symbol-count factor Z computed from
the multiset of factorization symbol lengths:

    S = 1 - (sum(l * f(l)) - (sum(f(l)) - 1)) / n
    Z = (count - 1) / n

where n is the target length and f is an admissible function.  Both factors
lie in [0, 1] and the product lies in [0, 1).

An admissible function is one value, `AdmissibleFunction(kind, l0, table)`:
a sigmoid, a threshold or a step table.  A sigmoid or threshold with
`l0=None` takes the meaningful cutoff of whichever context it is used in;
every estimator defaults to that sigmoid.  The function weighs a whole
length array in one call, and the sums run over it in order.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .index import CHUNK, MAX_LENGTH, Index
from .lz import MIN_MATCH, Context, Mode, factorize


@dataclass(frozen=True)
class AdmissibleFunction:
    """Monotonically increasing map from symbol lengths to [0, 1].

    `kind` is "sigmoid", 1 / (1 + exp(l0 - l)); "threshold", 1 if l > l0
    else 0; or "table", a step function over `table`, sorted (length, value)
    pairs (a mapping is sorted into them): f(l) is the value at the largest
    tabulated length <= l, and the first value below the smallest.  `l0=None`
    stands for the meaningful cutoff of whichever context the function is
    used in.  A field the kind does not read (l0 or table) is refused.
    """

    kind: str = "sigmoid"
    l0: float | None = None
    table: tuple[tuple[int, float], ...] | Mapping[int, float] = ()

    def __post_init__(self):
        if self.kind not in ("sigmoid", "threshold", "table"):
            raise ValueError(f"unknown admissible function kind: {self.kind}")
        if isinstance(self.table, Mapping):
            object.__setattr__(self, "table", tuple(sorted(self.table.items())))
        if self.l0 is not None and not (isinstance(self.l0, numbers.Real) and 0.0 <= self.l0 < math.inf):
            raise ValueError(f"cutoff l0 must be a finite number >= 0, not {self.l0!r}")
        if self.kind == "table" and not self.table:
            raise ValueError("a table function needs a non-empty table")
        if self.kind != "table" and self.table:
            raise ValueError(f"a {self.kind} function takes no table")
        if self.kind == "table" and self.l0 is not None:
            raise ValueError(f"a table function takes no cutoff l0, not {self.l0!r}")
        keys, vals = zip(*self.table) if self.table else ((), ())
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValueError("table values must lie in [0, 1]")
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValueError("table lengths must be sorted and distinct")
        if keys and keys[-1] > MAX_LENGTH:
            raise ValueError(f"table lengths must be at most {MAX_LENGTH}")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("table must be monotonically increasing")

    def weights(self, lengths) -> np.ndarray:
        """f(l) for every length l of an array of non-negative integers, as float64."""
        lengths = np.asarray(lengths)
        if self.kind == "table":
            keys, vals = np.array(self.table, dtype=float).T
            return vals[np.maximum(np.searchsorted(keys, lengths, side="right") - 1, 0)]
        if self.l0 is None:
            raise ValueError("l0=None is resolved per context by conditional_complexity")
        if self.kind == "threshold":
            return (lengths > self.l0).astype(float)
        # the scalar formula once per distinct length (np.exp differs from
        # math.exp in the last ulp for some arguments): through a table by
        # length while that is shorter than the array or CHUNK, else by a
        # dict over the lengths other than 1, so that a long one costs no
        # memory (np.unique's sort pages numpy's sort code in when first used)
        def sigmoid(l):
            v = self.l0 - l
            return 0.0 if v > 700.0 else 1.0 / (1.0 + math.exp(v))  # exp overflow guard for degenerate cutoffs

        if lengths.size and lengths.max() < max(CHUNK, lengths.size):
            distinct = np.bincount(lengths).nonzero()[0]
            table = np.zeros(distinct[-1] + 1)
            table[distinct] = [sigmoid(l) for l in distinct.tolist()]
            return table.take(lengths)
        w = np.full(lengths.shape, sigmoid(1))
        others = np.flatnonzero(lengths != 1)
        longer = lengths[others].tolist()
        weight = {l: sigmoid(l) for l in set(longer)}
        w[others] = [weight[l] for l in longer]
        return w

    def __call__(self, length: int) -> float:
        return float(self.weights([length])[0])


def meaningful_cutoff(target: bytes, context: Context) -> float:
    """Minimum length above which a shared substring is unlikely to occur by
    chance in the reference regions: log base |alphabet| of the total
    referenceable length.

    With a unary reference alphabet every string is trivially repeatable, so
    the cutoff degenerates to the full region length.
    """
    if not target:
        raise ValueError("empty input")
    region = context.region_length(len(target))
    a = len(context.alphabet(target))
    if a < 2:
        return float(region)
    return math.log(region) / math.log(a)


@dataclass(frozen=True)
class Estimate:
    """Conditional complexity estimate with its two factors (value = spread * size)."""

    value: float
    spread: float
    size: float


def estimate_from_lengths(lengths: np.ndarray | Sequence[int], n: int, f: AdmissibleFunction) -> Estimate:
    """Evaluate the two-factor estimate on a symbol-length multiset.

    An integer array, such as Factorization.lengths, is read as it is.
    The sums run in order (cumsum, not numpy's pairwise sum), so they equal
    a left-to-right loop bit for bit.  The lengths must be at least 1 and
    at most n in sum, so that both factors lie in [0, 1].
    """
    lengths = np.asarray(lengths)
    if lengths.size == 0:
        raise ValueError("no symbol lengths")
    if lengths.min() < 1:
        raise ValueError(f"symbol lengths must be at least 1, not {lengths.min()}")
    if lengths.sum(dtype=np.int64) > n:
        raise ValueError(f"symbol lengths sum to {lengths.sum(dtype=np.int64)}, past the target length {n}")
    w = f.weights(lengths)
    fsum = w.cumsum()[-1]
    wsum = (lengths * w).cumsum()[-1]
    spread = float(1.0 - (wsum - (fsum - 1.0)) / n)
    size = (lengths.size - 1) / n
    return Estimate(value=spread * size, spread=spread, size=size)


def conditional_complexity(x: bytes, context: Context, f: AdmissibleFunction | None = None) -> Estimate:
    """Complexity estimate of x given the conditioning context.

    f defaults to the sigmoid; a cutoff of None becomes the context's
    meaningful cutoff.
    """
    if f is None or f.kind != "table" and f.l0 is None:
        f = AdmissibleFunction("sigmoid" if f is None else f.kind, meaningful_cutoff(x, context))
    fact = factorize(x, context)
    return estimate_from_lengths(fact.lengths, len(x), f)


def simple_complexity(x: bytes, f: AdmissibleFunction | None = None) -> Estimate:
    """Complexity of x alone: factorization against its own past."""
    if not x:
        raise ValueError("empty input")
    return conditional_complexity(x, Context((bytes(x),), Mode.SOURCE_PAST), f)


def joint_complexity(x: bytes, y: bytes, f: AdmissibleFunction | None = None) -> float:
    """Joint complexity of x and y.

    Factorizes y against its own past plus all of x, adds the complexity of
    x alone, and a length-ratio term in the log base of x's alphabet so that
    joint(x, x) == simple(x).
    """
    x, y = bytes(x), bytes(y)
    ax = len(set(x))
    if ax < 2:
        raise ValueError("undefined log base" if x else "empty input")
    cond = conditional_complexity(y, Context((x,), Mode.PAST_AND_SOURCES), f)
    alone = simple_complexity(x, f)
    return cond.value + alone.value + math.log(len(x) / len(y), ax)


def nsd(x: bytes, y: bytes, f: AdmissibleFunction | None = None) -> float:
    """Normalized semi-distance: max of the two cross-parsing estimates.

    Symmetric and nonnegative; zero exactly for equal inputs of length >= 3.
    Shorter inputs can never be matched: equal 2-byte inputs are at 0.25,
    and any two 1-byte inputs at 0, since a parse of one symbol estimates 0.
    The triangle inequality does not hold in general.  This is the
    two-string case of nsd_matrix.
    """
    return float(_nsd_matrix((bytes(x), bytes(y)), f)[0, 1])


def nsd_matrix(strings: Sequence[bytes], f: AdmissibleFunction | None = None) -> np.ndarray:
    """The nsd of every two of strings, as a symmetric matrix with a zero diagonal.

    One Index over the strings serves every cell.  The cells are estimated
    one source r at a time, so that the index answers all of r's targets
    from one nearest pass (see Index).  Equal strings share an index entry,
    and a pair small enough for the dense kernel takes it instead.  No
    strings give a 0 x 0 matrix.
    """
    if not strings:
        return np.zeros((0, 0))
    return _nsd_matrix([bytes(s) for s in strings], f)


def _nsd_matrix(strings: Sequence[bytes], f: AdmissibleFunction | None) -> np.ndarray:
    if not all(strings):
        raise ValueError("empty input")
    if len(strings) > 1 and min(map(len, strings)) < MIN_MATCH:
        warnings.warn(
            "strings shorter than 3 bytes can never be matched: "
            "equal 2-byte strings are at a positive distance, and any two 1-byte strings at 0",
            stacklevel=3,  # the caller of nsd or nsd_matrix
        )
    index = Index(strings)
    ids = np.array([index.id(s) for s in strings], dtype=np.intp)
    copies = np.bincount(ids, minlength=len(index.strings))
    est = np.zeros((len(index.strings),) * 2)  # est[t, r]: distinct string t given distinct string r
    for r, source in enumerate(index.strings):
        context = Context((source,), Mode.SOURCE_ALL, index)
        for t, target in enumerate(index.strings):
            if t != r or copies[r] > 1:
                est[t, r] = conditional_complexity(target, context, f).value
    cells = est[np.ix_(ids, ids)]
    d = np.maximum(cells, cells.T)
    np.fill_diagonal(d, 0.0)
    return d
