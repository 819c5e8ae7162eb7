"""Admissible length-weighting functions and the complexity estimators.

The conditional estimate of a target given a context is the product of a
"spreading" factor S and a normalized symbol-count factor Z computed from
the multiset of factorization symbol lengths:

    S = 1 - (sum(l * f(l)) - (sum(f(l)) - 1)) / n
    Z = (count - 1) / n

where n is the target length and f is an admissible function.  Both factors
lie in [0, 1] and the product lies in [0, 1).
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .index import Index
from .lz import MIN_MATCH, Context, Mode, factorize, reference_lengths


class AdmissibleFunction:
    """Monotonically increasing map from symbol lengths to [0, 1]."""

    def __init__(self, fn: Callable[[float], float], name: str):
        self._fn = fn
        self.name = name

    def __call__(self, length: float) -> float:
        return self._fn(length)

    def __repr__(self):
        return f"AdmissibleFunction({self.name})"


def threshold_function(l0: float) -> AdmissibleFunction:
    """f(l) = 1 if l > l0, else 0 (strict inequality)."""
    if l0 < 0:
        raise ValueError("cutoff must be nonnegative")
    return AdmissibleFunction(lambda l: 1.0 if l > l0 else 0.0, f"threshold(l0={l0:g})")


def sigmoid_function(l0: float) -> AdmissibleFunction:
    """f(l) = 1 / (1 + exp(-l + l0)), centered at the cutoff l0."""
    if l0 < 0:
        raise ValueError("cutoff must be nonnegative")

    def f(l: float) -> float:
        z = l0 - l
        if z > 700.0:  # exp overflow guard for degenerate cutoffs
            return 0.0
        return 1.0 / (1.0 + math.exp(z))

    return AdmissibleFunction(f, f"sigmoid(l0={l0:g})")


def table_function(table: Mapping[int, float]) -> AdmissibleFunction:
    """Step function from an explicit length -> [0, 1] table.

    f(l) is the value at the largest tabulated length <= l; below the
    smallest tabulated length the first value applies.  The table must be
    monotone with values in [0, 1].
    """
    if not table:
        raise ValueError("empty table")
    keys = sorted(table)
    vals = [table[k] for k in keys]
    for v in vals:
        if not 0.0 <= v <= 1.0:
            raise ValueError("table values must lie in [0, 1]")
    for a, b in zip(vals, vals[1:]):
        if b < a:
            raise ValueError("table must be monotonically increasing")

    def f(l: float) -> float:
        i = bisect.bisect_right(keys, l) - 1
        return vals[max(i, 0)]

    return AdmissibleFunction(f, f"table({len(keys)} entries)")


@dataclass(frozen=True)
class FunctionSpec:
    """Deferred admissible-function choice: the cutoff defaults to the
    meaningful-reference length of whichever context is in use."""

    kind: str = "sigmoid"  # "sigmoid" or "threshold"
    l0: float | None = None  # None -> meaningful_cutoff(target, context)

    def resolve(self, target: bytes, context: Context) -> AdmissibleFunction:
        l0 = self.l0 if self.l0 is not None else meaningful_cutoff(target, context)
        if self.kind == "sigmoid":
            return sigmoid_function(l0)
        if self.kind == "threshold":
            return threshold_function(l0)
        raise ValueError(f"unknown admissible function kind: {self.kind}")


FunctionLike = AdmissibleFunction | FunctionSpec | None


def _resolve(f: FunctionLike, target: bytes, context: Context) -> AdmissibleFunction:
    if f is None:
        f = FunctionSpec()
    if isinstance(f, FunctionSpec):
        return f.resolve(target, context)
    return f


def meaningful_cutoff(target: bytes, context: Context) -> float:
    """Minimum length above which a shared substring is unlikely to occur by
    chance in the reference regions: log base |alphabet| of the total
    referenceable length.

    With a unary reference alphabet every string is trivially repeatable, so
    the cutoff degenerates to the full region length.
    """
    region = context.region_length(len(target))
    if region == 0:
        raise ValueError("empty reference region")
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


def estimate_from_lengths(lengths: Iterable[int], n: int, f: AdmissibleFunction) -> Estimate:
    """Evaluate the two-factor estimate on a symbol-length multiset."""
    count = 0
    fsum = 0.0
    wsum = 0.0
    for l in lengths:
        fl = f(l)
        count += 1
        fsum += fl
        wsum += l * fl
    spread = 1.0 - (wsum - (fsum - 1.0)) / n
    size = (count - 1) / n
    return Estimate(value=spread * size, spread=spread, size=size)


def conditional_complexity(x: bytes, context: Context, f: FunctionLike = None) -> Estimate:
    """Complexity estimate of x given the conditioning context."""
    fn = _resolve(f, x, context)
    fact = factorize(x, context)
    return estimate_from_lengths(reference_lengths(fact), len(x), fn)


def simple_complexity(x: bytes, f: FunctionLike = None) -> Estimate:
    """Complexity of x alone: factorization against its own past."""
    return conditional_complexity(x, Context((bytes(x),), Mode.SOURCE_PAST), f)


def joint_complexity(x: bytes, y: bytes, f: FunctionLike = None) -> float:
    """Joint complexity of x and y.

    Factorizes y against its own past plus all of x, adds the complexity of
    x alone, and a length-ratio term in the log base of x's alphabet so that
    joint(x, x) == simple(x).
    """
    x, y = bytes(x), bytes(y)
    ax = len(set(x))
    if ax < 2:
        raise ValueError("undefined log base")
    ctx = Context((x,), Mode.PAST_AND_SOURCES)
    cond = conditional_complexity(y, ctx, f)
    return cond.value + simple_complexity(x, f).value + math.log(len(x) / len(y), ax)


def nsd(x: bytes, y: bytes, f: FunctionLike = None) -> float:
    """Normalized semi-distance: max of the two cross-parsing estimates.

    Symmetric and nonnegative; zero exactly for equal inputs of length >= 3.
    The triangle inequality does not hold in general.  Both directions
    share one index over the pair.
    """
    x, y = bytes(x), bytes(y)
    if min(len(x), len(y)) < MIN_MATCH:
        warnings.warn(
            "strings shorter than 3 bytes can never be matched; "
            "the distance is positive even for equal inputs",
            stacklevel=2,
        )
    index = Index((x, y))
    a = conditional_complexity(x, Context((y,), Mode.SOURCE_ALL, index), f)
    b = conditional_complexity(y, Context((x,), Mode.SOURCE_ALL, index), f)
    return max(a.value, b.value)
