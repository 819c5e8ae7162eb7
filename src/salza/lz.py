"""Longest-match Lempel-Ziv factorization against configurable reference regions.

A target string is scanned greedily left to right.  At each position the
longest match (length >= 3) anywhere in the currently permitted reference
regions is emitted as a reference symbol; otherwise a single literal is
emitted.  Which regions are permitted depends on the conditioning mode.

The match lengths at every position come from salza.index; the greedy
parse (walk) steps over the best of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .index import Index, best_matches
from .params import Mode

MIN_MATCH = 3

# Region id used for the target's own past.
SELF = -1


_OWN_PAST_MODES = (Mode.PAST_OF_BOTH, Mode.PAST_AND_SOURCES)
_WHOLE_SOURCE_MODES = (Mode.SOURCE_ALL, Mode.PAST_AND_SOURCES)


@dataclass(frozen=True)
class Context:
    """Ordered reference sources plus the conditioning mode.

    `index` optionally names an Index that holds the target and every
    source, so that several factorizations share its row and triples; it
    changes no result and takes no part in equality.
    """

    sources: tuple[bytes, ...]
    mode: Mode
    index: Index | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(bytes(s) for s in self.sources))
        if self.mode is Mode.SOURCE_PAST and len(self.sources) != 1:
            raise ValueError("mode expects single source")
        if self.mode in (Mode.SOURCE_PAST, Mode.SOURCE_ALL) and not self.sources:
            raise ValueError("mode requires at least one source")
        for s in self.sources:
            if len(s) == 0:
                raise ValueError("empty source string")

    @property
    def uses_own_past(self) -> bool:
        return self.mode in _OWN_PAST_MODES

    @property
    def uses_whole_sources(self) -> bool:
        return self.mode in _WHOLE_SOURCE_MODES

    def region_length(self, target_len: int) -> int:
        """Total referenceable length at the end of encoding a target of this size."""
        if self.uses_whole_sources:
            total = sum(len(s) for s in self.sources)
        else:
            total = sum(min(target_len, len(s)) for s in self.sources)
        if self.uses_own_past:
            total += target_len
        return total

    def alphabet(self, target: bytes) -> frozenset[int]:
        """Union alphabet of the reference regions.

        Modes that include the target's own past contribute the target's
        alphabet as well.  A shared index finds each string's letters once.
        """
        regions = self.sources + (target,) * self.uses_own_past
        if self.index is not None:
            return self.index.alphabet(regions)
        return frozenset(np.bincount(np.frombuffer(b"".join(regions), np.uint8)).nonzero()[0].tolist())


class Symbol(NamedTuple):
    """One factorizer output: a reference (length, source, offset) or a literal."""

    length: int
    literal: int | None = None
    source: int | None = None  # SELF for the target's own past, else source index
    offset: int | None = None

    @property
    def is_literal(self) -> bool:
        return self.literal is not None


class Factorization:
    """The symbols of one parse, their lengths, the target's length and the mode.

    lengths is an int32 array, the symbols' lengths in order, from either
    constructor; the estimators read only it.  symbols may be a function that
    makes them, passed with the lengths, as factorize does: it runs on the
    first read of symbols, and until then the parse holds only what the
    offsets are read from.
    """

    __slots__ = ("_symbols", "target_length", "mode", "lengths")

    def __init__(self, symbols: tuple[Symbol, ...] | Callable[[], tuple[Symbol, ...]], target_length: int,
                 mode: Mode, lengths: np.ndarray | None = None):
        self._symbols = symbols if callable(symbols) else tuple(symbols)
        self.target_length = target_length
        self.mode = mode
        self.lengths = np.array([sym.length for sym in self.symbols], np.int32) if lengths is None else lengths

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        if callable(self._symbols):
            self._symbols = self._symbols()
        return self._symbols

    def __eq__(self, other):
        if not isinstance(other, Factorization):
            return NotImplemented
        return (self.symbols, self.target_length, self.mode) == (
            other.symbols, other.target_length, other.mode)

    def __hash__(self):
        return hash((self.symbols, self.target_length, self.mode))

    def __repr__(self):
        return (f"Factorization(symbols={self.symbols!r}, target_length={self.target_length!r}, "
                f"mode={self.mode!r})")


_LITERALS = tuple(Symbol(length=1, literal=b) for b in range(256))


def walk(best: np.ndarray) -> np.ndarray:
    """Symbol lengths of the greedy parse over best, the longest match at each position, as int32.

    A match of at least MIN_MATCH is a reference of that length; below it
    the position is a literal, of length 1.  The loop visits the references
    alone, jumping from the end of each to the next position where one can
    start.
    """
    n = len(best)
    # next position at or after each one where a reference can start; n past the end
    nxt = np.arange(n + 1, dtype=np.int32)
    nxt[:n][best < MIN_MATCH] = n
    np.minimum.accumulate(nxt[::-1], out=nxt[::-1])
    # Each reference's length goes, negated, to its place among the symbols
    # in nxt, a place the walk has passed: nxt is read only beyond the
    # reference's start.  extra counts the positions covered so far beyond
    # one symbol per reference.
    best_v, nxt_v = memoryview(best), memoryview(nxt)
    t, extra = nxt_v[0], 0
    while t < n:
        length = best_v[t]
        nxt_v[t - extra] = -length
        extra += length - 1
        t = nxt_v[t + length]
    lengths = -nxt[: n - extra]
    np.maximum(lengths, 1, out=lengths)  # a place left as it was holds a position: a literal
    return lengths


def factorize(target: bytes, context: Context) -> Factorization:
    """Greedy longest-match factorization of target against the context regions.

    Deterministic tie-break among equal-length matches: the target's own past
    first, then sources in list order, then the smallest start position.
    Matches never span two distinct source strings.
    """
    target = bytes(target)
    n = len(target)
    if n == 0:
        raise ValueError("empty input")
    own = context.uses_own_past
    best, where = best_matches(target, context.sources, own, context.uses_whole_sources, context.index)
    lengths = walk(best)

    def make() -> tuple[Symbol, ...]:
        nonlocal where
        ref = lengths > 1
        region, start = where((np.cumsum(lengths) - lengths)[ref], lengths[ref])
        where = None  # an index made for this parse goes before the symbols come: a lower peak RSS
        refs = zip(region.tolist(), start.tolist())
        out, t = [], 0
        for length in lengths.tolist():
            if length == 1:
                out.append(_LITERALS[target[t]])
            else:
                k, p = next(refs)
                out.append(Symbol(length=length, source=k - own if k >= own else SELF, offset=p))
            t += length
        return tuple(out)

    return Factorization(make, n, context.mode, lengths)


def decode(f: Factorization, context: Context) -> bytes:
    """Reproduce the target from a factorization and the context it was built against."""
    out = bytearray()
    for sym in f.symbols:
        t = len(out)
        if sym.is_literal:
            if sym.length != 1:
                raise ValueError("corrupt factorization")
            out.append(sym.literal)
        elif sym.source == SELF:
            if not context.uses_own_past or not 0 <= sym.offset < t:
                raise ValueError("corrupt factorization")
            for k in range(sym.length):  # byte-wise: overlapped copies
                out.append(out[sym.offset + k])
        else:
            if not 0 <= sym.source < len(context.sources):
                raise ValueError("corrupt factorization")
            s = context.sources[sym.source]
            avail = len(s) if context.uses_whole_sources else min(t, len(s))
            if not 0 <= sym.offset < avail or sym.offset + sym.length > len(s):
                raise ValueError("corrupt factorization")
            out += s[sym.offset : sym.offset + sym.length]
    if len(out) != f.target_length:
        raise ValueError("corrupt factorization")
    return bytes(out)

