"""Naive quadratic reference implementations used as test oracles.

Independent of the production code paths: longest matches are found by
scanning every permitted start position and extending byte by byte.
"""

from __future__ import annotations

from salza.lz import SELF, Context, Factorization, Symbol


def naive_factorize(target: bytes, context: Context) -> Factorization:
    n = len(target)
    if n == 0:
        raise ValueError("empty input")
    symbols = []
    t = 0
    while t < n:
        lim = n - t
        regions = []
        if context.uses_own_past:
            regions.append((SELF, target, t))
        for k, s in enumerate(context.sources):
            avail = len(s) if context.uses_whole_sources else min(t, len(s))
            regions.append((k, s, avail))
        best_len = 0
        best_rid = best_pos = None
        for rid, s, avail in regions:
            for p in range(avail):
                length = 0
                while length < lim and p + length < len(s) and s[p + length] == target[t + length]:
                    length += 1
                if length > best_len:
                    best_len, best_rid, best_pos = length, rid, p
        if best_len >= 3:
            symbols.append(Symbol(length=best_len, source=best_rid, offset=best_pos))
            t += best_len
        else:
            symbols.append(Symbol(length=1, literal=target[t]))
            t += 1
    return Factorization(symbols=tuple(symbols), target_length=n, mode=context.mode)


def find_references(target: bytes, context: Context, lengths) -> list[tuple[int, int]]:
    """Source and leftmost start of each reference, by bytes.find over the regions in turn.

    lengths are the symbol lengths of a parse of target (1 for a literal).
    Each reference goes to the first region in tie-break order (SELF, then
    the sources in order) whose permitted part holds it, at its leftmost
    start there: a start must lie below the region's limit at the
    reference's position.  Fast enough for inputs of some kB, where
    naive_factorize is not.
    """
    regions = [(SELF, target)] * context.uses_own_past + list(enumerate(context.sources))
    out, t = [], 0
    for length in lengths:
        if length > 1:
            for k, s in regions:
                avail = len(s) if k != SELF and context.uses_whole_sources else min(t, len(s))
                p = s.find(target[t : t + length], 0, avail - 1 + length)
                if p >= 0:
                    out.append((k, p))
                    break
        t += length
    return out


def longest_previous(target: bytes, region: bytes | None = None) -> list[int]:
    """Longest match at each position q with a start p < q (it may overlap q), by bytes.find.

    The start lies in region, or in the target itself if region is None.  A
    length occurs before q when bytes.find finds the target's bytes from q
    at a start below q; every shorter length then does too, so the longest
    is found by doubling, then halving, the length.  Fast enough for some kB.
    """
    region = target if region is None else region
    out = []
    for q in range(len(target)):
        def occurs(k):
            return region.find(target[q : q + k], 0, q - 1 + k) >= 0

        lo, hi = 0, 1  # occurs(lo); hi untested
        while q + hi <= len(target) and occurs(hi):
            lo, hi = hi, 2 * hi
        hi = min(hi, len(target) - q + 1)  # does not occur, or runs past the end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if occurs(mid) else (lo, mid)
        out.append(lo)
    return out
