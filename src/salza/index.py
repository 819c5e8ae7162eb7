"""Longest-match arrays for the factorizer.

For a target and each of its reference regions, the match array holds
the longest match at every target position that starts in the region:
anywhere in it ("whole"), or before the target position ("aligned"; the
target's own past when the region is the target).  A generalized suffix
array with its LCP array gives them in O(N log N) vectorized work; inputs
too small to pay for it take a dense kernel instead.
"""

from __future__ import annotations

import numpy as np

#: Elements per step of the chunked scans; bounds their temporaries.
CHUNK = 1 << 13

#: Largest (target length + 1) x (region bytes + separators) given to the
#: dense kernel instead of the suffix array.
DENSE_CELLS = 1 << 17

#: Bits of the packed sort key of the suffix array (int64, sign bit clear).
KEY_BITS = 63

#: Pairs still matching, at most this many, that the LCP build finishes one by one.
GALLOP = 32

_INF = np.iinfo(np.int32).max


def _segmin(values: np.ndarray, starts: np.ndarray, carry: int) -> np.ndarray:
    """Running minimum of values, restarting wherever starts is true.

    Elements before the first restart continue the minimum `carry`.  Each
    segment is shifted below all earlier ones, so one accumulate serves
    them all.
    """
    seg = np.cumsum(starts, dtype=np.int64)
    seg <<= 32
    w = values - seg
    w[0] = min(w[0], carry)  # below any later segment, so only the first one sees it
    np.minimum.accumulate(w, out=w)
    w += seg
    return w


def _after(mask: np.ndarray, first: bool = False) -> np.ndarray:
    """Marks the element after every marked one, and the first if asked."""
    return np.concatenate(([first], mask[:-1]))


def _nearest(out, pos, lcp, points, queries, base: int = 0) -> None:
    """Raise out[pos[q] - base] to each query's longest match with any point.

    The sequence is in suffix-array order and lcp[i] is the common prefix
    of elements i - 1 and i (0 where a block begins; one more 0 ends it),
    so the best point is the nearest one on either side, and the match is
    the running minimum of lcp between them.  points and queries map a
    slice of the sequence to its marks.
    """
    size = len(pos)
    carry, restart = _INF, False
    for lo in range(0, size, CHUNK):
        hi = min(lo + CHUNK, size)
        here = points(slice(lo, hi))
        w = _segmin(lcp[lo:hi], _after(here, restart), carry)
        q = queries(slice(lo, hi))
        sel = pos[lo:hi][q] - base
        out[sel] = np.maximum(out[sel], w[q])
        carry, restart = int(w[-1]), bool(here[-1])
    carry = _INF  # going down, element i meets element i + 1 through lcp[i + 1]
    for hi in range(size, 0, -CHUNK):
        lo = max(hi - CHUNK, 0)
        after = points(slice(lo + 1, hi + 1))
        if hi == size:
            after = np.append(after, False)
        w = _segmin(lcp[lo + 1 : hi + 1][::-1], after[::-1], carry)[::-1]
        q = queries(slice(lo, hi))
        sel = pos[lo:hi][q] - base
        out[sel] = np.maximum(out[sel], w[q])
        carry = int(w[0])


def _child_lcp(lcp: np.ndarray, bit: np.ndarray) -> None:
    """Turn lcp into the lcp within each half of the blocks, in place.

    An element's predecessor in its half is the last earlier element with
    the same bit; their lcp is the running minimum between the two.
    """
    carry0 = carry1 = _INF
    for lo in range(0, len(bit), CHUNK):
        half = bit[lo : lo + CHUNK]
        above = bool(lo and bit[lo - 1])
        after1, after0 = _after(half, above), _after(~half, bool(lo) and not above)
        part = lcp[lo : lo + len(half)]
        ones, zeros = _segmin(part, after1, carry1), _segmin(part, after0, carry0)
        carry0, carry1 = int(zeros[-1]), int(ones[-1])
        part[:] = np.where(half, ones, zeros)


def _levels(out, pos, lcp, queries, points, b: int) -> None:
    """Match every query q with the points p < q, in a sequence that is one block above bit b.

    A pair p < q first differs in one bit, where p has 0 and q has 1.  Going
    down from the top bit b, the elements stay in blocks of equal
    pos >> (b + 1), each in suffix-array order, and the points with bit b
    clear meet the queries with bit b set.  A child block's lcp is the
    running minimum over its parent's.  A large block is split in place,
    so that its halves are views; smaller ones are reordered together.
    queries and points are None for the own past, where every element is
    both.  The arrays are overwritten.
    """
    while True:
        bit = np.concatenate([(pos[lo : lo + CHUNK] >> b) & 1 == 1 for lo in range(0, len(pos), CHUNK)])
        low = ~bit
        if queries is None:
            _nearest(out, pos, lcp, low.__getitem__, bit.__getitem__)
        else:
            _nearest(out, pos, lcp, (points & low).__getitem__, (queries & bit).__getitem__)
        if b == 0:
            return
        _child_lcp(lcp, bit)
        b -= 1
        arrays = [pos, lcp[:-1]] + ([] if queries is None else [queries, points])
        if len(pos) > CHUNK:
            # the second half's first lcp (0) also ends the first half
            zeros = int(np.count_nonzero(low))
            for a in arrays:
                tail = a[bit]
                a[:zeros] = a[low]
                a[zeros:] = tail
            del bit, low, tail
            for lo, hi in ((0, zeros), (zeros, len(pos))):
                flags = (None, None) if queries is None else (queries[lo:hi], points[lo:hi])
                if hi > lo:
                    _levels(out, pos[lo:hi], lcp[lo : hi + 1], *flags, b)
            return
        order = np.argsort(pos >> (b + 1), kind="stable")
        for a in arrays:
            a[:] = a[order]


def _codes(strings: tuple[bytes, ...], dtype, pad: int = 0) -> np.ndarray:
    """The strings concatenated, each followed by its own separator, then pad zeros.

    Separators are unique and sort after every byte, so no common prefix
    runs past a string's end.
    """
    codes = np.zeros(sum(len(s) + 1 for s in strings) + pad, dtype)
    at = 0
    for k, s in enumerate(strings):
        codes[at : at + len(s)] = np.frombuffer(s, np.uint8)
        codes[at + len(s)] = 256 + k
        at += len(s) + 1
    return codes


def _suffix_array(strings: tuple[bytes, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Suffix array of the concatenated strings and its inverse, by prefix doubling.

    rank[i] is the first slot of suffix i's group: the suffixes that share
    its first k codes (Manber & Myers).  A round sorts each group by the
    rank of the suffix k further on, packed with the position into one
    int64 key, and sorted in place.  Where the three fields do not fit in
    KEY_BITS, the slots go in blocks of whole groups, each sorted on its
    own; a block may see ranks that an earlier block of the round already
    refined, which orders no two suffixes wrongly (Larsson & Sadakane).
    The rank, one key per suffix and the group starts take 13 bytes per
    suffix, besides the sort's own buffer.  The suffix array is returned in the first half of the keys'
    memory, as int32, and the second half is left for the LCP array.
    """
    codes = _codes(strings, np.int32)
    n = len(codes)
    counts = sum(np.bincount(codes[lo : lo + CHUNK], minlength=256 + len(strings))
                 for lo in range(0, n, CHUNK))
    first = (np.cumsum(counts) - counts).astype(np.int32)
    rank = first[codes]
    del codes
    head = np.zeros(n + 1, bool)  # head[j]: a group starts at slot j
    head[first[counts > 0]] = True
    head[n] = True
    key = np.empty(n, np.int64)
    rb, ib = n.bit_length(), (n - 1).bit_length()
    span = 1 << (KEY_BITS - rb - ib)  # slots per block
    k = 1
    while not head.all():
        a = 0
        while a < n:
            b = min(a + span, n)
            if not head[b]:  # end the block at the last group start, or after a group that fills it
                back = int(np.argmax(head[a + 1 : b + 1][::-1]))
                b = b - back if head[b - back] else a + 1 + int(np.argmax(head[a + 1 :]))
            if not head[a:b].all():
                _sort_block(rank, head, key[: b - a], a, b, k, rb, ib)
            a = b
        k *= 2
    halves = key.view(np.int32)
    for lo in range(0, n, CHUNK):
        halves[rank[lo : lo + CHUNK]] = np.arange(lo, min(lo + CHUNK, n), dtype=np.int32)
    return halves, rank


def _sort_block(rank, head, key, a: int, b: int, k: int, rb: int, ib: int) -> None:
    """Split the groups in slots [a, b) by the rank k suffixes further on."""
    n = len(rank)
    fill = 0
    for lo in range(0, n, CHUNK):
        part = rank[lo : lo + CHUNK]
        i = np.flatnonzero((part >= a) & (part < b)) + lo
        nxt = np.where(i + k < n, i + k, 0)
        packed = (rank[i].astype(np.int64) - a) << rb
        packed += np.where(i + k < n, rank[nxt].astype(np.int64) + 1, 0)
        packed <<= ib
        packed += i
        key[fill : fill + len(i)] = packed
        fill += len(i)
    key.sort()
    last, start = -1, a
    for lo in range(0, len(key), CHUNK):
        part = key[lo : lo + CHUNK]
        group = part >> ib
        new = np.empty(len(part), bool)
        new[0] = group[0] != last
        np.not_equal(group[1:], group[:-1], out=new[1:])
        head[a + lo : a + lo + len(part)] = new
        starts = np.where(new, np.arange(a + lo, a + lo + len(part)), start)
        np.maximum.accumulate(starts, out=starts)
        rank[part & ((1 << ib) - 1)] = starts
        last, start = group[-1], starts[-1]


def _lcp(strings: tuple[bytes, ...], sa: np.ndarray, rank: np.ndarray, lcp: np.ndarray) -> None:
    """lcp[r] = common prefix of suffixes sa[r - 1] and sa[r] of the strings; rank is overwritten.

    PLCP[i], the lcp of suffix i with Φ[i] = sa[rank[i] - 1], goes in text
    order.  Suffix i is reducible when codes[i - 1] == codes[Φ[i] - 1]; then
    PLCP[i] = PLCP[i - 1] - 1.  Only the others are compared, at most
    2 N log N codes in all (Kärkkäinen, Manzini & Puglisi, 2009), and as
    i + PLCP[i] never falls, a running maximum fills in the rest.  PLCP goes
    to lcp's memory, then in suffix-array order to rank's.
    """
    n = len(sa)
    dtype = np.min_scalar_type(255 + len(strings))
    codes = _codes(strings, dtype, 8 // dtype.itemsize - 1)
    words = np.ndarray(n, "<i8", codes, strides=(codes.itemsize,))  # the codes from i on, a word at a time
    top = 0  # i + PLCP[i] at the last position done
    for lo in range(0, n, CHUNK):
        r = rank[lo : lo + CHUNK]
        i = np.arange(lo, lo + len(r))
        phi = sa[r - 1]
        reducible = (r > 0) & (phi > 0) & (codes[i - 1] == codes[phi - 1])
        if not lo:
            reducible[0] = False  # suffix 0 has no code before it
        at = np.flatnonzero(~reducible & (r > 0))  # sa[0] has no predecessor: PLCP 0
        end = np.where(reducible, 0, i)
        end[at] = _match_end(codes, words, i[at], phi[at])
        end[0] = max(end[0], top)
        np.maximum.accumulate(end, out=end)
        top = int(end[-1])
        lcp[lo : lo + len(r)] = end - i
    for lo in range(0, n, CHUNK):
        rank[lo : lo + CHUNK] = lcp[sa[lo : lo + CHUNK]]
    lcp[:] = rank


def _match_end(codes, words, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Moves each p and q on past the common prefix of the suffixes there; returns p.

    While more than GALLOP pairs still match, each round moves them on by a
    word; the rest then gallop one by one.  The arrays keep their size, as
    numpy caches freed small blocks by size: shrinking arrays would leave
    one there for every size they passed.
    """
    per = 8 // codes.itemsize
    alive = np.ones(len(p), bool)
    while np.count_nonzero(alive) > GALLOP:
        alive &= words[p] == words[q]
        np.add(p, per, out=p, where=alive)
        np.add(q, per, out=q, where=alive)
    for k in np.flatnonzero(alive).tolist():
        p[k] += _gallop(codes, int(p[k]), int(q[k]))
    run = ~alive
    for _ in range(per - 1):  # the first code that differs lies in the word at p
        run &= codes[p] == codes[q]
        p += run
        q += run
    return p


def _gallop(codes: np.ndarray, p: int, q: int) -> int:
    """Common prefix of the suffixes at p and q, by slices of doubling length."""
    h, step = 0, 64
    while True:
        k = min(step, len(codes) - max(p, q) - h)  # the separator ends it within the codes
        diff = np.flatnonzero(codes[p + h : p + h + k] != codes[q + h : q + h + k])
        if len(diff):
            return h + int(diff[0])
        h += k
        step *= 2


class Index:
    """Generalized suffix array over a tuple of strings, built on first use.

    The build peaks in its LCP step at 14 bytes per indexed byte plus O(CHUNK)
    temporaries.  After it the index keeps, for every suffix in suffix-array
    order, its position and its lcp with the one before: 8 bytes per byte.
    Strings are found by value; equal strings share an entry, since match
    arrays depend only on content.  The match arrays of the last target
    asked for are cached, so that the terms of one target share them.
    """

    def __init__(self, strings):
        self._ids: dict[bytes, int] = {}
        for s in strings:
            self._ids.setdefault(bytes(s), len(self._ids))
        self.strings = tuple(self._ids)
        self._sa = None
        self._target, self._cache = None, {}

    def id(self, s: bytes) -> int:
        try:
            return self._ids[s]
        except KeyError:
            raise ValueError("string not in index") from None

    def _build(self) -> None:
        m = len(self.strings)
        self._starts = np.cumsum([0] + [len(s) + 1 for s in self.strings[:-1]])
        halves, rank = _suffix_array(self.strings)
        n = len(rank)
        sa = halves[:n]
        _lcp(self.strings, sa, rank, halves[n:])
        del rank
        # The separators' suffixes sort last and never match: drop them, but
        # keep one more lcp (0) to end the sequence.
        real = n - m
        self._lcp = halves[n : n + real + 1]
        self._lcp[real] = 0
        self._sa = sa[:real]

    def _sid(self, s: slice) -> np.ndarray:
        """The string of each suffix in a slice of the suffix array."""
        return np.searchsorted(self._starts, self._sa[s], side="right") - 1

    def matches(self, target: int, region: int, whole: bool) -> np.ndarray:
        """Match array of strings[target] against strings[region]."""
        if self._sa is None:
            self._build()
        if self._target != target:
            self._target, self._cache = target, {}
        if (region, whole) not in self._cache:
            kernel = self._whole if whole else self._aligned
            self._cache[region, whole] = kernel(target, region)
        return self._cache[region, whole]

    def _whole(self, t: int, r: int) -> np.ndarray:
        n = len(self.strings[t])
        if t == r:
            return np.arange(n, 0, -1, dtype=np.int32)
        out = np.zeros(n, np.int32)
        _nearest(out, self._sa, self._lcp, lambda s: self._sid(s) == r,
                 lambda s: self._sid(s) == t, self._starts[t])
        return out

    def _aligned(self, t: int, r: int) -> np.ndarray:
        n = len(self.strings[t])
        out = np.zeros(n, np.int32)
        if n > 1:
            _levels(out, *self._gather(t, r, n - 1), (n - 1).bit_length() - 1)
        return out

    def _gather(self, t: int, r: int, limit: int):
        """Suffixes of the target and those of the region starting before limit.

        Returns, in suffix-array order, their positions, the lcp of each
        with the one before (and a final 0), and which are targets
        (queries) and which regions (points); None for the own past.
        """
        start_t, start_r = self._starts[t], self._starts[r]
        own = r == t
        size = len(self.strings[t]) + (0 if own else min(limit, len(self.strings[r])))
        pos, lcp = np.empty(size, np.int32), np.zeros(size + 1, np.int32)
        queries, points = (None, None) if own else (np.empty(size, bool), np.empty(size, bool))
        carry, kept_last, at = _INF, False, 0
        for lo in range(0, len(self._sa), CHUNK):
            sa = self._sa[lo : lo + CHUNK]
            sid = self._sid(slice(lo, lo + CHUNK))
            is_t = sid == t
            is_r = (sid == r) & (sa < start_r + limit)
            keep = is_t if own else is_t | is_r
            w = _segmin(self._lcp[lo : lo + len(sa)], _after(keep, kept_last), carry)
            carry, kept_last = int(w[-1]), bool(keep[-1])
            end = at + int(np.count_nonzero(keep))
            pos[at:end] = sa[keep] - np.where(is_t[keep], start_t, start_r)
            lcp[at:end] = w[keep]
            if not own:
                queries[at:end], points[at:end] = is_t[keep], is_r[keep]
            at = end
        return pos, lcp, queries, points


def _dense(target: bytes, regions: list[bytes], whole: list[bool]):
    """best_matches for a small input, from the target-by-regions equality matrix.

    Runs of equal bytes along its diagonals are match lengths.  A
    separator column after each region stops runs at the region's end.
    """
    m = len(target)
    sizes = [len(s) + 1 for s in regions]
    width = sum(sizes)
    row = np.frombuffer(b"\0".join(regions) + b"\0", np.uint8).astype(np.int16)
    ends = np.cumsum(sizes)
    row[ends - 1] = -1
    # One row and one column on is a stride of width + 1: as the columns
    # of this view the diagonals run down, and each run ends at a 0.
    step = width + 1
    eq = np.zeros(((m + 1) * width + step - 1) // step * step, bool)
    np.equal(np.frombuffer(target, np.uint8)[:, None], row, out=eq[: m * width].reshape(m, width))
    eq = eq.reshape(-1, step)
    depth = np.arange(len(eq), dtype=np.int32)[:, None]
    runs = np.where(eq, len(eq), depth)
    runs = np.minimum.accumulate(runs[::-1], axis=0)[::-1] - depth
    runs = runs.ravel()[: m * width].reshape(m, width)
    # an aligned region admits starts p < q only
    start = np.concatenate([np.full(k, -1) if w else np.arange(k) for k, w in zip(sizes, whole)])
    runs *= start < np.arange(m)[:, None]
    # the first column with a row's maximum is in the first region in tie-break order
    return runs.max(axis=1), np.searchsorted(ends, runs.argmax(axis=1), side="right").astype(np.int32)


def best_matches(target: bytes, regions: list[bytes], whole: list[bool],
                 index: Index | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Longest permitted match at every target position, and the first region giving it.

    regions are in tie-break order; index, if given, must hold the target
    and every region.
    """
    n = len(target)
    if (n + 1) * sum(len(s) + 1 for s in regions) <= DENSE_CELLS:
        return _dense(target, regions, whole)
    index = index or Index([target] + regions)
    t = index.id(target)
    matches = [index.matches(t, index.id(s), w) for s, w in zip(regions, whole)]
    best, which = matches[0], np.zeros(n, np.min_scalar_type(len(regions)))
    for k, match in enumerate(matches[1:], 1):
        which[match > best] = k  # only a longer match moves on from the earlier region
        best = np.maximum(best, match)
    return best, which
