"""Longest-match arrays for the factorizer.

For a target and each of its reference regions, the match array holds
the longest match at every target position that starts in the region:
anywhere in it ("whole"), or before the target position ("aligned"; the
target's own past when the region is the target).  A generalized suffix
array with its LCP array gives them in O(N log N) vectorized work; inputs
too small to pay for it take a dense kernel instead.

Every kernel over the suffix array rests on one scan, _since: each
element's match with the last marked element before it, the running
minimum of the LCP since the mark, carried across CHUNK-sized pieces.  The
scan down the sequence is the same scan up its reversed views.
"""

from __future__ import annotations

from functools import partial

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


def _since(lcp: np.ndarray, marks: np.ndarray):
    """Each element's match with the last marked element before it, chunk by chunk.

    In suffix-array order, with lcp[i] the common prefix of elements i - 1
    and i (0 where a block begins), that match is the running minimum of
    lcp from the element after the mark on: 0 if the block has no mark
    before the element.  Yields each chunk's slice and its elements'
    matches.  On reversed views, where lcp[::-1][k] still joins reversed
    element k to the one before it and lcp's final 0 begins the first
    block, it gives the match with the first mark after each element.
    """
    carry, after = _INF, False
    for lo in range(0, len(marks), CHUNK):
        s = slice(lo, min(lo + CHUNK, len(marks)))
        here = marks[s]
        w = _segmin(lcp[s], np.concatenate(([after], here[:-1])), carry)
        yield s, w
        carry, after = int(w[-1]), bool(here[-1])


def _sides(*arrays):
    """The arrays, then their reversed views: a pass down a sequence is a pass up its reversal."""
    return arrays, tuple(a[::-1] for a in arrays)


def _nearest(out, pos, lcp, points, queries) -> None:
    """Raise out[pos[q]] to each query's longest match with any point: the nearest on either side.

    points and queries are masks over the sequence.  The nearest point
    before a query comes from _since up the sequence, the nearest after it
    from _since up the reversed views.
    """
    for pos, lcp, points, queries in _sides(pos, lcp, points, queries):
        for s, w in _since(lcp, points):
            q = queries[s]
            at = pos[s][q]
            out[at] = np.maximum(out[at], w[q])


def _nearest_regions(best, pos, lcp, sid, points, queries) -> None:
    """Merge into best, at pos[q], each query's longest match with the points, by string.

    best is three arrays: v1, the longest match with any string's points;
    r1, a string giving it; v2, the longest with any other string's.  On
    one side, v1 is the match with the nearest point and r1 its string.
    The nearest point of another string lies just before the run of r1's
    points that ends at the nearest one, so v2 is the smaller of v1 and h
    at the nearest point: the running minimum of w over the points alone,
    restarting at each point whose string differs from the previous one's.
    """
    for pos, lcp, sid, points, queries in _sides(pos, lcp, sid, points, queries):
        last_r, last_h = 0, 0  # before any point: no match
        for s, w in _since(lcp, points):
            here = points[s]
            r = np.concatenate(([last_r], sid[s][here]))
            h = np.concatenate(([last_h], w[here]))
            h = _segmin(h, np.concatenate(([False], r[1:] != r[:-1])), _INF)
            last_r, last_h = int(r[-1]), int(h[-1])
            q = queries[s]
            k = np.cumsum(here)[q]  # the nearest point, in r and h (0: one in an earlier chunk)
            a1 = w[q]
            _merge(best, pos[s][q], a1, r[k], np.minimum(h[k], a1))


def _merge(best, at, a1, ra, a2) -> None:
    """Merge the triple (a1, ra, a2) into best at positions at; both read as in _nearest_regions."""
    v1, r1, v2 = best
    b1, rb, b2 = v1[at], r1[at], v2[at]
    # besides both v2, the loser's v1 counts if its string is not the winner's
    lose = np.minimum(a1, b1)
    lose[ra == rb] = 0
    v2[at] = np.maximum(np.maximum(a2, b2), lose)
    v1[at] = np.maximum(a1, b1)
    r1[at] = np.where(a1 > b1, ra, rb)


def _child_lcp(lcp: np.ndarray, bit: np.ndarray, low: np.ndarray) -> None:
    """Turn lcp into the lcp within each half of the blocks, in place.

    An element's predecessor in its half (bit set, or low: clear) is the
    last earlier element of that half, so their lcp is _since over that
    half's mask.  Only the forward scan is needed: the halves keep the
    sequence's order.  A chunk is rewritten after both scans have read it.
    """
    for (s, ones), (_, zeros) in zip(_since(lcp, bit), _since(lcp, low)):
        lcp[s] = np.where(bit[s], ones, zeros)


def _local(pos, sid, starts, s=slice(None)):
    """Positions of a slice of the sequence within their strings."""
    return pos[s] if starts is None else pos[s] - starts[sid[s]]


def _levels(visit, pos, lcp, sid, starts, b: int) -> None:
    """Run visit at every level of a sequence one block above bit b, from the top.

    The sequence holds suffixes in suffix-array order: pos their positions,
    in the index if starts is given or else in their strings, and sid their
    strings (None: all of one string), which begin at starts[sid].  A pair
    p < q of positions first differs in one bit, where p has 0 and q has 1.
    Going down from the top bit b, the elements stay in blocks of equal
    position >> (b + 1), each in suffix-array order, and at bit b
    visit(pos, lcp, sid, low, bit) matches the points, with bit b clear
    (low), with the queries, with it set (bit): a nearest pass there finds
    each query's longest match with the suffixes at a smaller position.  A
    child block's lcp is the running minimum over its parent's.  A large
    block is split in place, so that its halves are views; smaller ones are
    reordered together.  The arrays are overwritten.
    """
    while True:
        bit = np.concatenate([_local(pos, sid, starts, slice(lo, lo + CHUNK)) >> b & 1 == 1
                              for lo in range(0, len(pos), CHUNK)])
        low = ~bit
        visit(pos, lcp, sid, low, bit)
        if b == 0:
            return
        _child_lcp(lcp, bit, low)
        b -= 1
        arrays = [pos, lcp[:-1]] + ([] if sid is None else [sid])
        if len(pos) > CHUNK:
            # the second half's first lcp (0) also ends the first half
            zeros = int(np.count_nonzero(low))
            for a in arrays:
                tail = a[bit]
                a[:zeros] = a[low]
                a[zeros:] = tail
            del bit, low, tail
            for lo, hi in ((0, zeros), (zeros, len(pos))):
                if hi > lo:
                    _levels(visit, pos[lo:hi], lcp[lo : hi + 1], None if sid is None else sid[lo:hi],
                            starts, b)
            return
        order = np.argsort(_local(pos, sid, starts) >> (b + 1), kind="stable")
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
    order, its position, its lcp with the one before and its string: 9 bytes
    per byte (up to 256 strings).  Strings are found by value; equal strings
    share an entry, since match arrays depend only on content.  The match
    arrays of the last target asked for are cached, so that the terms of one
    target share them.

    Whole-source matches against strings[r] come from one nearest pass that
    gives every string's match array against r at once: a row of 4 bytes per
    indexed byte.  The last row is kept, so that asking for each target
    against one source in turn (as nsd_matrix does) makes one pass per
    source; one index then serves a whole corpus.

    With all_pairs, a target's longest aligned match over the pasts of all
    strings but at most one (best_aligned) comes from one sweep over the
    whole index on first use, with one nearest pass per bit for all strings
    together.  It keeps three entries per indexed byte: the longest match
    over all strings, a string giving it and the longest over the others.
    The sweep takes over the index's arrays (a later request for a match
    array builds them again).
    """

    def __init__(self, strings, all_pairs: bool = False):
        self._ids: dict[bytes, int] = {}
        for s in strings:
            self._ids.setdefault(bytes(s), len(self._ids))
        self.strings = tuple(self._ids)
        self._starts = np.cumsum([0] + [len(s) + 1 for s in self.strings[:-1]])
        self._sa = self._best = None
        self._all_pairs = all_pairs
        self._target, self._cache = None, {}
        self._row_of = self._row = None

    def id(self, s: bytes) -> int:
        try:
            return self._ids[s]
        except KeyError:
            raise ValueError("string not in index") from None

    def _build(self) -> None:
        m = len(self.strings)
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
        ids = np.arange(m, dtype=np.min_scalar_type(m - 1))  # the string of each suffix:
        self._sid = np.repeat(ids, [len(s) + 1 for s in self.strings])[self._sa]

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
        """Match array of strings[t] against the whole of strings[r], cut from the row of r."""
        if self._row_of != r:
            self._row = None  # one row at a time
            self._row, self._row_of = self._whole_row(r), r
        start = self._starts[t]
        # a copy: the target's cache may outlive the row
        return self._row[start : start + len(self.strings[t])].copy()

    def _whole_row(self, r: int) -> np.ndarray:
        """Every string's match array against the whole of strings[r], at its place in the index.

        One nearest pass, with the suffixes of strings[r] as the points and
        all others as the queries.  The positions of strings[r] hold its
        suffix lengths: a string matches itself whole.
        """
        size = len(self.strings[r])
        out = np.zeros(self._starts[-1] + len(self.strings[-1]), np.int32)
        out[self._starts[r] : self._starts[r] + size] = np.arange(size, 0, -1)
        mine = self._sid == r
        _nearest(out, self._sa, self._lcp, mine, ~mine)
        return out

    def _aligned(self, t: int, r: int) -> np.ndarray:
        n = len(self.strings[t])
        out = np.zeros(n, np.int32)
        if n > 1:
            def visit(pos, lcp, sid, low, bit):
                if sid is not None:  # points in the region (sid), queries in the target
                    low, bit = low & sid, bit & ~sid
                _nearest(out, pos, lcp, low, bit)

            pos, lcp, sid = self._gather(t, r, n - 1)
            _levels(visit, pos, lcp, sid, None, (n - 1).bit_length() - 1)
        return out

    def best_aligned(self, target: int, left_out: int | None = None) -> np.ndarray:
        """Longest match of strings[target] with the past of every string but strings[left_out].

        The past of strings[target] is its own; left_out None leaves none out.
        """
        if self._best is None:
            self._best = self._sweep()
        v1, r1, v2 = self._best
        at = slice(self._starts[target], self._starts[target] + len(self.strings[target]))
        return v1[at] if left_out is None else np.where(r1[at] == left_out, v2[at], v1[at])

    def _sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For every position in the index, best_aligned's three arrays (see the class)."""
        if self._sa is None:
            self._build()
        pos, lcp, sid = self._sa, self._lcp, self._sid
        self._sa = self._lcp = self._sid = None
        longest = max(map(len, self.strings))
        width = self._starts[-1] + len(self.strings[-1])
        v1 = np.zeros(width, np.min_scalar_type(longest))
        v2, r1 = np.zeros_like(v1), np.zeros(width, np.min_scalar_type(len(self.strings) - 1))
        if longest > 1:
            visit = partial(_nearest_regions, (v1, r1, v2))
            _levels(visit, pos, lcp, sid, self._starts, (longest - 1).bit_length() - 1)
        v1.flags.writeable = False  # best_aligned hands out views of it
        return v1, r1, v2

    def _gather(self, t: int, r: int, limit: int):
        """Suffixes of the target and those of the region starting before limit.

        Returns, in suffix-array order, their positions in their strings,
        the lcp of each with the one before (and a final 0), and whether
        each is in the region (None for the own past).
        """
        start_t, start_r = self._starts[t], self._starts[r]
        own = r == t
        size = len(self.strings[t]) + (0 if own else min(limit, len(self.strings[r])))
        pos, lcp = np.empty(size, np.int32), np.zeros(size + 1, np.int32)
        in_t = self._sid == t
        keep = in_t if own else in_t | (self._sid == r) & (self._sa < start_r + limit)
        at = 0
        for s, w in _since(self._lcp, keep):
            kept = keep[s]
            mine = in_t[s][kept]
            end = at + len(mine)
            pos[at:end] = self._sa[s][kept] - np.where(mine, start_t, start_r)
            lcp[at:end] = w[kept]
            at = end
        return pos, lcp, None if own else ~in_t[keep]


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


def best_matches(target: bytes, regions: list[bytes], whole: list[bool], index: Index | None = None):
    """Longest permitted match at every target position, and a function giving the first region with it.

    regions are in tie-break order; index, if given, must hold the target
    and every region.  An all_pairs index serves the aligned pasts of all
    its strings but at most one from its sweep; the first regions, read
    only for the symbols' sources, then come from the per-pair arrays.
    """
    n = len(target)
    if (n + 1) * sum(len(s) + 1 for s in regions) <= DENSE_CELLS:
        best, which = _dense(target, regions, whole)
        return best, lambda: which
    index = index or Index([target] + regions)
    t = index.id(target)
    ids = [index.id(s) for s in regions]
    if index._all_pairs and not any(whole):
        left_out = set(range(len(index.strings))).difference(ids)
        if len(left_out) <= 1:
            return index.best_aligned(t, *left_out), lambda: _first_best(index, t, ids, whole)[1]
    best, which = _first_best(index, t, ids, whole)
    return best, lambda: which


def _first_best(index: Index, t: int, ids: list[int], whole: list[bool]):
    """best_matches from the match array of each region in turn."""
    matches = [index.matches(t, r, w) for r, w in zip(ids, whole)]
    best, which = matches[0], np.zeros(len(matches[0]), np.min_scalar_type(len(ids)))
    for k, match in enumerate(matches[1:], 1):
        which[match > best] = k  # only a longer match moves on from the earlier region
        best = np.maximum(best, match)
    return best, which
