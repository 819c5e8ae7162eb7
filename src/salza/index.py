"""Longest-match arrays for the factorizer.

For a target and each of its reference regions, the match array holds
the longest match at every target position that starts in the region:
anywhere in it ("whole"), or before the target position ("aligned"; the
target's own past when the region is the target).  A generalized suffix
array with its LCP array gives them in O(N log N) vectorized work; inputs
too small to pay for it take a dense kernel instead.

The kernels over the suffix array rest on one scan, _since: each
element's match with the last marked element before it, the running
minimum of the LCP since the mark, carried across CHUNK-sized pieces.  The
scan down the sequence is the same scan up its reversed views.  An aligned
match, the own past, another string's or the causal triple's, finds the
nearest suffixes that start earlier by pointer jumping (_jump).

A reference's region and leftmost start both come from one minimum over
the run of the suffix array that shares its match (Index.leftmost), for
every input: the dense kernel gives only the match lengths.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, count
from math import comb

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

#: Most positions, string bytes and separators, that the index's int32 arrays address.
MAX_LENGTH = _INF = np.iinfo(np.int32).max


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
        # each stretch after a mark shifted below the earlier ones: one accumulate serves all
        seg = np.cumsum(np.concatenate(([after], here[:-1])), dtype=np.int64)
        seg <<= 32
        w = lcp[s] - seg
        w[0] = min(w[0], carry)  # below any later stretch, so only the first one sees it
        np.minimum.accumulate(w, out=w)
        w += seg
        yield s, w
        carry, after = int(w[-1]), bool(here[-1])


def _sides(*arrays):
    """The arrays, then their reversed views: a pass down a sequence is a pass up its reversal."""
    return arrays, tuple(a[::-1] for a in arrays)


def _block_min(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(a[lo:hi]) for each pair of bounds, lo < hi < len(a), by one minimum.reduceat.

    reduceat also reduces the stretch from each hi to the next lo; with the
    pairs in order those stretches add up to at most the array.
    """
    bounds = np.empty(2 * len(lo), np.intp)
    bounds[0::2], bounds[1::2] = lo, hi
    return np.minimum.reduceat(a[: int(hi.max()) + 1], bounds)[0::2]


def _run_starts(lcp: np.ndarray, rank: np.ndarray, length: np.ndarray) -> np.ndarray:
    """First element of the run around each rank that shares at least length with it.

    That is the largest i <= rank with lcp[i] < length (lcp[0] = 0 ends
    every search).  Blocks of doubling size going down from rank are tested
    until one holds such an i, which halving that block then finds; each
    test is one _block_min over all ranks still searching.  rank is
    ascending.  On reversed views it gives the last element of each run.
    """
    lo, hi = rank.copy(), rank + 1  # the block [lo, hi) under test
    todo, size = np.arange(len(rank)), 1
    while len(todo):
        lo[todo] = np.maximum(hi[todo] - size, 0)
        todo = todo[_block_min(lcp, lo[todo], hi[todo]) >= length[todo]]
        hi[todo] = lo[todo]
        size *= 2
    todo = np.flatnonzero(hi - lo > 1)
    while len(todo):  # the last i in [lo, hi) with lcp[i] < length
        mid = (lo[todo] + hi[todo]) // 2
        upper = _block_min(lcp, mid, hi[todo]) < length[todo]
        lo[todo[upper]], hi[todo[~upper]] = mid[upper], mid[~upper]
        todo = todo[hi[todo] - lo[todo] > 1]
    return lo


def _merge(best, row: np.ndarray, r: int) -> None:
    """Merge string r's matches, row, into the triple best (see Index)."""
    v1, r1, v2 = best
    lose = np.minimum(row, v1)  # besides v2, the loser's v1 counts if its string is not the winner's
    lose[r1 == r] = 0
    np.maximum(v2, lose, out=v2, casting="unsafe")
    r1[row > v1] = r
    np.maximum(v1, row, out=v1, casting="unsafe")


def _pointers(lcp, marks, ptr, h, names=None):
    """Point each element of a side (see _sides) at the nearest marked element before it.

    Fills ptr with the pointers (-1 for none) and h with the lcp since each
    (_since), both by name: names[k] for the side's k-th element, or k if
    names is None; returns them.  marks None marks every element, each then
    pointing at its neighbour.  ptr is written after lcp is read, so it may
    be lcp's memory.
    """
    size = len(lcp) - 1
    own = ((slice(lo, lo + CHUNK), lcp[lo : min(lo + CHUNK, size)]) for lo in range(0, size, CHUNK))
    for s, w in own if marks is None else _since(lcp, marks):
        h[s if names is None else names[s]] = w
    last = np.full(1, -1, np.int32)
    for lo in range(0, size, CHUNK):
        s = slice(lo, min(lo + CHUNK, size))
        part = np.arange(lo, s.stop, dtype=np.int32) if names is None else names[s]
        # the last marked element before the chunk, then those of the chunk
        seen = np.concatenate((last, part if marks is None else part[marks[s]]))
        before = seen[:-1] if marks is None else seen[np.cumsum(marks[s], dtype=np.int32) - marks[s]]
        ptr[s if names is None else part] = before
        last[0] = seen[-1]
    return ptr, h


def _jump(ptr: np.ndarray, h: np.ndarray, rounds: int, key: np.ndarray | None = None) -> np.ndarray:
    """Move each element's pointer to the nearest element before it, on its side, of smaller key.

    Elements are named by index into ptr and h; p's key is key[p], or p
    (ids, all distinct) if key is None.  ptr[p] comes before p on this side,
    every element pointed at between them having a key not below p's, and
    h[p] is their lcp; ptr -1 with h 0 is none.  While ptr[p]'s key is not
    below p's and h[p] > 0, p takes its pointer's pointer and the smaller h:
    then h[p] is the lcp with the nearest smaller key, or 0 where no match
    reaches past the pointer.  A pointer whose own pointer is final moves
    one element a round, so at most rounds rounds run.  The moving elements
    go CHUNK at a time, packed into one int32 array of their count, each
    chunk taken as intp once a round.  Returns a view of those left.
    """
    def first(lo):  # whether each element of the chunk from lo moves
        s, q = slice(lo, lo + CHUNK), ptr[lo : lo + CHUNK]
        return (q > np.arange(lo, lo + len(q)) if key is None else key[q] >= key[s]) & (h[s] > 0)

    n = len(ptr)
    todo, size = np.empty(sum(int(np.count_nonzero(first(lo))) for lo in range(0, n, CHUNK)), np.int32), 0
    for lo in range(0, n, CHUNK):
        p = np.flatnonzero(first(lo))
        p += lo
        todo[size : size + len(p)] = p
        size += len(p)
    for _ in range(rounds):
        if not size:
            break
        kept = 0
        for lo in range(0, size, CHUNK):  # the kept ones land on entries already read
            p = todo[lo : min(lo + CHUNK, size)].astype(np.intp)
            q = ptr[p].astype(np.intp)
            hp = np.minimum(h[p], h[q])
            h[p] = hp
            q = ptr[q]
            ptr[p] = q
            p = p.compress((q > p if key is None else key[q] >= key[p]) & (hp > 0))
            todo[kept : kept + len(p)] = p
            kept += len(p)
        size = kept
    return todo[:size]


def _finish(pos: np.ndarray, lcp: np.ndarray, e: np.ndarray, below: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """lcp of each element e (ascending) with the nearest earlier marked one whose pos is below e's threshold, 0 if none.

    below holds the thresholds, and marks the elements that count.  Over
    aligned blocks of doubling size 2s, from s = 1: an element in a block's
    right half with no answer yet has none in that half, so its answer is
    the last marked element of the left half below its threshold, if any:
    the last whose suffix minimum of pos there (masked where unmarked) is
    below it, found for all blocks by one searchsorted.  Its lcp is the smaller of
    the lcp minima from there to the left half's end and from the right
    half's start to the element.  Each level reads each block holding such
    an element once: O(n log n) in all.  Blocks are read CHUNK positions at
    a time, or one at a time when longer.
    """
    out, done, s = np.zeros(len(e), np.int32), np.zeros(len(e), bool), 1
    while s < len(pos) and not done.all():
        look = np.flatnonzero(~done & ((e & s) > 0))  # in a right half
        q = e[look]
        blocks, which = np.unique(q & -2 * s, return_inverse=True)
        per = max(1, CHUNK // s)
        for lo in range(0, len(blocks), per):
            at = blocks[lo : lo + per]
            mine = slice(*np.searchsorted(which, [lo, lo + per]))
            row, x = which[mine] - lo, -below[look[mine]]
            # the half from its end, unmarked elements below no threshold
            low = np.where(_rows(marks, at, s)[:, ::-1], _rows(pos, at, s)[:, ::-1], _INF)
            np.minimum.accumulate(low, axis=1, out=low)  # minus the suffix minima of position: ascending
            np.negative(low, out=low)
            if len(at) > 1:  # each row above the ones before
                low = low + (np.arange(len(at), dtype=np.int64) << 32)[:, None]
                x = x + (row << 32)
            j = s - 1 - (np.searchsorted(low.ravel(), x, side="right") - row * s)  # the last below, in the half
            del low
            hit = j >= 0
            row, j, qm, got = row[hit], j[hit], q[mine][hit], look[mine][hit]
            upto = np.minimum.accumulate(_rows(lcp, at, s)[:, ::-1], axis=1)[:, ::-1]  # lcp[first + i..] of the half
            a = np.where(j + 1 < s, upto[row, np.minimum(j + 1, s - 1)], _INF)
            del upto
            b = np.minimum.accumulate(_rows(lcp, at + s, s), axis=1)[row, qm - at[row] - s]
            out[got] = np.minimum(a, b)
            done[got] = True
        s *= 2
    return out


def _nearest_smaller(out: np.ndarray, pos: np.ndarray, lcp: np.ndarray, marks: np.ndarray) -> None:
    """Raise out to each element's lcp with the nearest marked element before it, on its side, of smaller pos.

    _pointers, then _jump by pos; _finish takes the elements left CHUNK at
    a time, which bounds its temporaries.  h takes out's dtype.
    """
    ptr, h = _pointers(lcp, marks, np.empty(len(pos), np.int32), np.empty(len(pos), out.dtype))
    left = _jump(ptr, h, 2 * len(ptr).bit_length(), pos)
    del ptr
    for lo in range(0, len(left), CHUNK):
        e = left[lo : lo + CHUNK]
        h[e] = _finish(pos, lcp, e, pos[e], marks)
    np.maximum(out, h, out=out)


def _codewords(m: int) -> tuple[int, np.ndarray]:
    """The fewest bits k for m codewords none of which holds another, and the codewords.

    They are the first m integers with ceil(k/2) bits set: k is the least
    with C(k, ceil(k/2)) >= m (Sperner).
    """
    k = next(k for k in count(1) if comb(k, (k + 1) // 2) >= m)
    words = [w for w in range(1 << k) if w.bit_count() == (k + 1) // 2][:m]
    return k, np.array(words, np.min_scalar_type((1 << k) - 1))


def _rows(a: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """a[start : start + width] for each of starts, as rows (a view for one; clipped at a's end)."""
    if len(starts) == 1:
        return a[starts[0] : starts[0] + width][None]
    return a.take(starts[:, None] + np.arange(width), mode="clip")


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
    its first k codes (Manber & Myers).  Each slot's int64 key holds its
    suffix in the low ib bits, which carry the order from round to round.
    The first round sorts the suffixes by their first q codes, packed as the
    codes' dense ranks (letters present, then separators) into the bits
    above the suffix by doubling the codes per key (_pack); a q-gram that
    runs past a separator is already unique.  A later round sorts each open
    group, of two or more slots, by the rank k further on (Larsson &
    Sadakane): see _refine.  The keys, the rank and the group starts take
    13 bytes per suffix.  The suffix array, the keys' low bits, is returned
    in the first half of the keys' memory, as int32, and the second half is
    left for the LCP array.
    """
    key = _codes(strings, np.int64)
    n = len(key)
    ib = (n - 1).bit_length()
    dense = np.zeros(256 + len(strings), np.int64)
    for lo in range(0, n, CHUNK):
        dense[key[lo : lo + CHUNK]] = 1
    bits = max(1, (int(dense.sum()) - 1).bit_length())
    np.cumsum(dense, out=dense)
    dense -= 1
    for lo in range(0, n, CHUNK):
        key[lo : lo + CHUNK] = dense[key[lo : lo + CHUNK]]
    q = min((KEY_BITS - ib) // bits, n)
    w = 1  # codes packed in each key so far
    for bit in bin(q)[3:]:  # q from its top bit: twice the codes, then one more if the bit is set
        _pack(key, w, bits * w)
        w *= 2
        if bit == "1":
            _pack(key, w, bits, bits * (w - 1))
            w += 1
    key <<= ib
    for lo in range(0, n, CHUNK):
        key[lo : lo + CHUNK] += np.arange(lo, min(lo + CHUNK, n))
    rank, head = np.empty(n, np.int32), np.zeros(n + 1, bool)  # head[j]: a group starts at slot j
    head[n] = True
    key.sort()
    _settle(rank, head, key, 0, ib)
    k = q
    while _refine(rank, head, key, k, ib):
        k *= 2
    sa = key.view(np.int32)
    for lo in range(0, n, CHUNK):  # each chunk lands on keys already read
        sa[lo : min(lo + CHUNK, n)] = key[lo : lo + CHUNK] & ((1 << ib) - 1)
    return sa, rank


def _pack(key: np.ndarray, w: int, shift: int, drop: int = 0) -> None:
    """Shift each key left by shift and add the key w further on, shifted right by drop; in place.

    Each key is read before it is written: the chunks go up, and a chunk's
    own keys are read whole before it is written.  Past the end the key
    read is 0: past a separator no code decides the order.
    """
    n = len(key)
    for lo in range(0, n, CHUNK):
        part = key[lo : lo + CHUNK]
        ahead = key[lo + w : lo + w + len(part)] >> drop
        part <<= shift
        part[: len(ahead)] += ahead  # below the shifted bits


def _refine(rank, head, key, k: int, ib: int) -> bool:
    """Sort every open group by the rank k further on, then settle it; False if none is open.

    A window of whole groups (_windows) at least half of whose slots are
    open, or one group longer than CHUNK, is sorted in place.  The open
    groups of the other windows are gathered into one buffer, at most CHUNK
    slots at a time.  A group may see ranks that an earlier one of the
    round already refined, which orders no two suffixes wrongly.
    """
    found, batch, size = False, np.empty(CHUNK, np.int64), 0
    for a, b in _windows(head):
        open_ = ~(head[a:b] & head[a + 1 : b + 1]) if b - a <= CHUNK else None
        count = b - a if open_ is None else int(np.count_nonzero(open_))
        if 2 * count >= b - a:  # one longer group, or mostly open
            _sort_groups(rank, head, key[a:b], a, k, ib)
            found = True
            continue
        if size + count > CHUNK:
            _sort_gathered(rank, head, key, batch[:size], k, ib)
            size = 0
        batch[size : size + count] = np.flatnonzero(open_)
        batch[size : size + count] += a
        size += count
        found |= count > 0
    if size:
        _sort_gathered(rank, head, key, batch[:size], k, ib)
    return found


def _windows(head):
    """Runs of whole groups: to the last group start within CHUNK slots, or one longer group."""
    n, a = len(head) - 1, 0
    while a < n:
        b = min(a + CHUNK, n)
        if not head[b]:
            back = int(np.argmax(head[a + 1 : b + 1][::-1]))
            b = b - back if head[b - back] else a + 1 + int(np.argmax(head[a + 1 :]))
        yield a, b
        a = b


def _sort_gathered(rank, head, key, at: np.ndarray, k: int, ib: int) -> None:
    """_sort_groups on the keys of slots at, gathered and written back."""
    part = key[at]
    _sort_groups(rank, head, part, at, k, ib)
    key[at] = part


def _sort_groups(rank, head, key, at, k: int, ib: int) -> None:
    """Sort the keys of whole groups by group, then the rank k further on, and settle them.

    at is the keys' slots: ascending, or the first of a run.  Each group's
    ordinal among them goes above the rank; where the ordinals do not fit
    in KEY_BITS, the keys are sorted in pieces of whole groups.
    """
    span = 1 << (KEY_BITS - 2 * ib)  # groups whose ordinals fit above rank and suffix
    firsts = head[at] if isinstance(at, np.ndarray) else head[at : at + len(key)]
    count = 0
    for lo in range(0, len(key), CHUNK):
        part = key[lo : lo + CHUNK]
        i = part & ((1 << ib) - 1)
        g = np.cumsum(firsts[lo : lo + CHUNK], dtype=np.int64)
        g += count - 1
        count = int(g[-1]) + 1
        g &= span - 1
        g <<= ib
        i += k
        g += rank.take(i, mode="clip")  # a singleton, alone in its group, may have none
        i -= k
        g <<= ib
        g += i
        part[:] = g
        del i, g
    pieces = np.flatnonzero(firsts)[::span].tolist() if count > span else [0]
    for lo, hi in zip(pieces, pieces[1:] + [len(key)]):
        key[lo:hi].sort()
    _settle(rank, head, key, at, ib)


def _settle(rank, head, key, at, ib: int) -> None:
    """Start a group, in the sorted keys of slots at, wherever one started or the bits above the suffix change.

    at is the keys' slots: ascending, or the first of a run.
    """
    gathered, last, start = isinstance(at, np.ndarray), -1, 0
    for lo in range(0, len(key), CHUNK):
        part = key[lo : lo + CHUNK]
        if gathered:
            slot = at[lo : lo + CHUNK]
            new = head[slot]
        else:
            slot = np.arange(at + lo, at + lo + len(part))
            new = head[at + lo : at + lo + len(part)]  # a view: set in place
        group = part >> ib
        new[0] |= group[0] != last
        new[1:] |= group[1:] != group[:-1]
        last = group[-1]
        del group
        if gathered:
            head[slot] = new
        starts = np.where(new, slot, start)
        np.maximum.accumulate(starts, out=starts)
        rank[part & ((1 << ib) - 1)] = starts
        start = starts[-1]


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
    share an entry, since match arrays depend only on content.

    Whole-source matches against strings[r] come from one nearest pass that
    gives every string's match array against r at once: a row of 4 bytes per
    indexed byte.  The last row is kept, so that asking for each target
    against one source in turn (as nsd_matrix does) makes one pass per
    source; one index then serves a whole corpus.

    An aligned match array, against the own past or another string's past,
    comes from nearest smaller ids (_aligned).  Besides the index it holds
    16 bytes per target byte for the own past, and against another string
    13 per suffix it gathers plus 4 per target byte.

    A target's longest match with all strings but at most one (best) comes
    from a triple of arrays over the index, made on first use: the longest
    match over all strings, a string giving it and the longest over the
    others.  The aligned triple, over all pasts, comes from k runs of the
    aligned kernel, one per bit of the strings' codewords (_sweep): 4 at
    m = 6 strings, 8 at 40, 9 at 80.  The runs that reach v1 make up a
    codeword, r1's, exactly where v2 < v1.  The whole triple
    (own past, other strings whole) merges one row and one own past per
    string.  best_matches takes the one its mode names, only on an index
    shared across factorizations, where it serves many terms.
    """

    def __init__(self, strings):
        self._ids: dict[bytes, int] = {}
        for s in strings:
            self._ids.setdefault(bytes(s), len(self._ids))
        self.strings = tuple(self._ids)
        self._starts = np.cumsum([0] + [len(s) + 1 for s in self.strings[:-1]])
        self._width = self._starts[-1] + len(self.strings[-1])  # positions in the index
        if self._width > MAX_LENGTH:
            raise ValueError(f"the strings total {self._width} bytes with their separators; "
                             f"an index addresses at most {MAX_LENGTH}")
        self._sa = None
        self._best: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # by whole
        self._row_of = self._row = self._letters = None

    def id(self, s: bytes) -> int:
        try:
            return self._ids[s]
        except KeyError:
            raise ValueError("string not in index") from None

    def alphabet(self, strings) -> frozenset[int]:
        """The bytes that occur in any of strings, from each string's letters, found once."""
        if self._letters is None:
            self._letters = np.array([np.bincount(np.frombuffer(s, np.uint8), minlength=256) > 0
                                      for s in self.strings])
        return frozenset(np.flatnonzero(self._letters[[self.id(s) for s in strings]].any(axis=0)).tolist())

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
        return (self._whole if whole else self._aligned)(target, region)

    def _whole(self, t: int, r: int) -> np.ndarray:
        """Match array of strings[t] against the whole of strings[r], cut from the row of r."""
        if self._row_of != r:
            self._row = None  # one row at a time
            self._row, self._row_of = self._whole_row(r), r
        start = self._starts[t]
        # a copy: a view would pin the whole row while the next row is made
        return self._row[start : start + len(self.strings[t])].copy()

    def _whole_row(self, r: int) -> np.ndarray:
        """Every string's match array against the whole of strings[r], at its place in the index.

        A nearest pass with r's suffixes as the points: the scan down writes
        each suffix's match with the nearest point before it at the suffix's
        position, and the scan up raises it to the match with the nearest
        after.  r's own positions then get its suffix lengths: a string
        matches itself whole.
        """
        out = np.zeros(self._width, np.int32)
        down, up = _sides(self._sa, self._lcp, self._sid == r)
        sa, lcp, mine = down
        for s, w in _since(lcp, mine):
            out[sa[s]] = w
        sa, lcp, mine = up
        for s, w in _since(lcp, mine):
            at = sa[s]
            out[at] = np.maximum(out[at], w)
        size = len(self.strings[r])
        out[self._starts[r] : self._starts[r] + size] = np.arange(size, 0, -1, dtype=np.int32)
        return out

    def _aligned(self, t: int, r: int) -> np.ndarray:
        """Match array of strings[t] against the past of strings[r], from nearest smaller ids.

        With the suffixes numbered in time order (_gather), the longest match
        at p is the larger lcp with the nearest region suffix of smaller id
        on either side (Crochemore & Ilie): on one side the sequence, on the
        other its reversed views.  A side points each suffix at the nearest
        region suffix before it (_pointers, by id); _jump moves the pointers
        for at most 2 log2 rounds, and _finish takes the target's suffixes
        left.  No target suffix is pointed at, so a query follows only region
        suffixes' chains, each skipping only region suffixes of larger id.
        """
        n = len(self.strings[t])
        out = np.zeros(n, np.int32)
        for side in (0, 1) if n > 1 else ():
            ids, lcp, region = _sides(*self._gather(t, r))[side]
            ptr, h = _pointers(lcp, None if r == t else region, lcp[:-1], np.empty(len(ids), np.int32), ids)
            del ids, lcp, region
            L = len(ptr) - n
            left = _jump(ptr, h, 2 * len(ptr).bit_length())
            del ptr
            h[left] = 0
            # the target's ids: 2p below L, p + L from there
            np.maximum(out[:L], h[: 2 * L : 2], out=out[:L])
            np.maximum(out[L:], h[2 * L :], out=out[L:])
            del h
            left = left[(left >= 2 * L) | (left % 2 == 0)]
            if len(left):
                ids, lcp, region = _sides(*self._gather(t, r))[side]
                mark = np.zeros(n + L, bool)
                mark[left] = True
                e = np.flatnonzero(mark[ids])
                below = ids[e]
                del mark, left
                got = _finish(ids, lcp, e, below, region)  # a target suffix is never the answer
                np.maximum.at(out, below - np.minimum(below // 2, L), got)  # at the ids' target positions
                del ids, lcp, region, e, below, got
        return out

    def best(self, target: int, left_out: int | None = None, whole: bool = False) -> np.ndarray:
        """Longest match of strings[target] with every string but strings[left_out].

        Each string's region is its past, or with whole its whole, except that
        strings[target]'s region is its own past.  left_out None leaves none
        out.  left_out = target leaves that own past out: the result is then
        v2 wherever r1 is the target, which a request without the own past
        whose sources are all the other strings (such as a `past`-mode one on
        an index of two strings) relies on.
        """
        if whole not in self._best:
            if self._sa is None:
                self._build()
            v1 = np.zeros(self._width, np.min_scalar_type(max(map(len, self.strings))))
            triple = v1, np.zeros(self._width, np.min_scalar_type(len(self.strings) - 1)), np.zeros_like(v1)
            (self._merge_rows if whole else self._sweep)(triple)
            v1.flags.writeable = False  # best hands out views of it
            self._best[whole] = triple
        v1, r1, v2 = self._best[whole]
        at = slice(self._starts[target], self._starts[target] + len(self.strings[target]))
        return v1[at] if left_out is None else np.where(r1[at] == left_out, v2[at], v1[at])

    def _sweep(self, best) -> None:
        """Fill best (see the class) with the aligned triple, from one run of the aligned kernel per codeword bit.

        Run q gives each suffix its longest match with the suffixes, at
        smaller positions in their own strings, of the strings whose codeword
        (_codewords) has bit q: its sides' _nearest_smaller, over those
        positions, held in _sa's memory meanwhile.  Merged CHUNK positions at
        a time, v1 keeps the largest run, a mask (in r1's memory where it
        fits) the runs that reach v1, and v2 the largest run below v1.  The
        mask ends a codeword exactly where one string alone reaches v1, r1
        is that string, and every other string lies in a run without it.
        Elsewhere v2 = v1 and r1 means nothing.  4 runs at m = 6, 8 at 40,
        9 at 80.
        """
        k, codes = _codewords(len(self.strings))
        sa, sid, self._sa = self._sa, self._sid, None  # if a run fails, the index is built again
        sa -= self._starts[sid]
        v1, r1, v2 = (x[: len(sa)] for x in best)  # in suffix-array order until the runs end
        mask = r1 if r1.itemsize >= codes.itemsize else np.zeros(len(sa), codes.dtype)
        run = np.empty_like(v1)
        for q in range(k):
            run[:] = 0
            for pos, lcp, marks, side in _sides(sa, self._lcp, (codes >> q & 1).astype(bool)[sid], run):
                _nearest_smaller(side, pos, lcp, marks)
            for lo in range(0, len(sa), CHUNK):
                s = slice(lo, lo + CHUNK)
                a, top, low, held = run[s], v1[s], v2[s], mask[s]
                np.copyto(held, 0, where=a > top)
                np.bitwise_or(held, codes.dtype.type(1 << q), out=held, where=a >= top)
                np.maximum(low, np.minimum(a, top), out=low, where=a != top)
                np.maximum(top, a, out=top)
        del run
        for lo in range(0, len(sa), CHUNK):
            s = slice(lo, lo + CHUNK)
            word = codes.searchsorted(mask[s])
            np.copyto(v2[s], v1[s], where=codes.take(word, mode="clip") != mask[s])
            r1[s] = word  # read only where v2 < v1
        del mask
        self._sa = np.add(sa, self._starts[sid], out=sa)  # back to positions in the index
        for x in best:  # to index order, 0 at the separators
            x[sa] = x[: len(sa)].copy()
            x[self._starts[1:] - 1] = 0

    def _merge_rows(self, best) -> None:
        """Merge into best (see the class) each string's row, its own positions holding its own past."""
        for r, s in enumerate(self.strings):
            row = self._whole_row(r)
            row[self._starts[r] : self._starts[r] + len(s)] = self._aligned(r, r)
            _merge(best, row, r)

    def leftmost(self, t: int, at: np.ndarray, length: np.ndarray, regions: list[tuple[int, bool]]):
        """First region and leftmost start of the match of length with strings[t] at each of at.

        The regions, (string id, whole) in tie-break order, are whole or
        aligned (starts below at).  at is strictly ascending, and each match must
        exist.  The suffixes that share at least length with the target's
        suffix form one run of the suffix array around its rank, found by
        looking the positions up in the suffix array (2 bytes per indexed
        byte, held here).  The smallest key (first region permitting it,
        position) of the run's suffixes gives both.
        """
        if not len(at):
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        if self._sa is None:
            self._build()
        n = len(self._sa)
        wanted = np.zeros(self._width, bool)
        wanted[self._starts[t] + at] = True
        rank = np.flatnonzero(wanted[self._sa])  # ascending and int64, as _run_starts takes them
        del wanted
        order = np.argsort(self._sa[rank]).argsort()  # each rank's place in at, which is ascending
        length = length[order]
        first = _run_starts(self._lcp, rank, length)
        last = n - 1 - _run_starts(self._lcp[::-1], n - 1 - rank[::-1], length[::-1])[::-1]
        kw, ka = np.full((2, len(self.strings)), len(regions))  # each string's first whole, aligned region
        for k, (i, whole) in reversed(list(enumerate(regions))):
            (kw if whole else ka)[i] = k
        key = np.empty(len(at), np.int64)
        key[order] = self._run_minima(first, last, at[order], kw, np.minimum(kw, ka))
        return key >> 32, key & 0xFFFFFFFF

    def _run_minima(self, first, last, limit, kw, kany) -> np.ndarray:
        """Smallest (region << 32) + position of a suffix of ranks first..last, for each run.

        A suffix of string i is in region kany[i] below the run's limit, else
        kw[i].  The runs' elements are read CHUNK at a time, each piece taking
        each run's part of it by one minimum.reduceat.
        """
        size = last - first + 1
        ends = np.cumsum(size)
        out = np.full(len(first), np.iinfo(np.int64).max)
        for lo in range(0, int(ends[-1]), CHUNK):
            e = np.arange(lo, min(lo + CHUNK, int(ends[-1])))
            k = np.searchsorted(ends, e, side="right")  # the run of each element
            rank = first[k] + e - (ends[k] - size[k])
            sid = self._sid[rank]
            pos = self._sa[rank] - self._starts[sid]
            key = np.where(pos < limit[k], kany[sid], kw[sid]) << 32
            key += pos
            heads = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
            k = k[heads]
            out[k] = np.minimum(out[k], np.minimum.reduceat(key, heads))
        return out

    def _gather(self, t: int, r: int):
        """The suffixes of the target and, but for the own past, those of strings[r] before the target's last position.

        Returns, in suffix-array order, their ids, the lcp of each with the
        one before (and a final 0), and whether each is a region suffix.  Ids
        go by position, the target's first at equal positions: with L region
        suffixes, id = p + min(p, L), plus 1 for the region's.  In the own
        past, L = 0 and every suffix is the region's.
        """
        n, start_t, start_r = len(self.strings[t]), self._starts[t], self._starts[r]
        L = 0 if r == t else min(n - 1, len(self.strings[r]))
        ids, lcp = np.empty(n + L, np.int32), np.zeros(n + L + 1, np.int32)
        in_t = self._sid == t
        keep = in_t | (self._sid == r) & (self._sa < start_r + L) if L else in_t
        at = 0
        for s, w in _since(self._lcp, keep):
            kept = keep[s]
            mine = in_t[s][kept]
            end = at + len(mine)
            p = self._sa[s][kept] - np.where(mine, start_t, start_r)
            ids[at:end] = p + np.minimum(p, L) + ~mine if L else p
            lcp[at:end] = w[kept]
            at = end
        return ids, lcp, ~in_t[keep] if r != t else np.broadcast_to(True, n)


def _dense(target: bytes, regions: list[tuple[bytes, bool]]) -> np.ndarray:
    """Longest permitted match at each target position, from the target-by-regions equality matrix.

    regions are (string, whole) pairs.  Runs of equal bytes along its
    diagonals are match lengths.  A separator column after each region
    stops runs at the region's end.
    """
    m = len(target)
    sizes = [len(s) + 1 for s, _ in regions]
    width = sum(sizes)
    row = np.frombuffer(b"\0".join(s for s, _ in regions) + b"\0", np.uint8).astype(np.int16)
    for end in accumulate(sizes):
        row[end - 1] = -1
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
    start = np.concatenate([np.full(k, -1) if w else np.arange(k) for k, (_, w) in zip(sizes, regions)])
    runs *= start < np.arange(m)[:, None]
    return runs.max(axis=1)


def best_matches(target: bytes, sources: tuple[bytes, ...], own: bool, whole: bool, index: Index | None = None):
    """Longest permitted match at every target position, and a function where.

    The regions, in tie-break order, are the target's own past if own, then
    the sources, whole if whole, else aligned.  where(at, length) is
    Index.leftmost: at the positions at (ascending), the first region with
    the longest match and the leftmost start of that match; length is
    best[at], passed back so that where need not keep best.  index, if
    given, must hold the target and every source.  A shared index serves a
    request that leaves out at most one of its strings from the triple of
    its kind (Index.best): aligned sources, or the own past and then whole
    sources that do not hold the target.  Other requests take per-pair
    arrays.  An index made here lives as long as where, without its row;
    a dense-size input's is made and built only if where is called.
    """
    regions = [(target, False)] * own + [(s, whole) for s in sources]

    def where(at, length):
        idx = index or Index([target, *sources])
        return idx.leftmost(idx.id(target), at, length, [(idx.id(s), w) for s, w in regions])

    if (len(target) + 1) * sum(len(s) + 1 for s, _ in regions) <= DENSE_CELLS:
        index = None  # where makes an index of its own when called
        return _dense(target, regions), where
    private = index is None
    index = index or Index([target, *sources])
    t, ids = index.id(target), [index.id(s) for s in sources]
    left_out = set(range(len(index.strings))).difference(ids, [t] * own)
    if not private and len(left_out) <= 1 and (not whole or own and t not in ids):
        best = index.best(t, *left_out, whole=whole)
    else:
        arrays = (index.matches(t, i, w) for i, w in [(t, False)] * own + [(i, whole) for i in ids])
        best = reduce(lambda a, b: np.maximum(a, b, out=a), arrays)  # one array at a time
        if private:  # the offsets need only the suffix array
            index._row_of = index._row = None
    return best, where
