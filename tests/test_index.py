"""The match-array kernels against the naive oracle, and one index shared across cells."""

import functools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import find_references, longest_previous, naive_factorize
from salza import DagSpec, StringSet, generate_dag_processes, index
from salza.directed import directed_info_matrix
from salza.estimators import conditional_complexity, joint_complexity, meaningful_cutoff, nsd, nsd_matrix
from salza.lz import Context, Mode, decode, factorize

# Module settings that force each kernel; CHUNK = 3 makes every scan carry
# its running minimum across many chunks.
KERNELS = {
    "dense": {"DENSE_CELLS": 1 << 40},
    "index": {"DENSE_CELLS": 0},
    "index-chunk3": {"DENSE_CELLS": 0, "CHUNK": 3},
}


@st.composite
def planted_case(draw):
    """Small-alphabet strings with one long block in the target and in a source."""
    mode = draw(st.sampled_from(list(Mode)))
    alpha = draw(st.integers(1, 4))

    def blob(lo, hi):
        return bytes(draw(st.lists(st.integers(0, alpha - 1), min_size=lo, max_size=hi)))

    if mode is Mode.SOURCE_PAST:
        nsrc = 1
    elif mode is Mode.SOURCE_ALL:
        nsrc = draw(st.integers(1, 3))
    else:
        nsrc = draw(st.integers(0, 3))
    block = blob(8, 60)
    target = blob(0, 40) + block + blob(0, 40)
    sources = [blob(1, 60) for _ in range(nsrc)]
    if sources:
        k = draw(st.integers(0, nsrc - 1))
        at = draw(st.integers(0, len(sources[k])))
        sources[k] = sources[k][:at] + block + sources[k][at:]
    return target, Context(tuple(sources), mode)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(max_examples=150, deadline=None)
@given(case=planted_case())
def test_planted_blocks_match_oracle(kernel, case):
    target, context = case
    with mock.patch.multiple(index, **KERNELS[kernel]):
        assert factorize(target, context) == naive_factorize(target, context)


def test_index_finds_strings_by_value():
    idx = index.Index((b"abcabc", b"xyz", b"abcabc"))
    assert idx.strings == (b"abcabc", b"xyz")
    assert idx.id(bytes(b"abcabc")) == 0
    with pytest.raises(ValueError, match="not in index"):
        idx.id(b"nope")


def _strings(seed, count, length):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 4, length, dtype=np.uint8).tobytes() for _ in range(count)]


def test_nsd_shared_index_equals_separate_estimates():
    x, y, z = _strings(1, 3, 500)
    pairs = [(x, y), (y, z + x[:200]), (x, x), (x, bytes(x))]
    with mock.patch.object(index, "DENSE_CELLS", 0):
        for a, b in pairs:
            ab = conditional_complexity(a, Context((b,), Mode.SOURCE_ALL)).value
            ba = conditional_complexity(b, Context((a,), Mode.SOURCE_ALL)).value
            assert nsd(a, b) == max(ab, ba)


def test_cutoffs_on_a_shared_index_equal_those_without():
    """The index finds each string's letters once; every term's alphabet and cutoff stay the same."""
    rng = np.random.default_rng(22)
    strings = [b"a" * 50, b"ab" * 30, rng.integers(0, 256, 300, dtype=np.uint8).tobytes(), bytes(range(3, 9))]
    strings.append(strings[0])  # a string given twice
    idx = index.Index(strings)
    for target in strings:
        for sources in [(s,) for s in strings] + [tuple(strings), tuple(strings[1:])]:
            for mode in Mode:
                if mode is Mode.SOURCE_PAST and len(sources) != 1:
                    continue
                shared, alone = Context(sources, mode, idx), Context(sources, mode)
                assert shared.alphabet(target) == alone.alphabet(target)
                assert meaningful_cutoff(target, shared).hex() == meaningful_cutoff(target, alone).hex()


def _nsd_corpus():
    """Unequal lengths and one file twice; 40 x 30 bytes fit the dense kernel, 700 x 450 do not."""
    rng = np.random.default_rng(14)

    def blob(alpha, k):
        return rng.integers(0, alpha, k, dtype=np.uint8).tobytes()

    base = blob(4, 700)
    return [base, blob(4, 450), base[:300] + blob(4, 350), blob(2, 40), bytes(base), blob(4, 30)]


def _per_pair(a, b):
    """nsd from the two conditional estimates, each factorized on its own."""
    ab = conditional_complexity(a, Context((b,), Mode.SOURCE_ALL)).value
    ba = conditional_complexity(b, Context((a,), Mode.SOURCE_ALL)).value
    return max(ab, ba)


@pytest.mark.parametrize("kernel", ["default", "index", "index-chunk3"])
def test_nsd_matrix_equals_per_pair(kernel):
    strings = _nsd_corpus()
    small = [(len(a) + 1) * (len(b) + 1) <= index.DENSE_CELLS for a in strings for b in strings]
    assert any(small) and not all(small)
    with mock.patch.multiple(index, **KERNELS.get(kernel, {"DENSE_CELLS": index.DENSE_CELLS})):
        d = nsd_matrix(strings)
        for i, a in enumerate(strings):
            assert d[i, i] == 0.0
            for j, b in enumerate(strings[:i]):
                assert d[i, j] == d[j, i] == _per_pair(a, b) == nsd(a, b), (i, j)
    assert d[0, 4] == 0.0  # the duplicated file


@pytest.mark.parametrize("kernel", ["default", "index-chunk3"])
def test_nsd_matrix_warns_on_short_input(kernel):
    strings = [b"ab"] + _nsd_corpus()[:3] + [b"ab"]  # a short file twice: positive distance
    with mock.patch.multiple(index, **KERNELS.get(kernel, {"DENSE_CELLS": index.DENSE_CELLS})):
        with pytest.warns(UserWarning, match="shorter than 3 bytes"):
            d = nsd_matrix(strings)
        for i, a in enumerate(strings):
            for j, b in enumerate(strings[:i]):
                assert d[i, j] == _per_pair(a, b)
    assert d[0, 4] > 0.0


def test_short_input_warning_points_at_the_caller():
    for call in (lambda: nsd(b"ab", b"abcd"), lambda: nsd_matrix([b"ab", b"abcd"])):
        with pytest.warns(UserWarning, match="shorter than 3 bytes") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


SHORT_INPUT = ("strings shorter than 3 bytes can never be matched: "
               "equal 2-byte strings are at a positive distance, and any two 1-byte strings at 0")


@pytest.mark.parametrize("x, y, value",
                         [(b"a", b"a", 0.0), (b"a", b"b", 0.0), (b"ab", b"ab", 0.25), (b"aa", b"aa", 0.25)])
def test_short_input_warning_states_what_holds(x, y, value):
    # a parse of one symbol estimates 0; a 2-byte one, two literals, does not
    for call in (lambda: nsd(x, y), lambda: float(nsd_matrix([x, y])[0, 1])):
        with pytest.warns(UserWarning) as caught:
            assert call() == value
        assert [str(w.message) for w in caught] == [SHORT_INPUT]


def test_nsd_matrix_builds_one_index():
    strings = _nsd_corpus()
    with mock.patch.object(index, "DENSE_CELLS", 0), \
            mock.patch.object(index.Index, "_build", autospec=True,
                              side_effect=index.Index._build) as build, \
            mock.patch.object(index.Index, "_whole_row", autospec=True,
                              side_effect=index.Index._whole_row) as row:
        nsd_matrix(strings)
    assert build.call_count == 1
    assert row.call_count == len(set(strings))  # one nearest pass per distinct source


def test_nsd_matrix_small_pairs_build_no_index():
    with mock.patch.object(index.Index, "_build", autospec=True,
                           side_effect=index.Index._build) as build:
        nsd_matrix([b"abcabc" * 5, b"xyzabc" * 6, b"abc"])
    assert build.call_count == 0  # every pair takes the dense kernel


@pytest.mark.parametrize("kind, mode", [("causal", Mode.PAST_OF_BOTH), ("full", Mode.PAST_AND_SOURCES)])
def test_directed_matrix_shared_index_equals_terms(kind, mode):
    m = np.array([[0.0, 0.0, 1.0], [0.8, 0.0, 0.2]])
    dag = generate_dag_processes(DagSpec(m, length=600, seed=5, alphabet_size=4))
    # a set that holds two equal strings
    strings = list(dag.strings) + [dag.strings[0]]
    X = StringSet(("a", "b", "c"), tuple(strings))
    n = len(strings)
    with mock.patch.object(index, "DENSE_CELLS", 0):
        got = directed_info_matrix(X, kind=kind).values
        for j in range(n):
            def term(skip):
                others = tuple(s for k, s in enumerate(strings) if k not in (j, skip))
                return conditional_complexity(strings[j], Context(others, mode)).value

            base = term(None)
            for i in range(n):
                if i != j:
                    assert got[i, j] == term(i) - base


SPARE_BITS = [None, 0, 1, 3]


@pytest.mark.parametrize("spare_bits, chunk", [(b, index.CHUNK) for b in SPARE_BITS] + [(b, 3) for b in SPARE_BITS],
                         ids=[str(b) for b in SPARE_BITS] + [f"{b}-chunk3" for b in SPARE_BITS])
def test_suffix_array_in_blocks_sorts_suffixes(spare_bits, chunk):
    # with few spare key bits each doubling round sorts many small blocks
    rng = np.random.default_rng(8)
    sets = []
    for trial in range(60):
        alpha = int(rng.integers(1, 5))
        strings = [rng.integers(0, alpha, int(rng.integers(1, 60)), dtype=np.uint8).tobytes()
                   for _ in range(int(rng.integers(1, 4)))]
        sets.append(tuple(strings + strings[:1]))  # equal strings tie until their separators
    # one group longer than a chunk, sorted in place round after round; and
    # a binary pair sharing a block longer than a chunk, its pairs of
    # suffixes gathered round after round
    size = 2 * chunk + 50
    block = rng.integers(0, 2, chunk + 100, dtype=np.uint8).tobytes()
    noise = [rng.integers(0, 2, 30, dtype=np.uint8).tobytes() for _ in range(3)]
    sets += [(b"a" * size,), ((b"abc" * size)[:size],), (noise[0] + block + noise[1], noise[2] + block)]
    for strings in sets:
        codes = index._codes(strings, np.int32)
        n = len(codes)
        bits = index.KEY_BITS if spare_bits is None else n.bit_length() + (n - 1).bit_length() + spare_bits
        with mock.patch.object(index, "KEY_BITS", bits), mock.patch.object(index, "CHUNK", chunk):
            halves, rank = index._suffix_array(strings)
        if n < 500:
            c = codes.tolist()
            assert halves[:n].tolist() == sorted(range(n), key=lambda i: c[i:])
        _assert_suffix_array(codes, halves[:n], rank)


def _assert_suffix_array(codes, sa, rank):
    """sa is a permutation whose neighbours are in order by their first code, then by the suffixes after it.

    With rank its inverse, that holds of the suffix array alone (Burkhardt &
    Kärkkäinen's check); the suffix after the last has rank -1.
    """
    n = len(codes)
    assert np.array_equal(np.sort(sa), np.arange(n))
    inv = np.full(n + 1, -1)
    inv[sa] = np.arange(n)
    a, b = sa[:-1].astype(np.int64), sa[1:].astype(np.int64)
    assert np.all((codes[a] < codes[b]) | (codes[a] == codes[b]) & (inv[a + 1] < inv[b + 1]))
    assert np.array_equal(rank, inv[:n])


def test_suffix_array_longer_than_a_chunk_in_one_group_blocks():
    # no spare key bits: every block is one group; the first round and the
    # final write of the suffix array cross chunks
    rng = np.random.default_rng(18)
    word = rng.integers(0, 2, 300, dtype=np.uint8).tobytes()
    noisy = b"".join(word[: int(rng.integers(1, 300))] for _ in range(60))
    strings = (noisy[:5000], rng.integers(0, 2, 3000, dtype=np.uint8).tobytes(), noisy[:5000])
    codes = index._codes(strings, ">u2").tobytes()  # two bytes per code: byte order is code order
    n = len(codes) // 2
    assert n > index.CHUNK
    with mock.patch.object(index, "KEY_BITS", n.bit_length() + (n - 1).bit_length()):
        halves, rank = index._suffix_array(strings)
    want = sorted(range(n), key=functools.cmp_to_key(lambda i, j: -1 if codes[2 * i:] < codes[2 * j:] else 1))
    assert halves[:n].tolist() == want
    assert rank.tolist() == np.argsort(want).tolist()


def _naive_lcp(strings):
    """Common prefix of each suffix with the one before it in sorted order."""
    codes = index._codes(strings, np.int32).tolist()
    order = sorted(range(len(codes)), key=lambda i: codes[i:])

    def common(a, b):
        h = 0
        while codes[a + h] == codes[b + h]:  # unique separators end every match
            h += 1
        return h

    return [0] + [common(a, b) for a, b in zip(order, order[1:])]


def _built_lcp(strings):
    halves, rank = index._suffix_array(strings)
    n = len(rank)
    index._lcp(strings, halves[:n], rank, halves[n:])
    return halves[n:].tolist()


def _planted(rng, block, copies):
    """copies strings that start with block, each after a different separator, then noise."""
    return tuple(block + rng.integers(0, 4, int(rng.integers(0, 20)), dtype=np.uint8).tobytes()
                 for _ in range(copies))


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_lcp_equals_naive_definition(chunk):
    rng = np.random.default_rng(9)
    sets = []
    for _ in range(60):
        alpha = int(rng.integers(1, 5))  # alphabet 1: unary strings
        strings = [rng.integers(0, alpha, int(rng.integers(0, 60)), dtype=np.uint8).tobytes()
                   for _ in range(int(rng.integers(1, 4)))]
        sets.append(tuple(strings + strings[:1]))  # equal strings tie until their separators
    block = rng.integers(0, 4, 300, dtype=np.uint8).tobytes()
    sets.append((b"\1" + block + b"\2\3", block + b"\0\1"))  # one long pair: the rounds stop, it gallops
    sets.append(_planted(rng, block[:100], index.GALLOP + 8))  # more long pairs than GALLOP: all go in rounds
    real, galloped = index._gallop, []

    def gallop(*args):
        galloped.append(real(*args))
        return galloped[-1]

    with mock.patch.object(index, "CHUNK", chunk), mock.patch.object(index, "_gallop", gallop):
        for strings in sets:
            assert _built_lcp(strings) == _naive_lcp(strings), strings
    assert max(galloped) > 200  # the long pair went through the galloping tail


def _block_lcps(rng, big):
    """Seeded lcp arrays of random block structures: 0 at each block start and a trailing 0."""
    sizes = [1, 2, 3, 5, 9, 17, 40, 200] * 6 + ([20_000] if big else [])
    for n in sizes:
        lcp = rng.integers(1, 12, n + 1).astype(np.int32)
        lcp[rng.random(n + 1) < rng.choice([0.02, 0.2, 0.6])] = 0
        lcp[0] = lcp[n] = 0
        yield lcp, rng.random(n) < rng.choice([0.01, 0.3, 0.9])


def _naive_since(lcp, marks):
    """Minimum of lcp since the element after the last mark, 0 if the block has none."""
    out, last = [], None
    for i in range(len(marks)):
        out.append(0 if last is None else int(lcp[last + 1 : i + 1].min()))
        if marks[i]:
            last = i
    return out


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_since_equals_a_naive_loop(chunk):
    rng = np.random.default_rng(13)
    cases = list(_block_lcps(rng, big=chunk == index.CHUNK))  # 20000 elements: more than one default CHUNK
    with mock.patch.object(index, "CHUNK", chunk):
        for lcp, marks in cases:
            for side in (slice(None), slice(None, None, -1)):  # up the sequence, and down it
                view, mask = lcp[side], marks[side]
                got = list(index._since(view, mask))
                assert [s.start for s, _ in got] == list(range(0, len(mask), chunk))
                assert np.concatenate([w for _, w in got]).tolist() == _naive_since(view, mask)


def _naive_aligned(target, region):
    """Longest match at each target position q with a region start p < q."""
    def common(q, p):
        h = 0
        while q + h < len(target) and p + h < len(region) and target[q + h] == region[p + h]:
            h += 1
        return h

    return [max((common(q, p) for p in range(min(q, len(region)))), default=0)
            for q in range(len(target))]


def _string_sets(rng, big):
    """Seeded sets of unequal lengths around powers of two, over alphabets 1-4, one duplicated."""
    lengths = [1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65]
    if big:
        lengths = [1, 2, 4095, 4096, 4097, 8191, 8193]  # together more than the default CHUNK
    sets = []
    for alpha in (1, 2, 3, 4):
        for _ in range(3 if big else 10):
            sizes = rng.choice(lengths, int(rng.integers(1, 5)))
            strings = [rng.integers(0, alpha, int(k), dtype=np.uint8).tobytes() for k in sizes]
            sets.append(tuple(strings + strings[:1]))  # the index dedups the copy
    return sets


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_all_pairs_sweep_equals_per_pair_arrays(chunk):
    """The triples against the per-pair arrays: both from nearest smaller keys, so the brute-force triple test is the independent check."""
    rng = np.random.default_rng(12)
    sets = _string_sets(rng, big=False) + (_string_sets(rng, big=True) if chunk == index.CHUNK else [])
    with mock.patch.object(index, "CHUNK", chunk):
        for strings in sets:
            sweep, rows, pairs = index.Index(strings), index.Index(strings), index.Index(strings)
            m = len(sweep.strings)
            assert m < len(strings)
            for t, target in enumerate(sweep.strings):
                per_pair = [pairs.matches(t, r, whole=False).tolist() for r in range(m)]
                if len(target) < 100:
                    assert per_pair == [_naive_aligned(target, region) for region in sweep.strings]
                # the whole triple: the target's own past, every other string whole
                whole = [pairs.matches(t, r, whole=True).tolist() if r != t else per_pair[t] for r in range(m)]
                for left_out in [None, *range(m)]:
                    for idx, arrays, kind in ((sweep, per_pair, False), (rows, whole, True)):
                        rest = [a for r, a in enumerate(arrays) if r != left_out]
                        want = np.max(rest, axis=0).tolist() if rest else [0] * len(target)
                        assert idx.best(t, left_out, kind).tolist() == want, (strings, t, left_out, kind)
            # the sweep leaves the index's arrays as they were
            last = m - 1
            for whole in (False, True):
                assert sweep.matches(0, last, whole).tolist() == pairs.matches(0, last, whole).tolist()


def _assert_triple_equals_brute_force(idx):
    """The aligned triple: v1, v2, and r1 where v2 < v1, from every string's per-pair brute-force arrays."""
    v1, r1, v2 = idx._best[False]
    for t, target in enumerate(idx.strings):
        arrays = np.array([_naive_aligned(target, region) for region in idx.strings]).reshape(len(idx.strings), -1)
        at = slice(idx._starts[t], idx._starts[t] + len(target))
        top, ranked = arrays.max(axis=0), np.sort(arrays, axis=0)
        second = ranked[-2] if len(arrays) > 1 else np.zeros_like(top)
        alone = second < top
        assert v1[at].tolist() == top.tolist() and v2[at].tolist() == second.tolist(), (idx.strings, t)
        assert r1[at][alone].tolist() == arrays.argmax(axis=0)[alone].tolist(), (idx.strings, t)


def _triple_sets(rng, m, longest=69):
    """Seeded sets of m distinct strings of 1 to longest bytes: random, periodic and repeated-block."""
    def one(family, n):
        alpha = int(rng.integers(1, 4))
        if family == "random":
            return rng.integers(0, alpha, n, dtype=np.uint8)
        unit = rng.integers(0, alpha, int(rng.integers(1, 5 if family == "periodic" else 16)), dtype=np.uint8)
        s = np.resize(unit, n)
        if family == "repeated-block":
            s[rng.random(n) < 0.02] ^= 1
        return s

    for family in ("random", "periodic", "repeated-block"):
        strings = set()
        while len(strings) < m:
            strings.add((one(family, int(rng.integers(1, longest + 1))) + 97).astype(np.uint8).tobytes())
        yield sorted(strings)


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 9, 11, 71])
def test_aligned_triple_equals_brute_force(m, chunk):
    """From one string given twice to one string past each count of runs.

    The runs' count k is the least with C(k, ceil(k/2)) >= m: 1, 2, 3 and 4
    runs at m = 1-4, 4 still at m = 5 and 6 (C(4, 2) = 6 codewords, all
    used), 5 at m = 7 and 9 and 6 at m = 11.  At m = 71 (strings of at most
    8 bytes) it takes 9 runs: a mask wider than the byte that holds r1.
    """
    longest = 8 if m > 70 else 69
    rng = np.random.default_rng(40 + m)
    for strings in _triple_sets(rng, m, longest):
        idx = index.Index(strings + strings[:1])  # the copy shares an entry
        assert len(idx.strings) == m
        with mock.patch.object(index, "CHUNK", chunk):
            idx.best(0)
        _assert_triple_equals_brute_force(idx)


def test_codewords_separate_every_ordered_pair():
    for m in range(1, 301):
        k, codes = index._codewords(m)
        words = codes.astype(np.int64)
        assert len(set(words.tolist())) == m and words.max() < 1 << k
        assert all(bin(w).count("1") == (k + 1) // 2 for w in words.tolist())
        held = words[:, None] & ~words[None, :]  # [s, r]: the runs holding s and not r
        assert np.all((held != 0) == ~np.eye(m, dtype=bool)), m
        assert k == 1 or math.comb(k - 1, k // 2) < m  # no fewer runs would do


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_aligned_triple_finishes_what_the_capped_rounds_leave(chunk):
    # on a unary pair, every suffix of the shorter string is still moving
    # when the pointer rounds run out
    idx = index.Index([b"a" * 200, b"a" * 140])
    with mock.patch.object(index, "CHUNK", chunk), \
            mock.patch.object(index, "_finish", wraps=index._finish) as finish:
        idx.best(0)
    assert finish.call_count >= 1  # called only for the suffixes left
    _assert_triple_equals_brute_force(idx)


def _own_past_inputs(rng, size):
    """Strings of about size bytes whose nearest smaller positions lie far along chains of pointers."""
    fib = [b"a", b"b"]
    while len(fib[-1]) < size:
        fib.append(fib[-1] + fib[-2])
    half = rng.integers(0, 4, size // 2, dtype=np.uint8)
    copy = half.copy()
    copy[rng.choice(len(half), len(half) // 200, replace=False)] ^= 1  # 0.5% apart
    return {
        "empty": b"",
        "one-byte": b"a",
        "unary": b"a" * size,
        "period-3": (b"abc" * size)[:size],
        "period-7": (b"abcdefg" * size)[:size],
        "fibonacci": fib[-1][:size],
        "b-then-a": b"b" + b"a" * size,
        "repeated-block": rng.integers(0, 2, 100, dtype=np.uint8).tobytes() * (size // 100),
        "near-copies": half.tobytes() + copy.tobytes(),
    }


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_own_past_equals_oracle(chunk):
    rng = np.random.default_rng(25)
    other = rng.integers(0, 4, 500, dtype=np.uint8).tobytes()
    for name, s in _own_past_inputs(rng, 3000 if chunk == index.CHUNK else 700).items():
        want = longest_previous(s)
        # alone, and among other strings that share its suffixes
        for idx in (index.Index([s]), index.Index([other, s, s[: len(s) // 2]])):
            idx._build()  # CHUNK = 3 builds are tested above
            t = idx.id(s)
            with mock.patch.object(index, "CHUNK", chunk):
                assert idx.matches(t, t, whole=False).tolist() == want, name


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_aligned_source_equals_oracle(chunk):
    """The own past's input families as another string's past, shorter and longer than the target."""
    rng = np.random.default_rng(28)
    inputs = _own_past_inputs(rng, 3000 if chunk == index.CHUNK else 700)
    names = [k for k in inputs if k not in ("empty", "one-byte")]
    for a, b in zip(names, names[1:] + names[:1]):
        y = inputs[a]
        for x in (inputs[b][: len(y) // 3], inputs[b] + inputs[a][: len(y) // 2], y[: len(y) // 2] + b"b" * 3):
            idx = index.Index([y, x])
            idx._build()
            with mock.patch.object(index, "CHUNK", chunk):
                assert idx.matches(0, 1, whole=False).tolist() == longest_previous(y, x), (a, b, len(x))
                assert idx.matches(1, 0, whole=False).tolist() == longest_previous(x, y), (b, a, len(x))


def test_own_past_finishes_what_the_capped_rounds_leave():
    # a pointer whose own pointer is final moves one element a round; on a
    # repeated block many do, for longer than the rounds allowed; so do the
    # target's suffixes against another string's past
    block = np.random.default_rng(27).integers(0, 2, 100, dtype=np.uint8).tobytes()
    for y, x in ((block * 40, None), (block * 40, block * 30)):
        idx = index.Index([y] if x is None else [y, x])
        with mock.patch.object(index, "_finish", wraps=index._finish) as finish:
            got = idx.matches(0, idx.id(x or y), whole=False)
        assert finish.call_count >= 1 and len(finish.call_args.args[2]) > 0
        assert got.tolist() == longest_previous(y, x)


def _naive_finish(pos, lcp, e, below):
    """lcp of each element e with the nearest earlier element of pos below e's below: the minimum of lcp since it."""
    out = []
    for k, limit in zip(e, below):
        j = max((j for j in range(k) if pos[j] < limit), default=None)
        out.append(0 if j is None else int(lcp[j + 1 : k + 1].min()))
    return out


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_finish_equals_a_loop(chunk):
    rng = np.random.default_rng(26)
    with mock.patch.object(index, "CHUNK", chunk):
        for n in [1, 2, 3, 5, 8, 13, 33, 64, 100, 257, 600] * 3:
            order = rng.choice(["random", "ascending", "descending", "saw"])
            pos = {"random": rng.permutation(n), "ascending": np.arange(n), "descending": np.arange(n)[::-1],
                   "saw": (np.arange(n) % 7) * n + np.arange(n)}[order].astype(np.int32)
            lcp = rng.integers(0, 6, n + 1).astype(np.int32)
            lcp[0] = lcp[n] = 0
            for p, h in index._sides(pos, lcp):
                e = np.flatnonzero(rng.random(n) < rng.choice([0.1, 0.5, 1.0]))
                every = np.ones(n, bool)
                assert index._finish(p, h, e, p[e], every).tolist() == _naive_finish(p, h, e, p[e]), (order, n)
                # a threshold per element, and unmarked candidates, which count as a pos below none
                below = rng.integers(0, n + 1, len(e)).astype(np.int32)
                marks = rng.random(n) < 0.5
                masked = np.where(marks, p, index._INF)
                assert index._finish(p, h, e, below, marks).tolist() == _naive_finish(masked, h, e, below), (order, n)


def _unequal_dag_strings():
    m = np.array([[0.0, 0.0, 0.0, 1.0], [0.8, 0.0, 0.0, 0.2], [0.0, 0.7, 0.0, 0.3]])
    dag = generate_dag_processes(DagSpec(m, length=900, seed=6, alphabet_size=4))
    return [s[:k] for s, k in zip(dag.strings, (900, 517, 256))] + [dag.strings[0][:255]]


def test_causal_matrix_on_unequal_lengths_equals_terms():
    strings = _unequal_dag_strings()
    X = StringSet(("a", "b", "c", "d"), tuple(strings))
    n = len(strings)
    with mock.patch.object(index, "DENSE_CELLS", 0):
        got = directed_info_matrix(X, kind="causal").values
        for j in range(n):
            def term(skip):
                others = tuple(s for k, s in enumerate(strings) if k not in (j, skip))
                return conditional_complexity(strings[j], Context(others, Mode.PAST_OF_BOTH)).value

            base = term(None)
            for i in range(n):
                assert got[i, j] == (term(i) - base if i != j else 0.0)


@pytest.mark.parametrize("m, kind, sweeps, pair_runs", [(4, "causal", 1, 0), (4, "full", 0, 4), (2, "causal", 1, 0)],
                         ids=["causal-1-0", "full-0-4", "causal-two-strings"])
def test_causal_matrix_takes_one_sweep(m, kind, sweeps, pair_runs):
    X = StringSet(("a", "b", "c", "d")[:m], tuple(_unequal_dag_strings())[:m])
    with mock.patch.object(index, "DENSE_CELLS", 0), _counting() as sweep, _counting("_aligned") as pair, \
            _counting("_merge_rows") as merge:
        directed_info_matrix(X, kind=kind)
    assert sweep.call_count == sweeps
    assert pair.call_count == pair_runs  # the full kind: each target's own past, once
    assert merge.call_count == (kind == "full")


@pytest.mark.parametrize("m, runs", [(6, 4), (9, 5)])
def test_one_sweep_takes_the_fewest_runs(m, runs):
    X = StringSet(tuple("abcdefghi")[:m], tuple(_strings(22, m, 300)))
    with mock.patch.object(index, "DENSE_CELLS", 0), \
            mock.patch.object(index, "_nearest_smaller", wraps=index._nearest_smaller) as nearest:
        directed_info_matrix(X, kind="causal")
    assert nearest.call_count == 2 * runs  # one call per side of each run


def _counting(method="_sweep"):
    """Counts the calls to an Index method, the sweep by default."""
    return mock.patch.object(index.Index, method, autospec=True, side_effect=getattr(index.Index, method))


def test_joint_complexity_runs_no_sweep():
    x, y = _strings(19, 2, 400)
    assert (len(y) + 1) * (2 * len(x) + 2) > index.DENSE_CELLS
    with _counting() as sweep:
        joint_complexity(x, y)
    assert sweep.call_count == 0


def test_private_index_runs_no_sweep():
    a, b, y = _strings(20, 3, 400)
    context = Context((a, b), Mode.PAST_OF_BOTH)
    with mock.patch.object(index, "DENSE_CELLS", 0), _counting() as sweep:
        f = factorize(y, context)
    assert sweep.call_count == 0
    assert f == naive_factorize(y, context)


def test_aligned_terms_on_a_shared_index_run_one_sweep():
    strings = _strings(21, 3, 400)
    idx = index.Index(strings)
    terms = [(2, (0, 1)), (2, (0,)), (2, (1,)), (0, (1, 2)), (1, (2,))]  # at most one string left out

    def context(ks, idx=None):
        return Context(tuple(strings[k] for k in ks), Mode.PAST_OF_BOTH, idx)

    with mock.patch.object(index, "DENSE_CELLS", 0):
        with _counting() as sweep:
            got = [factorize(strings[t], context(ks, idx)) for t, ks in terms]
        assert sweep.call_count == 1
        for f, (t, ks) in zip(got, terms):
            assert f == naive_factorize(strings[t], context(ks))


def _tied_sources(duplicates):
    """A target whose planted block two sources hold at earlier positions, so that they tie for it.

    With duplicates, the set also holds a copy of a source and one of the target.
    """
    rng = np.random.default_rng(15)

    def blob(k):
        return rng.integers(0, 4, k, dtype=np.uint8).tobytes()

    block = blob(90)
    target = blob(300) + block + blob(110)
    a, b = blob(60) + block + blob(350), blob(150) + block + blob(160)
    strings = [target, a, b, blob(500)]
    return strings + [a, target] if duplicates else strings


@pytest.mark.parametrize("duplicates", [False, True])
def test_causal_matrix_with_tied_and_equal_sources_equals_terms(duplicates):
    strings = _tied_sources(duplicates)
    n = len(strings)
    X = StringSet(tuple(map(str, range(n))), tuple(strings))

    def context(j, skip, idx=None):
        others = tuple(s for k, s in enumerate(strings) if k not in (j, skip))
        return Context(others, Mode.PAST_OF_BOTH, idx)

    with mock.patch.object(index, "DENSE_CELLS", 0):
        got = directed_info_matrix(X, kind="causal").values
        for j in range(n):
            base = conditional_complexity(strings[j], context(j, None)).value
            for i in range(n):
                want = conditional_complexity(strings[j], context(j, i)).value - base if i != j else 0.0
                assert got[i, j] == want, (i, j)
        pairs = index.Index(strings)
        a, b = pairs.matches(0, 1, whole=False), pairs.matches(0, 2, whole=False)
        assert np.any((a == b) & (a > 80))  # the tie
        # a term the sweep serves, down to its symbols' sources and offsets
        idx = index.Index(strings)
        with _counting() as sweep:
            f = factorize(strings[0], context(0, 1, idx))
        assert sweep.call_count == 1
        assert f == naive_factorize(strings[0], context(0, 1))
        # with two strings left out, the per-pair arrays serve it
        alone = (strings[3],)
        assert factorize(strings[0], Context(alone, Mode.PAST_OF_BOTH, idx)) == \
            naive_factorize(strings[0], Context(alone, Mode.PAST_OF_BOTH))


def test_causal_matrix_memory_grows_with_bytes_not_strings():
    """The sweep keeps a few entries per indexed byte, however many strings share them."""
    def peak_per_byte(m, length=1000):
        rng = np.random.default_rng(m)
        X = StringSet(tuple(map(str, range(m))),
                      tuple(rng.integers(0, 4, length, dtype=np.uint8).tobytes() for _ in range(m)))
        tracemalloc.start()
        try:
            directed_info_matrix(X, kind="causal")
            return tracemalloc.get_traced_memory()[1] / (m * length)
        finally:
            tracemalloc.stop()

    with mock.patch.object(index, "CHUNK", 1024):  # chunk temporaries would hide the arrays per byte
        assert peak_per_byte(24) <= 1.25 * peak_per_byte(6)


def _assert_offsets_leftmost(target, context, f):
    """f's references come from the first region bytes.find finds them in, at its leftmost start.

    The sources and offsets are Python ints, and f decodes.
    """
    refs = [sym for sym in f.symbols if not sym.is_literal]
    assert [(sym.source, sym.offset) for sym in refs] == find_references(target, context, f.lengths.tolist())
    assert all(type(sym.source) is type(sym.offset) is int for sym in refs)  # not np.int64: repr(f) depends on it
    assert decode(f, context) == target


def _families(rng, size):
    """Unary, periodic and word-plus-noise strings: suffix-array runs that span many windows."""
    word = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
    noisy = b"".join(word + bytes([b]) for b in rng.integers(0, 4, size // 9 + 1).tolist())
    return {"unary": b"a" * size, "periodic": (b"abcdefg" * size)[:size], "word+noise": noisy[:size]}


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_offsets_are_leftmost_starts(chunk):
    rng = np.random.default_rng(16)
    cases = []
    for x in _families(rng, 2000).values():
        y = x[7:] + x[:300]
        # a source equal to the target, and one source given twice
        cases += [(y, Context((x,) if mode is Mode.SOURCE_PAST else (x[:1500], y, x[:1500]), mode)) for mode in Mode]
    # a periodic target against a unary source: every reference's run of the suffix array is long
    cases += [((b"a" * 10 + b"b") * 60, Context((b"a" * 2000,), mode)) for mode in Mode]
    for y, context in cases:
        # the build and the match arrays run in chunks of the same size as the offsets
        with mock.patch.object(index, "CHUNK", chunk):
            with mock.patch.object(index, "DENSE_CELLS", 0):
                f = factorize(y, context)
            _assert_offsets_leftmost(y, context, f)
        # a dense-size parse: its offsets come from an index of its own, made for them
        small = Context(tuple(s[:60] for s in context.sources), context.mode)
        _assert_offsets_leftmost(y[:80], small, factorize(y[:80], small))


def test_dense_size_parse_builds_an_index_only_for_its_symbols():
    rng = np.random.default_rng(23)
    x = rng.integers(0, 3, 70, dtype=np.uint8).tobytes()
    y = x[5:] + x[:20]
    for mode in Mode:
        # a source equal to the target, and one source given twice
        sources = (x,) if mode is Mode.SOURCE_PAST else (x[:50], y, x[:50])
        context = Context(sources, mode)
        regions = (y,) * context.uses_own_past + sources
        assert (len(y) + 1) * sum(len(s) + 1 for s in regions) <= index.DENSE_CELLS
        with _counting("_build") as build:
            f = factorize(y, context)
            conditional_complexity(y, context)
            assert build.call_count == 0  # estimates read only the lengths
            refs = [sym for sym in f.symbols if not sym.is_literal]
            assert build.call_count == 1
        assert refs and f == naive_factorize(y, context)
        _assert_offsets_leftmost(y, context, f)


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_causal_term_offsets_after_the_sweep(chunk):
    strings = _tied_sources(duplicates=True)
    idx = index.Index(strings)
    terms = []
    with mock.patch.object(index, "DENSE_CELLS", 0):
        for j, skip in [(0, 1), (0, None), (1, 0), (3, 2)]:
            others = tuple(s for k, s in enumerate(strings) if k not in (j, skip))
            context = Context(others, Mode.PAST_OF_BOTH, idx)
            terms.append((strings[j], context, factorize(strings[j], context)))
        assert False in idx._best and idx._sa is not None  # the sweep keeps the index's arrays
        with mock.patch.object(index, "CHUNK", chunk), _counting("_aligned") as aligned, \
                _counting("_build") as build:
            for target, context, f in terms:
                _assert_offsets_leftmost(target, context, f)
        # the symbols need no per-pair match array and no rebuild
        assert aligned.call_count == 0 and build.call_count == 0
        for target, context, f in terms:
            assert f == naive_factorize(target, context)


def test_private_index_lives_until_symbols_are_made():
    made = []
    init = index.Index.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    x, y = _strings(17, 2, 600)
    with mock.patch.object(index, "DENSE_CELLS", 0), mock.patch.object(index.Index, "__init__", tracked):
        f = factorize(y, Context((x,), Mode.PAST_AND_SOURCES))
        [ref] = made
        assert ref() is not None and ref()._row is None  # held for the offsets, without its row
        f.symbols
    assert ref() is None


def test_shared_index_keeps_its_whole_triple_after_symbols():
    x, y = _strings(18, 2, 600)
    idx = index.Index((x, y))
    with mock.patch.object(index, "DENSE_CELLS", 0):
        f = factorize(y, Context((x,), Mode.PAST_AND_SOURCES, idx))
        triple = idx._best[True]
        _assert_offsets_leftmost(y, Context((x,), Mode.PAST_AND_SOURCES), f)
    assert idx._best == {True: triple} and all(a is b for a, b in zip(idx._best[True], triple))


def _full_sets():
    """Sets of 2, 3 and 5 strings of unequal lengths; the last gives one string twice."""
    a, b, c, d = _unequal_dag_strings()
    return [(b, c), (a, b, c), (a, b, c, d, b)]


@pytest.mark.parametrize("chunk", [index.CHUNK, 3])
def test_full_matrix_equals_terms_without_an_index(chunk):
    for strings in _full_sets():
        n = len(strings)
        X = StringSet(tuple(map(str, range(n))), strings)
        with mock.patch.object(index, "DENSE_CELLS", 0):
            with mock.patch.object(index, "CHUNK", chunk):
                got = directed_info_matrix(X, kind="full").values
            for j in range(n):
                def term(skip):
                    others = tuple(s for k, s in enumerate(strings) if k not in (j, skip))
                    return conditional_complexity(strings[j], Context(others, Mode.PAST_AND_SOURCES)).value

                base = term(None)
                for i in range(n):
                    assert got[i, j] == (term(i) - base if i != j else 0.0), (n, i, j)


def test_full_matrix_makes_one_row_per_string():
    """Two strings too: the terms that leave the other string out read the whole triple, not a sweep."""
    for m in (4, 2):
        X = StringSet(("a", "b", "c", "d")[:m], tuple(_unequal_dag_strings())[:m])
        with mock.patch.object(index, "DENSE_CELLS", 0), _counting("_whole_row") as row, \
                _counting("_aligned") as aligned, _counting() as sweep, _counting("matches") as matches:
            directed_info_matrix(X, kind="full")
        assert row.call_count == aligned.call_count == m
        assert sweep.call_count == matches.call_count == 0


def test_merge_equals_a_loop():
    """Each position's v1, r1 and v2 after merging string r's row, from their definitions."""
    rng = np.random.default_rng(25)
    for _ in range(50):
        v1 = rng.integers(0, 6, 40).astype(np.uint16)
        best = v1, rng.integers(0, 3, 40).astype(np.uint8), (v1 * rng.random(40)).astype(np.uint16)
        row, r = rng.integers(0, 6, 40, dtype=np.int32), int(rng.integers(0, 3))
        want = [(max(a, b1), r if a > b1 else rb, max(b2, 0 if rb == r else min(a, b1)))
                for a, b1, rb, b2 in zip(row.tolist(), *(x.tolist() for x in best))]
        index._merge(best, row, r)
        assert list(zip(*(x.tolist() for x in best))) == want


def test_index_refuses_more_positions_than_int32_addresses(monkeypatch):
    strings = [b"x" * 60, b"y" * 40]  # 101 positions with the separator
    monkeypatch.setattr(index, "MAX_LENGTH", 101)
    assert index.Index(strings).strings == tuple(strings)
    monkeypatch.setattr(index, "MAX_LENGTH", 100)
    with pytest.raises(ValueError, match="^the strings total 101 bytes with their separators; "
                                         "an index addresses at most 100$"):
        index.Index(strings)
