"""The match-array kernels against the naive oracle, and one index shared across cells."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_factorize
from salza import DagSpec, StringSet, generate_dag_processes, index
from salza.directed import directed_info_matrix
from salza.estimators import conditional_complexity, nsd, nsd_matrix
from salza.lz import Context, Mode, factorize

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


@pytest.mark.parametrize("spare_bits", [None, 0, 1, 3])
def test_suffix_array_in_blocks_sorts_suffixes(spare_bits):
    # with few spare key bits each doubling round sorts many small blocks
    rng = np.random.default_rng(8)
    for trial in range(60):
        alpha = int(rng.integers(1, 5))
        strings = [rng.integers(0, alpha, int(rng.integers(1, 60)), dtype=np.uint8).tobytes()
                   for _ in range(int(rng.integers(1, 4)))]
        strings = tuple(strings + strings[:1])  # equal strings tie until their separators
        codes = index._codes(strings, np.int32).tolist()
        n = len(codes)
        bits = index.KEY_BITS if spare_bits is None else n.bit_length() + (n - 1).bit_length() + spare_bits
        with mock.patch.object(index, "KEY_BITS", bits):
            halves, rank = index._suffix_array(strings)
        assert halves[:n].tolist() == sorted(range(n), key=lambda i: codes[i:])
        assert rank.tolist() == np.argsort(halves[:n]).tolist()


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
def test_since_and_child_lcp_equal_naive_loops(chunk):
    rng = np.random.default_rng(13)
    cases = list(_block_lcps(rng, big=chunk == index.CHUNK))  # 20000 elements: more than one default CHUNK
    with mock.patch.object(index, "CHUNK", chunk):
        for lcp, marks in cases:
            for side in (slice(None), slice(None, None, -1)):  # up the sequence, and down it
                view, mask = lcp[side], marks[side]
                got = list(index._since(view, mask))
                assert [s.start for s, _ in got] == list(range(0, len(mask), chunk))
                assert np.concatenate([w for _, w in got]).tolist() == _naive_since(view, mask)
                # a half's predecessor is the last earlier element of that half
                want = np.where(mask, _naive_since(view, mask), _naive_since(view, ~mask))
                child = view.copy()
                index._child_lcp(child, mask, ~mask)
                assert child[:-1].tolist() == want.tolist() and child[-1] == view[-1]


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
    rng = np.random.default_rng(12)
    sets = _string_sets(rng, big=False) + (_string_sets(rng, big=True) if chunk == index.CHUNK else [])
    with mock.patch.object(index, "CHUNK", chunk):
        for strings in sets:
            sweep, pairs = index.Index(strings, all_pairs=True), index.Index(strings)
            m = len(sweep.strings)
            assert m < len(strings)
            for t, target in enumerate(sweep.strings):
                per_pair = [pairs.matches(t, r, whole=False).tolist() for r in range(m)]
                if len(target) < 100:
                    assert per_pair == [_naive_aligned(target, region) for region in sweep.strings]
                for left_out in [None, *range(m)]:
                    rest = [a for r, a in enumerate(per_pair) if r != left_out]
                    want = np.max(rest, axis=0).tolist() if rest else [0] * len(target)
                    assert sweep.best_aligned(t, left_out).tolist() == want, (strings, t, left_out)
            # the sweep took over the index's arrays; a later request builds them again
            last = m - 1
            for whole in (False, True):
                assert sweep.matches(0, last, whole).tolist() == pairs.matches(0, last, whole).tolist()


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


@pytest.mark.parametrize("kind, sweeps, pair_runs", [("causal", 1, 0), ("full", 0, 4)])
def test_causal_matrix_takes_one_sweep(kind, sweeps, pair_runs):
    X = StringSet(("a", "b", "c", "d"), tuple(_unequal_dag_strings()))
    with mock.patch.object(index, "DENSE_CELLS", 0), \
            mock.patch.object(index.Index, "_sweep", autospec=True,
                              side_effect=index.Index._sweep) as sweep, \
            mock.patch.object(index.Index, "_aligned", autospec=True,
                              side_effect=index.Index._aligned) as pair:
        directed_info_matrix(X, kind=kind)
    assert sweep.call_count == sweeps
    assert pair.call_count == pair_runs  # the full kind: each target's own past, once


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
        idx = index.Index(strings, all_pairs=True)
        with mock.patch.object(index.Index, "_sweep", autospec=True, side_effect=index.Index._sweep) as sweep:
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
