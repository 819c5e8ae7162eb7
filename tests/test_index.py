"""The match-array kernels against the naive oracle, and one index shared across cells."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_factorize
from salza import DagSpec, StringSet, generate_dag_processes, index
from salza.directed import directed_info_matrix
from salza.estimators import conditional_complexity, nsd
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
