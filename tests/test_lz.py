import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_factorize
from salza.lz import MIN_MATCH, SELF, Context, Factorization, Mode, Symbol, decode, factorize, walk

ALL_MODES = list(Mode)


def ctx(sources, mode):
    return Context(tuple(sources), mode)


class TestFactorizeExamples:
    def test_self_cross_parse_single_symbol(self):
        x = b"hello world, hello"
        f = factorize(x, ctx([x], Mode.SOURCE_ALL))
        assert len(f.symbols) == 1
        sym = f.symbols[0]
        assert (sym.length, sym.source, sym.offset) == (len(x), 0, 0)

    def test_disjoint_alphabets_all_literals(self):
        target = bytes([1, 2, 1, 2, 2, 1]) * 4
        source = bytes([3, 4, 4, 3, 3, 4]) * 4
        f = factorize(target, ctx([source], Mode.SOURCE_ALL))
        assert all(s.is_literal for s in f.symbols)
        assert len(f.symbols) == len(target)

    def test_overlapped_self_copy(self):
        f = factorize(b"aaaaaa", ctx([], Mode.PAST_OF_BOTH))
        assert [(s.length, s.source) for s in f.symbols] == [(1, None), (5, SELF)]
        assert f.symbols[1].offset == 0

    def test_own_past_reference(self):
        f = factorize(b"abcabcabd", ctx([], Mode.PAST_OF_BOTH))
        kinds = [(s.length, s.literal, s.source, s.offset) for s in f.symbols]
        assert kinds == [
            (1, ord("a"), None, None),
            (1, ord("b"), None, None),
            (1, ord("c"), None, None),
            (5, None, SELF, 0),
            (1, ord("d"), None, None),
        ]

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            factorize(b"", ctx([b"abc"], Mode.SOURCE_ALL))

    def test_single_source_mode_rejects_two_sources(self):
        with pytest.raises(ValueError, match="single source"):
            Context((b"ab", b"cd"), Mode.SOURCE_PAST)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="empty source"):
            Context((b"",), Mode.SOURCE_ALL)

    def test_matches_do_not_span_sources(self):
        # "abcdef" exists only across the boundary of the two sources
        target = b"abcdef"
        f = factorize(target, ctx([b"abc", b"def"], Mode.SOURCE_ALL))
        assert all(s.length <= 3 for s in f.symbols)

    def test_tie_break_prefers_earlier_source_then_position(self):
        target = b"xyzw"
        f = factorize(target, ctx([b"..xyz.", b"xyz..."], Mode.SOURCE_ALL))
        sym = f.symbols[0]
        assert (sym.length, sym.source, sym.offset) == (3, 0, 2)
        # same-length match within one source: leftmost offset wins
        f2 = factorize(target, ctx([b"xyz..xyz"], Mode.SOURCE_ALL))
        assert f2.symbols[0].offset == 0

    def test_tie_break_prefers_own_past(self):
        target = b"abcXabc"
        f = factorize(target, ctx([b"abc"], Mode.PAST_AND_SOURCES))
        refs = [s for s in f.symbols if not s.is_literal]
        # at position 0 the own past is empty, so the source provides the match;
        # at position 4 both regions hold "abc" and the own past wins the tie
        assert [r.source for r in refs] == [0, SELF]


class TestDecode:
    def test_round_trip_all_modes(self):
        rng = np.random.default_rng(7)
        for mode in ALL_MODES:
            for _ in range(25):
                target = rng.integers(0, 4, rng.integers(1, 80), dtype=np.uint8).tobytes()
                nsrc = 1 if mode is Mode.SOURCE_PAST else int(rng.integers(1, 3))
                sources = [
                    rng.integers(0, 4, rng.integers(1, 80), dtype=np.uint8).tobytes()
                    for _ in range(nsrc)
                ]
                c = ctx(sources, mode)
                assert decode(factorize(target, c), c) == target

    def test_single_literal(self):
        c = ctx([b"zz"], Mode.SOURCE_ALL)
        f = factorize(b"a", c)
        assert len(f.symbols) == 1 and f.symbols[0].is_literal
        assert decode(f, c) == b"a"

    def test_overlap_decode_by_hand(self):
        c = ctx([], Mode.PAST_OF_BOTH)
        f = factorize(b"aaaaaa", c)
        assert decode(f, c) == b"aaaaaa"

    def test_corrupt_offset_rejected(self):
        c = ctx([b"abcabc"], Mode.SOURCE_ALL)
        f = factorize(b"abcabc", c)
        bad = f.symbols[0].__class__(length=f.symbols[0].length, source=0, offset=99)
        corrupt = f.__class__(symbols=(bad,), target_length=f.target_length, mode=f.mode)
        with pytest.raises(ValueError, match="corrupt"):
            decode(corrupt, c)

    @pytest.mark.parametrize("mode, symbols, length", [
        (Mode.SOURCE_ALL, [Symbol(2, literal=97)], 2),
        (Mode.SOURCE_ALL, [Symbol(1, literal=97), Symbol(1, source=SELF, offset=0)], 2),
        (Mode.PAST_OF_BOTH, [Symbol(1, literal=97), Symbol(1, source=SELF, offset=1)], 2),
        (Mode.SOURCE_ALL, [Symbol(3, source=1, offset=0)], 3),
        (Mode.SOURCE_ALL, [Symbol(3, source=0, offset=4)], 3),
        (Mode.SOURCE_PAST, [Symbol(1, literal=97), Symbol(3, source=0, offset=1)], 4),
        (Mode.SOURCE_ALL, [Symbol(3, source=0, offset=0)], 4),
    ], ids=["long-literal", "self-without-own-past", "self-offset-ahead", "no-such-source",
            "past-the-source-end", "past-the-aligned-past", "short-target"])
    def test_each_corrupt_symbol_rejected(self, mode, symbols, length):
        c = ctx([b"abcabc"], mode)
        with pytest.raises(ValueError, match="^corrupt factorization$"):
            decode(Factorization(tuple(symbols), length, mode), c)


class TestReferenceLengths:
    def test_single_symbol_case(self):
        x = b"some repeated text!"
        f = factorize(x, ctx([x], Mode.SOURCE_ALL))
        assert f.lengths.tolist() == [len(x)]

    def test_all_literals(self):
        target = bytes([1, 2, 3, 1, 2])
        f = factorize(target, ctx([bytes([9, 8, 7, 9, 8])], Mode.SOURCE_ALL))
        assert f.lengths.tolist() == [1] * 5

    def test_mixed(self):
        f = factorize(b"abcabcabd", ctx([], Mode.PAST_OF_BOTH))
        assert f.lengths.tolist() == [1, 1, 1, 5, 1]

    def test_length_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            target = rng.integers(0, 3, rng.integers(1, 200), dtype=np.uint8).tobytes()
            f = factorize(target, ctx([], Mode.PAST_OF_BOTH))
            assert sum(f.lengths) == len(target)


class TestFactorizationValue:
    def test_parse_equals_one_built_from_its_symbols(self):
        y, context = b"abcabcabdxyzabcab", ctx([b"xyzab"], Mode.PAST_AND_SOURCES)
        f = factorize(y, context)
        g = Factorization(factorize(y, context).symbols, len(y), context.mode)
        assert g.lengths.tolist() == f.lengths.tolist() == [1, 1, 1, 5, 1, 5, 3]
        assert hash(f) == hash(g) and f == g  # hashing f makes its symbols
        assert hash(factorize(y, context)) == hash(f)

    def test_lengths_are_one_int32_array_from_either_constructor(self):
        for y, context in [(b"abcabcabdxyzabcab", ctx([b"xyzab"], Mode.PAST_AND_SOURCES)),
                           (b"q", ctx([b"abc"], Mode.SOURCE_ALL)),
                           (bytes(range(40)) * 3, ctx([], Mode.PAST_OF_BOTH))]:
            f = factorize(y, context)
            g = Factorization(f.symbols, len(y), context.mode)
            assert isinstance(f.lengths, np.ndarray) and f.lengths.dtype == g.lengths.dtype == np.int32
            assert np.array_equal(f.lengths, g.lengths)
            assert f.lengths.tolist() == [sym.length for sym in f.symbols]
            assert f == g and hash(f) == hash(g)
        assert Factorization((), 0, Mode.SOURCE_ALL).lengths.dtype == np.int32

    def test_equality_with_another_type(self):
        f = factorize(b"abcabc", ctx([], Mode.PAST_OF_BOTH))
        assert f.__eq__(f.symbols) is NotImplemented
        assert f != f.symbols

    def test_repr_shows_the_symbols(self):
        f = Factorization([Symbol(length=1, literal=97)], 1, Mode.SOURCE_ALL)
        assert repr(f) == ("Factorization(symbols=(Symbol(length=1, literal=97, source=None, offset=None),), "
                           "target_length=1, mode=<Mode.SOURCE_ALL: 'all'>)")
        f = factorize(b"abcabc", ctx([], Mode.PAST_OF_BOTH))
        assert repr(f).startswith("Factorization(symbols=(Symbol(length=1, literal=97, ") and f.lengths.tolist() == [1, 1, 1, 3]


def _greedy(best) -> list[int]:
    """The greedy parse over best, one position at a time."""
    out, t = [], 0
    while t < len(best):
        out.append(int(best[t]) if best[t] >= MIN_MATCH else 1)
        t += out[-1]
    return out


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
def test_walk_equals_a_greedy_loop(dtype):
    """Fuzzed match arrays: all literals, values 0-2, references that end the target, n = 1."""
    rng = np.random.default_rng(17)
    cases = [np.zeros(1), np.full(1, 1), np.full(7, 2), np.zeros(0), np.array([3, 0, 0]), np.array([0, 5, 4, 3, 0, 0])]
    for _ in range(400):
        n = int(rng.integers(1, 300))
        room = n - np.arange(n)  # a match never runs past the end
        best = np.minimum(rng.integers(0, 3, n), room)
        refs = rng.random(n) < rng.choice([0.0, 0.05, 0.3, 1.0])
        best[refs] = np.minimum(rng.integers(MIN_MATCH, 12, n), room)[refs]
        if rng.random() < 0.3:  # the last reference runs exactly to the end
            at = max(n - int(rng.integers(MIN_MATCH, 20)), 0)
            best[at] = room[at]
        cases.append(best)
    for best in cases:
        got = walk(best.astype(dtype))
        assert got.dtype == np.int32 and got.tolist() == _greedy(best)


@st.composite
def fuzz_case(draw):
    mode = draw(st.sampled_from(ALL_MODES))
    alpha = draw(st.sampled_from([1, 2, 3, 4, 8]))
    target = bytes(draw(st.lists(st.integers(0, alpha - 1), min_size=1, max_size=96)))
    nsrc = 1 if mode is Mode.SOURCE_PAST else draw(st.integers(0, 2))
    if mode is Mode.SOURCE_ALL:
        nsrc = max(nsrc, 1)
    sources = [
        bytes(draw(st.lists(st.integers(0, alpha - 1), min_size=1, max_size=96)))
        for _ in range(nsrc)
    ]
    return target, Context(tuple(sources), mode)


@settings(max_examples=300, deadline=None)
@given(fuzz_case())
def test_oracle_equivalence(case):
    target, context = case
    assert factorize(target, context) == naive_factorize(target, context)


@settings(max_examples=200, deadline=None)
@given(fuzz_case())
def test_round_trip_property(case):
    target, context = case
    f = factorize(target, context)
    assert decode(f, context) == target
    assert sum(f.lengths) == len(target)


def test_monotone_context_growth():
    # enlarging the permitted region from the source's past to all of it
    # never increases the symbol count
    rng = np.random.default_rng(11)
    for _ in range(100):
        target = rng.integers(0, 4, rng.integers(4, 150), dtype=np.uint8).tobytes()
        source = rng.integers(0, 4, rng.integers(4, 150), dtype=np.uint8).tobytes()
        past = factorize(target, ctx([source], Mode.SOURCE_PAST))
        full = factorize(target, ctx([source], Mode.SOURCE_ALL))
        assert len(full.symbols) <= len(past.symbols)


def test_unbounded_window_reference():
    # references must reach source positions far beyond any 32 KiB window
    rng = np.random.default_rng(5)
    source = rng.integers(0, 256, 200_000, dtype=np.uint8).tobytes()
    target = rng.integers(0, 256, 64, dtype=np.uint8).tobytes() + source[190_000:190_100]
    f = factorize(target, ctx([source], Mode.SOURCE_ALL))
    offsets = [s.offset for s in f.symbols if not s.is_literal]
    assert any(off >= 150_000 for off in offsets)


def test_pure_function_thread_safety():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(13)
    target = rng.integers(0, 4, 500, dtype=np.uint8).tobytes()
    source = rng.integers(0, 4, 500, dtype=np.uint8).tobytes()
    c = ctx([source], Mode.SOURCE_ALL)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: factorize(target, c), range(32)))
    assert all(r == results[0] for r in results)
