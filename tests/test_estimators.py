import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salza.estimators import (
    AdmissibleFunction,
    conditional_complexity,
    estimate_from_lengths,
    joint_complexity,
    meaningful_cutoff,
    nsd,
    nsd_matrix,
    simple_complexity,
)
from salza.lz import Context, Mode


class TestMeaningfulCutoff:
    def test_log_ratio(self):
        source = bytes(range(256)) * 16  # |R| = 4096, 256 distinct values
        c = Context((source,), Mode.SOURCE_ALL)
        assert meaningful_cutoff(b"\x00" * 10, c) == pytest.approx(1.5)

    def test_cutoff_one(self):
        source = bytes(range(256))
        c = Context((source,), Mode.SOURCE_ALL)
        assert meaningful_cutoff(b"\x00", c) == pytest.approx(1.0)

    def test_power(self):
        source = bytes([0, 1, 2, 3]) * 4  # |R| = 16, 4 values
        c = Context((source,), Mode.SOURCE_ALL)
        assert meaningful_cutoff(b"\x00", c) == pytest.approx(2.0)

    def test_unary_alphabet_degenerates_to_region_length(self):
        c = Context((b"aaaa",), Mode.SOURCE_ALL)
        assert meaningful_cutoff(b"aa", c) == 4.0

    def test_region_includes_own_past(self):
        c = Context((bytes([7, 8]) * 8,), Mode.PAST_AND_SOURCES)
        target = bytes([7, 8, 9, 10])
        # |R| = 16 + 4 = 20, alphabet {7,8,9,10}
        assert meaningful_cutoff(target, c) == pytest.approx(math.log(20, 4))

    def test_aligned_past_region_clips(self):
        c = Context((bytes(range(4)) * 8,), Mode.SOURCE_PAST)
        assert meaningful_cutoff(bytes(range(4)) * 2, c) == pytest.approx(math.log(8, 4))

    def test_alphabet_is_union_of_region_bytes(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            strings = [rng.integers(0, int(rng.integers(1, 257)), int(rng.integers(1, 300)),
                                    dtype=np.uint8).tobytes() for _ in range(4)]
            for mode in (Mode.PAST_OF_BOTH, Mode.SOURCE_ALL):
                ctx = Context(tuple(strings[1:]), mode)
                want = set().union(*strings[1:], strings[0] if ctx.uses_own_past else b"")
                assert ctx.alphabet(strings[0]) == frozenset(want)
                a = len(want)
                region = ctx.region_length(len(strings[0]))
                cutoff = math.log(region) / math.log(a) if a > 1 else float(region)
                assert meaningful_cutoff(strings[0], ctx) == cutoff


class TestAdmissibleFunctions:
    def test_threshold_is_strict(self):
        f = AdmissibleFunction("threshold", 1.5)
        assert (f(1), f(2)) == (0.0, 1.0)
        g = AdmissibleFunction("threshold", 3)
        assert (g(3), g(4)) == (0.0, 1.0)

    def test_threshold_zero_cutoff(self):
        f = AdmissibleFunction("threshold", 0)
        assert all(f(l) == 1.0 for l in range(1, 50))

    def test_sigmoid_center_and_values(self):
        f = AdmissibleFunction("sigmoid", 4)
        assert f(4) == pytest.approx(0.5)
        g = AdmissibleFunction("sigmoid", 2)
        assert g(4) == pytest.approx(1 / (1 + math.exp(-2)))
        assert g(4) == pytest.approx(0.8808, abs=1e-4)

    def test_sigmoid_limits(self):
        f = AdmissibleFunction("sigmoid", 3)
        assert f(500) == pytest.approx(1.0)
        assert f(1) < f(2) < f(3) < f(4)

    def test_sigmoid_huge_cutoff_no_overflow(self):
        f = AdmissibleFunction("sigmoid", 1e6)
        assert f(1) == 0.0

    @pytest.mark.parametrize("make", [
        lambda: AdmissibleFunction("threshold", 2.5),
        lambda: AdmissibleFunction("sigmoid", 7.0),
        lambda: AdmissibleFunction("table", table={1: 0.0, 3: 0.2, 8: 0.9, 20: 1.0}),
    ])
    def test_monotone_in_unit_interval(self, make):
        f = make()
        prev = -1.0
        for l in range(1, 10_001):
            v = f(l)
            assert 0.0 <= v <= 1.0
            assert v >= prev
            prev = v

    @pytest.mark.parametrize("kind", ["threshold", "sigmoid"], ids=lambda kind: f"{kind}_function")
    @pytest.mark.parametrize("l0", [math.nan, math.inf, -1.0, "3"])
    def test_bad_cutoff_rejected(self, kind, l0):
        with pytest.raises(ValueError, match="finite number >= 0"):
            AdmissibleFunction(kind, l0)

    @pytest.mark.parametrize("kind, l0, table, message", [
        ("table", 3.0, ((3, 0.2),), "a table function takes no cutoff l0, not 3.0"),
        ("sigmoid", 2.0, ((3, 0.2),), "a sigmoid function takes no table"),
        ("threshold", None, {3: 0.2}, "a threshold function takes no table"),
        ("table", None, {}, "a table function needs a non-empty table"),
        ("step", None, (), "unknown admissible function kind: step"),
    ])
    def test_fields_checked_against_the_kind(self, kind, l0, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AdmissibleFunction(kind, l0, table)

    def test_table_mapping_kept_as_sorted_pairs(self):
        f = AdmissibleFunction("table", table={8: 1.0, 3: 0.2})
        assert f.table == ((3, 0.2), (8, 1.0))
        assert f == AdmissibleFunction("table", table=((3, 0.2), (8, 1.0)))
        assert hash(f) == hash(AdmissibleFunction("table", table=((3, 0.2), (8, 1.0))))

    def test_table_validation(self):
        with pytest.raises(ValueError):
            AdmissibleFunction("table", table={1: 0.5, 2: 0.4})
        with pytest.raises(ValueError):
            AdmissibleFunction("table", table={1: 1.5})
        with pytest.raises(ValueError):
            AdmissibleFunction("table", table={})
        with pytest.raises(ValueError, match="^table lengths must be sorted and distinct$"):
            AdmissibleFunction("table", table=((5, 0.5), (3, 0.2)))

    def test_unresolved_cutoff_weighs_nothing(self):
        with pytest.raises(ValueError, match="^l0=None is resolved per context by conditional_complexity$"):
            AdmissibleFunction().weights([3])

    @pytest.mark.parametrize("f", [
        AdmissibleFunction("sigmoid", 3), AdmissibleFunction("threshold", 3), AdmissibleFunction("table", table={3: 0.5}),
    ], ids=["sigmoid", "threshold", "table"])
    def test_no_lengths_weigh_to_an_empty_array(self, f):
        for lengths in ([], np.zeros(0, np.int32)):
            w = f.weights(lengths)
            assert w.dtype == np.float64 and w.shape == (0,)

    def test_sigmoid_memory_does_not_grow_with_the_longest_length(self):
        import tracemalloc

        f = AdmissibleFunction("sigmoid", 3)
        lengths = np.array([1, 10**7, 5, 1], np.int32)
        tracemalloc.start()
        try:
            w = f.weights(lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # a table as long as the longest length would take 80 MB
        assert w.tolist() == [f(1), 1.0, f(5), f(1)]
        assert f(2**31 - 1) == 1.0

    def test_sigmoid_weighs_a_parse_with_a_long_reference_as_the_loop_does(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            l0 = float(rng.uniform(0, 12))
            f, weight = _loop_weight("sigmoid", l0)
            lengths = rng.geometric(rng.uniform(0.05, 0.9), int(rng.integers(1, 3000)))
            lengths[rng.integers(len(lengths))] = int(rng.integers(10_000, 100_000))  # longer than the array and CHUNK
            n = int(lengths.sum())
            assert f.weights(lengths).tolist() == [weight(l) for l in lengths.tolist()]
            est = estimate_from_lengths(lengths.astype(np.int32), n, f)
            assert (est.value, est.spread, est.size) == _loop_estimate(lengths.tolist(), n, weight)


class TestConditionalComplexity:
    def test_self_is_zero(self):
        x = b"completely arbitrary content"
        est = conditional_complexity(x, Context((x,), Mode.SOURCE_ALL))
        assert est.value == 0.0
        assert est.size == 0.0

    def test_disjoint_alphabet_closed_form(self):
        n = 40
        target = bytes([1, 2, 3, 4] * 10)
        source = bytes([9, 8, 7] * 10)
        for f in (AdmissibleFunction("threshold", 1.5), AdmissibleFunction("sigmoid", 3.0), None):
            est = conditional_complexity(target, Context((source,), Mode.SOURCE_ALL), f)
            assert est.spread == pytest.approx(1 - 1 / n)
            assert est.size == pytest.approx((n - 1) / n)
            assert est.value == pytest.approx(((n - 1) / n) ** 2)

    def test_own_past_hand_value(self):
        est = conditional_complexity(
            b"abcabcabd", Context((), Mode.PAST_OF_BOTH), AdmissibleFunction("threshold", 1.5))
        assert est.spread == pytest.approx(4 / 9)
        assert est.size == pytest.approx(4 / 9)
        assert est.value == pytest.approx(16 / 81)

    def test_value_is_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.integers(0, 4, rng.integers(3, 60), dtype=np.uint8).tobytes()
            y = rng.integers(0, 4, rng.integers(3, 60), dtype=np.uint8).tobytes()
            est = conditional_complexity(x, Context((y,), Mode.SOURCE_ALL))
            assert est.value == est.spread * est.size
            assert 0.0 <= est.spread <= 1.0
            assert 0.0 <= est.size < 1.0
            assert 0.0 <= est.value < 1.0

    def test_default_function_spec_matches_explicit(self):
        x = b"abcabcabdabd"
        y = b"dbacbcabadba"
        c = Context((y,), Mode.SOURCE_ALL)
        explicit = AdmissibleFunction("sigmoid", meaningful_cutoff(x, c))
        assert conditional_complexity(x, c).value == conditional_complexity(x, c, explicit).value
        thr = conditional_complexity(x, c, AdmissibleFunction("threshold"))
        expl_thr = AdmissibleFunction("threshold", meaningful_cutoff(x, c))
        assert thr.value == conditional_complexity(x, c, expl_thr).value

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("l0", [None, 3.0], ids=["meaningful-cutoff", "given-cutoff"])
    def test_empty_target_refused_alike_in_every_mode(self, mode, l0):
        with pytest.raises(ValueError, match="^empty input$"):
            conditional_complexity(b"", Context((b"abc",), mode), AdmissibleFunction("sigmoid", l0))


def test_empty_inputs_refused():
    with pytest.raises(ValueError, match="^no symbol lengths$"):
        estimate_from_lengths([], 5, AdmissibleFunction("sigmoid", 3.0))
    with pytest.raises(ValueError, match="^empty input$"):
        nsd_matrix([b"a", b""])
    with pytest.raises(ValueError, match="^empty input$"):
        simple_complexity(b"")
    with pytest.raises(ValueError, match="^empty input$"):
        joint_complexity(b"", b"abc")
    assert nsd_matrix([]).shape == (0, 0)  # as nsd_matrix([x]) is [[0.]]


# each of the rules that keep both factors in [0, 1]
@pytest.mark.parametrize("lengths, n, message", [
    ([5, 5], 3, "symbol lengths sum to 10, past the target length 3"),
    ([0, 3], 5, "symbol lengths must be at least 1, not 0"),
    ([4, -1], 5, "symbol lengths must be at least 1, not -1"),
    ([1], 0, "symbol lengths sum to 1, past the target length 0"),
], ids=["sum-past-n", "zero-length", "negative-length", "n-0"])
def test_estimate_refuses_lengths_outside_the_target(lengths, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        estimate_from_lengths(lengths, n, AdmissibleFunction("threshold", 1.0))


class TestSimpleComplexity:
    def test_no_repeats_all_literal(self):
        x = bytes(range(30))
        est = simple_complexity(x, AdmissibleFunction("threshold", 1.5))
        assert est.value == pytest.approx((29 / 30) ** 2)

    def test_constant_string_hand_value(self):
        # lengths {1, 5}: S = 1 - (5 - (1 - 1))/6 = 1/6, Z = 1/6
        est = simple_complexity(b"aaaaaa", AdmissibleFunction("threshold", 1.5))
        assert est.spread == pytest.approx(1 / 6)
        assert est.size == pytest.approx(1 / 6)
        assert est.value == pytest.approx(1 / 36)

    def test_below_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.integers(0, 5, rng.integers(1, 100), dtype=np.uint8).tobytes()
            assert simple_complexity(x).value < 1.0


class TestJointComplexity:
    def test_joint_with_self_equals_simple(self):
        x = b"the quick brown fox jumps over the lazy dog"
        assert joint_complexity(x, x) == simple_complexity(x).value

    def test_equal_lengths_zero_log_term(self):
        x = b"abcdabcdabcd"
        y = b"ddccbbaaddcc"
        from salza.estimators import conditional_complexity as cc

        f = AdmissibleFunction("sigmoid", 2.0)
        direct = cc(y, Context((x,), Mode.PAST_AND_SOURCES), f).value + simple_complexity(x, f).value
        assert joint_complexity(x, y, f) == pytest.approx(direct)

    def test_unary_alphabet_rejected(self):
        with pytest.raises(ValueError, match="log base"):
            joint_complexity(b"aaaa", b"abab")

    def test_rough_symmetry_on_markov_text(self):
        from salza.synth import MarkovSpec, generate_markov

        rng = np.random.default_rng(2)
        m = rng.random((16, 16))
        m /= m.sum(axis=1, keepdims=True)
        eps = []
        for seed in range(6):
            x = generate_markov(MarkovSpec(16, m, 4000, seed=2 * seed))
            y = generate_markov(MarkovSpec(16, m, 4000, seed=2 * seed + 1))
            eps.append(abs(joint_complexity(x, y) - joint_complexity(y, x)))
        assert np.mean(eps) < 0.02


class TestNsd:
    def test_identity(self):
        x = b"identical content here"
        assert nsd(x, x) == 0.0

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.integers(0, 4, rng.integers(3, 80), dtype=np.uint8).tobytes()
            y = rng.integers(0, 4, rng.integers(3, 80), dtype=np.uint8).tobytes()
            d = nsd(x, y)
            assert d == nsd(y, x)
            assert d >= 0.0
            if x != y:
                assert d > 0.0

    def test_short_string_warns(self):
        with pytest.warns(UserWarning):
            d = nsd(b"ab", b"ab")
        assert d > 0.0

    def test_triangle_counterexample(self):
        M, n = 60, 10
        A = bytes(range(0, M))
        B = bytes(range(60, 60 + M))
        C = bytes(range(120, 120 + M))
        x = A * n + B + bytes(reversed(C))
        y = B + C * n + bytes(reversed(A))
        z = A + C + B * n
        f = AdmissibleFunction("threshold")
        d_xy = nsd(x, y, f)
        d_xz = nsd(x, z, f)
        d_zy = nsd(z, y, f)
        assert d_xy == pytest.approx((n + 1) ** 2 / (n + 2) ** 2, abs=1e-9)
        assert d_xz == pytest.approx((n + M) ** 2 / ((n + 2) ** 2 * M**2), abs=1e-9)
        assert d_zy == pytest.approx(d_xz, abs=1e-12)
        assert d_xz + d_zy - d_xy < 0


@settings(max_examples=200, deadline=None)
@given(
    st.binary(min_size=1, max_size=60),
    st.binary(min_size=1, max_size=60),
    st.sampled_from(["sigmoid", "threshold"]),
)
def test_bounds_property(x, y, kind):
    est = conditional_complexity(x, Context((y,), Mode.SOURCE_ALL), AdmissibleFunction(kind))
    assert 0.0 <= est.value < 1.0
    assert 0.0 <= est.spread <= 1.0
    assert 0.0 <= est.size < 1.0


def test_sigmoid_and_threshold_agree_far_from_cutoff():
    # both weightings converge once every match length is far above the cutoff
    from salza.estimators import estimate_from_lengths

    lengths = [50, 60, 70, 80] * 10
    n = sum(lengths)
    a = estimate_from_lengths(lengths, n, AdmissibleFunction("threshold", 3.0))
    b = estimate_from_lengths(lengths, n, AdmissibleFunction("sigmoid", 3.0))
    assert a.value == pytest.approx(b.value, rel=1e-9)


def _loop_estimate(lengths, n, weight):
    """The per-length loop that estimate_from_lengths replaced."""
    count, fsum, wsum = 0, 0.0, 0.0
    for l in lengths:
        fl = weight(l)
        count += 1
        fsum += fl
        wsum += l * fl
    spread = 1.0 - (wsum - (fsum - 1.0)) / n
    size = (count - 1) / n
    return spread * size, spread, size


_TABLE = {1: 0.0, 3: 0.2, 8: 0.9, 20: 1.0}


def _loop_weight(kind, l0):
    """The scalar weighting the loop called per length, and the function under test."""
    if kind == "threshold":
        return AdmissibleFunction("threshold", l0), lambda l: 1.0 if l > l0 else 0.0
    if kind == "sigmoid":
        return AdmissibleFunction("sigmoid", l0), lambda l: 0.0 if l0 - l > 700.0 else 1.0 / (1.0 + math.exp(l0 - l))
    keys = sorted(_TABLE)
    return AdmissibleFunction("table", table=_TABLE), lambda l: _TABLE[keys[max(bisect.bisect_right(keys, l) - 1, 0)]]


# l0=None draws a cutoff per case; 1e6 is the exp-overflow regime
@pytest.mark.parametrize("kind, l0", [
    ("threshold", None), ("sigmoid", None), ("sigmoid", 1e6), ("table", None),
])
def test_estimate_equals_per_length_loop(kind, l0):
    from salza.estimators import estimate_from_lengths

    rng = np.random.default_rng(12)
    for _ in range(40):
        f, weight = _loop_weight(kind, float(rng.uniform(0, 12)) if l0 is None else l0)
        lengths = rng.geometric(rng.uniform(0.02, 0.9), int(rng.integers(1, 10_001))).tolist()
        n = sum(lengths) + int(rng.integers(0, 100))
        assert f.weights(lengths).tolist() == [weight(l) for l in lengths]
        est = estimate_from_lengths(lengths, n, f)
        assert (est.value, est.spread, est.size) == _loop_estimate(lengths, n, weight)
        assert estimate_from_lengths(np.array(lengths, np.int32), n, f) == est  # as a parse gives them
