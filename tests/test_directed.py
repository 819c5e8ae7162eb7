import itertools

import numpy as np
import pytest

from salza.directed import (
    DEFAULT_THRESHOLD,
    DirectedInfoMatrix,
    StringSet,
    _has_cycle,
    directed_info,
    directed_info_matrix,
    extract_dag,
    to_dot,
)
from salza.estimators import AdmissibleFunction


def _random_set(rng, n, length=3000):
    return StringSet.from_pairs(
        (f"s{i}", rng.integers(0, 256, length, dtype=np.uint8).tobytes()) for i in range(n)
    )


def _coupled_pair(rng, length=6000):
    """b copies 16-byte chunks from a's past about half the time."""
    a = bytearray(rng.integers(0, 256, 32, dtype=np.uint8).tobytes())
    b = bytearray(rng.integers(0, 256, 32, dtype=np.uint8).tobytes())
    while len(a) < length or len(b) < length:
        a += rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        if rng.random() < 0.5:
            past = min(len(a), len(b))
            start = int(rng.integers(0, past - 16))
            b += bytes(a[start : start + 16])
        else:
            b += rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
    return StringSet.from_pairs([("a", bytes(a[:length])), ("b", bytes(b[:length]))])


class TestValidation:
    def test_labels_and_strings_differ_in_length(self):
        with pytest.raises(ValueError, match="^labels and strings differ in length$"):
            StringSet(("a", "b"), (b"xx",))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            StringSet(("a", "a"), (b"xx", b"yy"))

    def test_empty_string(self):
        with pytest.raises(ValueError, match="empty"):
            StringSet(("a", "b"), (b"xx", b""))

    def test_self_influence_rejected(self):
        X = StringSet(("a", "b"), (b"abcabc", b"defdef"))
        with pytest.raises(ValueError, match="^directed information is undefined for i == j$"):
            directed_info(X, 1, 1, "causal")

    def test_pair_unknown_kind_rejected(self):
        X = StringSet(("a", "b"), (b"abcabc", b"defdef"))
        with pytest.raises(ValueError, match="^unknown kind: granger$"):
            directed_info(X, 0, 1, "granger")

    def test_pair_of_a_single_string_rejected(self):
        X = StringSet(("a",), (b"abcabc",))
        with pytest.raises(ValueError, match="^need at least two strings$"):
            directed_info(X, 0, -1)

    @pytest.mark.parametrize("i, j", [(5, 0), (-1, 0), (0, -1), (0, 3)])
    def test_index_outside_the_set_rejected(self, i, j):
        rng = np.random.default_rng(7)
        X = StringSet(("a", "b", "c"), tuple(rng.integers(0, 4, 500, dtype=np.uint8).tobytes() for _ in range(3)))
        name, k = ("i", i) if not 0 <= i < 3 else ("j", j)
        with pytest.raises(ValueError, match=rf"^{name} = {k} is not in 0\.\.2$"):
            directed_info(X, i, j)

    def test_single_string_rejected(self):
        X = StringSet(("a",), (b"abcabc",))
        with pytest.raises(ValueError):
            directed_info_matrix(X)


class TestCausal:
    def test_independent_strings_near_zero(self):
        hits = 0
        for seed in range(8):
            X = _random_set(np.random.default_rng(seed), 2)
            v = directed_info(X, 0, 1, "causal")
            if abs(v) < DEFAULT_THRESHOLD:
                hits += 1
        assert hits >= 7

    def test_copying_detected_and_directed(self):
        detected = 0
        for seed in range(5):
            X = _coupled_pair(np.random.default_rng(100 + seed))
            fwd = directed_info(X, 0, 1, "causal")
            bwd = directed_info(X, 1, 0, "causal")
            if fwd > DEFAULT_THRESHOLD and bwd < DEFAULT_THRESHOLD:
                detected += 1
        assert detected >= 4

    def test_bounded(self):
        for seed in range(5):
            X = _random_set(np.random.default_rng(seed), 3, length=500)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert -1.0 < directed_info(X, i, j, "causal") < 1.0


class TestFull:
    def test_unrelated_near_zero(self):
        X = _random_set(np.random.default_rng(9), 3)
        assert abs(directed_info(X, 0, 2, "full")) < 2 * DEFAULT_THRESHOLD

    def test_equals_causal_for_aligned_past_copies(self):
        # content copied only from earlier aligned positions: full access
        # to the sources adds nothing over their pasts
        for seed in range(3):
            X = _coupled_pair(np.random.default_rng(300 + seed))
            c = directed_info(X, 0, 1, "causal")
            f = directed_info(X, 0, 1, "full")
            assert f == pytest.approx(c, abs=5e-3)


class TestMatrix:
    def test_identical_strings_zero(self):
        x = bytes(np.random.default_rng(1).integers(0, 256, 2000, dtype=np.uint8))
        X = StringSet(("a", "b", "c"), (x, x, x))
        m = directed_info_matrix(X)
        assert np.allclose(m.values, 0.0, atol=1e-12)

    def test_diagonal_zero_by_convention(self):
        X = _random_set(np.random.default_rng(2), 3, length=400)
        m = directed_info_matrix(X)
        assert np.all(np.diag(m.values) == 0)

    def test_full_kind_is_recorded(self):
        X = _random_set(np.random.default_rng(3), 4, length=600)
        assert directed_info_matrix(X, kind="full").kind == "full"

    @pytest.mark.parametrize("kind", ["causal", "full"])
    @pytest.mark.parametrize("f", [None, AdmissibleFunction("threshold", 2.0)], ids=["default", "threshold-2"])
    def test_each_cell_is_the_pair_value(self, kind, f):
        X = _coupled_pair(np.random.default_rng(7), length=800)
        X = StringSet.from_pairs([*zip(X.labels, X.strings), ("c", X.strings[0][::-1])])
        m = directed_info_matrix(X, kind, f)
        for i, j in itertools.permutations(range(3), 2):
            assert m.values[i, j] == directed_info(X, i, j, kind, f)

    def test_unknown_kind(self):
        X = _random_set(np.random.default_rng(4), 2, length=100)
        with pytest.raises(ValueError, match="kind"):
            directed_info_matrix(X, kind="granger")


class TestExtractDag:
    def _matrix(self, values):
        n = len(values)
        return DirectedInfoMatrix(
            labels=tuple(f"n{i}" for i in range(n)),
            values=np.array(values, dtype=float),
            kind="causal",
        )

    def test_all_below_threshold(self):
        m = self._matrix([[0, 1e-4], [1e-4, 0]])
        assert extract_dag(m) == []

    def test_threshold_zero_complete_digraph(self):
        m = self._matrix([[0, 0.1, 0.2], [0.1, 0, 0.3], [0.2, 0.1, 0]])
        with pytest.warns(UserWarning, match="cycle"):
            edges = extract_dag(m, threshold=0.0)
        assert len(edges) == 6

    def test_selected_edges_with_weights(self):
        m = self._matrix([[0, 0.02, 0.001], [0.0, 0, 0.06], [0.0, 0.0, 0]])
        assert extract_dag(m) == [(0, 1, 0.02), (1, 2, 0.06)]

    def test_cycle_warns(self):
        m = self._matrix([[0, 0.02], [0.02, 0]])
        with pytest.warns(UserWarning, match="cycle"):
            extract_dag(m)

    def test_negative_threshold_rejected(self):
        m = self._matrix([[0, 0.1], [0.0, 0]])
        with pytest.raises(ValueError):
            extract_dag(m, threshold=-1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1e-9])
    def test_non_finite_or_negative_threshold_rejected(self, threshold):
        m = self._matrix([[0, 0.1], [0.0, 0]])
        with pytest.raises(ValueError, match="finite number >= 0"):
            extract_dag(m, threshold=threshold)

    def test_negative_cells_not_clamped(self):
        m = self._matrix([[0, -0.02], [0.3, 0]])
        assert m.values[0, 1] == -0.02
        assert extract_dag(m) == [(1, 0, 0.3)]


class TestDot:
    def test_dot_output(self):
        m = DirectedInfoMatrix(
            labels=("alpha", 'we"ird'),
            values=np.array([[0, 0.04], [0.0, 0]]),
            kind="causal",
        )
        dot = to_dot(m)
        assert dot.startswith("digraph")
        assert '"alpha" -> "we\\"ird"' in dot
        assert 'weight="0.04"' in dot
        assert "penwidth=4.000" in dot

    def test_threshold_is_an_argument(self):
        m = DirectedInfoMatrix(labels=("a", "b"), values=np.array([[0, 1e-3], [-1e-3, 0]]), kind="causal")
        assert 1e-3 < DEFAULT_THRESHOLD
        assert "->" not in to_dot(m)
        assert to_dot(m, 0.0).count("->") == 1
        assert '"a" -> "b" [weight="0.001"' in to_dot(m, 0.0)

    def test_empty_graph_keeps_nodes(self):
        m = DirectedInfoMatrix(labels=("a", "b"), values=np.zeros((2, 2)), kind="full")
        dot = to_dot(m)
        assert '"a";' in dot and "->" not in dot


def _reaches_itself(n, edges):
    """Brute force: some node i reaches i again by one or more edges."""
    reach = {(i, j) for i, j in edges}
    for k, i, j in itertools.product(range(n), repeat=3):  # Warshall, k outermost
        if (i, k) in reach and (k, j) in reach:
            reach.add((i, j))
    return any((i, i) in reach for i in range(n))


def test_has_cycle_agrees_with_brute_force():
    rng = np.random.default_rng(15)
    cyclic = 0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        adj = rng.random((n, n)) < rng.uniform(0.05, 0.4)  # the diagonal gives self-loops
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(adj))]
        expected = _reaches_itself(n, edges)
        assert _has_cycle(edges) == expected, edges
        assert _has_cycle([(i, j, 0.5) for i, j in edges]) == expected
        cyclic += expected
    assert 100 < cyclic < 400
    assert _has_cycle([(0, 0)]) and _has_cycle([(0, 1), (2, 3), (3, 2)])
    assert not _has_cycle([]) and not _has_cycle([(0, 1), (1, 2), (0, 2)])
