import numpy as np
import pytest

from salza.cluster import (
    DistanceMatrix,
    TreeNode,
    neighbor_joining,
    render_ascii,
    to_newick,
    upgma,
)
import tree_oracle
from treeutil import (
    additive_matrix,
    has_clade,
    newick_leaves,
    parse_newick,
    random_topology,
    unrooted_splits,
)


def dm(labels, values):
    return DistanceMatrix(tuple(labels), np.array(values, dtype=float))


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            dm(["a", "b"], [[0, 1], [2, 0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dm(["a", "b"], [[0, -1], [-1, 0]])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rejected_with_its_cell(self, bad):
        with pytest.raises(ValueError, match="non-finite distance .* between 'a' and 'c'"):
            dm(["a", "b", "c"], [[0, 1, bad], [1, 0, 1], [bad, 1, 0]])

    @pytest.mark.parametrize("values", [[[0, 1], [1]], [[0, 1], [1, 0], [1, 1]], [0, 1], [[0, [1]], [1, 0]]],
                             ids=["ragged", "extra-row", "flat", "nested-cell"])
    def test_shape_mismatch_rejected(self, values):
        with pytest.raises(ValueError, match="^matrix shape does not match labels$"):
            DistanceMatrix(("a", "b"), values)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            dm(["a", "b"], [[1, 2], [2, 0]])

    def test_too_small(self):
        with pytest.raises(ValueError):
            dm(["a"], [[0]])


def test_values_are_rows_of_floats():
    for values in ([[0, 1], [1, 0]], np.array([[0, 1], [1, 0]])):
        m = DistanceMatrix(("a", "b"), values)
        assert m.values == ((0.0, 1.0), (1.0, 0.0))
        assert all(type(x) is float for row in m.values for x in row)


class TestNeighborJoining:
    def test_two_leaves_split_edge(self):
        t = neighbor_joining(dm(["A", "B"], [[0, 3], [3, 0]]))
        assert sorted(t.leaves()) == ["A", "B"]
        assert [bl for _, bl in t.children] == [1.5, 1.5]

    def test_three_equidistant_star(self):
        t = neighbor_joining(dm(["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]]))
        assert len(t.children) == 3
        assert all(bl == pytest.approx(1.0) for _, bl in t.children)

    def test_additive_four_leaf_exact(self):
        # tree ((a:1,b:2):1.5,(c:1,d:3)) has known pairwise path lengths
        d = [
            [0, 3, 3.5, 5.5],
            [3, 0, 4.5, 6.5],
            [3.5, 4.5, 0, 4],
            [5.5, 6.5, 4, 0],
        ]
        t = neighbor_joining(dm(["a", "b", "c", "d"], d))
        assert unrooted_splits(t) == {frozenset({"c", "d"})}
        # recovered pendant lengths are exact on additive input
        pend = {}

        def walk(node):
            for child, bl in node.children:
                if child.is_leaf:
                    pend[child.label] = bl
                walk(child)

        walk(t)
        assert pend == {"a": pytest.approx(1.0), "b": pytest.approx(2.0),
                        "c": pytest.approx(1.0), "d": pytest.approx(3.0)}

    def test_additive_recovery_random_trees(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            n_leaves = int(rng.integers(4, 11))
            truth = random_topology(rng, [f"L{i}" for i in range(n_leaves)])
            labels, d = additive_matrix(truth)
            recovered = neighbor_joining(dm(labels, d))
            assert unrooted_splits(recovered) == unrooted_splits(truth)

    def test_q_tie_keeps_left_to_right_row_sums(self):
        # q01 = q23 in real arithmetic.  Row sums added left to right make q23
        # the lower in floats, so c and d join first; compensated sums (math.fsum,
        # or `sum` from Python 3.12) would join a and b first.
        d = [[0, 0.31, 0.4, 0.65], [0.31, 0, 0.41, 0.45], [0.4, 0.41, 0, 0.22], [0.65, 0.45, 0.22, 0]]
        assert to_newick(neighbor_joining(dm("abcd", d))) == "(a:0.2025,b:0.1075,(c:0.0375,d:0.1825):0.2125);"

    def test_label_preservation(self):
        rng = np.random.default_rng(1)
        labels = [f"x{i}" for i in range(7)]
        truth = random_topology(rng, labels)
        lab, d = additive_matrix(truth)
        t = neighbor_joining(dm(lab, d))
        assert sorted(t.leaves()) == sorted(labels)


class TestUpgma:
    def test_three_leaf_heights(self):
        t = upgma(dm(["a", "b", "c"], [[0, 2, 4], [2, 0, 4], [4, 4, 0]]))
        # (a,b) merge at height 1, then c joins at height 2
        (inner, bl_inner), (c, bl_c) = sorted(t.children, key=lambda p: p[0].is_leaf)
        assert c.label == "c" and bl_c == pytest.approx(2.0)
        assert bl_inner == pytest.approx(1.0)
        assert {ch.label for ch, _ in inner.children} == {"a", "b"}
        assert all(bl == pytest.approx(1.0) for _, bl in inner.children)

    def test_identical_rows_zero_heights(self):
        t = upgma(dm(["a", "b", "c"], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        def all_lengths(node):
            out = []
            for ch, bl in node.children:
                out.append(bl)
                out.extend(all_lengths(ch))
            return out
        assert all(bl == 0 for bl in all_lengths(t))

    def test_ultrametric_exact_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            labels = [f"u{i}" for i in range(n)]
            # build an ultrametric matrix from random increasing merge heights
            groups = [[lb] for lb in labels]
            d = {lb: {} for lb in labels}
            h = 0.0
            while len(groups) > 1:
                h += float(rng.uniform(0.5, 1.5))
                i, j = sorted(rng.choice(len(groups), 2, replace=False))
                for la in groups[i]:
                    for lb in groups[j]:
                        d[la][lb] = d[lb][la] = 2 * h
                groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [
                    groups[i] + groups[j]]
            mat = np.zeros((n, n))
            for a, la in enumerate(labels):
                for b, lb in enumerate(labels):
                    if a != b:
                        mat[a, b] = d[la][lb]
            t = upgma(dm(labels, mat))
            # depth from root to every leaf equals the final merge height
            def depths(node, acc):
                if node.is_leaf:
                    return [acc]
                out = []
                for ch, bl in node.children:
                    out.extend(depths(ch, acc + bl))
                return out
            root_h = max(mat.max() / 2, 0)
            assert np.allclose(depths(t, 0.0), root_h)


def _branch_lengths(t: TreeNode) -> list[float]:
    out = []
    for child, bl in t.children:
        out += [bl, *_branch_lengths(child)]
    return out


@pytest.mark.parametrize("kind", ["real", "integer", "3-decimal"])
def test_equal_to_numpy_oracle(kind):
    """UPGMA gives the oracle's Newick.  So does NJ where numpy adds its row sums
    left to right (fewer than 8 entries) or exactly (integers); elsewhere only
    the last bits of NJ's branch lengths may differ."""
    rng = np.random.default_rng(["real", "integer", "3-decimal"].index(kind))
    for n in range(2, 41):
        for _ in range(3):
            a = rng.uniform(0, 10, (n, n))
            a = {"real": a, "integer": np.floor(a), "3-decimal": np.round(a, 3)}[kind]
            m = dm([f"x{i}" for i in range(n)], np.triu(a, 1) + np.triu(a, 1).T)
            assert to_newick(upgma(m)) == to_newick(tree_oracle.upgma(m))
            got, want = neighbor_joining(m), tree_oracle.neighbor_joining(m)
            if n <= 7 or kind == "integer":
                assert to_newick(got) == to_newick(want)
            else:
                assert unrooted_splits(got) == unrooted_splits(want)
                assert _branch_lengths(got) == pytest.approx(_branch_lengths(want), rel=1e-9)


class TestNewick:
    def test_two_leaf(self):
        t = TreeNode(children=[(TreeNode(label="A"), 0.5), (TreeNode(label="B"), 0.5)])
        assert to_newick(t) == "(A:0.5,B:0.5);"

    def test_reparse_round_trip(self):
        rng = np.random.default_rng(3)
        truth = random_topology(rng, [f"leaf{i}" for i in range(8)])
        labels, d = additive_matrix(truth)
        text = to_newick(neighbor_joining(dm(labels, d)))
        parsed = parse_newick(text)
        assert sorted(newick_leaves(parsed)) == sorted(labels)

    def test_negative_branch_length_verbatim(self):
        t = TreeNode(children=[(TreeNode(label="A"), -0.01), (TreeNode(label="B"), 0.5)])
        assert ":-0.01" in to_newick(t)

    def test_label_quoting(self):
        t = TreeNode(children=[(TreeNode(label="needs space"), 1.0),
                               (TreeNode(label="it's"), 2.0)])
        text = to_newick(t)
        assert "'needs space'" in text
        assert "'it''s'" in text
        parsed = parse_newick(text)
        assert sorted(newick_leaves(parsed)) == ["it's", "needs space"]


def test_ascii_render_mentions_all_leaves():
    t = upgma(dm(["a", "b", "c"], [[0, 2, 4], [2, 0, 4], [4, 4, 0]]))
    art = render_ascii(t)
    for leaf in ("a", "b", "c"):
        assert leaf in art


def test_has_clade_helper():
    t = upgma(dm(["a", "b", "c", "d"],
                 [[0, 1, 4, 4], [1, 0, 4, 4], [4, 4, 0, 1], [4, 4, 1, 0]]))
    assert has_clade(t, {"a", "b"})
    assert has_clade(t, {"c", "d"})
    assert not has_clade(t, {"a", "c"})
