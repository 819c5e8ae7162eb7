"""End-to-end acceptance checks for the estimator bounds, the semi-distance
axioms, oracle equivalence of the factorizer, joint-complexity symmetry,
Markov clustering purity, DAG edge recovery, the symbol-length formula study,
the unbounded reference window, and the tree-building oracles.

Each test prints one "ACCEPTANCE <n> ...: PASS" line (visible with -s) and is
independently runnable.  The whole module finishes in a few minutes.
"""

import numpy as np
import pytest

from salza import (
    AdmissibleFunction,
    Context,
    DagSpec,
    DistanceMatrix,
    LengthProfileSpec,
    MarkovSpec,
    Mode,
    StringSet,
    conditional_complexity,
    directed_info_matrix,
    extract_dag,
    factorize,
    generate_dag_processes,
    generate_markov,
    joint_complexity,
    length_profile,
    neighbor_joining,
    nsd,
    nsd_matrix,
    simple_complexity,
    upgma,
)
from oracle import naive_factorize
from treeutil import additive_matrix, random_topology, unrooted_splits

ALPHA = 64


def sticky_matrix(a=ALPHA):
    m = np.full((a, a), 0.15 / (a - 1))
    np.fill_diagonal(m, 0.85)
    return m


def shift_matrix(a=ALPHA):
    m = np.full((a, a), 0.15 / (a - 1))
    for i in range(a):
        m[i, (i + 1) % a] = 0.0
        m[i] = m[i] / m[i].sum() * 0.15
        m[i, (i + 1) % a] = 0.85
    return m


def sparse_matrix(a=ALPHA, seed=123):
    rng = np.random.default_rng(seed)
    m = np.zeros((a, a))
    for i in range(a):
        m[i, rng.choice(a, 4, replace=False)] = 0.25
    return m


def random_blob(rng, alphabet, length):
    return rng.integers(0, alphabet, length, dtype=np.uint8).tobytes()


def random_function(rng):
    pick = int(rng.integers(4))
    l0 = float(rng.uniform(1.0, 9.0))
    if pick == 0:
        return AdmissibleFunction("threshold", l0)
    if pick == 1:
        return AdmissibleFunction("sigmoid", l0)
    if pick == 2:
        return AdmissibleFunction("table", table={3: 0.25, int(2 + l0): 0.7, int(4 + l0): 1.0})
    return None  # per-context default


def random_context(rng, alphabet, max_len):
    mode = [Mode.SOURCE_PAST, Mode.SOURCE_ALL, Mode.PAST_OF_BOTH,
            Mode.PAST_AND_SOURCES][int(rng.integers(4))]
    n_src = 1 if mode is Mode.SOURCE_PAST else int(rng.integers(1, 4))
    sources = tuple(random_blob(rng, alphabet, int(rng.integers(1, max_len)))
                    for _ in range(n_src))
    return Context(sources, mode)


def test_criterion_1_estimate_bounds():
    rng = np.random.default_rng(10)
    trials = 100_000
    for _ in range(trials):
        alphabet = int(rng.choice([1, 2, 3, 4, 8, 256]))
        x = random_blob(rng, alphabet, int(rng.integers(1, 64)))
        ctx = random_context(rng, alphabet, 64)
        est = conditional_complexity(x, ctx, random_function(rng))
        assert 0.0 <= est.value < 1.0
        assert 0.0 <= est.spread <= 1.0
        assert 0.0 <= est.size < 1.0
    print(f"\nACCEPTANCE 1 estimate bounds on {trials} fuzzed triples: PASS")


def test_criterion_2_semi_distance_axioms():
    rng = np.random.default_rng(20)
    for _ in range(300):
        alphabet = int(rng.choice([2, 4, 16, 256]))
        x = random_blob(rng, alphabet, int(rng.integers(3, 90)))
        y = random_blob(rng, alphabet, int(rng.integers(3, 90)))
        d = nsd(x, y)
        assert d == nsd(y, x)
        assert d >= 0.0
        assert nsd(x, x) == 0.0
        if x != y:
            assert d > 0.0

    # three strings violating the triangle inequality: xz and zy are tiny
    # because z shares whole blocks with each endpoint, xy is near 1
    M, n = 60, 10
    A = bytes(range(0, M))
    B = bytes(range(60, 60 + M))
    C = bytes(range(120, 120 + M))
    x = A * n + B + bytes(reversed(C))
    y = B + C * n + bytes(reversed(A))
    z = A + C + B * n
    f = AdmissibleFunction("threshold")
    d_xy, d_xz, d_zy = nsd(x, y, f), nsd(x, z, f), nsd(z, y, f)
    assert d_xy == pytest.approx((n + 1) ** 2 / (n + 2) ** 2, abs=1e-9)
    assert d_xz == pytest.approx((n + M) ** 2 / ((n + 2) ** 2 * M**2), abs=1e-9)
    assert d_zy == pytest.approx(d_xz, abs=1e-9)
    slack = d_xz + d_zy - d_xy
    assert slack < 0.0
    print(f"\nACCEPTANCE 2 semi-distance axioms, triangle slack {slack:.4f} < 0: PASS")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(30)
    cases = 0
    for _ in range(1000):
        alphabet = int(rng.choice([1, 2, 3, 4, 8]))
        x = random_blob(rng, alphabet, int(rng.integers(1, 160)))
        ctx = random_context(rng, alphabet, 160)
        assert factorize(x, ctx) == naive_factorize(x, ctx)
        cases += 1
    # a handful of near-limit inputs; the naive scanner is quadratic
    for _ in range(12):
        alphabet = int(rng.choice([2, 4]))
        x = random_blob(rng, alphabet, int(rng.integers(1024, 2049)))
        ctx = random_context(rng, alphabet, 2048)
        assert factorize(x, ctx) == naive_factorize(x, ctx)
        cases += 1
    print(f"\nACCEPTANCE 3 oracle equivalence on {cases} cases: PASS")


def test_criterion_4_joint_symmetry():
    m = sparse_matrix()
    diffs = []
    for k in range(50):
        x = generate_markov(MarkovSpec(ALPHA, m, 15_000, seed=40_000 + 2 * k))
        y = generate_markov(MarkovSpec(ALPHA, m, 15_000, seed=40_001 + 2 * k))
        diffs.append(abs(joint_complexity(x, y) - joint_complexity(y, x)))
        if k < 5:
            assert joint_complexity(x, x) == simple_complexity(x).value
    mean, peak = float(np.mean(diffs)), float(max(diffs))
    assert mean < 0.01
    assert peak < 0.08
    print(f"\nACCEPTANCE 4 joint symmetry mean {mean:.2e}, max {peak:.2e}: PASS")


def test_criterion_5_markov_clustering():
    mats = [sticky_matrix(), shift_matrix(), sparse_matrix()]
    for seed_set in range(5):
        labels, strings = [], []
        for mi, m in enumerate(mats):
            for c in range(4):
                labels.append(f"m{mi}_c{c}")
                strings.append(generate_markov(
                    MarkovSpec(ALPHA, m, 15_000, seed=50_000 + 1000 * seed_set + 100 * mi + c)))
        d = nsd_matrix(strings)
        tree = neighbor_joining(DistanceMatrix(tuple(labels), d))
        splits = unrooted_splits(tree)
        both_sides = splits | {frozenset(set(labels) - s) for s in splits}
        for mi in range(3):
            group = frozenset(lb for lb in labels if lb.startswith(f"m{mi}_"))
            assert group in both_sides, f"model {mi} not a pure clade (seed set {seed_set})"
    print("\nACCEPTANCE 5 Markov clustering purity, 5 seed sets: PASS")


FIG_MATRICES = {
    "chain-fan": np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5],
    ]),
    "diamond": np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
        [0.0, 0.9, 0.0, 0.0, 0.0, 0.0, 0.1],
        [0.0, 0.6, 0.0, 0.0, 0.0, 0.0, 0.4],
        [0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
    ]),
    "two-branch": np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1],
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.2],
        [0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.2],
        [0.0, 0.0, 0.0, 0.9, 0.0, 0.0, 0.1],
    ]),
}


def ground_truth_edges(m):
    n = m.shape[0]
    return {(j, i) for i in range(n) for j in range(n)
            if m[i, j] > 0 and m[j, n] > 0}


def recovered_edges(strings, threshold=5e-3):
    mat = directed_info_matrix(StringSet(strings.labels, strings.strings), kind="causal")
    return {(i, j) for i, j, _ in extract_dag(mat, threshold=threshold)}


def random_dag_spec(rng):
    n = int(rng.integers(4, 7))
    m = np.zeros((n, n + 1))
    for i in range(n):
        parents = rng.permutation(i)[:int(rng.integers(0, min(i, 2) + 1))]
        for j in parents:
            m[i, j] = float(rng.uniform(0.3, 0.6))
        excess = m[i, :n].sum()
        if excess > 0.9:
            m[i, :n] *= 0.9 / excess
        m[i, n] = 1.0 - m[i, :n].sum()
    return m


def test_criterion_6_dag_recovery():
    for name, m in FIG_MATRICES.items():
        truth = ground_truth_edges(m)
        for seed in range(5):
            strings = generate_dag_processes(DagSpec(m, length=10_000, seed=60_000 + seed))
            got = recovered_edges(strings)
            assert got == truth, f"{name} seed {seed}: {sorted(got)} != {sorted(truth)}"

    rng = np.random.default_rng(61)
    scores = []
    for k in range(20):
        m = random_dag_spec(rng)
        truth = ground_truth_edges(m)
        got = recovered_edges(
            generate_dag_processes(DagSpec(m, length=10_000, seed=62_000 + k)))
        if not truth:
            scores.append(1.0 if not got else 0.0)
            continue
        tp = len(got & truth)
        prec = tp / len(got) if got else 1.0
        rec = tp / len(truth)
        scores.append(0.0 if tp == 0 else 2 * prec * rec / (prec + rec))
    avg_f1 = float(np.mean(scores))
    assert avg_f1 >= 0.90
    print(f"\nACCEPTANCE 6 DAG recovery exact on printed specs, "
          f"random-spec F1 {avg_f1:.3f}: PASS")


def test_criterion_7_length_profile():
    # (a) lengths far above the cutoff: both weightings collapse onto the
    # plain symbol-count ratio
    long_p = length_profile(LengthProfileSpec(mu=60, l0=4, target_length=65_536, trials=200))
    assert long_p.threshold.spread == pytest.approx(long_p.threshold.size, rel=0.02)
    assert long_p.sigmoid.spread == pytest.approx(long_p.sigmoid.size, rel=0.02)
    assert long_p.threshold.value == pytest.approx(long_p.sigmoid.value, rel=0.02)

    # (b) lengths below the cutoff: the smooth weighting spreads the estimate
    # above the plain ratio instead of collapsing onto it
    short_p = length_profile(LengthProfileSpec(mu=2, l0=8, target_length=16_384, trials=200))
    assert short_p.sigmoid.spread > short_p.sigmoid.size

    # (c) flatness in string size at fixed mu and cutoff
    values = []
    for size in (16_384, 65_536, 262_144, 1_048_576):
        p = length_profile(LengthProfileSpec(mu=10, l0=6, target_length=size, trials=200))
        values.append(p.sigmoid.value)
    rel_spread = (max(values) - min(values)) / np.mean(values)
    assert rel_spread < 0.05
    print(f"\nACCEPTANCE 7 length profile: convergence, spreading, "
          f"size flatness {rel_spread:.2%}: PASS")


def test_criterion_8_unbounded_window():
    half = 512 * 1024
    rng = np.random.default_rng(80)
    a, b, c = (random_blob(rng, 256, half) for _ in range(3))
    x = a + b
    y = b + c
    n = len(x)
    all_literal = ((n - 1) / n) ** 2
    d = nsd(x, y)
    assert d < 0.5 * all_literal
    print(f"\nACCEPTANCE 8 1 MiB half-overlap NSD {d:.3f} < "
          f"{0.5 * all_literal:.3f}: PASS")


def test_criterion_9_tree_oracles():
    rng = np.random.default_rng(90)
    for _ in range(50):
        n_leaves = int(rng.integers(4, 11))
        truth = random_topology(rng, [f"L{i}" for i in range(n_leaves)])
        labels, d = additive_matrix(truth)
        got = neighbor_joining(DistanceMatrix(tuple(labels), np.asarray(d)))
        assert unrooted_splits(got) == unrooted_splits(truth)

    for trial in range(10):
        rng2 = np.random.default_rng(91 + trial)
        n = int(rng2.integers(3, 9))
        labels = [f"u{i}" for i in range(n)]
        groups = [[lb] for lb in labels]
        dist = {lb: {} for lb in labels}
        h = 0.0
        while len(groups) > 1:
            h += float(rng2.uniform(0.5, 1.5))
            i, j = sorted(rng2.choice(len(groups), 2, replace=False))
            for la in groups[i]:
                for lb in groups[j]:
                    dist[la][lb] = dist[lb][la] = 2 * h
            groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [
                groups[i] + groups[j]]
        mat = np.zeros((n, n))
        for a, la in enumerate(labels):
            for b, lb in enumerate(labels):
                if a != b:
                    mat[a, b] = dist[la][lb]
        tree = upgma(DistanceMatrix(tuple(labels), mat))

        def depths(node, acc):
            if node.is_leaf:
                return [acc]
            out = []
            for ch, bl in node.children:
                out.extend(depths(ch, acc + bl))
            return out

        assert np.allclose(depths(tree, 0.0), mat.max() / 2, atol=1e-12)
    print("\nACCEPTANCE 9 tree oracles (NJ topology, UPGMA heights): PASS")
