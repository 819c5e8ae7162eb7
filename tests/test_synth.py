import numpy as np
import pytest

from salza.synth import (
    DagSpec,
    LengthProfileSpec,
    MarkovSpec,
    generate_dag_processes,
    generate_markov,
    length_profile,
    parse_spec_file,
)
from salza.synth import _poisson_lengths


class TestMarkov:
    def test_identity_matrix_constant_string(self):
        spec = MarkovSpec(alphabet_size=3, transition=np.eye(3), length=50, seed=7)
        s = generate_markov(spec)
        assert len(s) == 50
        assert len(set(s)) == 1

    def test_seed_reproducibility(self):
        m = np.full((4, 4), 0.25)
        a = generate_markov(MarkovSpec(4, m, 1000, seed=11))
        b = generate_markov(MarkovSpec(4, m, 1000, seed=11))
        c = generate_markov(MarkovSpec(4, m, 1000, seed=12))
        assert a == b
        assert a != c

    def test_byte_values_within_alphabet(self):
        m = np.full((5, 5), 0.2)
        s = generate_markov(MarkovSpec(5, m, 2000, seed=0))
        assert max(s) < 5

    def test_uniform_chain_frequencies(self):
        a = 8
        m = np.full((a, a), 1 / a)
        s = generate_markov(MarkovSpec(a, m, 16000, seed=3))
        counts = np.bincount(list(s), minlength=a)
        # chi-square against uniform, 99.9% cutoff for 7 dof is about 24.3
        expected = len(s) / a
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 24.3

    def test_deterministic_cycle_chain(self):
        # state k always moves to (k + 1) mod 3
        m = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        s = generate_markov(MarkovSpec(3, m, 30, seed=5))
        for k in range(1, len(s)):
            assert s[k] == (s[k - 1] + 1) % 3

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovSpec(2, np.array([[0.5, 0.4], [0.5, 0.5]]), 10, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            MarkovSpec(3, np.eye(2), 10, 0)


CHAIN_3 = np.array([
    [0.0, 0.5, 0.0, 0.5],   # p0 copies p1 half the time
    [0.0, 0.0, 0.0, 1.0],   # p1 pure innovation
    [0.0, 0.9, 0.0, 0.1],   # p2 copies p1 heavily
])


class TestDagProcesses:
    def test_exact_lengths_and_labels(self):
        out = generate_dag_processes(DagSpec(CHAIN_3, length=500, seed=1))
        assert out.labels == ("p0", "p1", "p2")
        assert all(len(s) == 500 for s in out.strings)

    def test_seed_reproducibility(self):
        a = generate_dag_processes(DagSpec(CHAIN_3, length=800, seed=4))
        b = generate_dag_processes(DagSpec(CHAIN_3, length=800, seed=4))
        c = generate_dag_processes(DagSpec(CHAIN_3, length=800, seed=5))
        assert a.strings == b.strings
        assert a.strings != c.strings

    def test_copying_visible_as_shared_substrings(self):
        out = generate_dag_processes(DagSpec(CHAIN_3, length=3000, seed=2))
        p1, p2 = out.strings[1], out.strings[2]
        shared = sum(1 for k in range(0, len(p2) - 12, 12) if p2[k:k + 12] in p1)
        assert shared > 10

    def test_cyclic_connectivity_rejected(self):
        m = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ValueError, match="acyclic"):
            DagSpec(m, length=100, seed=0)

    def test_long_acyclic_chain_accepted(self):
        # each process copies from the one before it: a chain deeper than the recursion limit
        n = 1100
        m = np.zeros((n, n + 1))
        m[np.arange(1, n), np.arange(n - 1)] = 0.5
        m[1:, n] = 0.5
        m[0, n] = 1.0
        assert DagSpec(m, length=10, seed=0).n_processes == n
        m[0, n - 1], m[0, n] = 0.5, 0.5  # closing the chain into a cycle
        with pytest.raises(ValueError, match="acyclic"):
            DagSpec(m, length=10, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("alphabet_size", 1), ("alphabet_size", 257), ("burn_in", -1),
        ("copy_scale", 0.0), ("copy_scale", -5.0), ("copy_scale", float("inf")),
        ("copy_scale", float("nan")),
    ])
    def test_bad_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be"):
            DagSpec(CHAIN_3, length=100, seed=0, **{field: value})

    def test_row_sum_rejected(self):
        m = np.array([[0.0, 0.5, 0.4], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            DagSpec(m, length=100, seed=0)

    def test_custom_labels(self):
        out = generate_dag_processes(
            DagSpec(CHAIN_3, length=100, seed=0, labels=("a", "b", "c")))
        assert out.labels == ("a", "b", "c")
        with pytest.raises(ValueError, match="labels"):
            DagSpec(CHAIN_3, length=100, seed=0, labels=("a", "b"))


class TestLengthProfile:
    def test_reproducible(self):
        spec = LengthProfileSpec(mu=10, l0=4, target_length=4096, trials=20, seed=9)
        assert length_profile(spec) == length_profile(spec)

    def test_long_matches_agree_with_plain_ratio(self):
        # lengths far above the cutoff: both weightings converge to Z
        p = length_profile(LengthProfileSpec(mu=60, l0=4, target_length=65536, trials=50))
        assert p.threshold.spread == pytest.approx(p.threshold.size, rel=0.02)
        assert p.sigmoid.spread == pytest.approx(p.sigmoid.size, rel=0.02)
        assert p.threshold.value == pytest.approx(p.threshold.size ** 2, rel=0.05)

    def test_short_matches_spread_toward_incompressible(self):
        # lengths below the cutoff carry no weight, so both spread factors
        # sit near 1 and the value is lifted well above Z squared
        p = length_profile(LengthProfileSpec(mu=2, l0=8, target_length=16384, trials=50))
        assert p.threshold.spread > 0.99
        assert p.threshold.spread >= p.sigmoid.spread > 0.95
        assert p.sigmoid.spread > p.sigmoid.size
        assert p.threshold.value > p.threshold.size ** 2 * 1.5

    @pytest.mark.parametrize("mu", [0.3, 1, 3.5, 20])
    @pytest.mark.parametrize("total", [1, 7, 1000, 262144])
    def test_lengths_equal_per_draw_loop(self, mu, total):
        def loop(rng):
            lengths, acc = [], 0
            while acc < total:
                batch = rng.poisson(mu, size=max(16, int(2 * (total - acc) / mu) + 1))
                for l in batch:
                    if l < 1:
                        continue
                    if acc + l >= total:
                        lengths.append(total - acc)
                        acc = total
                        break
                    lengths.append(int(l))
                    acc += int(l)
            return lengths

        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        assert _poisson_lengths(rng, mu, total).tolist() == loop(ref)
        assert rng.integers(1 << 30) == ref.integers(1 << 30)  # the same draws were taken

    def test_bad_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            LengthProfileSpec(mu=0, l0=4, target_length=100)

    @pytest.mark.parametrize("mu", [-1.0, float("inf"), float("nan")])
    def test_negative_or_non_finite_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be a finite number > 0"):
            LengthProfileSpec(mu=mu, l0=4, target_length=100)


class TestSpecFile:
    def test_scalars_and_matrix(self, tmp_path):
        p = tmp_path / "chain.spec"
        p.write_text(
            "# three state chain\n"
            "alphabet 3\n"
            "length 500\n"
            "seed 42\n"
            "scale 1.5\n"
            "name demo\n"
            "transition\n"
            "0.8 0.1 0.1\n"
            "0.1 0.8 0.1\n"
            "0.1 0.1 0.8\n"
        )
        data = parse_spec_file(p)
        assert data["alphabet"] == 3 and data["length"] == 500
        assert data["scale"] == 1.5 and data["name"] == "demo"
        assert data["transition"].shape == (3, 3)
        assert data["transition"][0, 0] == 0.8

    def test_matrix_block_ends_at_blank_line(self, tmp_path):
        p = tmp_path / "dag.spec"
        p.write_text("connectivity\n0 1\n1 0\n\nlength 64\n")
        data = parse_spec_file(p)
        assert data["connectivity"].shape == (2, 2)
        assert data["length"] == 64

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("justakey\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_spec_file(p)
