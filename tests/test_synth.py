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
from salza.synth import _RANGES, _poisson_lengths, integer


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.full((3, 3), 0.5)
        m[:, 0] = 0.0
        m[1, 0] = bad  # a NaN passes the row-sum test: nan - 1 > 1e-9 is False
        with pytest.raises(ValueError, match="transition matrix entries must be finite numbers"):
            MarkovSpec(3, m, 10, 0)

    @pytest.mark.parametrize("alphabet", [2, 3, 64])
    def test_bytes_equal_the_searchsorted_formulation(self, alphabet):
        """Bisection over the rows as Python floats draws the states that np.searchsorted does."""
        rng = np.random.default_rng(alphabet)
        m = rng.random((alphabet, alphabet))
        m[rng.random(m.shape) < 0.4] = 0.0  # zeros: equal cumulative values side by side
        m[0], m[-1] = 0.0, 0.0
        m[0, :2], m[-1, -2:] = (0.3, 0.7), (0.6, 0.4)  # rows that end, and begin, with zeros
        m[m.sum(axis=1) == 0, 0] = 1.0
        m /= m.sum(axis=1, keepdims=True)
        spec = MarkovSpec(alphabet, m, 70_000, seed=alphabet)  # the draws come in more than one piece
        gen = np.random.Generator(np.random.PCG64(spec.seed))
        cum = np.cumsum(m, axis=1)
        state = int(gen.integers(alphabet))
        want = [state]
        for draw in gen.random(spec.length - 1):
            state = min(int(np.searchsorted(cum[state], draw, side="right")), alphabet - 1)
            want.append(state)
        got = generate_markov(spec)
        assert got == bytes(want)
        assert len(set(got)) > 1


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

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="acyclic"):  # the process copies from its own past
            DagSpec(np.array([[0.5, 0.5]]), length=100, seed=0)

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

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4), (3,)])
    def test_connectivity_not_n_by_n_plus_one_rejected(self, shape):
        m = np.full(shape, 1.0 / shape[-1])
        with pytest.raises(ValueError, match=r"^connectivity must be N x \(N\+1\)$"):
            DagSpec(m, length=100, seed=0)

    def test_row_sum_rejected(self):
        m = np.array([[0.0, 0.5, 0.4], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            DagSpec(m, length=100, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 0.1]])
        with pytest.raises(ValueError, match="connectivity entries must be finite numbers"):
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

    @pytest.mark.parametrize("l0", [-2.0, float("inf"), float("nan")])
    def test_negative_or_non_finite_l0_rejected(self, l0):
        with pytest.raises(ValueError, match="l0 must be a finite number >= 0"):
            LengthProfileSpec(mu=5, l0=l0, target_length=100)


UNIFORM_2 = np.full((2, 2), 0.5)
SPECS = {
    "markov": lambda **kw: MarkovSpec(**{"alphabet_size": 2, "transition": UNIFORM_2, "length": 100, **kw}),
    "dag": lambda **kw: DagSpec(**{"connectivity": CHAIN_3, "length": 100, **kw}),
    "profile": lambda **kw: LengthProfileSpec(**{"mu": 5, "l0": 4, "target_length": 100, **kw}),
}


class TestSpecFields:
    """Each spec class checks its own fields when it is made, in messages that
    start with the spec-file key."""

    @pytest.mark.parametrize("kind, field, value, key", [
        ("markov", "length", 10.5, "length"),
        ("markov", "length", "100", "length"),
        ("markov", "seed", -1, "seed"),
        ("markov", "seed", 1.5, "seed"),
        ("markov", "alphabet_size", 2.5, "alphabet"),
        ("dag", "length", 100.5, "length"),
        ("dag", "length", 2**31, "length"),
        ("dag", "seed", -1, "seed"),
        ("dag", "burn_in", 2.5, "burnin"),
        ("dag", "copy_scale", "20", "scale"),
        ("profile", "target_length", 100.5, "length"),
        ("profile", "target_length", 0, "length"),
        ("profile", "target_length", 2**31, "length"),
        ("profile", "trials", 2.5, "trials"),
        ("profile", "seed", -1, "seed"),
        pytest.param("profile", "seed", np.float32(3), "seed", id="profile-seed-float32-seed"),
        ("profile", "mu", "5", "mu"),
        pytest.param("profile", "l0", 10**400, "l0", id="profile-l0-10**400-l0"),
    ])
    def test_bad_field_refused_when_made(self, kind, field, value, key):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            SPECS[kind](**{field: value})

    def test_integer_fields_become_ints(self):
        spec = SPECS["markov"](alphabet_size=np.int16(2), length=100.0, seed=np.uint64(7))
        assert (spec.alphabet_size, spec.length, spec.seed) == (2, 100, 7)
        assert all(type(v) is int for v in (spec.alphabet_size, spec.length, spec.seed))
        spec = SPECS["profile"](target_length=np.float64(64), trials=3.0)
        assert type(spec.target_length) is int and type(spec.trials) is int

    def test_counts_up_to_their_bounds(self):
        """trials and realizations are bounded, far above their defaults, so a typo cannot run for ever."""
        assert SPECS["profile"](trials=10**6).trials == 10**6
        with pytest.raises(ValueError, match=r"^trials must be an integer in \[1, 1000000\], not 1000001$"):
            SPECS["profile"](trials=10**6 + 1)
        assert integer("realizations", 1e4, *_RANGES["realizations"]) == 10**4
        with pytest.raises(ValueError, match=r"^realizations must be an integer in \[1, 10000\], not 10001$"):
            integer("realizations", 10**4 + 1, *_RANGES["realizations"])

    def test_mu_up_to_the_poisson_limit(self):
        spec = SPECS["profile"](mu=9.223372006484771e18, trials=2)
        assert length_profile(spec).spec is spec
        with pytest.raises(ValueError, match="^mu must be at most"):
            SPECS["profile"](mu=np.nextafter(9.223372006484771e18, np.inf))

    def test_float_fields_become_floats(self):
        spec = SPECS["profile"](mu=np.int64(5), l0=0)
        assert (spec.mu, spec.l0) == (5.0, 0.0) and type(spec.mu) is float and type(spec.l0) is float
        assert type(SPECS["dag"](copy_scale=7).copy_scale) is float


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
        data = parse_spec_file(p, ["alphabet", "length", "seed", "scale", "name", "transition"])
        assert data["alphabet"] == 3 and data["length"] == 500
        assert data["scale"] == 1.5 and data["name"] == "demo"
        assert data["transition"].shape == (3, 3)
        assert data["transition"][0, 0] == 0.8

    def test_matrix_block_ends_at_blank_line(self, tmp_path):
        p = tmp_path / "dag.spec"
        p.write_text("connectivity\n0 1\n1 0\n\nlength 64\n")
        data = parse_spec_file(p, ["connectivity", "length"])
        assert data["connectivity"].shape == (2, 2)
        assert data["length"] == 64

    def test_matrix_block_ends_at_a_key_line(self, tmp_path):
        p = tmp_path / "chain.spec"
        p.write_text("transition\n0.9 0.1\n0.2 0.8\nlength 64\n")
        data = parse_spec_file(p, ["transition", "length"])
        assert data["transition"].tolist() == [[0.9, 0.1], [0.2, 0.8]]
        assert data["length"] == 64

    def test_list_values(self, tmp_path):
        p = tmp_path / "sim.spec"
        p.write_text("mu 5, 2.5,x\nlength 64\nseed 3\n")
        data = parse_spec_file(p, ["mu", "length", "seed"], lists=("mu", "length"))
        assert data == {"mu": [5, 2.5, "x"], "length": [64], "seed": 3}

    def test_ragged_block_names_its_key(self, tmp_path):
        p = tmp_path / "chain.spec"
        p.write_text("transition\n0.5 0.5\n1.0\n")
        with pytest.raises(ValueError, match="^transition rows must all have the same number of entries"):
            parse_spec_file(p, ["transition"])

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("justakey\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_spec_file(p, ["justakey"])

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "chain.spec"
        p.write_text("length 64\nrealisations 3\nmatrix\n1 0\n")
        with pytest.raises(ValueError, match="unknown key 'realisations'"):
            parse_spec_file(p, ["length", "realizations"])
        p.write_text("length 64\nmatrix\n1 0\n")  # no longer a block key
        with pytest.raises(ValueError, match="unknown key 'matrix'"):
            parse_spec_file(p, ["length", "transition", "connectivity"])
