import contextlib
import warnings
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from oracle import find_references
from salza.cli import main
from salza.lz import SELF, Context, Factorization, Mode, Symbol, decode
from salza.tsv import read_matrix


@pytest.fixture
def runner():
    return CliRunner()


def write_corpus(tmp_path, name_to_bytes):
    paths = []
    for name, blob in name_to_bytes.items():
        p = tmp_path / name
        p.write_bytes(blob)
        paths.append(str(p))
    return paths


SAMPLE = {
    "alpha": b"the quick brown fox jumps over the lazy dog " * 40,
    "beta": b"the quick brown fox jumps over the lazy dog " * 38 + b"pack my box " * 8,
    "gamma": bytes(range(256)) * 7,
}


class TestNsd:
    def test_matrix_shape_and_symmetry(self, runner, tmp_path):
        files = write_corpus(tmp_path, SAMPLE)
        out = tmp_path / "d.tsv"
        res = runner.invoke(main, ["nsd", *files, "--out", str(out)])
        assert res.exit_code == 0, res.output
        labels, d = read_matrix(out)
        d = np.asarray(d)
        assert labels == ["alpha", "beta", "gamma"]
        assert np.allclose(d, d.T) and np.all(np.diag(d) == 0)
        # related texts are much closer than the unrelated byte ramp
        assert d[0, 1] < 0.5 < d[0, 2]

    def test_thread_count_invariance(self, runner, tmp_path):
        files = write_corpus(tmp_path, SAMPLE)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        r1 = runner.invoke(main, ["nsd", *files, "--threads", "1", "--out", str(a)])
        r2 = runner.invoke(main, ["nsd", *files, "--threads", "4", "--out", str(b)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert a.read_text() == b.read_text()

    def test_function_flags(self, runner, tmp_path):
        files = write_corpus(tmp_path, SAMPLE)
        out = tmp_path / "d.tsv"
        res = runner.invoke(main, ["nsd", *files, "--func", "threshold",
                                   "--l0", "4", "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["nsd", *files, "--func", "nope", "--out", str(out)])
        assert res.exit_code != 0
        assert "unknown admissible function" in res.output

    def test_table_function_file(self, runner, tmp_path):
        files = write_corpus(tmp_path, SAMPLE)
        table = tmp_path / "steps.txt"
        table.write_text("# step table\n3 0.2\n8 1.0\n")
        out = tmp_path / "d.tsv"
        res = runner.invoke(main, ["nsd", *files, "--func", f"table:{table}",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output

    def test_needs_two_files(self, runner, tmp_path):
        (one,) = write_corpus(tmp_path, {"solo": b"abcd" * 10})
        res = runner.invoke(main, ["nsd", one, "--out", str(tmp_path / "x.tsv")])
        assert res.exit_code != 0
        assert "at least two" in res.output

    def test_empty_file_named_in_error(self, runner, tmp_path):
        files = write_corpus(tmp_path, {"ok": b"abcd" * 10, "void": b""})
        res = runner.invoke(main, ["nsd", *files, "--out", str(tmp_path / "x.tsv")])
        assert res.exit_code != 0
        assert "void" in res.output

    @pytest.mark.parametrize("option, value", [
        ("--threads", "0"), ("--threads", "-2"), ("--l0", "-1"), ("--l0", "foo"),
    ])
    def test_bad_numeric_option_is_one_line_error(self, runner, tmp_path, option, value):
        files = write_corpus(tmp_path, SAMPLE)
        res = runner.invoke(main, ["nsd", *files, option, value, "--out", str(tmp_path / "d.tsv")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception  # no traceback
        last = res.output.strip().splitlines()[-1]
        assert last.startswith("Error:") and option in last

    def test_duplicate_basenames_get_suffix(self, runner, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir(), d2.mkdir()
        (d1 / "text").write_bytes(SAMPLE["alpha"])
        (d2 / "text").write_bytes(SAMPLE["beta"])
        out = tmp_path / "d.tsv"
        res = runner.invoke(main, ["nsd", str(d1 / "text"), str(d2 / "text"),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "duplicate label" in res.output
        labels, _ = read_matrix(out)
        assert labels == ["text", "text.1"]


class TestCluster:
    def _matrix_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text(
            "\ta\tb\tc\n"
            "a\t0\t2\t4\n"
            "b\t2\t0\t4\n"
            "c\t4\t4\t0\n"
        )
        return str(p)

    def test_nj_and_upgma_newick(self, runner, tmp_path):
        mat = self._matrix_file(tmp_path)
        for method in ("nj", "upgma"):
            out = tmp_path / f"{method}.nwk"
            res = runner.invoke(main, ["cluster", mat, "--method", method,
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            text = out.read_text()
            assert text.endswith(";\n")
            for leaf in ("a", "b", "c"):
                assert leaf in text

    def test_ascii_flag_prints(self, runner, tmp_path):
        mat = self._matrix_file(tmp_path)
        res = runner.invoke(main, ["cluster", mat, "--ascii",
                                   "--out", str(tmp_path / "t.nwk")])
        assert res.exit_code == 0
        assert "a" in res.output and "c" in res.output

    def test_bad_matrix_reported(self, runner, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("\ta\tb\na\t0\t1\nb\t2\t0\n")
        res = runner.invoke(main, ["cluster", str(p), "--out", str(tmp_path / "t.nwk")])
        assert res.exit_code != 0
        assert "symmetric" in res.output


    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell_named(self, runner, tmp_path, cell):
        p = tmp_path / "bad.tsv"
        p.write_text(f"\ta\tb\tc\na\t0\t2\t{cell}\nb\t2\t0\t4\nc\t{cell}\t4\t0\n")
        out = tmp_path / "t.nwk"
        res = runner.invoke(main, ["cluster", str(p), "--out", str(out)])
        assert res.exit_code == 1
        assert "row 2, column 4: non-finite number" in res.output
        assert not out.exists()


class TestCausality:
    def test_dot_and_matrix_output(self, runner, tmp_path):
        spec = tmp_path / "dag.spec"
        spec.write_text(
            "length 4000\nseed 3\nconnectivity\n"
            "0.0 0.0 1.0\n"
            "0.9 0.0 0.1\n"
        )
        gen_dir = tmp_path / "gen"
        res = runner.invoke(main, ["gen", "dag", str(spec), "--out-dir", str(gen_dir)])
        assert res.exit_code == 0, res.output
        files = sorted(str(p) for p in gen_dir.iterdir())
        dot = tmp_path / "g.dot"
        mat = tmp_path / "m.tsv"
        res = runner.invoke(main, ["causality", *files, "--out", str(dot),
                                   "--matrix-out", str(mat)])
        assert res.exit_code == 0, res.output
        text = dot.read_text()
        assert text.startswith("digraph")
        assert '"p0" -> "p1"' in text
        assert '"p1" -> "p0"' not in text
        labels, values = read_matrix(mat)
        assert labels == ["p0", "p1"]
        assert values[0][1] > 5e-3 > values[1][0]

    def test_kind_and_threshold_flags(self, runner, tmp_path):
        files = write_corpus(tmp_path, {"x": SAMPLE["alpha"], "y": SAMPLE["beta"]})
        dot = tmp_path / "g.dot"
        res = runner.invoke(main, ["causality", *files, "--kind", "full",
                                   "--threshold", "0.5", "--out", str(dot)])
        assert res.exit_code == 0, res.output
        assert "->" not in dot.read_text()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "foo"])
    def test_bad_threshold_is_one_line_error(self, runner, tmp_path, value):
        files = write_corpus(tmp_path, {"x": SAMPLE["alpha"]}) + [str(tmp_path / "missing")]
        res = runner.invoke(main, ["causality", *files, "--threshold", value,
                                   "--out", str(tmp_path / "g.dot")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception  # no traceback
        # checked before the corpus is read: the missing file is not what fails
        assert res.output.strip().splitlines() == [
            f"Error: --threshold must be a finite number >= 0, not {value!r}"]


class TestGenMarkov:
    def test_realizations_written(self, runner, tmp_path):
        spec = tmp_path / "chain.spec"
        spec.write_text(
            "alphabet 4\nlength 600\nseed 5\nrealizations 3\nid 7\n"
            "transition\n"
            "0.7 0.1 0.1 0.1\n"
            "0.1 0.7 0.1 0.1\n"
            "0.1 0.1 0.7 0.1\n"
            "0.1 0.1 0.1 0.7\n"
        )
        out_dir = tmp_path / "gen"
        res = runner.invoke(main, ["gen", "markov", str(spec), "--out-dir", str(out_dir)])
        assert res.exit_code == 0, res.output
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["alpha4_m7_c0", "alpha4_m7_c1", "alpha4_m7_c2"]
        blobs = [(out_dir / n).read_bytes() for n in names]
        assert all(len(b) == 600 and max(b) < 4 for b in blobs)
        assert len(set(blobs)) == 3

    def test_rerun_identical(self, runner, tmp_path):
        spec = tmp_path / "chain.spec"
        spec.write_text("alphabet 2\nlength 200\nseed 1\ntransition\n0.5 0.5\n0.5 0.5\n")
        d1, d2 = tmp_path / "g1", tmp_path / "g2"
        runner.invoke(main, ["gen", "markov", str(spec), "--out-dir", str(d1)])
        runner.invoke(main, ["gen", "markov", str(spec), "--out-dir", str(d2)])
        assert (d1 / "alpha2_m0_c0").read_bytes() == (d2 / "alpha2_m0_c0").read_bytes()

    def test_bad_spec_reported(self, runner, tmp_path):
        spec = tmp_path / "chain.spec"
        spec.write_text("alphabet 2\nlength 100\ntransition\n0.5 0.4\n0.5 0.5\n")
        res = runner.invoke(main, ["gen", "markov", str(spec),
                                   "--out-dir", str(tmp_path / "g")])
        assert res.exit_code != 0
        assert "bad markov spec" in res.output


class TestFactorize:
    def test_symbol_stream(self, runner, tmp_path):
        t = tmp_path / "t"
        s = tmp_path / "s"
        t.write_bytes(b"abcabcabd")
        s.write_bytes(b"zzz")
        res = runner.invoke(main, ["factorize", str(t), str(s), "--mode", "past-all"])
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        assert lines[0].startswith("pos\tlength\tkind")
        kinds = [ln.split("\t")[2] for ln in lines[1:]]
        assert kinds == ["lit", "lit", "lit", "ref", "lit"]
        assert "self" in lines[4]

    def test_out_file(self, runner, tmp_path):
        t = tmp_path / "t"
        s = tmp_path / "s"
        t.write_bytes(b"hello hello")
        s.write_bytes(b"hello world")
        out = tmp_path / "f.tsv"
        res = runner.invoke(main, ["factorize", str(t), str(s), "--mode", "all",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "ref" in out.read_text()

    def test_dump_of_a_binary_pair_decodes_with_leftmost_offsets(self, runner, tmp_path):
        # 2 x 8 KiB: too large for the dense kernel, so the offsets come from the suffix array
        rng = np.random.default_rng(19)
        a, b, c = (rng.integers(0, 2, 8192, dtype=np.uint8).tobytes() for _ in range(3))
        x, y = a + b, b + c
        paths = write_corpus(tmp_path, {"y": y, "x": x})
        out = tmp_path / "dump.tsv"
        res = runner.invoke(main, ["factorize", *paths, "--mode", "past-all", "--out", str(out)])
        assert res.exit_code == 0, res.output
        symbols = []
        for row in out.read_text().splitlines()[1:]:
            _, length, kind, source, value = row.split("\t")
            if kind == "lit":
                symbols.append(Symbol(length=1, literal=int(value)))
            else:
                symbols.append(Symbol(length=int(length), source=SELF if source == "self" else 0,
                                      offset=int(value)))
        context = Context((x,), Mode.PAST_AND_SOURCES)
        f = Factorization(tuple(symbols), len(y), context.mode)
        assert decode(f, context) == y
        refs = [sym for sym in symbols if not sym.is_literal]
        assert refs[0] == Symbol(length=8192, source=0, offset=8192)  # b, found in x after a
        assert [(sym.source, sym.offset) for sym in refs] == find_references(y, context, f.lengths)

    def test_mode_validation_error(self, runner, tmp_path):
        t = tmp_path / "t"
        t.write_bytes(b"abc")
        res = runner.invoke(main, ["factorize", str(t), "--mode", "all"])
        assert res.exit_code != 0


class TestSimulate:
    def test_sweep_table(self, runner, tmp_path):
        spec = tmp_path / "sim.spec"
        spec.write_text("mu 5,20\nl0 6\nlength 2048,4096\ntrials 10\nseed 2\n")
        res = runner.invoke(main, ["simulate", str(spec)])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0].split("\t")[0] == "mu"
        assert len(lines) == 5
        row = lines[1].split("\t")
        assert float(row[0]) == 5 and int(row[1]) == 2048

    def test_missing_key_reported(self, runner, tmp_path):
        spec = tmp_path / "sim.spec"
        spec.write_text("mu 5\nlength 1024\n")
        res = runner.invoke(main, ["simulate", str(spec)])
        assert res.exit_code != 0
        assert "bad simulate spec" in res.output


DAG_SPEC = "length 100\nconnectivity\n0.0 0.0 1.0\n0.9 0.0 0.1\n"


def _markov_spec(line):
    """A good two-letter chain spec with line added last among its keys (the last value of a key wins)."""
    return f"alphabet 2\nlength 100\nseed 3\n{line}\ntransition\n0.5 0.5\n0.5 0.5\n"


@pytest.mark.parametrize("command, text, kind, key", [
    (["gen", "markov"], _markov_spec("realizations -2"), "markov", "realizations"),
    (["gen", "markov"], _markov_spec("realizations 0"), "markov", "realizations"),
    (["gen", "markov"], _markov_spec("realizations 1.5"), "markov", "realizations"),
    (["gen", "markov"], _markov_spec("seed -1"), "markov", "seed"),
    (["gen", "markov"], _markov_spec("length 1e3.5"), "markov", "length"),
    (["gen", "markov"], _markov_spec("alphabet 2.5"), "markov", "alphabet"),
    (["gen", "dag"], DAG_SPEC.replace("length 100", "length 1e3.5"), "dag", "length"),
    (["gen", "dag"], "seed -1\n" + DAG_SPEC, "dag", "seed"),
    (["gen", "dag"], "burnin 2.5\n" + DAG_SPEC, "dag", "burnin"),
    (["simulate"], "mu 5\nl0 6\nlength 1024\ntrials 2.9\n", "simulate", "trials"),
    (["simulate"], "mu 5\nl0 6\nlength 1024.5\n", "simulate", "length"),
    (["simulate"], "mu 5\nl0 6\nlength 1024\nseed -1\n", "simulate", "seed"),
    (["gen", "dag"], "scale inf\n" + DAG_SPEC, "dag", "scale"),
    (["gen", "dag"], "scale nan\n" + DAG_SPEC, "dag", "scale"),
    (["gen", "dag"], "scale -5\n" + DAG_SPEC, "dag", "scale"),
    (["gen", "dag"], "alphabet 300\n" + DAG_SPEC, "dag", "alphabet"),
    (["gen", "dag"], "alphabet 1\n" + DAG_SPEC, "dag", "alphabet"),
    (["gen", "dag"], "burnin -3\n" + DAG_SPEC, "dag", "burn-in"),
    (["simulate"], "mu nan\nl0 6\nlength 1024\n", "simulate", "mu"),
    (["simulate"], "mu inf\nl0 6\nlength 1024\n", "simulate", "mu"),
    (["simulate"], "mu 5,-1\nl0 6\nlength 1024\n", "simulate", "mu"),
    (["simulate"], "mu 5\nl0 nan\nlength 1024\n", "simulate", "l0"),
    (["simulate"], "mu 5\nl0 inf\nlength 1024\n", "simulate", "l0"),
    (["simulate"], "mu 5\nl0 -2\nlength 1024\n", "simulate", "l0"),
    (["gen", "markov"], _markov_spec("length 1e300"), "markov", "length"),
    (["gen", "markov"], _markov_spec("length 2147483648"), "markov", "length"),
    (["gen", "dag"], DAG_SPEC.replace("length 100", "length 1e300"), "dag", "length"),
    (["gen", "dag"], DAG_SPEC.replace("length 100", "length 2147483648"), "dag", "length"),
    (["simulate"], "mu 5\nl0 6\nlength 1024,1e3.5\n", "simulate", "length"),
    (["simulate"], "mu 5,x\nl0 6\nlength 1024\n", "simulate", "mu"),
    (["gen", "markov"], "alphabet 3\nlength 100\ntransition\nnan 0.5 0.5\n0.2 0.3 0.5\n0.2 0.3 0.5\n",
     "markov", "transition"),
    (["gen", "dag"], DAG_SPEC.replace("0.9 0.0 0.1", "nan 0.0 0.1"), "dag", "connectivity"),
    (["gen", "markov"], _markov_spec("realisations 3"), "markov", "unknown key 'realisations'"),
    (["gen", "dag"], "transition 1\n" + DAG_SPEC, "dag", "unknown key 'transition'"),
    (["simulate"], "mu 5\nl0 6\nlength 1024\ntrial 2\n", "simulate", "unknown key 'trial'"),
], ids=["markov-realizations-negative", "markov-realizations-0", "markov-realizations-fraction",
        "markov-seed-negative", "markov-length-not-a-number", "markov-alphabet-fraction",
        "dag-length-not-a-number", "dag-seed-negative", "dag-burnin-fraction",
        "simulate-trials-fraction", "simulate-length-fraction", "simulate-seed-negative",
        "dag-scale-inf", "dag-scale-nan", "dag-scale-negative", "dag-alphabet-300",
        "dag-alphabet-1", "dag-burnin-negative", "simulate-mu-nan", "simulate-mu-inf",
        "simulate-mu-negative", "simulate-l0-nan", "simulate-l0-inf", "simulate-l0-negative", "markov-length-1e300", "markov-length-2**31",
        "dag-length-1e300", "dag-length-2**31", "simulate-length-not-a-number",
        "simulate-mu-not-a-number", "markov-transition-nan", "dag-connectivity-nan",
        "markov-unknown-key", "dag-unknown-key", "simulate-unknown-key"])
def test_bad_spec_value_is_one_line_error(runner, tmp_path, command, text, kind, key):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    out = ["--out-dir", str(tmp_path / "gen")] if command[0] == "gen" else []
    res = runner.invoke(main, [*command, str(spec), *out])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    [line] = res.output.strip().splitlines()
    assert line.startswith(f"Error: bad {kind} spec: {key}")
    assert not (tmp_path / "gen").exists()


@contextlib.contextmanager
def _computing_fails(exc):
    """Every NSD matrix, directed-information matrix, factorization, tree and
    length profile raises exc."""
    with mock.patch("salza.estimators.nsd_matrix", side_effect=exc), \
            mock.patch("salza.directed.directed_info_matrix", side_effect=exc), \
            mock.patch("salza.cli.factorize", side_effect=exc), \
            mock.patch("salza.cluster.neighbor_joining", side_effect=exc), \
            mock.patch("salza.synth.length_profile", side_effect=exc):
        yield


def _bad_table(tmp_path, text="3 0.2 9\n"):
    table = tmp_path / "steps.txt"
    table.write_text(text)
    return f"table:{table}"


@pytest.mark.parametrize("make_args", [
    lambda f, d: ["nsd", *f, "--func", f"table:{d}/missing", "--out", f"{d}/d.tsv"],
    lambda f, d: ["nsd", *f, "--func", _bad_table(d), "--out", f"{d}/d.tsv"],
    lambda f, d: ["nsd", *f, "--func", _bad_table(d, "3 0.2\n1" + "0" * 400 + " 1.0\n"), "--out", f"{d}/d.tsv"],
    lambda f, d: ["nsd", *f, "--func", _bad_table(d, "3 0.2\n2147483648 1.0\n"), "--out", f"{d}/d.tsv"],
    lambda f, d: ["nsd", *f, "--func", _bad_table(d, "5 0.5\n5 0.9\n"), "--out", f"{d}/d.tsv"],
    lambda f, d: ["nsd", *f, "--out", f"{d}/missing/d.tsv"],
    lambda f, d: ["causality", *f, "--out", f"{d}/missing/g.dot"],
    lambda f, d: ["factorize", *f, "--out", f"{d}/missing/f.tsv"],
    lambda f, d: ["gen", "markov", f"{d}/missing.spec", "--out-dir", str(d)],
    lambda f, d: ["gen", "dag", f"{d}/missing.spec", "--out-dir", str(d)],
    lambda f, d: ["simulate", f"{d}/missing.spec"],
    lambda f, d: ["cluster", f"{d}/missing.tsv", "--out", f"{d}/t.nwk"],
    lambda f, d: ["cluster", *write_corpus(d, {"m.tsv": b"\ta\tb\na\t0\t1\nb\t1\t0\n"}),
                  "--out", f"{d}/missing/t.nwk"],
    lambda f, d: ["simulate", *write_corpus(d, {"sim.spec": b"mu 5\nl0 6\nlength 64\ntrials 2\n"}),
                  "--out", f"{d}/missing/s.tsv"],
], ids=["missing-table", "bad-table-line", "table-length-1e400", "table-length-2**31", "table-length-twice", "nsd-out",
        "causality-out", "factorize-out", "markov-spec", "dag-spec", "simulate-spec", "cluster-matrix",
        "cluster-out", "simulate-out"])
def test_bad_file_is_one_line_error(runner, tmp_path, make_args):
    files = write_corpus(tmp_path, {"x": SAMPLE["alpha"], "y": SAMPLE["beta"]})
    # an output path is checked before any cell is computed
    with _computing_fails(RuntimeError("computed before checking the output")):
        res = runner.invoke(main, make_args(files, tmp_path))
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.output.strip().splitlines()[-1].startswith("Error:")
    assert res.exit_code == 1


@pytest.mark.parametrize("command, outs", [
    ("nsd", ["--out"]),
    ("causality", ["--out", "--matrix-out"]),
])
def test_failed_run_leaves_outputs_as_they_were(runner, tmp_path, command, outs):
    files = write_corpus(tmp_path, {"x": SAMPLE["alpha"], "y": SAMPLE["beta"]})
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("keep me\n")
    for paths in ([old, new], [new, old]):
        args = [command, *files]
        for option, path in zip(outs, paths):
            args += [option, str(path)]
        with _computing_fails(ValueError("boom")):
            res = runner.invoke(main, args)
        assert res.exit_code == 1 and res.output.strip().endswith("Error: boom")
        assert old.read_text() == "keep me\n"  # not truncated
        assert not new.exists()  # not left behind empty


@pytest.mark.parametrize("args", [
    ["nsd", "--threads", "foo"],
    ["causality", "--threads", "foo"],
    ["causality", "--threads", "2.5"],
])
def test_non_numeric_option_is_one_line_error(runner, tmp_path, args):
    files = write_corpus(tmp_path, {"x": SAMPLE["alpha"], "y": SAMPLE["beta"]})
    res = runner.invoke(main, [args[0], *files, *args[1:], "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    last = res.output.strip().splitlines()[-1]
    assert last.startswith("Error:") and args[1] in last and repr(args[2]) in last


def _random_strings(seed, count, length):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 4, length, dtype=np.uint8).tobytes() for _ in range(count)]


@pytest.mark.parametrize("command, corpus, message", [
    (["nsd"], {"x": b"ab", "y": SAMPLE["alpha"]},
     "strings shorter than 3 bytes can never be matched; the distance is positive even for equal inputs"),
    # two unrelated random strings: each term gains a little from the other, and threshold 0 keeps both edges
    (["causality", "--threshold", "0"], dict(zip("xy", _random_strings(0, 2, 300))),
     "extracted graph contains a cycle"),
], ids=["nsd-short-input", "causality-cycle"])
def test_library_warning_is_one_line(runner, tmp_path, command, corpus, message):
    files = write_corpus(tmp_path, corpus)
    args = [command[0], *files, *command[1:], "--out", str(tmp_path / "out")]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == [f"warning: {message}"]

    def overflow(*args, **kwargs):
        warnings.warn("overflow", RuntimeWarning)

    # the warning filters stay in force: a RuntimeWarning is still an error here
    with mock.patch("salza.estimators.nsd_matrix", side_effect=overflow), \
            mock.patch("salza.directed.directed_info_matrix", side_effect=overflow):
        res = runner.invoke(main, args)
    assert isinstance(res.exception, RuntimeWarning)
