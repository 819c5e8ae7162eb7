import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import salza
from oracle import find_references
from salza.cli import main
from salza.lz import SELF, Context, Factorization, Mode, Symbol, decode
from salza.synth import (
    DagSpec,
    LengthProfileSpec,
    MarkovSpec,
    generate_dag_processes,
    generate_markov,
    length_profile,
)
from salza.tsv import fmt, read_matrix


class _Tee(io.StringIO):
    """Keeps what is written, and writes it to `also` as well."""

    def __init__(self, also):
        super().__init__()
        self.also = also

    def write(self, text):
        self.also.write(text)
        return super().write(text)


class Runner:
    """Runs the CLI in this process.  A result's `output` is its stdout and stderr
    interleaved, and its `exception` what ended a run whose exit code is not 0."""

    def invoke(self, cli, args):
        output = io.StringIO()
        stderr = _Tee(output)
        code, exception = 0, None
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(stderr):
            try:
                cli(args)
            except SystemExit as exc:
                code, exception = exc.code or 0, exc if exc.code else None
            except Exception as exc:
                code, exception = 1, exc
        return SimpleNamespace(exit_code=code, output=output.getvalue(), stderr=stderr.getvalue(), exception=exception)


@pytest.fixture
def runner():
    return Runner()


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
        ("--threads", "0"), ("--threads", "-2"), ("--l0", "-1"), ("--l0", "foo"), ("--func", "table:"),
    ])
    def test_bad_numeric_option_is_one_line_error(self, runner, tmp_path, option, value):
        files = write_corpus(tmp_path, SAMPLE)
        res = runner.invoke(main, ["nsd", *files, option, value, "--out", str(tmp_path / "d.tsv")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception  # no traceback
        last = res.output.strip().splitlines()[-1]
        assert last.startswith("Error:") and option in last

    @pytest.mark.parametrize("func", ["sigmoid", "threshold", "table"])
    @pytest.mark.parametrize("value", ["foo", "-1", "nan"])
    def test_bad_l0_refused_before_any_file_is_read(self, runner, tmp_path, func, value):
        if func == "table":
            func = f"table:{tmp_path}/missing.tbl"
        res = runner.invoke(main, ["nsd", f"{tmp_path}/x", f"{tmp_path}/y", "--func", func, "--l0", value,
                                   "--out", str(tmp_path / "d.tsv")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception  # no traceback
        assert res.output.strip().splitlines() == [
            f"Error: --l0 must be 'auto' or a finite number >= 0, not {value!r}"]

    @pytest.mark.parametrize("command", ["nsd", "causality"])
    def test_l0_with_a_table_refused(self, runner, tmp_path, command):
        files = write_corpus(tmp_path, SAMPLE)
        table = tmp_path / "steps.txt"
        table.write_text("3 0.2\n8 1.0\n")
        out = tmp_path / "out"
        res = runner.invoke(main, [command, *files, "--func", f"table:{table}", "--l0", "3", "--out", str(out)])
        assert res.exit_code == 1
        assert res.output.strip().splitlines() == [f"Error: {table}: a table function takes no cutoff l0, not 3.0"]
        assert not out.exists()

    def test_duplicate_basenames_get_suffix(self, runner, tmp_path):
        d1, d2, d3 = tmp_path / "one", tmp_path / "two", tmp_path / "three"
        d1.mkdir(), d2.mkdir(), d3.mkdir()
        (d1 / "text").write_bytes(SAMPLE["alpha"])
        (d2 / "text").write_bytes(SAMPLE["beta"])
        (d3 / "text").write_bytes(SAMPLE["gamma"])
        out = tmp_path / "d.tsv"
        res = runner.invoke(main, ["nsd", str(d1 / "text"), str(d2 / "text"), str(d3 / "text"),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.stderr.splitlines() == ["warning: duplicate label 'text', using text.1",
                                           "warning: duplicate label 'text', using text.2"]
        labels, _ = read_matrix(out)
        assert labels == ["text", "text.1", "text.2"]

    @pytest.mark.parametrize("command, name, label", [
        ("nsd", b"a\xff", "a\\xff"), ("causality", b"a\xff", "a\\xff"),
        ("nsd", b"a\tb", "a\\tb"), ("causality", b"a\tb", "a\\tb"), ("factorize", b"a\tb", "a\\tb"),
        ("nsd", b"d\ne", "d\\ne"), ("causality", b"d\ne", "d\\ne"), ("factorize", b"d\ne", "d\\ne"),
    ], ids=["nsd", "causality", "nsd-tab", "causality-tab", "factorize-tab", "nsd-newline", "causality-newline",
            "factorize-newline"])
    def test_name_that_is_not_utf8_is_escaped_in_its_label(self, runner, tmp_path, command, name, label):
        name = os.fsdecode(name)
        try:
            (tmp_path / name).write_bytes(SAMPLE["alpha"])
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses the name")
        printable = "b é 'x'"  # its label is its name
        (tmp_path / printable).write_bytes(SAMPLE["alpha"][:500])
        files = [str(tmp_path / name), str(tmp_path / printable)]
        out, matrix = tmp_path / "out", tmp_path / "m.tsv"
        if command == "factorize":  # the source, named in the dump's source column
            res = runner.invoke(main, [command, files[1], files[0], "--out", str(out)])
            assert res.exit_code == 0, res.output
            rows = [line.split("\t") for line in out.read_text().splitlines()]
            assert {len(row) for row in rows} == {5} and {row[3] for row in rows[1:]} == {label}
            return
        res = runner.invoke(main, [command, *files, "--out", str(out)]
                            + (["--matrix-out", str(matrix)] if command == "causality" else []))
        assert res.exit_code == 0, res.output
        labels, _ = read_matrix(out if command == "nsd" else matrix)
        assert labels == [label, printable]
        if command == "nsd":
            res = runner.invoke(main, ["cluster", str(out), "--out", str(tmp_path / "t.nwk")])
            assert res.exit_code == 0, res.output
        else:
            escaped = label.replace("\\", "\\\\")  # the DOT escape of the backslash
            assert f'"{escaped}";' in out.read_text()


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


    @pytest.mark.parametrize("text, where", [
        ("\ta\tb\n", "not a matrix file"),
        ("x\ta\tb\na\t0\t1\nb\t1\t0\n", "row 1: expected empty leading header cell"),
        ("\ta\tb\na\t0\t1\n", "expected 2 data rows, found 1"),
        ("\ta\tb\na\t0\nb\t1\t0\n", "row 2: expected 3 columns, found 2"),
        ("\ta\tb\na\t0\t1\nc\t1\t0\n", "row 3: label 'c' does not match header"),
        ("\ta\tb\na\t0\tx\nb\t1\t0\n", "row 2, column 3: bad number 'x'"),
    ], ids=["not-a-matrix", "header-cell", "row-count", "column-count", "label-mismatch", "bad-number"])
    def test_bad_matrix_file_names_its_path_and_place(self, runner, tmp_path, text, where):
        p = tmp_path / "m.tsv"
        p.write_text(text)
        res = runner.invoke(main, ["cluster", str(p), "--out", str(tmp_path / "t.nwk")])
        assert res.exit_code == 1
        assert res.output.strip().splitlines() == [f"Error: {p}: {where}"]


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

    def test_needs_two_files(self, runner, tmp_path):
        (one,) = write_corpus(tmp_path, {"solo": b"abcd" * 10})
        res = runner.invoke(main, ["causality", one, "--out", str(tmp_path / "g.dot")])
        assert res.exit_code == 1
        assert res.output.strip().splitlines() == ["Error: need at least two input files"]

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
        assert [(sym.source, sym.offset) for sym in refs] == find_references(y, context, f.lengths.tolist())

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

    def test_out_file(self, runner, tmp_path):
        spec, out = tmp_path / "sim.spec", tmp_path / "sim.tsv"
        spec.write_text("mu 5\nl0 6\nlength 512\ntrials 3\n")
        res = runner.invoke(main, ["simulate", str(spec), "--out", str(out)])
        assert res.exit_code == 0 and res.output == ""
        assert out.read_text() == runner.invoke(main, ["simulate", str(spec)]).output
        assert len(out.read_text().splitlines()) == 2

    def test_missing_key_reported(self, runner, tmp_path):
        spec = tmp_path / "sim.spec"
        spec.write_text("mu 5\nlength 1024\n")
        res = runner.invoke(main, ["simulate", str(spec)])
        assert res.exit_code != 0
        assert "bad simulate spec" in res.output


DAG_SPEC = "length 100\nconnectivity\n0.0 0.0 1.0\n0.9 0.0 0.1\n"


class TestSpecDefaults:
    """A key that a spec file leaves out takes its spec class's default."""

    def test_dag_without_optional_keys(self, runner, tmp_path):
        spec = tmp_path / "dag.spec"
        spec.write_text(DAG_SPEC.replace("length 100", "length 700"))
        res = runner.invoke(main, ["gen", "dag", str(spec), "--out-dir", str(tmp_path / "gen")])
        assert res.exit_code == 0, res.output
        want = generate_dag_processes(DagSpec(np.array([[0.0, 0.0, 1.0], [0.9, 0.0, 0.1]]), length=700))
        assert [(tmp_path / "gen" / label).read_bytes() for label in want.labels] == list(want.strings)

    def test_simulate_without_trials_or_seed(self, runner, tmp_path):
        spec = tmp_path / "sim.spec"
        spec.write_text("mu 4\nl0 3\nlength 300,500\n")
        res = runner.invoke(main, ["simulate", str(spec)])
        assert res.exit_code == 0, res.output
        rows = []
        for n in (300, 500):
            p = length_profile(LengthProfileSpec(4, 3, n))
            rows.append("\t".join([fmt(4.0), str(n), fmt(3.0), fmt(p.threshold.spread), fmt(p.threshold.value),
                                   fmt(p.sigmoid.spread), fmt(p.sigmoid.value), fmt(p.threshold.size)]))
        assert res.output.splitlines()[1:] == rows

    @pytest.mark.parametrize("seed_line, seed", [("seed 5\n", 5), ("", None)], ids=["seed-5", "no-seed"])
    def test_markov_realizations_take_consecutive_seeds(self, runner, tmp_path, seed_line, seed):
        spec = tmp_path / "chain.spec"
        spec.write_text(f"alphabet 2\nlength 300\n{seed_line}realizations 3\ntransition\n0.9 0.1\n0.2 0.8\n")
        res = runner.invoke(main, ["gen", "markov", str(spec), "--out-dir", str(tmp_path / "gen")])
        assert res.exit_code == 0, res.output
        first = MarkovSpec(2, np.array([[0.9, 0.1], [0.2, 0.8]]), 300, **({} if seed is None else {"seed": seed}))
        for c in range(3):
            want = generate_markov(dataclasses.replace(first, seed=first.seed + c))
            assert (tmp_path / "gen" / f"alpha2_m0_c{c}").read_bytes() == want

    @pytest.mark.parametrize("command, cls, fields", [
        (["gen", "markov"], MarkovSpec, {"seed": "seed"}),
        (["gen", "dag"], DagSpec, {"seed": "seed", "burnin": "burn_in", "scale": "copy_scale",
                                   "alphabet": "alphabet_size"}),
        (["simulate"], LengthProfileSpec, {"trials": "trials", "seed": "seed"}),
    ], ids=["markov", "dag", "simulate"])
    def test_help_states_the_spec_class_defaults(self, runner, command, cls, fields):
        text = " ".join(runner.invoke(main, [*command, "--help"]).output.split())
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for key, field in fields.items():
            assert re.search(rf"\b{key} \([^)]*default {defaults[field]:g}\b", text), (key, text)


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
    (["gen", "dag"], "burnin -3\n" + DAG_SPEC, "dag", "burnin"),
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
    (["gen", "dag"], "scale abc\n" + DAG_SPEC, "dag", "scale"),
    (["gen", "dag"], "burnin 1e300\n" + DAG_SPEC, "dag", "burnin"),
    (["simulate"], "mu 5\nl0 abc\nlength 1024\n", "simulate", "l0"),
    (["gen", "markov"], "alphabet 2\nlength 100\ntransition\n0.5 0.5\n0.5\n", "markov", "transition"),
    (["simulate"], "mu 5\nl0 6\nlength 1e300\n", "simulate", "length"),
    (["simulate"], "mu 5\nl0 6\nlength 2147483648\n", "simulate", "length"),
    (["simulate"], "mu 5\nlength 1024\n", "simulate", "l0"),
    (["simulate"], "mu 1e300\nl0 6\nlength 1024\n", "simulate", "mu"),
    (["gen", "markov"], _markov_spec("id a/b"), "markov", "id"),
    (["gen", "markov"], _markov_spec("id a\0b"), "markov", "id"),
    (["simulate"], "mu 5\nl0 6\nlength 1024\ntrials 1e12\n", "simulate", "trials"),
    (["gen", "markov"], _markov_spec("realizations 1e12"), "markov", "realizations"),
], ids=["markov-realizations-negative", "markov-realizations-0", "markov-realizations-fraction",
        "markov-seed-negative", "markov-length-not-a-number", "markov-alphabet-fraction",
        "dag-length-not-a-number", "dag-seed-negative", "dag-burnin-fraction",
        "simulate-trials-fraction", "simulate-length-fraction", "simulate-seed-negative",
        "dag-scale-inf", "dag-scale-nan", "dag-scale-negative", "dag-alphabet-300",
        "dag-alphabet-1", "dag-burnin-negative", "simulate-mu-nan", "simulate-mu-inf",
        "simulate-mu-negative", "simulate-l0-nan", "simulate-l0-inf", "simulate-l0-negative", "markov-length-1e300", "markov-length-2**31",
        "dag-length-1e300", "dag-length-2**31", "simulate-length-not-a-number",
        "simulate-mu-not-a-number", "markov-transition-nan", "dag-connectivity-nan",
        "markov-unknown-key", "dag-unknown-key", "simulate-unknown-key", "dag-scale-not-a-number",
        "dag-burnin-1e300", "simulate-l0-not-a-number", "markov-transition-ragged", "simulate-length-1e300",
        "simulate-length-2**31", "simulate-l0-missing", "simulate-mu-1e300", "markov-id-path",
        "markov-id-nul", "simulate-trials-1e12", "markov-realizations-1e12"])
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


def _huge_matrix(n):
    """A TSV matrix of n labels whose distances are all 1e308, too large for the tree's sums."""
    labels = "xyzw"[:n]
    rows = [label + "".join("\t" + ("0" if i == j else "1e308") for j in range(n)) for i, label in enumerate(labels)]
    return ("\t" + "\t".join(labels) + "\n" + "\n".join(rows) + "\n").encode()


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
    lambda f, d: ["cluster", *write_corpus(d, {"m.tsv": b"\xff\ta\na\t0\n"}), "--out", f"{d}/t.nwk"],
    lambda f, d: ["nsd", *f, "--func", "table:" + write_corpus(d, {"t.tbl": b"3 0.2\n\xff 1.0\n"})[0],
                  "--out", f"{d}/d.tsv"],
    lambda f, d: ["simulate", *write_corpus(d, {"sim.spec": b"mu 5\nl0 6\xff\nlength 64\n"})],
    lambda f, d: ["cluster", *write_corpus(d, {"m.tsv": _huge_matrix(4)}), "--out", f"{d}/t.nwk"],
    lambda f, d: ["cluster", *write_corpus(d, {"m.tsv": _huge_matrix(3)}), "--method", "upgma",
                  "--out", f"{d}/t.nwk"],
], ids=["missing-table", "bad-table-line", "table-length-1e400", "table-length-2**31", "table-length-twice", "nsd-out",
        "causality-out", "factorize-out", "markov-spec", "dag-spec", "simulate-spec", "cluster-matrix",
        "cluster-out", "simulate-out", "cluster-not-utf8", "table-not-utf8", "simulate-spec-not-utf8",
        "cluster-nj-overflow", "cluster-upgma-overflow"])
def test_bad_file_is_one_line_error(runner, tmp_path, make_args):
    files = write_corpus(tmp_path, {"x": SAMPLE["alpha"], "y": SAMPLE["beta"]})
    # an output path is checked before any cell is computed
    with _computing_fails(RuntimeError("computed before checking the output")):
        res = runner.invoke(main, make_args(files, tmp_path))
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.output.strip().splitlines()[-1].startswith("Error:")
    assert str(tmp_path) in res.output  # the message names the file
    assert res.exit_code == 1


@pytest.mark.parametrize("command", ["nsd", "causality", "factorize"])
def test_input_past_the_index_limit_is_one_line_error(runner, tmp_path, command):
    files = write_corpus(tmp_path, {"x": SAMPLE["alpha"], "y": SAMPLE["beta"]})
    width = len(SAMPLE["alpha"]) + 1 + len(SAMPLE["beta"])  # with the separator between them
    with mock.patch("salza.index.MAX_LENGTH", width - 1):
        res = runner.invoke(main, [command, *files, "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.output.strip().splitlines() == [
        f"Error: the strings total {width} bytes with their separators; an index addresses at most {width - 1}"]


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 32.0 GiB for an array with shape (4294967295,)"),
     "Error: Unable to allocate 32.0 GiB for an array with shape (4294967295,)"),
    (MemoryError(), "Error: out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("make_args", [
    lambda f, d: ["nsd", *f, "--out", f"{d}/d.tsv"],
    lambda f, d: ["causality", *f, "--out", f"{d}/g.dot"],
    lambda f, d: ["factorize", *f],
    lambda f, d: ["cluster", *write_corpus(d, {"m.tsv": b"\ta\tb\tc\na\t0\t1\t2\nb\t1\t0\t2\nc\t2\t2\t0\n"}),
                  "--out", f"{d}/t.nwk"],
    lambda f, d: ["simulate", *write_corpus(d, {"sim.spec": b"mu 5\nl0 6\nlength 64\n"})],
], ids=["nsd", "causality", "factorize", "cluster", "simulate"])
def test_out_of_memory_is_one_line_error(runner, tmp_path, make_args, exc, message):
    files = write_corpus(tmp_path, {"x": SAMPLE["alpha"], "y": SAMPLE["beta"]})
    with _computing_fails(exc):
        res = runner.invoke(main, make_args(files, tmp_path))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.output.strip().splitlines() == [message]


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
     "strings shorter than 3 bytes can never be matched: "
     "equal 2-byte strings are at a positive distance, and any two 1-byte strings at 0"),
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


# each command's options, with the default its help states (None: no default shown)
OPTIONS = {
    "nsd": {"--func": "sigmoid", "--l0": "auto", "--threads": None, "--out": None},
    "causality": {"--kind": "causal", "--func": "sigmoid", "--l0": "auto", "--threshold": "0.005",
                  "--threads": None, "--out": None, "--matrix-out": None},
    "cluster": {"--method": "nj", "--out": None, "--ascii": None},
    "factorize": {"--mode": "all", "--out": None},
    "gen markov": {"--out-dir": None},
    "gen dag": {"--out-dir": None},
    "simulate": {"--out": None},
}


@pytest.mark.parametrize("case", ["out-between-files", "--thread", "--method", *OPTIONS])
def test_parser_keeps_the_click_behaviour(runner, tmp_path, case):
    files = write_corpus(tmp_path, SAMPLE)
    if case == "out-between-files":
        first, between = tmp_path / "first.tsv", tmp_path / "between.tsv"
        assert runner.invoke(main, ["nsd", *files, "--out", str(first)]).exit_code == 0
        res = runner.invoke(main, ["nsd", files[0], "--out", str(between), *files[1:]])
        assert res.exit_code == 0, res.output
        assert between.read_bytes() == first.read_bytes()
    elif case.startswith("--"):  # an abbreviated option, and a choice that is not one
        matrix = tmp_path / "m.tsv"
        matrix.write_text("\ta\tb\na\t0\t1\nb\t1\t0\n")
        args = (["nsd", *files, "--thread", "2"] if case == "--thread" else ["cluster", str(matrix), "--method", "foo"])
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit), res.exception  # no traceback
        assert res.stderr.startswith("usage: salza ") and case in res.stderr
        assert not (tmp_path / "o").exists()
    else:
        res = runner.invoke(main, [*case.split(), "--help"])
        assert res.exit_code == 0, res.output
        text = " ".join(res.output.split())
        for option, default in OPTIONS[case].items():
            assert option in text
            if default is not None:
                assert re.search(rf"{option}\b[^[]*\[default: {re.escape(default)}\]", text), (option, text)


@pytest.mark.parametrize("size", [20_000, 100], ids=["closed-after-one-line", "closed-before-any"])
def test_closed_stdout_exits_quietly(tmp_path, size):
    rng = np.random.default_rng(3)
    paths = write_corpus(tmp_path, {name: rng.integers(0, 256, size, dtype=np.uint8).tobytes() for name in "yx"})
    argv = [sys.executable, "-m", "salza.cli", "factorize", *paths]
    # stdout buffered, as in a shell, so that Python also flushes it at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(salza.__file__).resolve().parents[1])
    if size > 1000:  # a dump of 20 kB of literals, far more than a pipe holds
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"pos\t")
            proc.stdout.close()
            err = proc.stderr.read()
    else:  # a dump that stays in the buffer, and a reader gone before it is written
        read, write = os.pipe()
        os.close(read)
        err = subprocess.run(argv, env=env, stdout=write, stderr=subprocess.PIPE, timeout=60).stderr
        os.close(write)
    assert b"Traceback" not in err and b"Exception ignored" not in err, err
    assert err == b"", err
