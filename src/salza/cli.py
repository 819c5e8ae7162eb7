"""Command-line front end: corpus ingestion, matrix/tree/graph emission,
experiment reproduction.

Every run is fully determined by its flags, its input bytes, and the seed;
thread count never changes the output bytes.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import click
import numpy as np

from . import cluster as _cluster
from . import directed as _directed
from . import estimators as _est
from . import synth as _synth
from . import tsv as _tsv
from .lz import Context, Mode, factorize

_MODES = {m.value: m for m in Mode}


def _load_function(func: str, l0: str) -> _est.AdmissibleFunction:
    if func.startswith("table:"):
        path = func[6:]
        table = {}
        for i, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                length, value = line.split()
                table[int(length)] = float(value)
            except ValueError:
                raise ValueError(f"{path}: line {i}: expected '<length> <value>', not {raw!r}") from None
        return _est.table_function(table)
    if func not in ("sigmoid", "threshold"):
        raise ValueError(f"unknown admissible function: {func}")
    try:
        return _est.AdmissibleFunction(func, None if l0 == "auto" else float(l0))
    except ValueError:
        raise ValueError(f"--l0 must be 'auto' or a finite number >= 0, not {l0!r}") from None


@contextlib.contextmanager
def _spec_errors(kind: str):
    """A missing key or a bad value in a spec file names the spec kind."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad {kind} spec: {exc}") from exc


def _check_writable(*paths: str | None) -> None:
    """Fails now, as the final write would, on an output path that cannot be written.

    An existing file keeps its bytes (it is opened for appending), and a
    file made by the check is removed again.
    """
    for path in filter(None, paths):
        existed = os.path.exists(path)
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)


def _read_corpus(files: tuple[str, ...]) -> tuple[list[str], list[bytes]]:
    labels: list[str] = []
    data: list[bytes] = []
    for path in files:
        blob = Path(path).read_bytes()
        if not blob:
            raise click.ClickException(f"empty file: {path}")
        label = os.path.basename(path)
        if label in labels:
            k = 1
            while f"{label}.{k}" in labels:
                k += 1
            click.echo(f"warning: duplicate label {label!r}, using {label}.{k}", err=True)
            label = f"{label}.{k}"
        labels.append(label)
        data.append(blob)
    return labels, data


def _at_least_one(ctx, param, value):
    if value is not None and value < 1:
        raise ValueError(f"--threads must be at least 1, not {value}")
    return value


func_option = click.option("--func", default="sigmoid", show_default=True,
                           help="Admissible function: sigmoid|threshold|table:<path>.")
l0_option = click.option("--l0", default="auto", show_default=True,
                         help="Cutoff length, or 'auto' for the per-context meaningful length.")
threads_option = click.option("--threads", type=int, default=None, callback=_at_least_one,
                              help="Accepted for compatibility; cells are computed serially.")


class _Main(click.Group):
    """Reports a ValueError or OSError from any command (bad user input: a bad
    value, a missing or unwritable file) as a one-line `Error:`, status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a closed stdout: click exits quietly
        except (OSError, ValueError) as exc:
            name = getattr(exc, "filename", None)
            raise click.ClickException(f"{name}: {exc.strerror}" if name else str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Lempel-Ziv complexity estimates, clustering, and causality inference."""


@main.command()
@click.argument("files", nargs=-1, required=True, type=click.Path())
@func_option
@l0_option
@threads_option
@click.option("--out", required=True, type=click.Path(), help="Output TSV matrix.")
def nsd(files, func, l0, threads, out):
    """Pairwise normalized semi-distance matrix over FILES."""
    if len(files) < 2:
        raise click.ClickException("need at least two input files")
    fn = _load_function(func, l0)
    _check_writable(out)
    labels, data = _read_corpus(files)
    n = len(data)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = _est.nsd(data[i], data[j], fn)
    _tsv.write_matrix(out, labels, d)


@main.command()
@click.argument("matrix", type=click.Path())
@click.option("--method", type=click.Choice(["nj", "upgma"]), default="nj", show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Output Newick file.")
@click.option("--ascii", "show_ascii", is_flag=True, help="Also print an ASCII rendering.")
def cluster(matrix, method, out, show_ascii):
    """Build a tree from a TSV distance matrix."""
    labels, values = _tsv.read_matrix(matrix)
    dm = _cluster.DistanceMatrix(tuple(labels), values)
    tree = _cluster.neighbor_joining(dm) if method == "nj" else _cluster.upgma(dm)
    Path(out).write_text(_cluster.to_newick(tree) + "\n")
    if show_ascii:
        click.echo(_cluster.render_ascii(tree), nl=False)


@main.command()
@click.argument("files", nargs=-1, required=True, type=click.Path())
@click.option("--kind", type=click.Choice(["causal", "full"]), default="causal", show_default=True)
@func_option
@l0_option
@click.option("--threshold", type=float, default=_directed.DEFAULT_THRESHOLD, show_default=True,
              help="Edge filter on directed information values.")
@threads_option
@click.option("--out", required=True, type=click.Path(), help="Output DOT graph.")
@click.option("--matrix-out", type=click.Path(), default=None,
              help="Also write the raw directed-information matrix as TSV.")
def causality(files, kind, func, l0, threshold, threads, out, matrix_out):
    """Directed-information graph over FILES."""
    if len(files) < 2:
        raise click.ClickException("need at least two input files")
    fn = _load_function(func, l0)
    _check_writable(out, matrix_out)
    labels, data = _read_corpus(files)
    X = _directed.StringSet(tuple(labels), tuple(data))
    m = _directed.directed_info_matrix(X, kind=kind, f=fn, threshold=threshold)
    if matrix_out:
        _tsv.write_matrix(matrix_out, labels, m.values)
    Path(out).write_text(_directed.to_dot(m))


@main.group()
def gen():
    """Synthetic data generators."""


@gen.command()
@click.argument("specfile", type=click.Path())
@click.option("--out-dir", required=True, type=click.Path(), help="Directory for raw byte files.")
def markov(specfile, out_dir):
    """Seeded first-order Markov realizations from SPECFILE.

    Keys: alphabet, length, seed, realizations (default 1), id (label tag),
    then a `transition` matrix block.
    """
    with _spec_errors("markov"):
        cfg = _synth.parse_spec_file(specfile)
        count = int(cfg.get("realizations", 1))
        base_seed = int(cfg.get("seed", 0))
        tag = cfg.get("id", 0)
        outdir = Path(out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for c in range(count):
            spec = _synth.MarkovSpec(
                alphabet_size=int(cfg["alphabet"]),
                transition=cfg["transition"],
                length=int(cfg["length"]),
                seed=base_seed + c,
            )
            label = f"alpha{spec.alphabet_size}_m{tag}_c{c}"
            (outdir / label).write_bytes(_synth.generate_markov(spec))
            click.echo(str(outdir / label))


@gen.command()
@click.argument("specfile", type=click.Path())
@click.option("--out-dir", required=True, type=click.Path(), help="Directory for raw byte files.")
def dag(specfile, out_dir):
    """Dependent DAG process realizations from SPECFILE.

    Keys: length, seed, burnin (default 12), scale (copy length per unit
    probability, default 20), alphabet (default 256), then a `connectivity`
    matrix block of shape N x (N+1) whose last column is the innovation
    probability.
    """
    with _spec_errors("dag"):
        cfg = _synth.parse_spec_file(specfile)
        spec = _synth.DagSpec(
            connectivity=cfg["connectivity"],
            length=int(cfg["length"]),
            seed=int(cfg.get("seed", 0)),
            burn_in=int(cfg.get("burnin", 12)),
            copy_scale=float(cfg.get("scale", 20.0)),
            alphabet_size=int(cfg.get("alphabet", 256)),
        )
    strings = _synth.generate_dag_processes(spec)
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for label, blob in zip(strings.labels, strings.strings):
        (outdir / label).write_bytes(blob)
        click.echo(str(outdir / label))


@main.command("factorize")
@click.argument("target", type=click.Path())
@click.argument("sources", nargs=-1, type=click.Path())
@click.option("--mode", "mode_name", type=click.Choice(sorted(_MODES)), default="all",
              show_default=True, help="Conditioning mode.")
@click.option("--out", type=click.Path(), default=None, help="Output TSV (default stdout).")
def factorize_cmd(target, sources, mode_name, out):
    """Dump the symbol stream of TARGET factorized against SOURCES."""
    labels, data = _read_corpus((target,) + sources)
    fact = factorize(data[0], Context(tuple(data[1:]), _MODES[mode_name]))
    text = _tsv.symbols_tsv(fact, labels[1:])
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("specfile", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Output TSV (default stdout).")
def simulate(specfile, out):
    """Symbol-length formula study (no factorization) from SPECFILE.

    Keys: mu, l0, length, trials (default 200), seed.  mu and length accept
    comma-separated sweeps.
    """
    with _spec_errors("simulate"):
        cfg = _synth.parse_spec_file(specfile)

        def sweep(key):
            return [float(v) for v in str(cfg[key]).split(",")]

        l0 = float(cfg["l0"])
        trials = int(cfg.get("trials", 200))
        seed = int(cfg.get("seed", 0))
        specs = [_synth.LengthProfileSpec(mu=mu, l0=l0, target_length=int(n), trials=trials, seed=seed)
                 for mu in sweep("mu") for n in sweep("length")]
    lines = ["mu\tlength\tl0\tthreshold_S\tthreshold_value\tsigmoid_S\tsigmoid_value\tZ"]
    for spec in specs:
        prof = _synth.length_profile(spec)
        lines.append("\t".join([
            _tsv.fmt(spec.mu), str(spec.target_length), _tsv.fmt(spec.l0),
            _tsv.fmt(prof.threshold.spread), _tsv.fmt(prof.threshold.value),
            _tsv.fmt(prof.sigmoid.spread), _tsv.fmt(prof.sigmoid.value),
            _tsv.fmt(prof.threshold.size),
        ]))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
