"""Command-line front end: corpus ingestion, matrix/tree/graph emission,
experiment reproduction.

Every run is fully determined by its flags, its input bytes, and the seed;
thread count never changes the output bytes.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import sys
import warnings
from pathlib import Path

import click

from . import cluster as _cluster
from . import tsv as _tsv
from .params import DEFAULT_THRESHOLD, Mode


def _numeric(name: str):
    """salza's module `name`, imported on first use: a numeric command loads
    numpy and the modules it uses when it runs, and `cluster` loads neither.

    salza makes no BLAS call (no dot, @, linalg or einsum), so OpenBLAS's
    worker threads, started when numpy loads, would only spin: about 0.1 s
    of CPU per process on two cores.  OpenBLAS reads the variable once, as
    it loads, so the environment is put back as it was right after.
    """
    if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return importlib.import_module(f".{name}", __package__)


def factorize(target: bytes, context):
    """lz.factorize, loaded on first use.  The `factorize` command calls it by
    this name, which perfbench's tracer wraps."""
    return _numeric("lz").factorize(target, context)


def _load_function(func: str, l0: str):
    est = _numeric("estimators")
    if func.startswith("table:"):
        path = func[6:]
        table = {}
        for i, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                length, value = line.split()
                length, value = int(length), float(value)
            except ValueError:
                raise ValueError(f"{path}: line {i}: expected '<length> <value>', not {raw!r}") from None
            if length in table:
                raise ValueError(f"{path}: line {i}: length {length} given twice")
            table[length] = value
        return est.table_function(table)
    if func not in ("sigmoid", "threshold"):
        raise ValueError(f"unknown admissible function: {func}")
    try:
        return est.AdmissibleFunction(func, None if l0 == "auto" else float(l0))
    except ValueError:
        raise ValueError(f"--l0 must be 'auto' or a finite number >= 0, not {l0!r}") from None


@contextlib.contextmanager
def _spec_errors(kind: str):
    """A missing key or a bad value in a spec file names the spec kind."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad {kind} spec: {exc}") from exc


def _integer(key: str, value, least: int | None = None) -> int:
    """A spec value that must be an integer (>= least, if given); the error names the key.

    A float with no fractional part counts as its integer.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or least is not None and value < least:
        rule = "an integer" if least is None else f"an integer >= {least}"
        raise ValueError(f"{key} must be {rule}, not {value!r}")
    return value


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


def _number(kind, rule: str, ok):
    """Option callback: the value as kind, if ok; else a ValueError naming the option."""

    def convert(ctx, param, value):
        if value is None:
            return None
        with contextlib.suppress(ValueError):
            number = kind(value)
            if ok(number):
                return number
        raise ValueError(f"--{param.name} must be {rule}, not {value!r}")

    return convert


func_option = click.option("--func", default="sigmoid", show_default=True,
                           help="Admissible function: sigmoid|threshold|table:<path>.")
l0_option = click.option("--l0", default="auto", show_default=True,
                         help="Cutoff length, or 'auto' for the per-context meaningful length.")
threads_option = click.option("--threads", type=str, default=None, metavar="INTEGER",
                              callback=_number(int, "an integer >= 1", lambda n: n >= 1),
                              help="Accepted for compatibility; cells are computed serially.")


def _show_warning(message, category, filename, lineno, file=None, line=None):
    click.echo(f"warning: {message}", err=True)


class _Main(click.Group):
    """Reports a ValueError or OSError from any command (bad user input: a bad
    value, a missing or unwritable file) as a one-line `Error:`, status 1, and
    a warning from the library as a one-line `warning:`; the warning filters
    stay as they are."""

    def invoke(self, ctx):
        try:
            with warnings.catch_warnings():
                warnings.showwarning = _show_warning
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
    _tsv.write_matrix(out, labels, _numeric("estimators").nsd_matrix(data, fn))


@main.command()
@click.argument("matrix", type=click.Path())
@click.option("--method", type=click.Choice(["nj", "upgma"]), default="nj", show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Output Newick file.")
@click.option("--ascii", "show_ascii", is_flag=True, help="Also print an ASCII rendering.")
def cluster(matrix, method, out, show_ascii):
    """Build a tree from a TSV distance matrix."""
    _check_writable(out)
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
@click.option("--threshold", type=str, default=DEFAULT_THRESHOLD, show_default=True,
              metavar="FLOAT",
              callback=_number(float, "a finite number >= 0", lambda x: 0.0 <= x < math.inf),
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
    directed = _numeric("directed")
    _check_writable(out, matrix_out)
    labels, data = _read_corpus(files)
    X = directed.StringSet(tuple(labels), tuple(data))
    m = directed.directed_info_matrix(X, kind=kind, f=fn)
    if matrix_out:
        _tsv.write_matrix(matrix_out, labels, m.values)
    Path(out).write_text(directed.to_dot(m, threshold))


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
    synth = _numeric("synth")
    with _spec_errors("markov"):
        cfg = synth.parse_spec_file(specfile, "alphabet length seed realizations id transition".split())
        count = _integer("realizations", cfg.get("realizations", 1), 1)
        base_seed = _integer("seed", cfg.get("seed", 0), 0)
        specs = [synth.MarkovSpec(
            alphabet_size=_integer("alphabet", cfg["alphabet"]),
            transition=cfg["transition"],
            length=_integer("length", cfg["length"]),
            seed=base_seed + c,
        ) for c in range(count)]
    tag = cfg.get("id", 0)
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for c, spec in enumerate(specs):
        label = f"alpha{spec.alphabet_size}_m{tag}_c{c}"
        (outdir / label).write_bytes(synth.generate_markov(spec))
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
    synth = _numeric("synth")
    with _spec_errors("dag"):
        cfg = synth.parse_spec_file(specfile, "length seed burnin scale alphabet connectivity".split())
        spec = synth.DagSpec(
            connectivity=cfg["connectivity"],
            length=_integer("length", cfg["length"]),
            seed=_integer("seed", cfg.get("seed", 0), 0),
            burn_in=_integer("burnin", cfg.get("burnin", 12)),
            copy_scale=float(cfg.get("scale", 20.0)),
            alphabet_size=_integer("alphabet", cfg.get("alphabet", 256)),
        )
    strings = synth.generate_dag_processes(spec)
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for label, blob in zip(strings.labels, strings.strings):
        (outdir / label).write_bytes(blob)
        click.echo(str(outdir / label))


@main.command("factorize")
@click.argument("target", type=click.Path())
@click.argument("sources", nargs=-1, type=click.Path())
@click.option("--mode", "mode_name", type=click.Choice(sorted(m.value for m in Mode)), default="all",
              show_default=True, help="Conditioning mode.")
@click.option("--out", type=click.Path(), default=None, help="Output TSV (default stdout).")
def factorize_cmd(target, sources, mode_name, out):
    """Dump the symbol stream of TARGET factorized against SOURCES."""
    _check_writable(out)
    labels, data = _read_corpus((target,) + sources)
    fact = factorize(data[0], _numeric("lz").Context(tuple(data[1:]), Mode(mode_name)))
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
    synth = _numeric("synth")
    with _spec_errors("simulate"):
        cfg = synth.parse_spec_file(specfile, "mu l0 length trials seed".split())

        def sweep(key):
            try:
                return [float(v) for v in str(cfg[key]).split(",")]
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None

        l0 = float(cfg["l0"])
        trials = _integer("trials", cfg.get("trials", 200))
        seed = _integer("seed", cfg.get("seed", 0), 0)
        specs = [synth.LengthProfileSpec(mu=mu, l0=l0, target_length=_integer("length", n),
                                         trials=trials, seed=seed)
                 for mu in sweep("mu") for n in sweep("length")]
    _check_writable(out)
    lines = ["mu\tlength\tl0\tthreshold_S\tthreshold_value\tsigmoid_S\tsigmoid_value\tZ"]
    for spec in specs:
        prof = synth.length_profile(spec)
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
