"""Run one salza CLI command in this process with spans around its public functions.

    python3 tracer.py SPANS_JSON RUN_ID [--oracle ORACLE_PY] -- SALZA_ARGS...

Each function is wrapped at the module attribute its caller looks up, so
the program runs unchanged.  A span records its name, start, end, parent
span and run id, plus counts taken from the call's arguments and result.
Spans stay in memory and are written to SPANS_JSON when the command exits.
Durations are net of the tracer's own bookkeeping, which runs after a span
ends and inside its parent.  With --oracle, every factorization is also
compared against naive_factorize from the given file.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import itertools
import json
import sys
import threading
import time

# (module, attribute the caller looks up, span name)
WRAPS = [
    ("salza.cli", "_read_corpus", "cli.read_corpus"),
    ("salza.cli", "factorize", "lz.factorize"),
    ("salza.estimators", "factorize", "lz.factorize"),
    ("salza.estimators", "meaningful_cutoff", "estimators.meaningful_cutoff"),
    ("salza.estimators", "estimate_from_lengths", "estimators.estimate_from_lengths"),
    ("salza.estimators", "conditional_complexity", "estimators.conditional_complexity"),
    ("salza.directed", "conditional_complexity", "estimators.conditional_complexity"),
    ("salza.estimators", "nsd", "estimators.nsd"),
    ("salza.directed", "directed_info_matrix", "directed.directed_info_matrix"),
    ("salza.directed", "extract_dag", "directed.extract_dag"),
    ("salza.directed", "to_dot", "directed.to_dot"),
    ("salza.cluster", "neighbor_joining", "cluster.neighbor_joining"),
    ("salza.cluster", "upgma", "cluster.upgma"),
    ("salza.cluster", "to_newick", "cluster.to_newick"),
    ("salza.tsv", "write_matrix", "tsv.write_matrix"),
    ("salza.tsv", "read_matrix", "tsv.read_matrix"),
    ("salza.tsv", "symbols_tsv", "tsv.symbols_tsv"),
]


def _region_key(data: bytes) -> str:
    return f"{hash(data):x}.{len(data)}"


def _factorize_counts(args, kwargs, result) -> dict:
    target = args[0] if args else kwargs["target"]
    context = args[1] if len(args) > 1 else kwargs["context"]
    target_key = _region_key(bytes(target))
    scope = "whole" if context.uses_whole_sources else "past"
    regions = [f"{target_key}>{_region_key(s)}.{scope}" for s in context.sources]
    if context.uses_own_past:
        regions.append(f"{target_key}>self")
    literals = sum(1 for s in result.symbols if s.literal is not None)
    return {
        "mode": context.mode.value,
        "target_bytes": len(target),
        "region_bytes": context.region_length(len(target)),
        "regions": regions,
        "symbols": len(result.symbols),
        "literals": literals,
    }


def _lengths_counts(args, kwargs, result) -> dict:
    lengths = args[0] if args else kwargs["lengths"]
    return {"lengths": len(lengths)}


def _edge_counts(args, kwargs, result) -> dict:
    return {"edges": len(result)}


COUNTS = {
    "lz.factorize": _factorize_counts,
    "estimators.estimate_from_lengths": _lengths_counts,
    "directed.extract_dag": _edge_counts,
}


class Tracer:
    """Spans of one process, in start order."""

    def __init__(self, run: str, oracle=None):
        self.run = run
        self.oracle = oracle
        self.spans: list[dict] = []
        self.oracle_mismatches = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.bookkeeping = 0.0
        return local

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        check = self.oracle if name == "lz.factorize" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._state()
            span = {"id": next(self._ids), "parent": local.stack[-1]["id"] if local.stack else None,
                    "run": self.run, "name": name}
            local.stack.append(span)
            kept = local.bookkeeping
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
            b0 = time.perf_counter()
            span.update(start=start, end=end, net=end - start - (local.bookkeeping - kept))
            if counts:
                span.update(counts(args, kwargs, result))
            if check and check(*args, **kwargs) != result:
                self.oracle_mismatches += 1
            self.spans.append(span)
            local.bookkeeping += time.perf_counter() - b0
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the ones that no longer exist."""
        missing = []
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, self.wrap(name, fn))
        return missing


def _load_oracle(path: str):
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.naive_factorize


def main(argv: list[str]) -> int:
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1:]
    spans_path, run = head[0], head[1]
    oracle = _load_oracle(head[3]) if head[2:3] == ["--oracle"] else None
    tracer = Tracer(run, oracle)
    missing = tracer.install()
    from salza.cli import main as cli_main

    code = 0
    try:
        cli_main.main(args=cli_args, prog_name="salza")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run": run, "missing": missing, "spans": tracer.spans,
                       "oracle_mismatches": tracer.oracle_mismatches}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
