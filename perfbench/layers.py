"""Per-layer metrics from the spans of one traced pass.

A metric whose spans are absent has value None and is reported as missing,
never as 0.  Durations are span times net of the tracer's bookkeeping; a
self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple

import numpy as np


class Metric(NamedTuple):
    value: float | None
    unit: str
    note: str = ""


def tail(values: list[float]) -> tuple[float, int] | None:
    """Value at the highest whole percentile with at least ten samples beyond it,
    or None when that percentile would not lie above the median."""
    pct = int(100 * (1 - 10 / len(values))) if values else 0
    if pct <= 50:
        return None
    return float(np.percentile(values, pct)), pct


def _latency(values_ms: list[float], name: str) -> dict[str, Metric]:
    n = len(values_ms)
    t = tail(values_ms)
    return {
        f"{name}_p50_ms": Metric(statistics.median(values_ms) if n else None, "ms", f"n={n}"),
        f"{name}_tail_ms": Metric(t[0] if t else None, "ms",
                                  f"p{t[1]}, n={n}" if t else f"n={n}, too few samples"),
    }


class Spans:
    def __init__(self, spans: list[dict]):
        self.by_name: dict[str, list[dict]] = {}
        self.children_net: dict[tuple, float] = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)
            if s["parent"] is not None:
                key = (s["run"], s["parent"])
                self.children_net[key] = self.children_net.get(key, 0.0) + s["net"]

    def get(self, name: str) -> list[dict]:
        return self.by_name.get(name, [])

    def total(self, name: str) -> float | None:
        found = self.get(name)
        return sum(s["net"] for s in found) if found else None

    def count(self, name: str, key: str) -> int | None:
        found = self.get(name)
        return sum(s[key] for s in found) if found else None

    def self_time(self, name: str) -> float | None:
        found = self.get(name)
        if not found:
            return None
        return sum(s["net"] - self.children_net.get((s["run"], s["id"]), 0.0) for s in found)

    def under(self, name: str, parent: str) -> list[dict]:
        """Spans of name whose direct parent is a span of parent."""
        ids = {(s["run"], s["id"]) for s in self.get(parent)}
        return [s for s in self.get(name) if (s["run"], s["parent"]) in ids]


def lz_metrics(sp: Spans, scaling: tuple[list[dict], list[dict]] | None) -> dict[str, Metric]:
    calls = sp.get("lz.factorize")
    busy = sp.total("lz.factorize")
    m = {"lz.factorize_s": Metric(busy, "s")}
    for mode in sorted({s["mode"] for s in calls}):
        m[f"lz.factorize_s.{mode}"] = Metric(sum(s["net"] for s in calls if s["mode"] == mode), "s")
    nbytes, symbols, literals = (sp.count("lz.factorize", k) for k in ("target_bytes", "symbols", "literals"))
    refs = symbols - literals if calls else 0
    m["lz.calls"] = Metric(len(calls) or None, "count")
    m["lz.target_bytes"] = Metric(nbytes, "B")
    m["lz.symbols"] = Metric(symbols, "count")
    m["lz.literals"] = Metric(literals, "count")
    m["lz.mean_ref_len"] = Metric((nbytes - literals) / refs if refs else None, "B")
    m["lz.MBps"] = Metric(nbytes / busy / 1e6 if busy else None, "MB/s", "target bytes per busy second")
    m.update(_latency([s["net"] * 1e3 for s in calls], "lz.call"))
    m["lz.region_bytes"] = Metric(sp.count("lz.factorize", "region_bytes"), "B",
                                  "computed: sum of Context.region_length over calls")
    # A region scan is one (target, region) pair in one call; sharing is only
    # possible within one process, so distinct pairs are counted per run.
    scans = sum(len(s["regions"]) for s in calls)
    per_run: dict[str, set] = {}
    for s in calls:
        per_run.setdefault(s["run"], set()).update(s["regions"])
    distinct = sum(len(r) for r in per_run.values())
    m["lz.region_scans"] = Metric(scans or None, "count")
    m["lz.distinct_regions"] = Metric(distinct or None, "count")
    m["lz.region_reuse"] = Metric(distinct / scans if scans else None, "ratio", "distinct / scans")
    if scaling is not None:
        small, large = scaling
        exp = None
        if small and large:
            per_call = statistics.fmean(s["net"] for s in large) / statistics.fmean(s["net"] for s in small)
            grow = statistics.fmean(s["target_bytes"] for s in large) / statistics.fmean(
                s["target_bytes"] for s in small)
            exp = math.log(per_call, grow)
        m["lz.scaling_exp"] = Metric(exp, "exp", "log of per-call busy-time ratio over log of size ratio")
    return m


def estimator_metrics(sp: Spans, runs_nsd: bool) -> dict[str, Metric]:
    m = {
        "estimators.cutoff_s": Metric(sp.total("estimators.meaningful_cutoff"), "s"),
        "estimators.estimate_s": Metric(sp.total("estimators.estimate_from_lengths"), "s"),
        "estimators.weighted_lengths": Metric(sp.count("estimators.estimate_from_lengths", "lengths"), "count"),
        "estimators.self_s": Metric(sp.self_time("estimators.conditional_complexity"), "s",
                                    "conditional_complexity minus its children"),
    }
    if runs_nsd:
        m.update(_latency([s["net"] * 1e3 for s in sp.get("estimators.nsd")], "estimators.cell"))
    return m


def directed_metrics(sp: Spans) -> dict[str, Metric]:
    matrix = "directed.directed_info_matrix"
    terms = sp.under("estimators.conditional_complexity", matrix)
    nested = {(s["run"], s["id"]) for s in sp.under("directed.extract_dag", "directed.to_dot")}
    extract = sp.get("directed.to_dot") + [
        s for s in sp.get("directed.extract_dag") if (s["run"], s["id"]) not in nested]
    return {
        "directed.matrix_s": Metric(sp.total(matrix), "s"),
        "directed.terms": Metric(len(terms) or None, "count"),
        "directed.self_s": Metric(sp.self_time(matrix), "s", "directed_info_matrix minus its terms"),
        "directed.extract_s": Metric(sum(s["net"] for s in extract) if extract else None, "s",
                                     "extract_dag and to_dot"),
        "directed.edges": Metric(sp.count("directed.extract_dag", "edges"), "count"),
    }


def cluster_metrics(sp: Spans) -> dict[str, Metric]:
    return {
        "cluster.nj_s": Metric(sp.total("cluster.neighbor_joining"), "s"),
        "cluster.upgma_s": Metric(sp.total("cluster.upgma"), "s"),
        "cluster.newick_s": Metric(sp.total("cluster.to_newick"), "s"),
    }


def layer_metrics(wl, spans: list[dict], runs: dict, timed: list[dict[str, float]],
                  traced_wall: float, untraced_wall: float, synth_s: float) -> dict[str, Metric]:
    """All per-layer metrics of a workload.  runs maps each span run id to its
    command; timed holds the untraced wall seconds per command key of each pass."""
    sp = Spans(spans)
    keys = {c.key for c in wl.commands}
    m = {
        "synth.generate_s": Metric(synth_s, "s", "preparation, in no end-to-end metric"),
        "trace.overhead_ratio": Metric(traced_wall / untraced_wall, "ratio",
                                       "traced pass at --threads 1 over the untraced median"),
        "cli.read_corpus_s": Metric(sp.total("cli.read_corpus"), "s"),
    }
    for key in sorted(keys):
        m[f"cli.{key}_s"] = Metric(statistics.median(p[key] for p in timed), "s", "untraced median")
    scaling = None
    if wl.scaling:
        calls = sp.get("lz.factorize")
        scaling = tuple([s for s in calls if runs[s["run"]].tag == tag] for tag in wl.scaling)
    m.update(lz_metrics(sp, scaling))
    m.update(estimator_metrics(sp, "nsd" in keys))
    if "causality" in keys:
        m.update(directed_metrics(sp))
    if keys & {"cluster_nj", "cluster_upgma"}:
        m.update(cluster_metrics(sp))
        m["tsv.read_matrix_s"] = Metric(sp.total("tsv.read_matrix"), "s")
    m["tsv.write_matrix_s"] = Metric(sp.total("tsv.write_matrix"), "s")
    if "factorize" in keys:
        m["tsv.symbols_tsv_s"] = Metric(sp.total("tsv.symbols_tsv"), "s")
    return m
