"""Lempel-Ziv based algorithmic complexity estimation, clustering, and
causality inference.

The public names are imported from their modules on first access (PEP 562),
so `import salza` loads no numpy; the CLI relies on this to choose how numpy
starts (see cli.py).
"""

import importlib

_HOMES = {
    "cluster": ("DistanceMatrix", "TreeNode", "neighbor_joining", "to_newick", "upgma"),
    "directed": ("DirectedInfoMatrix", "StringSet", "causal_directed_info", "directed_info_matrix",
                 "extract_dag", "full_directed_info", "to_dot"),
    "estimators": ("AdmissibleFunction", "Estimate", "conditional_complexity", "joint_complexity",
                   "meaningful_cutoff", "nsd", "nsd_matrix", "sigmoid_function",
                   "simple_complexity", "table_function", "threshold_function"),
    "lz": ("Context", "Factorization", "Symbol", "decode", "factorize"),
    "params": ("Mode",),
    "synth": ("DagSpec", "LengthProfileSpec", "MarkovSpec", "generate_dag_processes",
              "generate_markov", "length_profile"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
