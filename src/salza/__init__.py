"""Lempel-Ziv based algorithmic complexity estimation, clustering, and
causality inference."""

from .cluster import DistanceMatrix, TreeNode, neighbor_joining, to_newick, upgma
from .directed import (
    DirectedInfoMatrix,
    StringSet,
    causal_directed_info,
    directed_info_matrix,
    extract_dag,
    full_directed_info,
    to_dot,
)
from .estimators import (
    AdmissibleFunction,
    Estimate,
    conditional_complexity,
    joint_complexity,
    meaningful_cutoff,
    nsd,
    nsd_matrix,
    sigmoid_function,
    simple_complexity,
    table_function,
    threshold_function,
)
from .lz import Context, Factorization, Mode, Symbol, decode, factorize
from .synth import (
    DagSpec,
    LengthProfileSpec,
    MarkovSpec,
    generate_dag_processes,
    generate_markov,
    length_profile,
)

__all__ = [
    "AdmissibleFunction",
    "Context",
    "DagSpec",
    "DirectedInfoMatrix",
    "DistanceMatrix",
    "Estimate",
    "Factorization",
    "LengthProfileSpec",
    "MarkovSpec",
    "Mode",
    "StringSet",
    "Symbol",
    "TreeNode",
    "causal_directed_info",
    "conditional_complexity",
    "decode",
    "directed_info_matrix",
    "extract_dag",
    "factorize",
    "full_directed_info",
    "generate_dag_processes",
    "generate_markov",
    "joint_complexity",
    "length_profile",
    "meaningful_cutoff",
    "neighbor_joining",
    "nsd",
    "nsd_matrix",
    "sigmoid_function",
    "simple_complexity",
    "table_function",
    "threshold_function",
    "to_dot",
    "to_newick",
    "upgma",
]

__version__ = "0.1.0"
