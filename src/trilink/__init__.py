"""Pairwise link prediction: given an edge, rank the nodes most likely to
form a triangle with it.

Predictors: pair-seeded PageRank, triangle-reinforced PageRank (plain and
weight-balanced), endpoint combinations of single-seed PageRank, and
edge-generalized local similarity scores. Evaluation harnesses cover random
holdout, temporal, and triangles-out splits with success-probability and AUC
metrics, plus neighborhood-seeded standard link prediction.
"""

from .diffusion import (
    DiffusionParams,
    SeedVector,
    make_seed,
    pagerank,
    pagerank_many,
    pair_seeded_pagerank,
    rank_stability,
    seed_columns,
    single_seeded_pagerank,
    top_k_indices,
    trpr,
    trpr_iterates,
)
from .experiments import (
    DEFAULT_LINKPRED_METHODS,
    DEFAULT_PAIRWISE_METHODS,
    EvalPolicy,
    LinkpredResult,
    PairwiseResult,
    SplitDataset,
    TrialReport,
    auc,
    candidate_nodes,
    ground_truth,
    run_pairwise_experiment,
    run_standard_linkpred,
    split_holdout,
    split_loeto,
    split_temporal,
    success_probability,
    write_linkpred_reports,
    write_pairwise_reports,
)
from .generators import GpaParams, generate_gpa
from .graph import (
    DataError,
    EdgeList,
    Graph,
    ParseError,
    build_graph,
    edge_neighborhood,
    largest_connected_component,
    load_edge_list,
    to_edge_list,
    write_edge_list,
)
from .local import score_all_nodes
from .triangles import (
    TriangleSet,
    enumerate_triangles,
    reinforced_matrix_apply,
    tensor_bilinear,
    tensor_row_sums,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DiffusionParams",
    "DEFAULT_LINKPRED_METHODS",
    "DEFAULT_PAIRWISE_METHODS",
    "EdgeList",
    "EvalPolicy",
    "GpaParams",
    "Graph",
    "LinkpredResult",
    "PairwiseResult",
    "ParseError",
    "SeedVector",
    "SplitDataset",
    "TriangleSet",
    "TrialReport",
    "auc",
    "build_graph",
    "candidate_nodes",
    "edge_neighborhood",
    "enumerate_triangles",
    "generate_gpa",
    "ground_truth",
    "largest_connected_component",
    "load_edge_list",
    "make_seed",
    "pagerank",
    "pagerank_many",
    "pair_seeded_pagerank",
    "rank_stability",
    "reinforced_matrix_apply",
    "run_pairwise_experiment",
    "run_standard_linkpred",
    "score_all_nodes",
    "seed_columns",
    "single_seeded_pagerank",
    "split_holdout",
    "split_loeto",
    "split_temporal",
    "success_probability",
    "tensor_bilinear",
    "tensor_row_sums",
    "to_edge_list",
    "top_k_indices",
    "trpr",
    "trpr_iterates",
    "write_edge_list",
    "write_linkpred_reports",
    "write_pairwise_reports",
]
