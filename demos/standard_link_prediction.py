#!/usr/bin/env python3
"""Feeding pairwise ideas back into ordinary link prediction.

Classic seeded PageRank predicts a node's future links from a walk teleported
to that single node. If multi-seeding helps triangle prediction, it should
also help here: seed the walk with the node's whole neighborhood instead.
This script compares four neighborhood-seeding strategies against the
single-seed baseline by AUC over held-out edges, for the highest-degree
nodes of a synthetic graph.
"""

import numpy as np

from trilink import GpaParams, generate_gpa, run_standard_linkpred

g = generate_gpa(GpaParams(p_edge=0.65, steps=4000, rng_seed=11))
print(f"graph: {g.n} nodes, {g.m} edges")

result = run_standard_linkpred(
    g,
    test_fraction=0.2,
    num_nodes=100,
    methods=["single", "sum", "max", "star", "trpr"],
    rng_seed=3,
)

meta = result.metadata
print(f"train: {meta['train_nodes']} nodes / {meta['train_edges']} edges, "
      f"{meta['test_edges']} held out, cohort {meta['cohort_size']} "
      f"({meta['nodes_skipped_no_positives']} skipped without test edges)\n")

# method overview:
#   single   teleport to the node alone (the baseline)
#   sum      teleport weights: degree at the node, 1 per neighbor
#            (equivalent to summing the pair-seed solutions of its edges)
#   max      element-wise max over the pair-seed solutions of its edges
#   star     uniform teleport over the closed neighborhood
#   trpr     star seed pushed through the triangle-reinforced iteration

print(f"{'method':>8} {'mean auc':>9} {'delta':>8} {'dist to y=x':>12}")
for row in result.summary:
    print(
        f"{row.method:>8} {row.mean_auc:9.4f} {row.mean_delta_vs_baseline:+8.4f}"
        f" {row.mean_dist_to_diag:+12.4f}"
    )

# A fact worth knowing when reading these numbers: on an undirected graph,
# PageRank from any seed of the form a*e_i + b*sum(e_j, j ~ i) is pointwise
# proportional to the single-seed solution everywhere except i itself.
# (Write x = (1-a)*D*(D-aA)^{-1}*s; symmetry of (D-aA)^{-1} plus its
# resolvent row identity at i gives a constant ratio.) So 'sum' and 'star'
# tie the baseline AUC exactly, and the harness scores both with the node's
# single-seed vector instead of solving their own seeds; only the nonlinear
# methods, 'max' and 'trpr', can actually move a rank-based metric.

wins = {}
base = {r.node: r.auc for r in result.nodes if r.method == "single"}
for r in result.nodes:
    if r.method != "single":
        wins.setdefault(r.method, []).append(r.auc > base[r.node])
print("\nshare of cohort nodes strictly beating the baseline:")
for method, flags in wins.items():
    print(f"  {method:>6}: {np.mean(flags):5.1%}")
