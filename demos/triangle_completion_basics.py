#!/usr/bin/env python3
"""Walk through the core task: given an edge, rank every other node by how
likely it is to close a triangle with that edge.

The running example is a small social network: a couple (two hub nodes who
know each other), six mutual friends, and one outsider who knows all six
friends but neither hub. Intuition says the outsider is the best triangle
candidate for the couple's edge, yet plain degree-style heuristics cannot
see it: the outsider shares no neighbors-of-neighbors shortcut with the
hubs beyond the friend ring.
"""

from trilink import (
    DiffusionParams,
    EdgeList,
    build_graph,
    enumerate_triangles,
    make_seed,
    pair_seeded_pagerank,
    score_all_nodes,
    top_k_indices,
    trpr,
)

# --- build the graph --------------------------------------------------------

edges = [("hub1", "hub2")]
for i in range(1, 7):
    friend = f"friend{i}"
    edges += [("hub1", friend), ("hub2", friend), ("outsider", friend)]

g = build_graph(EdgeList(tuple(edges)))
ix = g.label_index
print(f"graph: {g.n} nodes, {g.m} edges")

ts = enumerate_triangles(g)
print(f"triangles: {ts.count} (all through the hub edge)\n")

u, v = ix["hub1"], ix["hub2"]


def show(name, values, k=4):
    order = top_k_indices(values, g.n)
    ranked = [g.labels[i] for i in order if g.labels[i] not in ("hub1", "hub2")][:k]
    print(f"{name:>22}: " + ", ".join(f"{r}" for r in ranked))


# --- local similarity scores -------------------------------------------------

# Local scores compare a candidate's neighborhood with the edge's
# neighborhood (the union of both endpoints' neighborhoods).
print("top candidates, hubs excluded")
for method in ("js", "aa", "pa", "aa-mul"):
    show(method, score_all_nodes(g, (u, v), method))

# --- diffusion scores ----------------------------------------------------------

params = DiffusionParams(alpha=0.85, iterations=10)

pair = pair_seeded_pagerank(g, u, v, params)
show("pair-seeded pagerank", pair)

# The triangle-reinforced iteration reweights edges by how much triangle
# mass flows over them, so the friend ring amplifies the outsider.
reinforced = trpr(g, ts, make_seed(g, "pair", u, v), params)
show("triangle-reinforced", reinforced)

print("\nreinforced scores:")
for label in ("hub1", "hub2", "outsider", "friend1"):
    print(f"  {label:>9}: {reinforced[ix[label]]:.3f}")

out = reinforced[ix["outsider"]]
friend = reinforced[ix["friend1"]]
print(f"\nthe outsider outranks every friend: {out:.3f} > {friend:.3f}")
assert out > friend

# Mass is conserved: the scores form a probability distribution.
print(f"score mass: {reinforced.sum():.12f}")
