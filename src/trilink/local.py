"""Local similarity scores between nodes, and between a node and an edge.

Node-node scores are the classic neighborhood heuristics (Jaccard,
Adamic-Adar with natural log, degree product). The edge-node variants swap
one neighborhood for the edge neighborhood (union of the endpoints'
neighborhoods minus the endpoints), and MAX/MUL combine the two endpoint
scores instead.

Every score is computed in one place, :func:`_set_scores`, which scores all
nodes at once with sparse products. Each single-node function reads one
entry of such an all-node vector, so a call costs O(n + m); callers that
rank many nodes should use :func:`score_all_nodes`.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, edge_neighborhood

LOCAL_METHODS = ("js", "aa", "pa", "js-max", "js-mul", "aa-max", "aa-mul")


def _check_distinct(w: int, *others: int) -> None:
    if w in others:
        raise ValueError(f"node {w} coincides with a seed endpoint")


def _aa_weights(g: Graph) -> np.ndarray:
    deg = g.degrees.astype(np.float64)
    w = np.zeros_like(deg)
    # 1/log(1) diverges; weight 0 keeps 0 * inf from putting NaN on a
    # degree-1 node's neighbor. A degree-1 node is a common neighbor of no
    # two distinct nodes, so no score loses a term.
    ok = deg >= 2
    w[ok] = 1.0 / np.log(deg[ok])
    return w


def _set_scores(g: Graph, s: np.ndarray, base: str) -> np.ndarray:
    """Score every node's neighborhood against the node set ``s``: Jaccard
    ("js"), Adamic-Adar over the common members ("aa"), or degree * |s|
    ("pa")."""
    deg = g.degrees.astype(np.float64)
    if base == "pa":
        return deg * float(len(s))
    ind = np.zeros(g.n)
    ind[s] = 1.0
    if base == "js":
        inter = g.adjacency @ ind
        union = deg + len(s) - inter
        return np.divide(inter, union, out=np.zeros(g.n), where=union > 0)
    return g.adjacency @ (ind * _aa_weights(g))


def _node_entry(g: Graph, w: int, u: int, base: str) -> float:
    _check_distinct(w, u)
    g._check_node(w)
    return float(_set_scores(g, g.neighbors(u), base)[w])


def _edge_entry(g: Graph, w: int, edge: tuple[int, int], method: str) -> float:
    _check_distinct(w, *edge)
    g._check_node(w)
    return float(score_all_nodes(g, edge, method)[w])


def js_node(g: Graph, w: int, u: int) -> float:
    return _node_entry(g, w, u, "js")


def aa_node(g: Graph, w: int, u: int) -> float:
    return _node_entry(g, w, u, "aa")


def pa_node(g: Graph, w: int, u: int) -> float:
    return _node_entry(g, w, u, "pa")


def js_edge(g: Graph, w: int, edge: tuple[int, int]) -> float:
    return _edge_entry(g, w, edge, "js")


def aa_edge(g: Graph, w: int, edge: tuple[int, int]) -> float:
    return _edge_entry(g, w, edge, "aa")


def pa_edge(g: Graph, w: int, edge: tuple[int, int]) -> float:
    return _edge_entry(g, w, edge, "pa")


def local_combined(g: Graph, w: int, edge: tuple[int, int], base: str, mode: str) -> float:
    """MAX or MUL (``mode``) of the node-node ``base`` score ('js' or 'aa')
    against both endpoints."""
    return _edge_entry(g, w, edge, f"{base}-{mode}")


def score_all_nodes(g: Graph, edge: tuple[int, int], method: str) -> np.ndarray:
    """Score every node against ``edge`` with one local method.

    Entries at the endpoints are -inf so they can never be ranked. The edge
    variants score against the edge neighborhood; MAX/MUL score against each
    endpoint's neighbors and combine the two vectors.
    """
    u, v = edge
    if u == v:
        raise ValueError("seed edge endpoints must be distinct")
    g._check_node(u)
    g._check_node(v)
    method = method.lower()
    if method in ("js", "aa", "pa"):
        vals = _set_scores(g, edge_neighborhood(g, u, v), method)
    elif method in ("js-max", "js-mul", "aa-max", "aa-mul"):
        base, mode = method.split("-")
        a, b = (_set_scores(g, g.neighbors(t), base) for t in (u, v))
        vals = np.maximum(a, b) if mode == "max" else a * b
    else:
        raise ValueError(f"unknown local method {method!r}; expected one of {LOCAL_METHODS}")
    vals[u] = vals[v] = -np.inf
    return vals
