"""Graph operators: co-line graph, disjoint union, and desk-scale
isomorphism testing."""

from __future__ import annotations

from dataclasses import dataclass

from .common import Budget, GraphError, make_budget
from .graphs import Graph, adjacency_masks, make_graph


@dataclass(frozen=True)
class LabeledLineGraph:
    """Line graph (or its complement) whose vertices remember their source edges."""

    graph: Graph
    edge_of_vertex: tuple[tuple[str, str], ...]


def co_line(g: Graph) -> LabeledLineGraph:
    """Complement of the line graph, keeping the edge-of-vertex map.

    Vertex i of the result is edge i of g, labeled by its edge name; two
    vertices are adjacent iff the corresponding edges share no endpoint.
    """
    if g.m < 1:
        raise GraphError("co_line needs at least one edge")
    edges = g.edges
    pairs = [(i, j) for i, (a, b) in enumerate(edges) for j in range(i + 1, g.m)
             if a not in edges[j] and b not in edges[j]]
    labels = tuple(g.edge_name(i) for i in range(g.m))
    return LabeledLineGraph(graph=make_graph(labels, pairs),
                            edge_of_vertex=tuple(g.edge_labels(i) for i in range(g.m)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Side-by-side copies; labels are prefixed only on collision."""
    if set(g.labels) & set(h.labels):
        labels = tuple(f"1:{l}" for l in g.labels) + tuple(f"2:{l}" for l in h.labels)
    else:
        labels = g.labels + h.labels
    pairs = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return make_graph(labels, pairs)


def _neighbor_degree_key(g: Graph, v: int) -> tuple:
    return (g.degree(v), tuple(sorted(g.degree(w) for w in g.adjacency[v])))


def is_isomorphic(g: Graph, h: Graph, budget: Budget | int | None = None):
    """Backtracking isomorphism search with degree-profile pruning.

    Returns a vertex mapping (list: g-id -> h-id) or None.  Raises
    BudgetExhausted when the step budget runs out (indeterminate).
    """
    if g.n != h.n or g.m != h.m:
        return None
    profile_g = [_neighbor_degree_key(g, v) for v in range(g.n)]
    profile_h = [_neighbor_degree_key(h, v) for v in range(h.n)]
    if sorted(profile_g) != sorted(profile_h):
        return None
    budget = make_budget(budget)
    gm = adjacency_masks(g)
    hm = adjacency_masks(h)
    # map rarest degree-profiles first
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    keys_h: dict[tuple, list[int]] = {}
    for v in range(h.n):
        keys_h.setdefault(profile_h[v], []).append(v)
    mapping = [-1] * g.n
    used = [False] * h.n
    # depth-first search without recursion: level i maps order[i], and
    # tried[i] counts the candidates already tried there
    candidates = [keys_h.get(profile_g[v], ()) for v in order]
    tried = [0] * g.n
    i = 0
    budget.spend()
    while i < g.n:
        v = order[i]
        cands = candidates[i]
        while tried[i] < len(cands):
            w = cands[tried[i]]
            tried[i] += 1
            if used[w]:
                continue
            ok = True
            for u in g.adjacency[v]:
                mu = mapping[u]
                if mu >= 0 and not hm[w] >> mu & 1:
                    ok = False
                    break
            if ok:
                # also reject mapped non-neighbors of v that are neighbors of w
                for j in range(i):
                    u = order[j]
                    if not gm[v] >> u & 1 and hm[w] >> mapping[u] & 1:
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                break
        else:
            # every candidate failed: undo the previous level's choice
            tried[i] = 0
            if i == 0:
                return None
            i -= 1
            u = order[i]
            used[mapping[u]] = False
            mapping[u] = -1
            continue
        i += 1
        budget.spend()
    check_isomorphism(g, h, mapping)
    return list(mapping)


def check_isomorphism(g: Graph, h: Graph, mapping) -> None:
    """Assert that `mapping` preserves adjacency both ways."""
    if sorted(mapping) != list(range(h.n)):
        raise AssertionError("mapping is not a bijection")
    hedges = set(h.edges)
    mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges}
    if mapped != hedges:
        raise AssertionError("mapping does not preserve adjacency")
