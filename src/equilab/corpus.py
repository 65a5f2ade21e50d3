"""Test corpora: exhaustive enumeration of small connected bipartite and
triangle-free graphs up to isomorphism, plus seeded random samplers for
spot checks at sizes where exhaustion is hopeless.

Isomorph rejection buckets candidates by a cheap invariant and runs the
exact backtracking test only against the representatives in the same
bucket (the first step of McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998)."""

from __future__ import annotations

import random

from .common import GraphError
from .graphs import Graph, make_graph
from .transforms import is_isomorphic


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def _is_connected(n: int, edges) -> bool:
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _refinement_key(g: Graph) -> tuple:
    """Isomorphism invariant: n, m and the sorted vertex signatures of two
    rounds of colour refinement.  A vertex's signature is its colour followed
    by the sorted colours of its neighbours; colours start as degrees and are
    then relabelled to the ranks of the signatures, so the key is built from
    ints alone and does not depend on hash randomisation."""
    colours = [g.degree(v) for v in range(g.n)]
    key: list = [g.n, g.m]
    for _ in range(2):
        sigs = [
            (colours[v],) + tuple(sorted(colours[w] for w in g.adjacency[v]))
            for v in range(g.n)
        ]
        key.append(tuple(sorted(sigs)))
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colours = [rank[s] for s in sigs]
    return tuple(key)


def _is_new_class(g: Graph, buckets: dict[tuple, list[Graph]]) -> bool:
    """Record g as the representative of its isomorphism class unless an
    isomorphic graph is already among the representatives in its bucket."""
    reps = buckets.setdefault(_refinement_key(g), [])
    if any(is_isomorphic(g, h) is not None for h in reps):
        return False
    reps.append(g)
    return True


# ---------------------------------------------------------------------------
# connected bipartite graphs up to isomorphism

def connected_bipartite_graphs(max_n: int):
    """All connected bipartite graphs on 2..max_n vertices without isolated
    vertices, one per isomorphism class: the first candidate of each class
    in enumeration order.  Desk scale: max_n <= 8."""
    if max_n > 9:
        raise GraphError("exhaustive bipartite enumeration capped at 9 vertices")
    out = []
    buckets: dict[tuple, list[Graph]] = {}
    for n in range(2, max_n + 1):
        labels = _default_labels(n)
        for a in range(1, n // 2 + 1):
            b = n - a
            pairs = [(i, a + j) for i in range(a) for j in range(b)]
            for bits in range(1, 1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                if not _is_connected(n, edges):
                    continue
                g = make_graph(labels, edges)
                if _is_new_class(g, buckets):
                    out.append(g)
    return out


# ---------------------------------------------------------------------------
# connected triangle-free graphs up to isomorphism

def connected_triangle_free_graphs(max_n: int):
    """All connected triangle-free graphs on 2..max_n vertices, one per
    isomorphism class: the first candidate of each class in enumeration
    order.  Desk scale: max_n <= 7."""
    if max_n > 7:
        raise GraphError("exhaustive triangle-free enumeration capped at 7 vertices")
    out = []
    buckets: dict[tuple, list[Graph]] = {}
    for n in range(2, max_n + 1):
        labels = _default_labels(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1, 1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            adj = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            if any(adj[u] & adj[v] for u, v in edges):
                continue
            if not _is_connected(n, edges):
                continue
            g = make_graph(labels, edges)
            if _is_new_class(g, buckets):
                out.append(g)
    return out


# ---------------------------------------------------------------------------
# seeded random samplers

def random_connected_triangle_free(n: int, p: float, rng: random.Random) -> Graph:
    """Random triangle-free connected graph: random insertion order, keep an
    edge when it closes no triangle; connect leftovers the same way."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [set() for _ in range(n)]
    edges = []

    def try_add(u, v) -> bool:
        if v in adj[u] or adj[u] & adj[v]:
            return False
        if rng.random() >= p:
            return False
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
        return True

    for u, v in pairs:
        try_add(u, v)
    attempts = 0
    while not _is_connected(n, edges) or any(not a for a in adj):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            if v in adj[min(u, v)] or adj[u] & adj[v]:
                attempts += 1
                if attempts > 100 * n * n:
                    raise GraphError("sampler failed to connect a triangle-free graph")
                continue
            adj[min(u, v)].add(max(u, v))
            adj[max(u, v)].add(min(u, v))
            edges.append((min(u, v), max(u, v)))
    return make_graph(_default_labels(n), sorted(set(edges)))
