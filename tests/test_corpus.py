"""Exhaustive corpora: class counts against OEIS, pairwise non-isomorphism,
and the representatives and their order against a brute-force reference
that keys every candidate by its permutation-minimal edge list."""

import itertools
from collections import defaultdict

import pytest

from equilab.common import GraphError
from equilab.corpus import connected_bipartite_graphs, connected_triangle_free_graphs
from equilab.graphs import make_graph

# connected triangle-free graphs on n = 2..6 vertices (OEIS A024607)
TRIANGLE_FREE_COUNTS = {2: 1, 3: 1, 4: 3, 5: 6, 6: 19}
# connected bipartite graphs on n = 2..8 vertices (OEIS A005142)
BIPARTITE_COUNTS = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}


@pytest.fixture(scope="module")
def triangle_free6():
    return connected_triangle_free_graphs(6)


def _by_order(graphs):
    groups = defaultdict(list)
    for g in graphs:
        groups[g.n].append(g)
    return groups


# ---------------------------------------------------------------------------
# brute-force reference: same candidate order, permutation-min class keys

def _connected(n, edges):
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == n


def _permutation_min(n, edges):
    return min(
        sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)
        for p in itertools.permutations(range(n))
    )


def _first_of_each_class(candidates):
    keys = set()
    out = []
    for n, edges in candidates:
        key = (n, tuple(_permutation_min(n, edges)))
        if key not in keys:
            keys.add(key)
            out.append(make_graph(tuple(str(i + 1) for i in range(n)), edges))
    return out


def _subsets(pairs):
    for bits in range(1, 1 << len(pairs)):
        yield [p for i, p in enumerate(pairs) if bits >> i & 1]


def reference_triangle_free(max_n):
    def candidates():
        for n in range(2, max_n + 1):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for edges in _subsets(pairs):
                es = set(edges)
                if any((a, b) in es and (a, c) in es and (b, c) in es
                       for a, b, c in itertools.combinations(range(n), 3)):
                    continue
                if _connected(n, edges):
                    yield n, edges
    return _first_of_each_class(candidates())


def reference_bipartite(max_n):
    def candidates():
        for n in range(2, max_n + 1):
            for a in range(1, n // 2 + 1):
                pairs = [(i, a + j) for i in range(a) for j in range(n - a)]
                for edges in _subsets(pairs):
                    if _connected(n, edges):
                        yield n, edges
    return _first_of_each_class(candidates())


# ---------------------------------------------------------------------------

def test_triangle_free_counts(triangle_free6):
    counts = {n: len(gs) for n, gs in _by_order(triangle_free6).items()}
    assert counts == TRIANGLE_FREE_COUNTS


def test_bipartite_counts(bipartite8):
    counts = {n: len(gs) for n, gs in _by_order(bipartite8).items()}
    assert counts == BIPARTITE_COUNTS


@pytest.mark.parametrize("corpus", ["triangle_free6", "bipartite8"])
def test_pairwise_non_isomorphic(corpus, request):
    nx = pytest.importorskip("networkx")
    for graphs in _by_order(request.getfixturevalue(corpus)).values():
        nxs = [nx.Graph(list(g.edges)) for g in graphs]
        for g, h in itertools.combinations(nxs, 2):
            assert not nx.is_isomorphic(g, h)


def test_triangle_free_order_matches_reference(triangle_free_corpus):
    assert triangle_free_corpus == reference_triangle_free(5)


def test_bipartite_order_matches_reference(small_bipartite_corpus):
    assert small_bipartite_corpus == reference_bipartite(6)


def test_generators_keep_their_caps():
    with pytest.raises(GraphError):
        connected_bipartite_graphs(10)
    with pytest.raises(GraphError):
        connected_triangle_free_graphs(8)
