import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from equilab.common import Budget, GraphError
from equilab.graphs import adjacency_masks, generate, make_graph
from equilab.transforms import (
    _neighbor_degree_key,
    check_isomorphism,
    co_line,
    disjoint_union,
    is_isomorphic,
)

from conftest import tensor_product
from test_graphs import small_graphs


def reference_is_isomorphic(g, h, budget):
    """The recursive search that is_isomorphic runs with an explicit stack."""
    if g.n != h.n or g.m != h.m:
        return None
    profile_g = [_neighbor_degree_key(g, v) for v in range(g.n)]
    profile_h = [_neighbor_degree_key(h, v) for v in range(h.n)]
    if sorted(profile_g) != sorted(profile_h):
        return None
    gm = adjacency_masks(g)
    hm = adjacency_masks(h)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    keys_h = {}
    for v in range(h.n):
        keys_h.setdefault(profile_h[v], []).append(v)
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(i):
        budget.spend()
        if i == g.n:
            return True
        v = order[i]
        for w in keys_h.get(profile_g[v], ()):
            if used[w]:
                continue
            ok = all(mapping[u] < 0 or hm[w] >> mapping[u] & 1 for u in g.adjacency[v])
            if ok:
                ok = not any(not gm[v] >> order[j] & 1 and hm[w] >> mapping[order[j]] & 1
                             for j in range(i))
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return list(mapping) if extend(0) else None


def random_cubic(n, rng):
    """Seeded random 3-regular graph (configuration model with retries)."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(pairs) == 3 * n // 2:
            return make_graph(tuple(str(i) for i in range(n)), sorted(pairs))


class TestCoLine:
    def test_needs_an_edge(self):
        with pytest.raises(GraphError):
            co_line(make_graph(("a", "b"), []))

    @given(small_graphs())
    @settings(max_examples=100, deadline=None)
    def test_vertices_adjacent_iff_edges_disjoint(self, g):
        assume(g.m >= 1)
        lg = co_line(g)
        assert lg.graph.labels == tuple(g.edge_name(i) for i in range(g.m))
        assert lg.edge_of_vertex == tuple(g.edge_labels(i) for i in range(g.m))
        masks = adjacency_masks(lg.graph)
        for i in range(g.m):
            for j in range(g.m):
                disjoint = not set(g.edges[i]) & set(g.edges[j])
                assert bool(masks[i] >> j & 1) == disjoint

    def test_co_line_of_k23_plus(self):
        # 9 edges, so 9 vertices; known from the construction
        cl = co_line(generate("kmn_plus(2,3)")).graph
        assert cl.n == 9


class TestTensorProduct:
    def test_sizes(self):
        g = generate("path(2)")  # K2
        h = generate("cycle(3)")
        t = tensor_product(g, h)
        assert t.n == 6
        assert t.m == 2 * g.m * h.m

    def test_k2_tensor_k2_is_two_k2(self):
        k2 = generate("path(2)")
        t = tensor_product(k2, k2)
        assert t.n == 4 and t.m == 2


class TestDisjointUnion:
    def test_no_collision_keeps_labels(self):
        g = disjoint_union(generate("complete_bipartite(1,1)"), generate("path(2)"))
        assert len(set(g.labels)) == 4

    def test_collision_prefixes(self):
        p = generate("path(2)")
        g = disjoint_union(p, p)
        assert g.labels == ("1:1", "1:2", "2:1", "2:2")


class TestIsomorphism:
    def test_positive_with_mapping_check(self):
        g = generate("cycle(6)")
        h = make_graph(tuple("abcdef"), [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
        mapping = is_isomorphic(g, h)
        assert mapping is not None
        check_isomorphism(g, h, mapping)

    def test_negative_same_degree_sequence(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        c6 = generate("cycle(6)")
        two_k3 = generate("complete(3)+complete(3)")
        assert is_isomorphic(c6, two_k3) is None

    @given(small_graphs(max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_relabeling_detected(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = make_graph(
            tuple(f"v{i}" for i in range(g.n)),
            [(perm[u], perm[v]) for u, v in g.edges],
        )
        mapping = is_isomorphic(g, h)
        assert mapping is not None
        check_isomorphism(g, h, mapping)

    def test_stack_search_matches_recursion(self):
        # cubic pairs share every degree profile, so the search backtracks;
        # same answer, same mapping, one budget step per search node
        rng = random.Random(9)
        pairs = [(generate("cycle(12)"), generate("cycle(6)+cycle(6)"))]
        for n in (8, 10, 12) * 10:
            g = random_cubic(n, rng)
            pairs.append((g, random_cubic(n, rng)))
            perm = list(range(n))
            rng.shuffle(perm)
            pairs.append((g, make_graph(g.labels, [(perm[u], perm[v]) for u, v in g.edges])))
        backtracked = 0
        for g, h in pairs:
            ours, ref = Budget(10**7), Budget(10**7)
            assert is_isomorphic(g, h, ours) == reference_is_isomorphic(g, h, ref)
            assert ours.used == ref.used
            backtracked += ours.used > g.n + 1
        assert backtracked > 10

    def test_long_path_needs_no_recursion(self):
        # 3001 search levels, past Python's default recursion limit of 1000
        g = generate("path(3000)")
        assert is_isomorphic(g, generate("path(3000)")) == list(range(3000))
