import sys

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

import equilab.graphs as graphs
from equilab.common import Budget, GraphError
from equilab.graphs import (
    Bipartition,
    bipartition,
    component_count,
    generate,
    make_graph,
)
from equilab.matching import (
    CoverFailure,
    HallViolator,
    InternalMatching,
    Matching,
    _k_matchings,
    check_hall_violator,
    check_internal_matching,
    covered_vertices,
    extend_to_perfect_internal,
    is_k_extendable,
    is_k_internally_extendable,
    plummer_condition,
)
from equilab.recognizers import recognize_equistarable_bipartite


@st.composite
def random_bipartite(draw, max_side=5):
    a = draw(st.integers(min_value=1, max_value=max_side))
    b = draw(st.integers(min_value=1, max_value=max_side))
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                           max_size=len(pairs)))
    g = make_graph(tuple(str(i) for i in range(a + b)), picked)
    return g, Bipartition(side_a=frozenset(range(a)),
                          side_b=frozenset(range(a, a + b)))


@st.composite
def bipartite_with_leaves(draw):
    """Connected random bipartite graph with up to four pendant leaves."""
    g, _ = draw(random_bipartite())
    hosts = draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), max_size=4))
    pairs = list(g.edges) + [(h, g.n + i) for i, h in enumerate(hosts)]
    h = make_graph(tuple(str(i) for i in range(g.n + len(hosts))), pairs)
    assume(all(h.adjacency) and component_count(h) == 1)
    return h


def covers_non_leaves(g, m):
    """Whether g - V(m) has a matching covering every vertex of degree >= 2
    in g, by a maximum-weight matching (networkx) whose edge weight is the
    number of such endpoints."""
    fixed = covered_vertices(g, m)
    need = [v for v in range(g.n) if v not in fixed and g.degree(v) > 1]
    rest = nx.Graph()
    for u, v in g.edges:
        if u not in fixed and v not in fixed:
            rest.add_edge(u, v, weight=(g.degree(u) > 1) + (g.degree(v) > 1))
    best = nx.max_weight_matching(rest)
    return sum(rest[u][v]["weight"] for u, v in best) == len(need)


def reference_internal_extendability(g, k):
    """The sweep's definition, decided by an oracle that shares no code with
    the sweep; `extend_to_perfect_internal` must agree with it on every
    k-matching."""
    any_matching = False
    for m in _k_matchings(g, k):
        any_matching = True
        ok = covers_non_leaves(g, m)
        assert isinstance(extend_to_perfect_internal(g, m), InternalMatching) == ok
        if not ok:
            return False, m
    return (True, None) if any_matching else (False, "no k-matching")


class TestPerfectInternal:
    def test_empty_extends_on_path(self):
        g = generate("path(4)")
        res = extend_to_perfect_internal(g, Matching(frozenset()))
        assert isinstance(res, InternalMatching)
        check_internal_matching(g, res)

    def test_end_edges_strand_p5_middle(self):
        # the two end edges of P5 leave the degree-2 middle vertex stranded
        g = generate("path(5)")
        ends = Matching(frozenset({g.edges.index((0, 1)), g.edges.index((3, 4))}))
        res = extend_to_perfect_internal(g, ends)
        assert isinstance(res, HallViolator)
        check_hall_violator(g, res, within=frozenset({2}))

    def test_nonbipartite_fallback(self):
        g = generate("complete(3)")
        res = extend_to_perfect_internal(g, Matching(frozenset()))
        # K3: one edge covers two vertices, the third has degree 2 > 1
        assert isinstance(res, CoverFailure)

    @given(bipartite_with_leaves())
    @settings(max_examples=60, deadline=None)
    def test_failures_are_one_sided_hall_violators(self, g):
        b = bipartition(g)
        for k in (1, 2):
            for m in _k_matchings(g, k):
                res = extend_to_perfect_internal(g, m)
                if isinstance(res, InternalMatching):
                    check_internal_matching(g, res)
                    assert m.edge_ids <= res.matching.edge_ids
                    continue
                assert isinstance(res, HallViolator)
                check_hall_violator(g, res, within=frozenset(range(g.n)) - covered_vertices(g, m))
                assert res.subset <= b.side_a or res.subset <= b.side_b
                assert all(g.degree(v) >= 2 for v in res.subset)

    def test_long_odd_cycle_search_does_not_recurse(self):
        # the search is about 1000 nodes deep; run at the default limit
        assert sys.getrecursionlimit() <= 1000
        g = generate("cycle(2001)")
        budget = Budget(10**7)
        res = extend_to_perfect_internal(g, Matching(frozenset()), budget)
        assert isinstance(res, CoverFailure)
        assert res.required == frozenset(range(g.n)) and budget.used == 2001
        pendant = make_graph(g.labels + ("leaf",), list(g.edges) + [(0, g.n)])
        res = extend_to_perfect_internal(pendant, Matching(frozenset()))
        assert isinstance(res, InternalMatching)
        check_internal_matching(pendant, res)


class TestExtendability:
    def test_c4_is_two_internally_extendable(self):
        ok, wit = is_k_internally_extendable(generate("cycle(4)"), 2)
        assert ok and wit is None

    def test_c6_fails_with_lex_smallest_witness(self):
        g = generate("cycle(6)")
        ok, wit = is_k_internally_extendable(g, 2)
        assert not ok
        assert sorted(g.edge_name(e) for e in wit.edge_ids) == ["1-2", "4-5"]

    def test_star_has_no_two_matching(self):
        ok, wit = is_k_internally_extendable(generate("star(4)"), 2)
        assert not ok and wit == "no k-matching"

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            is_k_internally_extendable(generate("path(2)+path(2)"), 1)

    def test_sweep_matches_reference_on_corpus(self, bipartite8):
        for g in bipartite8:
            for k in (1, 2):
                assert (is_k_internally_extendable(g, k)
                        == reference_internal_extendability(g, k)), (g.edges, k)

    @given(bipartite_with_leaves())
    @settings(max_examples=80, deadline=None)
    def test_sweep_matches_reference_with_leaves(self, g):
        for k in (1, 2):
            assert is_k_internally_extendable(g, k) == reference_internal_extendability(g, k)

    def test_kmn_plus_witness(self):
        g = generate("kmn_plus(6,6)")
        ok, wit = is_k_internally_extendable(g, 2)
        assert not ok
        assert sorted(g.edge_name(e) for e in wit.edge_ids) == ["a1-b1", "b2-l2"]

    def test_one_extension_per_component(self, monkeypatch):
        # each component is copied once for classification; the sweep itself
        # builds no graph (rebuilding a remainder per 2-matching would call
        # make_graph ~10^3 times here)
        g = generate("complete_bipartite(6,6)+cycle(4)")
        builds = []
        build = graphs.make_graph
        monkeypatch.setattr(graphs, "make_graph",
                            lambda *args: builds.append(args) or build(*args))
        assert recognize_equistarable_bipartite(g).is_yes
        assert len(builds) == 2

    def test_k33_two_extendable(self):
        ok, _ = is_k_extendable(generate("complete_bipartite(3,3)"), 2)
        assert ok

    def test_c11_1_3_not_two_extendable(self):
        ok, wit = is_k_extendable(generate("circulant(11,{1,3})"), 2)
        assert not ok and isinstance(wit, Matching)


class TestPlummer:
    def test_unequal_sides(self):
        g = generate("complete_bipartite(2,3)")
        ok, why = plummer_condition(g, bipartition(g), 1)
        assert not ok and why == "unequal sides"

    def test_k33(self):
        g = generate("complete_bipartite(3,3)")
        assert plummer_condition(g, bipartition(g), 2)[0]

    def test_path_violator(self):
        g = generate("path(6)")
        ok, hv = plummer_condition(g, bipartition(g), 2)
        assert not ok
        assert isinstance(hv, HallViolator)

    def test_agrees_with_direct_check_small(self, small_bipartite_corpus):
        for g in small_bipartite_corpus:
            b = bipartition(g)
            for k in (1, 2):
                if g.n < 2 * k:
                    continue
                ours = is_k_extendable(g, k)[0]
                theirs = plummer_condition(g, b, k)[0]
                assert ours == theirs, (g.edges, k)
