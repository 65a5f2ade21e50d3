import sys

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

import equilab.graphs as graphs
from equilab.common import GraphError
from equilab.graphs import (
    Bipartition,
    bipartition,
    component_count,
    generate,
    make_graph,
)
from equilab.matching import (
    Barrier,
    InternalMatching,
    Matching,
    _k_matchings,
    check_barrier,
    check_internal_matching,
    covered_vertices,
    extend_to_perfect_internal,
    is_k_extendable,
    is_k_internally_extendable,
)
from equilab.recognizers import recognize_equistarable_bipartite

from conftest import HallViolator, check_hall_violator, plummer_condition


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


@st.composite
def odd_cycle_graphs_with_leaves(draw):
    """Connected random non-bipartite graph: an odd cycle, a random tree on
    the other core vertices, random chords, then up to four pendant leaves."""
    n = draw(st.integers(min_value=3, max_value=9))
    c = draw(st.sampled_from([x for x in (3, 5, 7, 9) if x <= n]))
    pairs = [(i, (i + 1) % c) for i in range(c)]
    pairs += [(v, draw(st.integers(min_value=0, max_value=v - 1))) for v in range(c, n)]
    chords = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs += draw(st.lists(st.sampled_from(chords), unique=True, max_size=n))
    hosts = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4))
    pairs += [(h, n + i) for i, h in enumerate(hosts)]
    return make_graph(tuple(str(i) for i in range(n + len(hosts))), pairs)


def covers_non_leaves(g, m, may_skip=True):
    """Whether g - V(m) has a matching covering every vertex of degree >= 2
    in g (every vertex, unless `may_skip`), by a maximum-weight matching
    (networkx) whose edge weight is the number of such endpoints."""
    fixed = covered_vertices(g, m)
    need = {v for v in range(g.n) if v not in fixed and (g.degree(v) > 1 or not may_skip)}
    rest = nx.Graph()
    for u, v in g.edges:
        if u not in fixed and v not in fixed:
            rest.add_edge(u, v, weight=(u in need) + (v in need))
    best = nx.max_weight_matching(rest)
    return sum(rest[u][v]["weight"] for u, v in best) == len(need)


def reference_internal_extendability(g, k, may_skip=True):
    """The sweep's definition, decided by an oracle that shares no code with
    the sweep; `extend_to_perfect_internal` must agree with it on every
    k-matching, and its failures must be checked barriers."""
    any_matching = False
    for m in _k_matchings(g, k):
        any_matching = True
        ok = covers_non_leaves(g, m, may_skip)
        if may_skip:
            res = extend_to_perfect_internal(g, m)
            assert isinstance(res, InternalMatching) == ok
            if not ok:
                check_barrier(g, res, covered_vertices(g, m), True)
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
        assert isinstance(res, Barrier)
        check_barrier(g, res, covered_vertices(g, ends), True)
        check_hall_violator(g, HallViolator(frozenset().union(*res.components), res.inner),
                            within=frozenset({2}))

    def test_nonbipartite_fallback(self):
        g = generate("complete(3)")
        res = extend_to_perfect_internal(g, Matching(frozenset()))
        # K3: one edge covers two vertices, the third has degree 2 > 1; the
        # blossom is the barrier's one odd component
        assert res == Barrier(inner=frozenset(), components=(frozenset({0, 1, 2}),))

    def test_isolated_vertex_is_input_error(self):
        # an isolated vertex can be neither covered nor left as a leaf
        g = make_graph(("a", "b", "c"), [(0, 1)])
        with pytest.raises(GraphError, match="isolated vertex"):
            extend_to_perfect_internal(g, Matching(frozenset()))

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
                assert isinstance(res, Barrier)
                check_barrier(g, res, covered_vertices(g, m), True)
                assert all(len(c) == 1 for c in res.components)
                hv = HallViolator(frozenset().union(*res.components), res.inner)
                check_hall_violator(g, hv, within=frozenset(range(g.n)) - covered_vertices(g, m))
                assert hv.subset <= b.side_a or hv.subset <= b.side_b
                assert all(g.degree(v) >= 2 for v in hv.subset)

    @given(odd_cycle_graphs_with_leaves())
    @settings(max_examples=60, deadline=None)
    def test_nonbipartite_answers_match_oracle(self, g):
        # extend_to_perfect_internal is compared inside the reference
        for k in (1, 2):
            assert is_k_internally_extendable(g, k) == reference_internal_extendability(g, k)
            if g.n >= 2 * k:
                assert (is_k_extendable(g, k)
                        == reference_internal_extendability(g, k, may_skip=False))

    pentagon = generate("cycle(5)")

    @pytest.mark.parametrize("g,w", [
        pytest.param(generate("complete_bipartite(2,3)"),
                     Barrier(frozenset({0, 1}), (frozenset({2}), frozenset({3}))), id="too-few"),
        pytest.param(generate("complete(4)"),
                     Barrier(frozenset(), (frozenset(range(4)),)), id="even"),
        pytest.param(make_graph(pentagon.labels + ("leaf",), list(pentagon.edges) + [(0, 5)]),
                     Barrier(frozenset(), (frozenset(range(5)),)), id="not-closed"),
        pytest.param(generate("path(3)"),
                     Barrier(frozenset({1}), (frozenset({0}), frozenset({2}))), id="leaf"),
    ])
    def test_checker_rejects_mutants(self, g, w):
        with pytest.raises(AssertionError):
            check_barrier(g, w, frozenset(), True)

    def test_checker_accepts_the_unmutated(self):
        k23 = generate("complete_bipartite(2,3)")
        res = extend_to_perfect_internal(k23, Matching(frozenset()))
        assert res == Barrier(frozenset({0, 1}), (frozenset({2}), frozenset({3}), frozenset({4})))
        check_barrier(k23, res, frozenset(), True)
        # path(3) has no perfect matching: its leaves must be covered then
        check_barrier(generate("path(3)"),
                      Barrier(frozenset({1}), (frozenset({0}), frozenset({2}))), frozenset(), False)

    def test_long_odd_cycle_search_does_not_recurse(self):
        # the search is about 1000 nodes deep; run at the default limit
        assert sys.getrecursionlimit() <= 1000
        g = generate("cycle(2001)")
        res = extend_to_perfect_internal(g, Matching(frozenset()))
        assert res == Barrier(inner=frozenset(), components=(frozenset(range(g.n)),))
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

    def test_odd_circulant_is_one_blossom(self):
        # an exhaustive search needs ~10 s here already at n = 55
        g = generate("circulant(201,{1,4})")
        res = extend_to_perfect_internal(g, Matching(frozenset()))
        assert res == Barrier(inner=frozenset(), components=(frozenset(range(g.n)),))
        assert is_k_internally_extendable(g, 2) == (False, next(_k_matchings(g, 2)))


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
