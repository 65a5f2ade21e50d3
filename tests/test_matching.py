import pytest
from hypothesis import assume, given, settings, strategies as st

import equilab.matching as matching
from equilab.common import GraphError
from equilab.graphs import (
    Bipartition,
    bipartition,
    component_count,
    generate,
    make_graph,
    parse_edge_list,
)
from equilab.matching import (
    CoverFailure,
    HallViolator,
    InternalMatching,
    Matching,
    _k_matchings,
    check_hall_violator,
    check_internal_matching,
    check_matching,
    covered_vertices,
    dm_merge,
    extend_to_perfect_internal,
    is_k_extendable,
    is_k_internally_extendable,
    matching_covering,
    max_matching_bipartite,
    plummer_condition,
    saturating_matching,
)
from equilab.recognizers import recognize_equistarable_bipartite

from conftest import oracle_max_matching_size


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


def reference_internal_extendability(g, k):
    """The sweep's definition: one full extension per k-matching."""
    any_matching = False
    for m in _k_matchings(g, k):
        any_matching = True
        if not isinstance(extend_to_perfect_internal(g, m), InternalMatching):
            return False, m
    return (True, None) if any_matching else (False, "no k-matching")


class TestMaxMatching:
    def test_perfect_on_even_cycle(self):
        g = generate("cycle(8)")
        b = bipartition(g)
        m = max_matching_bipartite(g, b)
        assert m.size == 4

    @given(random_bipartite())
    @settings(max_examples=60, deadline=None)
    def test_size_matches_oracle(self, gb):
        g, b = gb
        m = max_matching_bipartite(g, b)
        check_matching(g, m)
        assert m.size == oracle_max_matching_size(g)

    def test_deterministic(self):
        g = generate("complete_bipartite(3,3)")
        b = bipartition(g)
        assert max_matching_bipartite(g, b) == max_matching_bipartite(g, b)


class TestSaturation:
    def test_saturates_one_side(self):
        g = generate("complete_bipartite(2,4)")
        b = bipartition(g)
        res = saturating_matching(g, b, b.side_a)
        assert isinstance(res, Matching)
        assert b.side_a <= covered_vertices(g, res)

    def test_hall_violator(self):
        # two a-vertices sharing a single neighbor
        g = parse_edge_list("a1 b\na2 b\n")
        b = bipartition(g)
        res = saturating_matching(g, b, {0, 2})
        assert isinstance(res, HallViolator)
        check_hall_violator(g, res)

    def test_rejects_two_sided_targets(self):
        g = generate("path(4)")
        b = bipartition(g)
        with pytest.raises(GraphError):
            saturating_matching(g, b, {0, 1})


class TestMergeAndCovering:
    def test_merge_preserves_required_cover(self):
        g = generate("path(4)")
        b = bipartition(g)
        m_a = saturating_matching(g, b, b.side_a)
        m_b = saturating_matching(g, b, b.side_b)
        merged = dm_merge(g, b, m_a, m_b)
        assert frozenset(range(g.n)) <= covered_vertices(g, merged)

    def test_two_sided_cover_on_path(self):
        # middle vertices of P4: one per side, coverable despite no
        # single-sided saturation of the pair
        g = generate("path(4)")
        b = bipartition(g)
        res = matching_covering(g, b, {1, 2})
        assert isinstance(res, Matching)
        assert {1, 2} <= covered_vertices(g, res)

    @given(random_bipartite())
    @settings(max_examples=40, deadline=None)
    def test_covering_result_checks_out(self, gb):
        g, b = gb
        targets = frozenset(v for v in range(g.n) if g.degree(v) > 0)
        res = matching_covering(g, b, targets)
        if isinstance(res, Matching):
            check_matching(g, res)
            assert targets <= covered_vertices(g, res)
        else:
            check_hall_violator(g, res)


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
        # the sweep repairs one base matching; rebuilding a subgraph and a
        # full matching per 2-matching would call these ~10^3 times here
        calls = {"extend_to_perfect_internal": 0, "induced_subgraph": 0}

        def counted(name):
            fn = getattr(matching, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(matching, name, counted(name))
        g = generate("complete_bipartite(6,6)+cycle(4)")
        assert recognize_equistarable_bipartite(g).is_yes
        assert calls == {"extend_to_perfect_internal": 2, "induced_subgraph": 2}

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
