import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from equilab.common import Budget, BudgetExhausted, GraphError
from equilab.graphs import (
    _bron_kerbosch,
    Bipartition,
    OddWalkWitness,
    bipartition,
    check_bipartition,
    adjacency_masks,
    check_odd_walk,
    component_count,
    components,
    enumerate_maximal_cliques,
    enumerate_maximal_stable_sets,
    find_edge,
    find_edge_by_name,
    format_edge_list,
    generate,
    graph_from_label_pairs,
    induced_subgraph,
    is_triangle_free,
    make_graph,
    parse_edge_list,
)

from conftest import oracle_maximal_cliques, oracle_maximal_stable_sets, same_labeled_graph


# a reusable strategy for small random graphs
@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return make_graph(tuple(str(i) for i in range(n)), picked)


def reference_bron_kerbosch(nbr, n, budget):
    """The recursive formulation that _bron_kerbosch walks with a stack."""
    out = []
    if n == 0:
        return out

    def expand(r, p, x):
        budget.spend()
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot, best = -1, -1
        mm = p
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            c = (p & nbr[v]).bit_count()
            if c > best:
                pivot, best = v, c
        if pivot < 0:
            return
        ext = p & ~nbr[pivot]
        while ext:
            bit = ext & -ext
            v = bit.bit_length() - 1
            ext &= ext - 1
            expand(r | bit, p & nbr[v], x & nbr[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    return out


class TestConstruction:
    def test_edges_are_canonical(self):
        g = make_graph(("a", "b", "c"), [(2, 0), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2))
        assert g.adjacency == ((1, 2), (0,), (0,))

    @given(small_graphs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_adjacency_ascending_for_any_pair_order(self, g, data):
        # recognize_equistarable_forest relies on ascending adjacency (x < y)
        flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        pairs = [(v, u) if f else (u, v) for (u, v), f in zip(g.edges, flips)]
        pairs = data.draw(st.permutations(pairs + pairs[::-1]))
        nbrs = [set() for _ in range(g.n)]
        for u, v in pairs:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert make_graph(g.labels, pairs).adjacency == tuple(tuple(sorted(s)) for s in nbrs)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            make_graph(("a", "b"), [(0, 0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphError):
            make_graph(("a", "a"), [])

    def test_label_pairs_first_appearance_order(self):
        g = graph_from_label_pairs([("x", "y"), ("y", "z")], extra_vertices=("w",))
        assert g.labels == ("x", "y", "z", "w")
        assert g.degree(3) == 0

    def test_lookup_maps_do_not_keep_graph_alive(self):
        g = generate("cycle(6)")
        assert find_edge(g, 5, 0) == g.edges.index((0, 5))
        assert adjacency_masks(g)[0] == 0b100010
        assert g == generate("cycle(6)")
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None


class TestParsing:
    def test_round_trip(self):
        text = "a b\nb c\nv lonely\n# comment\n\na c\n"
        g = parse_edge_list(text)
        assert g.n == 4 and g.m == 3
        assert same_labeled_graph(g, parse_edge_list(format_edge_list(g)))

    def test_declared_vertex_with_edges_rejected(self):
        # 'v a' declares a isolated; with the edge a-b it could as well be
        # the edge v-a, so the text is refused instead of dropping v
        with pytest.raises(GraphError, match="line 1: 'v a' declares"):
            parse_edge_list("v a\na b\n")
        assert parse_edge_list("v a\nb c\n").n == 3

    def test_label_v_is_reserved(self):
        g = make_graph(("v", "a", "b"), [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="label 'v'"):
            format_edge_list(g)
        for text in ("a v\n", "v v\n"):
            with pytest.raises(GraphError, match="line 1: 'v' is reserved"):
                parse_edge_list(text)

    def test_gallery_round_trip(self):
        for desc in ("cycle(4)", "cycle(6)", "path(5)", "complete_bipartite(3,3)",
                     "complete_bipartite(4,3)", "kmn_plus(2,3)", "petersen",
                     "circulant(11,{1,3})", "graph_h"):
            g = generate(desc)
            assert same_labeled_graph(parse_edge_list(format_edge_list(g)), g), desc

    def test_bad_line_reports_lineno(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("a b\na b c\n")

    def test_self_loop_line(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_edge_list("a a\n")

    def test_edge_name_lookup(self):
        g = parse_edge_list("a b\nb c\n")
        assert find_edge_by_name(g, "b-a") == find_edge_by_name(g, "a-b")
        with pytest.raises(GraphError):
            find_edge_by_name(g, "a-c")

    def test_ambiguous_edge_name_names_both_edges(self):
        g = parse_edge_list("a-b c\na b-c\n")
        with pytest.raises(GraphError, match=r"ambiguous.*'a-b', 'c'.*'a', 'b-c'"):
            find_edge_by_name(g, "a-b-c")
        assert g.edge_labels(find_edge_by_name(g, "c-a-b")) == ("a-b", "c")


class TestComponentsBipartition:
    def test_components_of_union(self):
        g = parse_edge_list("a b\nc d\nv e\n")
        assert components(g) == ((0, 1), (2, 3), (4,))
        assert component_count(g) == 3

    def test_bipartition_of_even_cycle(self):
        b = bipartition(generate("cycle(6)"))
        assert isinstance(b, Bipartition)
        check_bipartition(generate("cycle(6)"), b)

    def test_odd_cycle_witness(self):
        g = generate("cycle(5)")
        w = bipartition(g)
        assert isinstance(w, OddWalkWitness)
        check_odd_walk(g, w)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bipartition_always_verifiable(self, g):
        res = bipartition(g)
        if isinstance(res, Bipartition):
            check_bipartition(g, res)
        else:
            check_odd_walk(g, res)


class TestTriangleFree:
    def test_triangle_witness(self):
        ok, tri = is_triangle_free(generate("complete(4)"))
        assert not ok and len(tri) == 3

    def test_petersen_triangle_free(self):
        assert is_triangle_free(generate("petersen"))[0]

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_witness_is_a_triangle(self, g):
        ok, tri = is_triangle_free(g)
        if not ok:
            a, b, c = tri
            eset = set(g.edges)
            assert {(a, b), (a, c), (b, c)} <= eset


class TestEnumeration:
    @given(small_graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_cliques_match_oracle(self, g):
        assert enumerate_maximal_cliques(g) == oracle_maximal_cliques(g)

    @given(small_graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_stable_sets_match_oracle(self, g):
        assert enumerate_maximal_stable_sets(g) == oracle_maximal_stable_sets(g)

    def test_stable_sets_match_networkx(self):
        nx = pytest.importorskip("networkx")
        g = generate("petersen")
        G = nx.Graph(list(g.edges))
        ours = set(enumerate_maximal_stable_sets(g))
        comp = nx.complement(G)
        theirs = {tuple(sorted(c)) for c in nx.find_cliques(comp)}
        assert ours == theirs

    @given(small_graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_stack_walk_matches_recursion(self, g):
        # same cliques in the same order, one budget step per search node
        full = (1 << g.n) - 1
        masks = list(adjacency_masks(g))
        for nbr in (masks, [full & ~m & ~(1 << v) for v, m in enumerate(masks)]):
            ours, ref = Budget(10**6), Budget(10**6)
            assert _bron_kerbosch(nbr, g.n, ours) == reference_bron_kerbosch(nbr, g.n, ref)
            assert ours.used == ref.used

    def test_deep_stable_sets_need_no_recursion(self):
        # a 1200-vertex stable set is 1201 search levels deep, past
        # Python's default recursion limit of 1000
        assert enumerate_maximal_stable_sets(generate("star(1200)")) == [
            (0,), tuple(range(1, 1201))]
        budget = Budget(3000)
        with pytest.raises(BudgetExhausted):
            enumerate_maximal_stable_sets(generate("path(2400)"), budget)
        assert budget.used == 3001


class TestInducedSubgraph:
    def test_labels_and_edges_survive(self):
        g = generate("cycle(5)")
        sub, old = induced_subgraph(g, {0, 1, 2})
        assert sub.n == 3 and sub.m == 2
        assert tuple(g.labels[v] for v in old) == sub.labels


class TestGallery:
    @pytest.mark.parametrize("text,n,m", [
        ("path(4)", 4, 3),
        ("cycle(6)", 6, 6),
        ("star(5)", 6, 5),
        ("complete(4)", 4, 6),
        ("complete_bipartite(4,3)", 7, 12),
        ("kmn_plus(2,3)", 8, 9),
        ("petersen", 10, 15),
        ("circulant(11,{1,3})", 11, 22),
        ("graph_h", 9, 14),
    ])
    def test_sizes(self, text, n, m):
        g = generate(text)
        assert (g.n, g.m) == (n, m)

    def test_disjoint_union_descriptor(self):
        g = generate("star(3)+cycle(4)")
        assert component_count(g) == 2
        assert g.n == 8 and g.m == 7

    @pytest.mark.parametrize("bad,message", [pytest.param(*case, id=case[0]) for case in [
        ("cycle(2)", "cycle needs n >= 3"),
        ("circulant(6,{0})", "circulant offset 0 outside 1..n/2"),
        ("circulant(6,{4})", "circulant offset 4 outside 1..n/2"),
        ("circulant(6,{1,1})", "duplicate circulant offsets"),
        ("circulant(7,{})", "circulant needs a nonempty connection set"),
        ("circulant(6)", "bad circulant descriptor 'circulant(6)'"),
        ("nonsense(3)", "unknown gallery family 'nonsense'"),
        ("nonsense(x)", "bad arguments in 'nonsense(x)'"),
        ("petersen(2)", "petersen expects 0 integer argument(s)"),
        ("complete_bipartite(4)", "complete_bipartite expects 2 integer argument(s)"),
        ("cycle", "cycle expects 1 integer argument(s)"),
        ("cycle(3,)", "bad arguments in 'cycle(3,)'"),
        ("Cycle(3)", "bad gallery descriptor 'Cycle(3)'"),
        ("star(3)+cycle(2)", "cycle needs n >= 3"),
        # '+' splits only outside parentheses; arguments are ASCII digits
        ("path(+3)", "bad arguments in 'path(+3)'"),
        ("path(1_0)", "bad arguments in 'path(1_0)'"),
        ("path(\u0663)", "bad arguments in 'path(\u0663)'"),
        ("circulant(7,{1,\u0662})", "bad circulant descriptor 'circulant(7,{1,\u0662})'"),
        ("circulant(7,{1 2})", "bad circulant descriptor 'circulant(7,{1 2})'"),
        # an empty '+' part and the bare union name fail, with another message
        ("a+", None),
        ("disjoint_union", None),
    ]])
    def test_bad_descriptors(self, bad, message):
        with pytest.raises(GraphError) as info:
            generate(bad)
        assert message is None or str(info.value) == message

    def test_graph_h_shape(self):
        h = generate("graph_h")
        assert is_triangle_free(h)[0]
        assert min(h.degree(v) for v in range(h.n)) == 3
        # removing the two special edges leaves it bipartite with parts 5/4
        keep = [e for e in h.edges
                if {h.labels[e[0]], h.labels[e[1]]} not in ({"a", "b"}, {"c", "d"})]
        stripped = make_graph(h.labels, keep)
        b = bipartition(stripped)
        assert isinstance(b, Bipartition)
        assert sorted((len(b.side_a), len(b.side_b))) == [4, 5]
