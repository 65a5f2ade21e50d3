import dataclasses
import random

import pytest

from equilab import equicert, recognizers
from equilab.common import BudgetExhausted, GraphError
from equilab.corpus import random_connected_triangle_free
from equilab.equicert import decide_equi_exact, stable_system, star_system
from equilab.graphs import generate, graph_from_label_pairs, make_graph, parse_edge_list
from equilab.matching import Matching
from equilab.recognizers import (
    NEITHER,
    ROW_EQUI,
    ROW_STRONG,
    STAR,
    TWO_INTERNALLY_EXTENDABLE,
    FivePath,
    check_five_path,
    check_strong_clique_map,
    component_classification,
    crosscheck_table1,
    general_partition,
    is_p5_constrained,
    panel,
    recognize_equistarable_bipartite,
    recognize_equistarable_forest,
    triangle_condition,
)
from equilab.transforms import co_line

from conftest import count_calls


def spider(legs: int, leg_len: int):
    """Star center '0' with `legs` paths of `leg_len` extra vertices each."""
    pairs = []
    v = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            pairs.append((str(prev), str(v)))
            prev = v
            v += 1
    return graph_from_label_pairs(pairs)


class TestP5Constrained:
    def test_p5_itself(self):
        v = is_p5_constrained(generate("path(5)"))
        assert v.is_no
        check_five_path(generate("path(5)"), v.witness)

    def test_petersen(self):
        assert is_p5_constrained(generate("petersen")).is_yes

    def test_k43(self):
        assert is_p5_constrained(generate("complete_bipartite(4,3)")).is_yes

    def test_non_induced_path_counts(self):
        # degree-2 vertex inside a cycle with pendant paths both sides
        g = generate("cycle(3)")
        assert is_p5_constrained(g).is_yes
        long = generate("cycle(8)")
        v = is_p5_constrained(long)
        assert v.is_no and isinstance(v.witness, FivePath)

    def test_singleton_neighborhood_edge_case(self):
        # bull-free shape: x and y share their only other neighbor
        g = graph_from_label_pairs([
            ("x", "v"), ("v", "y"), ("x", "z"), ("y", "z"), ("z", "t"), ("t", "x"), ("t", "y"),
        ])
        # v has degree 2; N(x)\{v,y} = {z,t}, N(y)\{v,x} = {z,t} -> pick distinct
        assert is_p5_constrained(g).is_no


class TestComponentClassification:
    def test_star_union_cycle(self):
        g = generate("star(5)+cycle(4)")
        tags = component_classification(g).tags
        assert [t.kind for t in tags] == [STAR, TWO_INTERNALLY_EXTENDABLE]

    def test_c6_neither_with_witness(self):
        g = generate("cycle(6)")
        tags = component_classification(g).tags
        assert tags[0].kind == NEITHER
        wit = tags[0].witness
        assert isinstance(wit, Matching)
        assert sorted(g.edge_name(e) for e in wit.edge_ids) == ["1-2", "4-5"]

    def test_k2_is_star(self):
        tags = component_classification(generate("path(2)")).tags
        assert [t.kind for t in tags] == [STAR]

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            component_classification(make_graph(("a", "b", "c"), [(0, 1)]))

    def test_connected_graph_not_copied(self, monkeypatch):
        # a connected graph is classified in place; inside a union the same
        # component is classified from an induced copy, with the same tag
        calls = []
        copy = recognizers.induced_subgraph
        monkeypatch.setattr(recognizers, "induced_subgraph",
                            lambda *args: calls.append(args) or copy(*args))
        for name in ("cycle(6)", "complete_bipartite(3,3)", "kmn_plus(2,3)"):
            tags = component_classification(generate(name)).tags
            assert calls == []
            union_tags = component_classification(generate(f"{name}+path(2)")).tags
            assert len(calls) == 2
            assert union_tags[:1] == tags
            calls.clear()


class TestRecognizeBipartite:
    def test_k43_no(self):
        assert recognize_equistarable_bipartite(generate("complete_bipartite(4,3)")).is_no

    def test_c4_yes(self):
        assert recognize_equistarable_bipartite(generate("cycle(4)")).is_yes

    def test_k23_plus_no(self):
        v = recognize_equistarable_bipartite(generate("kmn_plus(2,3)"))
        assert v.is_no and isinstance(v.witness, Matching)

    def test_non_bipartite_rejected(self):
        with pytest.raises(GraphError):
            recognize_equistarable_bipartite(generate("cycle(5)"))

    def test_agrees_with_exact_decision(self, small_bipartite_corpus):
        for g in small_bipartite_corpus:
            rec = recognize_equistarable_bipartite(g).is_yes
            exact = decide_equi_exact(star_system(g)).is_yes
            assert rec == exact, g.edges


class TestRecognizeForest:
    def test_p4_yes(self):
        assert recognize_equistarable_forest(generate("path(4)")).is_yes

    def test_p5_no(self):
        v = recognize_equistarable_forest(generate("path(5)"))
        assert v.is_no
        check_five_path(generate("path(5)"), v.witness)

    def test_spider_legs_two_yes(self):
        # each middle-of-leg vertex has its leaf as neighbor
        assert recognize_equistarable_forest(spider(3, 2)).is_yes

    def test_spider_legs_three_no(self):
        assert recognize_equistarable_forest(spider(3, 3)).is_no

    def test_cycle_rejected(self):
        with pytest.raises(GraphError):
            recognize_equistarable_forest(generate("cycle(4)"))

    def test_agrees_with_bipartite_recognizer_on_trees(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 9):
            for t in nx.nonisomorphic_trees(n):
                g = make_graph(tuple(str(v) for v in range(n)), list(t.edges()))
                fast = recognize_equistarable_forest(g).is_yes
                slow = recognize_equistarable_bipartite(g).is_yes
                p5 = is_p5_constrained(g).is_yes
                assert fast == slow == p5, g.edges


class TestTriangleCondition:
    def test_k3(self):
        assert triangle_condition(generate("complete(3)")).is_yes

    def test_co_line_p5_no(self):
        assert triangle_condition(co_line(generate("path(5)")).graph).is_no

    def test_co_line_k43_yes(self):
        assert triangle_condition(co_line(generate("complete_bipartite(4,3)")).graph).is_yes

    def test_matches_p5_on_corpus(self, triangle_free_corpus):
        for g in triangle_free_corpus:
            want = is_p5_constrained(g).is_yes
            got = triangle_condition(co_line(g).graph).is_yes
            assert want == got, g.edges


class TestGeneralPartition:
    def test_k3(self):
        v = general_partition(generate("complete(3)"))
        assert v.is_yes
        check_strong_clique_map(generate("complete(3)"), v.witness)

    def test_co_line_c6_no(self):
        assert general_partition(co_line(generate("cycle(6)")).graph).is_no

    def test_co_line_c4_yes(self):
        assert general_partition(co_line(generate("cycle(4)")).graph).is_yes

    def test_matches_classification_on_corpus(self, triangle_free_corpus):
        for g in triangle_free_corpus:
            want = component_classification(g).all_good
            got = general_partition(co_line(g).graph).is_yes
            assert want == got, g.edges


class TestPanel:
    def count_engine_calls(self, monkeypatch):
        return (count_calls(monkeypatch, equicert, "decide_equi_exact"),
                count_calls(monkeypatch, equicert, "strong_check"))

    def test_triangle_free_runs_the_engine_once(self, monkeypatch):
        decide, strong = self.count_engine_calls(monkeypatch)
        verdicts, star, col, stab = panel(generate("cycle(6)"), strong=True,
                                          with_co_line=True)
        assert (decide[0], strong[0]) == (1, 1)
        assert list(verdicts) == ["p5_constrained", "equistarable", "strongly_equistarable",
                                  "equistable", "strongly_equistable"]
        assert verdicts["equistable"] is verdicts["equistarable"]
        assert verdicts["strongly_equistable"] is verdicts["strongly_equistarable"]
        assert stab.same_members(star) and col.n == 6

    def test_triangle_decides_the_co_line_on_its_own(self, monkeypatch):
        decide, strong = self.count_engine_calls(monkeypatch)
        verdicts, _, _, _ = panel(parse_edge_list("a b\nb c\nc a\nc d\n"),
                                  strong=True, with_co_line=True)
        assert (decide[0], strong[0]) == (2, 2)
        assert verdicts["equistable"] is not verdicts["equistarable"]
        assert verdicts["strongly_equistable"] is not verdicts["strongly_equistarable"]

    def test_isolated_vertex_has_no_star_side(self, monkeypatch):
        decide, strong = self.count_engine_calls(monkeypatch)
        verdicts, star, _, _ = panel(parse_edge_list("a b\nb c\nv d\n"),
                                     strong=True, with_co_line=True)
        assert star is None
        assert (decide[0], strong[0]) == (1, 1)
        assert list(verdicts) == ["p5_constrained", "equistable", "strongly_equistable"]

    def test_budget_stop_in_stable_system_is_not_copied(self, monkeypatch):
        decide, strong = self.count_engine_calls(monkeypatch)
        verdicts, _, col, stab = panel(generate("cycle(6)"), budget=1, strong=True,
                                       with_co_line=True)
        assert (decide[0], strong[0]) == (1, 1)
        assert stab is None and col is not None
        assert verdicts["equistarable"].is_no and verdicts["strongly_equistarable"].is_no
        for key in ("equistable", "strongly_equistable"):
            assert verdicts[key].is_unknown
            assert isinstance(verdicts[key].witness, BudgetExhausted)

    def test_strong_limit_leaves_equistable_decided(self):
        # 17 edges: past strong_check's ground limit, within the engine's
        verdicts, _, _, _ = panel(generate("cycle(17)"), strong=True, with_co_line=True)
        assert verdicts["equistable"].is_no
        assert verdicts["strongly_equistable"].is_unknown
        assert "strong-check limit" in str(verdicts["strongly_equistable"].witness)


class TestCrosscheck:
    def test_p5_all_no(self):
        rep = crosscheck_table1(generate("path(5)"))
        assert not rep.violations
        assert all(o.left.value == o.right.value == "no" for o in rep.rows.values())

    def test_k33_all_yes(self):
        rep = crosscheck_table1(generate("complete_bipartite(3,3)"))
        assert not rep.violations
        assert all(o.left.value == o.right.value == "yes" for o in rep.rows.values())

    def test_graph_h_split_rows(self):
        rep = crosscheck_table1(generate("graph_h"))
        assert not rep.violations
        values = {row: o.left.value for row, o in rep.rows.items()}
        assert values == {"partition": "no", "strong": "no",
                          "equi": "yes", "p5": "yes"}

    def test_triangle_rejected(self):
        with pytest.raises(GraphError):
            crosscheck_table1(generate("complete(3)"))

    def test_strong_row_left_out_past_strong_limit(self):
        rep = crosscheck_table1(generate("cycle(17)"))
        assert not rep.violations
        assert set(rep.rows) == {"partition", "equi", "p5"}

    def test_corpus_clean(self, triangle_free_corpus):
        for g in triangle_free_corpus:
            rep = crosscheck_table1(g)
            assert not rep.violations, g.edges

    def test_co_line_stable_system_is_star_system(self, triangle_free7, bipartite8):
        # exact equality, family order included: the harness reuses the star
        # verdicts for the co-line side only under it
        rng = random.Random(7)
        randoms = [random_connected_triangle_free(rng.randint(7, 9), 0.25, rng)
                   for _ in range(50)]
        for g in triangle_free7 + bipartite8 + randoms:
            star, stab = star_system(g), stable_system(co_line(g).graph)
            assert stab.family == star.family, g.edges
            assert stab.element_names == star.element_names, g.edges
            assert stab.same_members(star)

    def test_lp_calls_on_seeded_corpus(self, monkeypatch):
        # one max-min LP per star system, plus the support search and the
        # witness LPs where the max-min weight is 0; re-deriving the support
        # and re-proving every witness by LPs took 106 calls here
        rng = random.Random(40)
        graphs = [random_connected_triangle_free(rng.randint(6, 8), 0.3, rng)
                  for _ in range(20)]
        calls = count_calls(monkeypatch, equicert, "lp_optimize")
        for g in graphs:
            assert not crosscheck_table1(g).violations
        assert calls[0] == 35

    def test_co_line_side_reuses_star_verdicts(self, monkeypatch):
        decide = count_calls(monkeypatch, equicert, "decide_equi_exact")
        strong = count_calls(monkeypatch, equicert, "strong_check")
        rep = crosscheck_table1(generate("graph_h"))
        assert (decide[0], strong[0]) == (1, 1)
        assert not rep.violations
        for row in (ROW_STRONG, ROW_EQUI):
            assert rep.rows[row].right is rep.rows[row].left

    def test_reordered_stable_family_is_violation(self, monkeypatch):
        stable = equicert.stable_system

        def reordered(g, budget=None):
            s = stable(g, budget)
            return dataclasses.replace(s, family=s.family[::-1])
        monkeypatch.setattr(equicert, "stable_system", reordered)
        decide = count_calls(monkeypatch, equicert, "decide_equi_exact")
        strong = count_calls(monkeypatch, equicert, "strong_check")
        rep = crosscheck_table1(generate("graph_h"))
        assert rep.violations == ("star family differs from co-line stable family",)
        assert (decide[0], strong[0]) == (2, 2)
        for row in (ROW_STRONG, ROW_EQUI):
            outcome = rep.rows[row]
            assert outcome.right is not outcome.left
            assert outcome.right.value == outcome.left.value
