import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equilab import equicert
from equilab.cli import main
from equilab.common import BudgetExhausted, GraphError, no, yes
from equilab.corpus import connected_triangle_free_graphs
from equilab.equicert import (
    AffineSolutionSpace,
    EmptyPolytope,
    ForcedValueCertificate,
    NotForced,
    OffendingSubset,
    SetSystem,
    StrictPositivityFailure,
    StrongWitness,
    UnitSystemInfeasible,
    WeightFunction,
    _indicator,
    _scan_forced_subsets,
    _support_search,
    _unit_equations,
    analyze_unit_system,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    check_infeasibility,
    check_set_system,
    check_strong_witness,
    decide_equi_exact,
    forced_value,
    solve_unit_system,
    stable_system,
    star_system,
    strong_check,
    verify_weighting,
)
from equilab.exactla import solve_exact
from equilab.graphs import find_edge_by_name, generate, make_graph, parse_edge_list
from equilab.simplex import INFEASIBLE, UNBOUNDED, lp_optimize
from equilab.transforms import co_line, disjoint_union

from conftest import (
    GALLERY,
    count_calls,
    oracle_maximal_stars,
    oracle_unit_subsets,
    random_graph_with_triangle,
    reference_check_set_system,
    reference_coefficients,
)


def edge_ids(g, names):
    return tuple(find_edge_by_name(g, n) for n in names)


def reference_support(s):
    """The per-coordinate support search: a probe LP, then one max-LP per
    element.  Returns (support, center), or None for an empty polytope."""
    m = s.ground_size
    eqs = _unit_equations(s)
    probe = lp_optimize(m, eqs, [Fraction(0)] * m, direction="min")
    if probe.status == INFEASIBLE:
        return None
    support, points = [], []
    for i in range(m):
        res = lp_optimize(m, eqs, _indicator((i,), m), direction="max")
        if res.status == UNBOUNDED:
            support.append(i)
            continue
        points.append(res.solution)
        if res.value > 0:
            support.append(i)
    if not points:
        points.append(probe.solution)
    center = [sum((p[i] for p in points), Fraction(0)) / len(points) for i in range(m)]
    return support, center


def reference_strong_check(s):
    """(support, verdict) of strong_check with its support from
    reference_support; the witness is compared, not re-verified."""
    m = s.ground_size
    found = reference_support(s)
    if found is None:
        return None, no(EmptyPolytope())
    support, center = found
    rows = [_indicator(f, m) for f in s.family]
    rows += [_indicator((i,), m) for i in range(m) if i not in support]
    kernel = solve_exact(rows, [0] * len(rows))[2]
    hit = _scan_forced_subsets(s.family_masks(), kernel, center, at_most=True)
    if hit is None:
        return support, yes({"support": tuple(support), "subsets_checked": (1 << m) - 1})
    return support, no(StrongWitness(target=hit[0], gamma=hit[1]))


def assert_support_matches_reference(s):
    support, verdict = reference_strong_check(s)
    ours = _support_search(s, _unit_equations(s))
    assert (ours is None) == (support is None)
    if ours is not None:
        assert ours[0] == set(support)
    assert strong_check(s) == verdict


class TestSystems:
    def test_k2_star_system(self):
        s = star_system(generate("path(2)"))
        assert s.ground_size == 1
        assert s.family == ((0,),)

    def test_claw_star_system(self):
        s = star_system(generate("star(3)"))
        assert s.family == ((0, 1, 2),)

    def test_k23_plus_has_five_stars(self):
        s = star_system(generate("kmn_plus(2,3)"))
        assert len(s.family) == 5

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            star_system(make_graph(("a", "b", "c"), [(0, 1)]))

    def test_star_family_matches_oracle(self, bipartite8, triangle_free7):
        # a K2 component has two equal stars; a star graph has one maximal star
        extra = [generate(d) for d in GALLERY + ("complete_bipartite(1,1)+path(3)",
                                                 "complete_bipartite(1,4)")]
        for g in bipartite8 + triangle_free7 + extra:
            assert star_system(g).family == tuple(oracle_maximal_stars(g)), g.edges

    def test_stable_system_of_triangle(self):
        s = stable_system(generate("complete(3)"))
        assert s.family == ((0,), (1,), (2,))

    def test_stable_system_edgeless(self):
        s = stable_system(make_graph(("a", "b"), []))
        assert s.family == ((0, 1),)

    def test_co_line_k23_plus_stable_triples(self):
        cl = co_line(generate("kmn_plus(2,3)")).graph
        s = stable_system(cl)
        triples = [f for f in s.family if len(f) == 3]
        assert len(triples) == 5

    def test_check_rejects_non_maximal(self):
        with pytest.raises(AssertionError):
            check_set_system(SetSystem(2, ("x", "y"), ((0,), (0, 1))))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_check_matches_all_pairs_reference(self, data):
        # a random family, members in any element order, with a duplicate,
        # an empty or a nested member injected at a random position
        m = data.draw(st.integers(1, 7))
        member = st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
        family = data.draw(st.lists(member.map(tuple), min_size=1, max_size=8))
        base = data.draw(st.sampled_from(family))
        injected = data.draw(st.sampled_from([
            None, base, (), base[:-1] or None,
            tuple(data.draw(st.permutations(range(m)))),
        ]))
        if injected is not None:
            family.insert(data.draw(st.integers(0, len(family))), injected)
        s = SetSystem(m, tuple(map(str, range(m))), tuple(family))

        def outcome(check):
            try:
                check(s)
            except AssertionError as exc:
                return str(exc)
        assert outcome(check_set_system) == outcome(reference_check_set_system)


class TestUnitSystem:
    def test_k43_infeasible(self):
        res = solve_unit_system(star_system(generate("complete_bipartite(4,3)")))
        assert isinstance(res, UnitSystemInfeasible)

    def test_c4_space(self):
        res = solve_unit_system(star_system(generate("cycle(4)")))
        assert isinstance(res, AffineSolutionSpace)
        assert len(res.kernel_basis) == 1
        k = res.kernel_basis[0]
        assert sorted(k) == [Fraction(-1), Fraction(-1), Fraction(1), Fraction(1)]

    def test_k2_unique(self):
        res = solve_unit_system(star_system(generate("path(2)")))
        assert res.particular == (Fraction(1),)
        assert res.kernel_basis == ()

    def test_infeasibility_checker_bites(self):
        s = star_system(generate("cycle(4)"))
        with pytest.raises(AssertionError):
            check_infeasibility(s, UnitSystemInfeasible((Fraction(1),) * len(s.family)))


class TestForcedValue:
    def test_c6_pair_forced_to_one(self):
        g = generate("cycle(6)")
        s = star_system(g)
        cert = forced_value(s, edge_ids(g, ["1-2", "4-5"]))
        assert isinstance(cert, ForcedValueCertificate)
        assert cert.value == 1
        assert sum(cert.coefficients) == 1

    def test_k23_plus_leaf_edges(self):
        g = generate("kmn_plus(2,3)")
        s = star_system(g)
        cert = forced_value(s, edge_ids(g, ["b1-l1", "b2-l2", "b3-l3"]))
        assert cert.value == 1

    def test_c4_opposite_pair_not_forced(self):
        g = generate("cycle(4)")
        s = star_system(g)
        res = forced_value(s, (0, 3))
        assert isinstance(res, NotForced)
        t = sum(res.kernel_direction[i] for i in res.target)
        assert t != 0

    def test_graph_h_special_pair_half(self):
        g = generate("graph_h")
        s = star_system(g)
        cert = forced_value(s, edge_ids(g, ["a-b", "c-d"]))
        assert cert.value == Fraction(1, 2)

    def test_infeasible_system_rejected(self):
        s = star_system(generate("complete_bipartite(4,3)"))
        with pytest.raises(GraphError):
            forced_value(s, (0,))

    def test_coefficients_match_reference_elimination(self, bipartite8):
        # members (a member in the span of earlier ones is the case the
        # dependencies rows exist for), singletons and the scans' subsets
        rng = random.Random(40)
        systems = [star_system(g) for g in bipartite8]
        systems += [stable_system(co_line(g).graph) for g in connected_triangle_free_graphs(6)]
        for _ in range(60):
            g = random_graph_with_triangle(rng.randint(4, 8), 0.4, rng)
            systems += [star_system(g), stable_system(g)]
        compared = dependent = 0
        for s in systems:
            space = solve_unit_system(s)
            if isinstance(space, UnitSystemInfeasible):
                continue
            dependent += bool(space.dependencies)
            targets = set(s.family) | {(i,) for i in range(s.ground_size)}
            for at_most in (False, True):
                found = _scan_forced_subsets(s.family_masks(), space.kernel_basis,
                                             space.particular, at_most)
                if found is not None:
                    targets.add(found[0])
            for t in sorted(targets):
                cert = forced_value(s, t, space)
                if isinstance(cert, ForcedValueCertificate):
                    assert cert.coefficients == reference_coefficients(s, t), (s, t)
                    compared += 1
        assert (compared, dependent) == (2438, 55)

    def test_cycle_120_under_a_second(self):
        g = generate("cycle(120)")
        s = star_system(g)
        start = time.perf_counter()
        cert = forced_value(s, edge_ids(g, ["1-2", "4-5"]))
        assert time.perf_counter() - start < 1.0
        assert cert.value == 1

    def test_forced_value_constant_over_samples(self):
        g = generate("cycle(6)")
        s = star_system(g)
        space = solve_unit_system(s)
        cert = forced_value(s, edge_ids(g, ["1-2", "4-5"]), space)
        rng = random.Random(7)
        for _ in range(20):
            phi = list(space.particular)
            for k in space.kernel_basis:
                r = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                phi = [a + r * b for a, b in zip(phi, k)]
            assert sum(phi[i] for i in cert.target) == cert.value


class TestVerifyWeighting:
    def test_c4_flat_weighting_fails(self):
        g = generate("cycle(4)")
        s = star_system(g)
        v = verify_weighting(s, WeightFunction((Fraction(1, 2),) * 4))
        assert v.is_no
        assert isinstance(v.witness, OffendingSubset)
        # the witness is a pair of opposite (disjoint) edges
        a, b = v.witness.elements
        assert not set(g.edges[a]) & set(g.edges[b])

    def test_c4_good_weighting(self):
        s = star_system(generate("cycle(4)"))
        w = WeightFunction((Fraction(1, 3), Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)))
        assert verify_weighting(s, w).is_yes

    def test_k2(self):
        s = star_system(generate("path(2)"))
        assert verify_weighting(s, WeightFunction((Fraction(1),))).is_yes

    def test_matches_oracle_subsets(self):
        g = generate("path(4)")
        s = star_system(g)
        w = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))
        ones = oracle_unit_subsets(g, w)
        expected = sorted(s.family)
        assert (ones == expected) == verify_weighting(s, WeightFunction(w)).is_yes

    def test_ground_too_big(self):
        # 41 edges: one past the subset join's ceiling
        s = star_system(generate("cycle(41)"))
        with pytest.raises(BudgetExhausted, match="exceeds the subset-join ceiling"):
            verify_weighting(s, WeightFunction((Fraction(1, 2),) * 41))


class TestDecide:
    def test_c4_yes(self):
        v = decide_equi_exact(star_system(generate("cycle(4)")))
        assert v.is_yes
        assert all(w > 0 for w in v.witness.weights)

    def test_c6_no_with_certificate(self):
        g = generate("cycle(6)")
        v = decide_equi_exact(star_system(g))
        assert v.is_no
        cert = v.witness
        assert isinstance(cert, ForcedValueCertificate) and cert.value == 1
        assert sorted(g.edge_name(i) for i in cert.target) == ["1-2", "4-5"]

    def test_k43_no_infeasible(self):
        v = decide_equi_exact(star_system(generate("complete_bipartite(4,3)")))
        assert v.is_no and isinstance(v.witness, UnitSystemInfeasible)

    def test_petersen_induced_three_matching(self):
        g = generate("petersen")
        v = decide_equi_exact(star_system(g))
        assert v.is_no and v.witness.value == 1
        ids = v.witness.target
        assert len(ids) == 3
        verts = {x for i in ids for x in g.edges[i]}
        assert len(verts) == 6
        induced = [e for e in g.edges if set(e) <= verts]
        assert len(induced) == 3  # matching is induced

    @pytest.mark.parametrize("text,max_min", [
        ("1 3\n1 4\n1 5\n2 3\n2 4\n", Fraction(0)),
        ("1 3\n1 4\n1 5\n1 6\n2 3\n2 4\n2 5\n", Fraction(-1)),
    ])
    def test_no_strictly_positive_solution(self, text, max_min):
        # feasible unit equations whose solutions all have a weight <= 0
        v = decide_equi_exact(star_system(parse_edge_list(text)))
        assert v == no(StrictPositivityFailure(max_min_weight=max_min))

    def test_failed_verification_is_an_error(self, monkeypatch):
        # the built weighting is valid by construction: a failed check is a bug
        monkeypatch.setattr(equicert, "verify_weighting", lambda *args: no())
        with pytest.raises(AssertionError, match="fails verification"):
            decide_equi_exact(star_system(generate("cycle(4)")))

    def test_yes_verifies_once(self, monkeypatch, bipartite8, triangle_free7):
        # one built weighting per yes, checked once, on star systems and on
        # the stable systems of co-line graphs of graphs with triangles
        import networkx as nx
        with_triangles = [make_graph(tuple(map(str, h.nodes())), list(h.edges()))
                          for h in nx.graph_atlas_g()[1:]
                          if h.number_of_nodes() <= 6 and nx.is_connected(h)
                          and any(nx.triangles(h).values())]
        systems = [star_system(g) for g in bipartite8 + triangle_free7]
        systems += [stable_system(co_line(g).graph) for g in with_triangles]
        calls = count_calls(monkeypatch, equicert, "verify_weighting")
        yeses = 0
        for s in systems:
            calls[0] = 0
            v = decide_equi_exact(s)
            if v.is_yes:
                yeses += 1
                assert calls[0] == 1, s.family
                assert all(w > 0 for w in v.witness.weights), s.family
            else:
                assert calls[0] == 0, s.family
        assert yeses > 0

    def test_join_ceiling_is_fast(self, capsys):
        # m = 60 is past the subset join's ceiling: unknown, not a 2^30 scan
        t0 = time.perf_counter()
        with pytest.raises(BudgetExhausted, match="subset-join ceiling"):
            decide_equi_exact(star_system(generate("cycle(60)")))
        assert time.perf_counter() - t0 < 1
        t0 = time.perf_counter()
        assert main(["analyze", "gallery:cycle(60)"]) == 3
        assert time.perf_counter() - t0 < 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["properties"]["equistarable"]["value"] == "unknown"

    def test_relabeling_invariance(self):
        g = generate("cycle(6)")
        h = make_graph(tuple("fedcba"), [(5 - u, 5 - v) for u, v in g.edges])
        assert decide_equi_exact(star_system(g)).value == \
            decide_equi_exact(star_system(h)).value


class TestStrong:
    def test_graph_h_half_witness(self):
        g = generate("graph_h")
        s = star_system(g)
        v = strong_check(s)
        assert v.is_no
        w = v.witness
        assert isinstance(w, StrongWitness) and w.gamma == Fraction(1, 2)
        assert sorted(s.element_names[i] for i in w.target) == ["a-b", "c-d"]
        check_strong_witness(s, w)

    def test_c4_yes(self):
        assert strong_check(star_system(generate("cycle(4)"))).is_yes

    def test_k3_stable_yes(self):
        assert strong_check(stable_system(generate("complete(3)"))).is_yes

    def test_k43_empty_polytope(self):
        v = strong_check(star_system(generate("complete_bipartite(4,3)")))
        assert v.is_no and isinstance(v.witness, EmptyPolytope)

    def test_strong_implies_plain(self, small_bipartite_corpus):
        for g in small_bipartite_corpus:
            s = star_system(g)
            if strong_check(s).is_yes:
                assert decide_equi_exact(s).is_yes, g.edges

    def test_ground_limit(self):
        with pytest.raises(BudgetExhausted):
            strong_check(star_system(generate("circulant(11,{1,3})")))

    def test_lp_calls_per_strong_check(self, monkeypatch):
        # all six have a positive max-min weight: that one LP is the whole
        # strong check, witnesses included; the support search took 2-4 LPs
        # plus 2 per witness, one LP per element 17-18
        calls = count_calls(monkeypatch, equicert, "lp_optimize")
        counts = {}
        for desc in ("graph_h", "petersen", "complete_bipartite(4,4)"):
            g = generate(desc)
            for kind, s in (("star", star_system(g)),
                            ("co-line", stable_system(co_line(g).graph))):
                calls[0] = 0
                strong_check(s)
                counts[desc, kind] = calls[0]
        assert counts == {
            ("graph_h", "star"): 1, ("graph_h", "co-line"): 1,
            ("petersen", "star"): 1, ("petersen", "co-line"): 1,
            ("complete_bipartite(4,4)", "star"): 1,
            ("complete_bipartite(4,4)", "co-line"): 1,
        }

    def test_shared_analysis_makes_no_lp_call(self, monkeypatch):
        # graph_h: a positive max-min weight and a witness {a-b, c-d}
        s = star_system(generate("graph_h"))
        analysis = analyze_unit_system(s)
        assert analysis.max_min_weight > 0
        calls = [count_calls(monkeypatch, equicert, name) for name in
                 ("lp_optimize", "_support_search", "check_strong_witness")]
        v = strong_check(s, analysis)
        assert [c[0] for c in calls] == [0, 0, 0]
        assert v.witness == StrongWitness(target=edge_ids(generate("graph_h"), ["a-b", "c-d"]),
                                          gamma=Fraction(1, 2))

    def test_support_search_only_at_max_min_zero(self, monkeypatch, triangle_free7):
        systems = [star_system(g) for g in triangle_free7]
        systems += [stable_system(g) for g in triangle_free7 if g.n <= 6]
        zeros = 0
        for s in systems:
            if s.ground_size > 16:
                continue
            analysis = analyze_unit_system(s)
            search = count_calls(monkeypatch, equicert, "_support_search")
            check = count_calls(monkeypatch, equicert, "check_strong_witness")
            v = strong_check(s, analysis)
            zero = analysis.max_min_weight == 0
            zeros += zero
            assert search[0] == zero
            assert check[0] == (zero and v.is_no)
            monkeypatch.undo()
        assert zeros == 29

    def test_support_matches_reference_on_bipartite8_stars(self, bipartite8):
        for g in bipartite8:
            assert_support_matches_reference(star_system(g))

    def test_support_matches_reference_on_co_line_stable_sets(self):
        for g in connected_triangle_free_graphs(6):
            assert_support_matches_reference(stable_system(co_line(g).graph))

    def test_uncovered_element_is_in_support(self, monkeypatch):
        # element 2 lies in no member, so it is unbounded
        s = SetSystem(3, ("a", "b", "c"), ((0, 1),))
        calls = count_calls(monkeypatch, equicert, "lp_optimize")
        assert _support_search(s, _unit_equations(s))[0] == {0, 1, 2}
        assert calls[0] == 2
        assert_support_matches_reference(s)
        assert strong_check(s) == yes({"support": (0, 1, 2), "subsets_checked": 7})

    def test_empty_family(self):
        # no unit equations: the solution space is all of Q^2, and no subset
        # has to total 1
        s = SetSystem(2, ("a", "b"), ())
        assert solve_unit_system(s).kernel_basis == ((1, 0), (0, 1))
        assert decide_equi_exact(s).is_yes
        assert strong_check(s) == yes({"support": (0, 1), "subsets_checked": 3})

    def test_empty_polytope_from_first_lp(self, monkeypatch):
        # the five members sum to 3 but {0,2,4} + {1,3,5,6} = 2 + x6, so the
        # unit equations force x6 = -1: solvable, but not by x >= 0
        s = SetSystem(7, tuple("abcdefg"),
                      ((0, 1), (2, 3), (4, 5), (0, 2, 4), (1, 3, 5, 6)))
        check_set_system(s)
        assert isinstance(solve_unit_system(s), AffineSolutionSpace)
        calls = count_calls(monkeypatch, equicert, "lp_optimize")
        assert strong_check(s) == no(EmptyPolytope())
        assert calls[0] == 1
        assert_support_matches_reference(s)

    def test_second_round_finds_forced_zeros(self, monkeypatch):
        # x1 = 1/2 is forced, so x3 = 2 x1 - 1 and x5 = 1 - 2 x1 vanish: the
        # first optimizer finds the support, the second LP proves the rest 0
        s = SetSystem(6, tuple("abcdef"),
                      ((0, 1), (1, 2), (0, 2, 3), (0, 4), (1, 4, 5)))
        check_set_system(s)
        calls = count_calls(monkeypatch, equicert, "lp_optimize")
        support, center = _support_search(s, _unit_equations(s))
        assert calls[0] == 2
        assert support == {0, 1, 2, 4}
        assert center == [Fraction(1, 2)] * 3 + [0, Fraction(1, 2), 0]
        assert_support_matches_reference(s)
        v = strong_check(s)
        assert v.witness == StrongWitness(target=(0,), gamma=Fraction(1, 2))

    def test_two_positive_rounds(self, monkeypatch):
        # the first optimizer is a vertex with one positive coordinate
        s = SetSystem(2, ("a", "b"), ((0, 1),))
        calls = count_calls(monkeypatch, equicert, "lp_optimize")
        support, center = _support_search(s, _unit_equations(s))
        assert calls[0] == 2
        assert support == {0, 1} and center == [Fraction(1, 2)] * 2
        assert_support_matches_reference(s)


class TestComponentMonotonicity:
    def test_double_h_fails_despite_parts_passing(self):
        h = generate("graph_h")
        assert decide_equi_exact(star_system(h)).is_yes
        hh = disjoint_union(h, h)
        v = decide_equi_exact(star_system(hh))
        assert v.is_no
        assert isinstance(v.witness, ForcedValueCertificate)
        assert v.witness.value == 1
        assert len(v.witness.target) == 4

    def test_yes_implies_components_yes(self):
        g = generate("cycle(4)+path(4)")
        assert decide_equi_exact(star_system(g)).is_yes
        for part in ("cycle(4)", "path(4)"):
            assert decide_equi_exact(star_system(generate(part))).is_yes


class TestSerialization:
    def test_round_trip(self):
        g = generate("cycle(6)")
        s = star_system(g)
        cert = decide_equi_exact(s).witness
        blob = json.dumps(certificate_to_json(s, cert))
        back = certificate_from_json(s, json.loads(blob))
        assert back == cert
        check_certificate(s, back)

    def test_reversed_edge_names_accepted(self):
        g = generate("cycle(6)")
        s = star_system(g)
        cert = decide_equi_exact(s).witness
        obj = certificate_to_json(s, cert)
        obj["target"] = [f"{b}-{a}" for a, _, b in
                         (t.partition("-") for t in obj["target"])]
        assert certificate_from_json(s, obj) == cert

    def test_vertex_names_are_not_reversed(self):
        # C5 with vertex 1 named 'a-b' and vertex 3 named 'b-a': the
        # certificate's target 'a-b' must stay vertex 1
        g = generate("cycle(5)")
        g = make_graph(("a-b", "2", "b-a", "4", "5"), g.edges)
        s = stable_system(g)
        cert = decide_equi_exact(s).witness
        obj = certificate_to_json(s, cert)
        assert "a-b" in obj["target"] and "b-a" not in obj["target"]
        assert certificate_from_json(s, obj) == cert

    def test_ambiguous_edge_name_rejected(self):
        g = parse_edge_list("a-b c\na b-c\nc x\n")
        s = star_system(g)
        assert s.element_names.count("a-b-c") == 2
        obj = {"type": "forced_value", "coefficients": [],
               "value": {"num": 1, "den": 1}}
        for name in ("a-b-c", "c-a-b", "b-c-a"):
            with pytest.raises(GraphError, match="ambiguous"):
                certificate_from_json(s, dict(obj, target=[name]))
        with pytest.raises(GraphError, match="unknown"):
            certificate_from_json(s, dict(obj, target=["a-x"]))

    def test_tampered_value_rejected(self):
        g = generate("cycle(6)")
        s = star_system(g)
        obj = certificate_to_json(s, decide_equi_exact(s).witness)
        obj["value"] = {"num": 2, "den": 1}
        with pytest.raises(AssertionError):
            certificate_from_json(s, obj)


@given(st.integers(min_value=2, max_value=7))
@settings(max_examples=6, deadline=None)
def test_even_cycles_equistarable_odd_length_pattern(k):
    """C_{2k} is equistarable exactly for 2k = 4 (longer even cycles have a
    forced pair of edges at distance 3)."""
    v = decide_equi_exact(star_system(generate(f"cycle({2 * k})")))
    assert v.is_yes == (k == 2)


def _elements(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _brute_smallest(m, family_masks, accept):
    """Smallest (size, then lexicographic) non-family subset with accept(S)."""
    best = None
    for mask in range(1, 1 << m):
        elems = _elements(mask)
        if mask in family_masks or not accept(elems):
            continue
        if best is None or (len(elems), elems) < (len(best), best):
            best = elems
    return best


_small_fractions = st.builds(Fraction, st.integers(-2, 3), st.sampled_from([1, 2, 3]))


@st.composite
def _subset_problems(draw):
    m = draw(st.integers(1, 10))
    vectors = st.lists(_small_fractions, min_size=m, max_size=m)
    kernel = draw(st.lists(vectors, max_size=3))
    particular = draw(vectors)
    family = draw(st.lists(st.integers(1, (1 << m) - 1), max_size=4))
    return m, kernel, particular, family


@given(_subset_problems())
@settings(max_examples=300, deadline=None)
def test_subset_join_matches_brute_force(problem):
    """All three acceptance tests of the join against a loop over all
    subsets: total 1 (verify_weighting), forced to 1, forced to at most 1.
    Small entries of both signs make ties and cancellations common."""
    m, kernel, particular, family = problem

    def total(elems):
        return sum((particular[i] for i in elems), Fraction(0))

    def forced(elems):
        return all(sum((k[i] for i in elems), Fraction(0)) == 0 for k in kernel)

    for at_most in (False, True):
        want = _brute_smallest(m, set(family), lambda e: forced(e) and (
            total(e) <= 1 if at_most else total(e) == 1))
        got = _scan_forced_subsets(family, kernel, particular, at_most)
        assert got == (None if want is None else (want, total(want)))

    members = tuple(_elements(f) for f in family if total(_elements(f)) == 1)
    s = SetSystem(m, tuple(map(str, range(m))), members)
    verdict = verify_weighting(s, WeightFunction(tuple(particular)))
    want = _brute_smallest(m, set(s.family_masks()), lambda e: total(e) == 1)
    if want is None:
        assert verdict.is_yes
    else:
        assert verdict.witness == OffendingSubset(want, Fraction(1), in_family=False)
