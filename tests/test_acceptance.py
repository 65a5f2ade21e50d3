"""End-to-end acceptance gate.  Each test prints one PASS/FAIL line.

Heavier than the unit tests: exhaustive small-graph sweeps, the full
counterexample gallery with exact certificates, and a timing fit for the
linear-time forest recognizer.
"""

import gc
import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from equilab.common import Verdict
from equilab.corpus import connected_triangle_free_graphs
from equilab.equicert import (
    ForcedValueCertificate,
    StrongWitness,
    UnitSystemInfeasible,
    WeightFunction,
    check_certificate,
    check_strong_witness,
    decide_equi_exact,
    stable_system,
    star_system,
    strong_check,
    verify_weighting,
)
from equilab.graphs import (
    bipartition,
    generate,
    is_triangle_free,
    make_graph,
)
from equilab.matching import (
    Matching,
    _k_matchings,
    extend_to_perfect_internal,
    InternalMatching,
    is_k_extendable,
)
from equilab.recognizers import (
    check_five_path,
    component_classification,
    is_p5_constrained,
    recognize_equistarable_bipartite,
    recognize_equistarable_forest,
)
from equilab.transforms import disjoint_union

from conftest import plummer_condition, random_connected_bipartite


@pytest.fixture(autouse=True)
def _visible_reports(capsys):
    """Let the one-line PASS/FAIL reports through pytest's capture."""
    global _capture
    _capture = capsys
    yield
    _capture = None


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    with _capture.disabled():
        print(f"ACCEPTANCE {num}: {status} {detail}".rstrip())
    assert ok, detail


def test_criterion_1_bipartite_equivalence(bipartite8):
    """recognize / classification / exact decision agree on every connected
    bipartite graph with at most 8 vertices; strong yes implies all yes."""
    t0 = time.time()
    violations = 0
    for g in bipartite8:
        rec = recognize_equistarable_bipartite(g).is_yes
        cls = component_classification(g).all_good
        s = star_system(g)
        exact = decide_equi_exact(s).is_yes
        if not (rec == cls == exact):
            violations += 1
            continue
        if s.ground_size <= 16 and strong_check(s).is_yes and not exact:
            violations += 1
    report(1, violations == 0,
           f"({len(bipartite8)} graphs, {violations} violations, "
           f"{time.time() - t0:.0f}s)")


def _all_forests(max_n):
    """All forests on <= max_n vertices without isolated vertices, up to
    isomorphism, as multisets of nonisomorphic trees."""
    nx = pytest.importorskip("networkx")
    trees = {}  # size -> list of edge lists
    for n in range(2, max_n + 1):
        trees[n] = [list(t.edges()) for t in nx.nonisomorphic_trees(n)]

    parts = [(n, i) for n in sorted(trees) for i in range(len(trees[n]))]

    out = []

    def build(start, left, chosen):
        if chosen:
            edges = []
            offset = 0
            for n, i in chosen:
                edges.extend((u + offset, v + offset) for u, v in trees[n][i])
                offset += n
            out.append(make_graph(tuple(str(v) for v in range(offset)), edges))
        for idx in range(start, len(parts)):
            n, i = parts[idx]
            if n <= left:
                build(idx, left - n, chosen + [(n, i)])

    build(0, max_n, [])
    return out


def _forest_chain_conditions(g):
    s = star_system(g)
    a = component_classification(g).all_good
    b = all(
        isinstance(extend_to_perfect_internal(g, m), InternalMatching)
        for m in _k_matchings(g, 2)
    )
    c = strong_check(s).is_yes
    d = decide_equi_exact(s).is_yes
    fast = recognize_equistarable_forest(g).is_yes
    p5 = is_p5_constrained(g).is_yes
    assert fast == p5
    return (a, b, c, d, fast)


def _fit_exponent(sizes, times):
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def _time_recognizer(graphs, rounds=7):
    """Best per-call CPU time for each graph.  The sizes take turns round by
    round, so that a slow spell of a shared machine hits every size alike
    instead of one end of the fit, and process time leaves out the spells in
    which the process is not scheduled at all.  Small graphs are batched so
    that every trial covers a comparable amount of work."""
    best = [math.inf] * len(graphs)
    for _ in range(rounds):
        for i, g in enumerate(graphs):
            calls = max(1, 2_000_000 // g.n)
            t0 = time.process_time()
            for _ in range(calls):
                recognize_equistarable_forest(g)
            best[i] = min(best[i], (time.process_time() - t0) / calls)
    return best


def test_criterion_2_forest_chain():
    t0 = time.time()
    forests = _all_forests(10)
    bad = 0
    for g in forests:
        conds = _forest_chain_conditions(g)
        if len(set(conds)) != 1:
            bad += 1

    # scaling fit on large paths and three-legged spiders
    def big_path(n):
        return make_graph(tuple(str(i) for i in range(n)),
                          [(i, i + 1) for i in range(n - 1)])

    def big_spider(n):
        leg = (n - 1) // 3
        pairs = []
        v = 1
        for _ in range(3):
            prev = 0
            for _ in range(leg):
                pairs.append((prev, v))
                prev = v
                v += 1
        return make_graph(tuple(str(i) for i in range(v)), pairs)

    sizes = [62_500 * 2 ** k for k in range(5)]  # up to 10^6
    gc.disable()
    try:
        slopes = []
        for build in (big_path, big_spider):
            times = _time_recognizer([build(n) for n in sizes])
            slopes.append(_fit_exponent(sizes, times))
    finally:
        gc.enable()
    linear = all(abs(sl - 1.0) <= 0.1 for sl in slopes)
    report(2, bad == 0 and linear,
           f"({len(forests)} forests, {bad} violations, fitted exponents "
           f"{[round(s, 3) for s in slopes]}, {time.time() - t0:.0f}s)")


def test_criterion_3_gallery_regressions():
    t0 = time.time()
    checks = []

    # K_{4,3}
    g = generate("complete_bipartite(4,3)")
    v = decide_equi_exact(star_system(g))
    checks.append(is_p5_constrained(g).is_yes)
    checks.append(v.is_no and isinstance(v.witness, UnitSystemInfeasible))

    # K_{2,3}^+
    g = generate("kmn_plus(2,3)")
    s = star_system(g)
    v = decide_equi_exact(s)
    checks.append(v.is_no and isinstance(v.witness, ForcedValueCertificate)
                  and v.witness.value == 1)
    checks.append(sorted(s.element_names[i] for i in v.witness.target)
                  == ["b1-l1", "b2-l2", "b3-l3"])
    from equilab.transforms import co_line
    triples = [f for f in stable_system(co_line(g).graph).family if len(f) == 3]
    checks.append(len(triples) == 5)

    # Petersen
    g = generate("petersen")
    s = star_system(g)
    v = decide_equi_exact(s)
    verts = {x for i in v.witness.target for x in g.edges[i]}
    induced = [e for e in g.edges if set(e) <= verts]
    checks.append(is_triangle_free(g)[0] and is_p5_constrained(g).is_yes)
    checks.append(v.is_no and v.witness.value == 1
                  and len(v.witness.target) == 3 and len(induced) == 3)

    # C6 / C4
    g = generate("cycle(6)")
    v = decide_equi_exact(star_system(g))
    checks.append(v.is_no and v.witness.value == 1 and
                  sorted(g.edge_name(i) for i in v.witness.target) == ["1-2", "4-5"])
    s4 = star_system(generate("cycle(4)"))
    v4 = decide_equi_exact(s4)
    checks.append(v4.is_yes and verify_weighting(s4, v4.witness).is_yes)

    # circulant C_11({1,3}) — 22 edges, full 2^22 verification inside decide
    g = generate("circulant(11,{1,3})")
    checks.append(is_triangle_free(g)[0])
    ok2, wit = is_k_extendable(g, 2)
    checks.append(not ok2 and isinstance(wit, Matching) and wit.size == 2)
    s = star_system(g)
    v = decide_equi_exact(s)
    checks.append(v.is_yes and all(w > 0 for w in v.witness.weights))

    report(3, all(checks),
           f"({checks.count(False)} failed checks, {time.time() - t0:.0f}s)")


def test_criterion_4_graph_h_signature():
    t0 = time.time()
    h = generate("graph_h")
    s = star_system(h)
    checks = [is_triangle_free(h)[0]]
    checks.append(decide_equi_exact(s).is_yes)
    v = strong_check(s)
    ok = v.is_no and isinstance(v.witness, StrongWitness)
    if ok:
        ok = v.witness.gamma == Fraction(1, 2) and len(v.witness.target) == 2
        e, f = v.witness.target
        ok = ok and not set(h.edges[e]) & set(h.edges[f])  # a 2-matching
    checks.append(ok)

    hh = disjoint_union(h, h)
    vv = decide_equi_exact(star_system(hh))
    ok = (vv.is_no and isinstance(vv.witness, ForcedValueCertificate)
          and vv.witness.value == 1 and len(vv.witness.target) == 4)
    if ok:
        used = set()
        for i in vv.witness.target:
            u, w = hh.edges[i]
            ok = ok and u not in used and w not in used
            used.update((u, w))
    checks.append(ok)  # a 4-matching
    report(4, all(checks), f"({time.time() - t0:.0f}s)")


def test_criterion_5_crosscheck_harness(capsys):
    from equilab.cli import main

    t0 = time.time()
    code = main(["crosscheck", "--max-n", "6"])
    out = capsys.readouterr().out
    rep = json.loads(out)
    ok = (code == 0 and rep["violations"] == []
          and rep["graphs_checked"] == 30
          and "strong" in rep["rows"])
    report(5, ok, f"({rep['graphs_checked']} graphs, "
                  f"{len(rep['violations'])} violations, {time.time() - t0:.0f}s)")


def test_criterion_6_plummer_cross_validation(bipartite8):
    import random

    t0 = time.time()
    graphs = list(bipartite8)
    rng = random.Random(0)
    for a, b in [(5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 7), (7, 6), (7, 5)]:
        graphs.append(random_connected_bipartite(a, b, rng.uniform(0.3, 0.7), rng))
    bad = 0
    checked = 0
    for g in graphs:
        bp = bipartition(g)
        for k in (1, 2):
            if g.n < 2 * k:
                continue
            checked += 1
            if is_k_extendable(g, k)[0] != plummer_condition(g, bp, k)[0]:
                bad += 1
    report(6, bad == 0,
           f"({len(graphs)} graphs, {checked} checks, {bad} violations, "
           f"{time.time() - t0:.0f}s)")


def test_criterion_7_witness_soundness():
    """Every verdict emitted across a representative sweep carries a witness
    that re-validates under its independent checker."""
    t0 = time.time()
    gallery = [generate(d) for d in (
        "cycle(4)", "cycle(6)", "path(5)", "complete_bipartite(3,3)",
        "complete_bipartite(4,3)", "kmn_plus(2,3)", "petersen", "graph_h",
    )]
    corpus = gallery + connected_triangle_free_graphs(5)
    validated = 0
    for g in corpus:
        s = star_system(g)
        v = decide_equi_exact(s)
        if v.is_yes:
            assert verify_weighting(s, v.witness).is_yes
        elif isinstance(v.witness, ForcedValueCertificate):
            check_certificate(s, v.witness)
        validated += 1
        if s.ground_size <= 16:
            w = strong_check(s)
            if w.is_no and isinstance(w.witness, StrongWitness):
                check_strong_witness(s, w.witness)
            validated += 1
        p5 = is_p5_constrained(g)
        if p5.is_no:
            check_five_path(g, p5.witness)
        validated += 1
        from equilab.graphs import Bipartition

        if isinstance(bipartition(g), Bipartition):
            rec = recognize_equistarable_bipartite(g)
            if rec.is_no:
                # the witness 2-matching really does not extend
                assert not isinstance(
                    extend_to_perfect_internal(g, rec.witness), InternalMatching)
            validated += 1
    report(7, True, f"({validated} witnesses validated, {time.time() - t0:.0f}s)")
