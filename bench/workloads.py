"""The benchmark's four workloads.

Each workload turns a seed into inputs (this is part of the timed set-up) and
returns the fixed list of operations that one pass runs.  An operation's
`run` is the timed call and returns (context, output): the output is what
the program answered, the context what checking it needs besides (the parsed
graph, or None).  `check(context, output)` runs afterwards, outside the timed
region, and returns (status, detail):

- OK: the output is right and every witness re-checks;
- FAILED: no usable answer: an exception, an unexpected exit code, or
  `unknown` where the reference is decided (or a decided verdict whose
  witness has no checker where the reference is `unknown`);
- WRONG: an answer that is wrong: a verdict that contradicts the reference,
  a witness that fails its checker, or a cross-check violation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from reference import (
    CERTIFY, CORPUS_GRAPHS, CORPUS_ROWS, FROZEN_GAMMA, FROZEN_TARGETS,
    GALLERY, PETERSEN_INDUCED_MATCHING, PLAIN, PROBE, STRONG, UNKNOWN, VERDICTS,
)

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    kind: str
    label: str
    graphs: int
    run: Callable[[], object]
    check: Callable[[object], tuple]


class Wrong(Exception):
    """An output that contradicts the reference or fails its checker."""


class Failed(Exception):
    """An output that carries no usable answer."""


def checked(fn):
    """Turn Wrong/Failed/AssertionError raised by a check into a status."""
    def check(context, output):
        try:
            fn(context, output)
        except Failed as exc:
            return FAILED, str(exc)
        except (Wrong, AssertionError, KeyError, ValueError, TypeError) as exc:
            return WRONG, f"{type(exc).__name__}: {exc}"
        return OK, ""
    return check


def _cli(eq, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = eq.cli.main(argv)
    return None, (code, out.getvalue())


def _fraction(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


# ---------------------------------------------------------------------------
# witness re-checks from the CLI's JSON, with the library's public checkers

class Context:
    """A checked graph, its co-line graph and both set systems, built on
    first use, outside the timed region."""

    def __init__(self, eq, g):
        self.eq, self.g = eq, g

    @functools.cached_property
    def col(self):
        return self.eq.transforms.co_line(self.g).graph

    @functools.cached_property
    def star(self):
        return self.eq.equicert.star_system(self.g)

    @functools.cached_property
    def stab(self):
        return self.eq.equicert.stable_system(self.col)


def _element_ids(system, names):
    pos = {name: i for i, name in enumerate(system.element_names)}
    return tuple(sorted(pos[name] for name in names))


def _vertex_ids(g, labels):
    pos = {lab: i for i, lab in enumerate(g.labels)}
    return tuple(pos[lab] for lab in labels)


def check_witness(eq, ctx, prop, value, w) -> bool:
    """Re-check one property's witness.  Returns False when the witness type
    has no checker; raises Wrong/AssertionError when a check fails."""
    ec = eq.equicert
    system = ctx.stab if prop.endswith("equistable") else ctx.star
    kind = (w or {}).get("type")
    if kind == "weighting":
        phi = ec.WeightFunction(tuple(_fraction(q) for q in w["weights"]))
        if not ec.verify_weighting(system, phi).is_yes:
            raise Wrong(f"{prop}: weighting fails exhaustive verification")
    elif kind == "forced_value":
        target = _element_ids(system, w["target"])
        coeffs = [Fraction(0)] * len(system.family)
        for entry in w["coefficients"]:
            coeffs[entry["member"]] = _fraction(entry)
        cert = ec.ForcedValueCertificate(target, tuple(coeffs), _fraction(w["value"]))
        ec.check_certificate(system, cert)
        if value == "no" and (cert.value != 1 or target in system.family):
            raise Wrong(f"{prop}: certificate does not force a non-member to 1")
    elif kind == "infeasible_unit_system":
        combo = tuple(_fraction(q) for q in w["combination"])
        ec.check_infeasibility(system, ec.UnitSystemInfeasible(combo))
    elif kind == "constant_subset":
        target = _element_ids(system, w["target"])
        ec.check_strong_witness(system, ec.StrongWitness(target, _fraction(w["gamma"])))
    elif kind == "five_path":
        eq.recognizers.check_five_path(ctx.g, eq.recognizers.FivePath(_vertex_ids(ctx.g, w["vertices"])))
    elif kind == "strong_clique_map":
        cliques = tuple(_vertex_ids(ctx.col, c) for c in w["cliques"])
        eq.recognizers.check_strong_clique_map(ctx.col, eq.recognizers.StrongCliqueMap(cliques))
    elif kind == "matching":
        eids = frozenset(eq.graphs.find_edge_by_name(ctx.g, name) for name in w["edges"])
        eq.matching.check_matching(ctx.g, eq.matching.Matching(eids))
    else:
        return False
    return True


def frozen_witness_differs(ctx, name, prop, w) -> bool:
    """True when a witness that the acceptance tests freeze has changed.
    Reported as a note: a different witness that re-checks is still right."""
    if name == "petersen" and prop == "equistarable":
        ends = {ctx.g.labels.index(x) for e in w["target"] for x in e.split("-")}
        induced = [e for e in ctx.g.edges if set(e) <= ends]
        return len(w["target"]) != PETERSEN_INDUCED_MATCHING or len(induced) != PETERSEN_INDUCED_MATCHING
    frozen = FROZEN_TARGETS.get((name, prop))
    if frozen is None:
        return False
    gamma = FROZEN_GAMMA.get((name, prop))
    return (frozen != (w["type"], tuple(sorted(w["target"])))
            or (gamma is not None and (w["gamma"]["num"], w["gamma"]["den"]) != gamma))


# ---------------------------------------------------------------------------
# gallery: interactive CLI use on the frozen gallery

def gallery(eq, seed, workdir, notes):
    ops = []
    paths, contexts = {}, {}
    for i, name in enumerate(GALLERY):
        text = eq.graphs.format_edge_list(eq.graphs.generate(name))
        paths[name] = workdir / f"gallery{i}.edges"
        paths[name].write_text(text, encoding="utf-8")
        contexts[name] = Context(eq, eq.graphs.parse_edge_list(text))
        for kind, flags, props in (("analyze", [], PLAIN),
                                   ("analyze_strong", ["--strong", "--with-co-line"], STRONG)):
            argv = ["analyze", str(paths[name]), *flags]
            ops.append(Op(kind, f"{' '.join(argv[:1] + flags)} {name}", 1,
                          lambda argv=argv: _cli(eq, argv),
                          checked(_analyze_check(eq, contexts[name], name, props, notes))))
    for name, target, value in CERTIFY:
        argv = ["certify", str(paths[name]), "--target", target]
        ops.append(Op("certify", f"certify {name} {target}", 1,
                      lambda argv=argv: _cli(eq, argv),
                      checked(_certify_check(eq, contexts[name], target, value))))
    return ops


def _analyze_check(eq, ctx, name, props, notes):
    def check(_, result):
        code, out = result
        report = json.loads(out)["properties"]
        undecided = []
        for prop in props:
            ref = VERDICTS[name][prop]
            entry = report.get(prop, {"value": UNKNOWN})
            value = entry["value"]
            if value == UNKNOWN:
                if ref != UNKNOWN:
                    undecided.append(f"{prop} unknown (reference {ref})")
                continue
            if ref != UNKNOWN and value != ref:
                raise Wrong(f"{prop}: {value}, reference {ref}")
            has_checker = check_witness(eq, ctx, prop, value, entry.get("witness"))
            if ref == UNKNOWN and not has_checker:
                undecided.append(f"{prop} decided {value} without a checkable witness")
            if has_checker and frozen_witness_differs(ctx, name, prop, entry["witness"]):
                notes.add(f"{name} {prop}: witness differs from the frozen one")
        expected = 3 if any(v["value"] == UNKNOWN for v in report.values()) else 0
        if code != expected:
            undecided.append(f"exit code {code}, expected {expected}")
        if undecided:
            raise Failed("; ".join(undecided))
    return check


def _certify_check(eq, ctx, target, value):
    def check(_, result):
        code, out = result
        if code != 0:
            raise Failed(f"exit code {code}")
        cert = json.loads(out)["certificate"]
        if sorted(cert["target"]) != sorted(target.split(",")):
            raise Wrong("certificate for another target")
        if (cert["value"]["num"], cert["value"]["den"]) != value:
            raise Wrong(f"forced value {cert['value']}, reference {value}")
        check_witness(eq, ctx, "equistarable", "no", cert)
    return check


def probe_check(eq, code, out):
    """Status of `analyze gallery:cycle(60)` after it returned in time."""
    name, prop, ref = PROBE

    def check(*_):
        report = json.loads(out)["properties"]
        value = report[prop]["value"]
        if value == UNKNOWN:
            raise Failed(f"{prop} unknown (reference {ref})")
        if value != ref:
            raise Wrong(f"{prop}: {value}, reference {ref}")
        g = eq.graphs.generate(name)
        if not check_witness(eq, Context(eq, g), prop, value, report[prop]["witness"]):
            raise Failed(f"{prop} witness has no checker")
        if code != 0:
            raise Failed(f"exit code {code}")
    return checked(check)(None, None)


# ---------------------------------------------------------------------------
# harness: the Table-1 cross-check on many small random graphs

HARNESS_GRAPHS = 40
# (n, m) shapes cycled through; every shape is connected and triangle-free
HARNESS_SHAPES = [(7, m) for m in (6, 7, 8, 9)] + [(8, m) for m in (7, 8, 9, 10, 11)] \
    + [(9, m) for m in (8, 9, 10, 11, 12)]
# The isomorphism classes come from this fixed generator seed; the workload
# seed relabels the vertices and reorders the edge lines.  With fresh classes
# per seed, the Python calls of one pass ranged over 23.4M-27.7M across eight
# seeds; relabeled fixed classes keep them within 22.6M-23.4M, so runs with
# different seeds measure the same amount of work.
HARNESS_CLASS_SEED = 20150225


def triangle_free_edges(n, m, rng):
    """Random connected triangle-free graph with n vertices and m edges:
    a random spanning tree, then random edges that close no triangle."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        adj = [set() for _ in range(n)]
        edges = []
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]]
        rng.shuffle(pairs)
        for u, v in pairs:
            if len(edges) == m:
                break
            if not adj[u] & adj[v]:
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))
        if len(edges) == m:
            return edges


def relabeled_text(n, edges, rng):
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    lines = [f"{labels[u]} {labels[v]}" if rng.random() < 0.5 else f"{labels[v]} {labels[u]}"
             for u, v in edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def harness(eq, seed, workdir, notes):
    classes = random.Random(HARNESS_CLASS_SEED)
    rng = random.Random(seed)
    ops = []
    for i in range(HARNESS_GRAPHS):
        n, m = HARNESS_SHAPES[i % len(HARNESS_SHAPES)]
        text = relabeled_text(n, triangle_free_edges(n, m, classes), rng)

        def run(text=text):
            g = eq.graphs.parse_edge_list(text)
            return g, eq.recognizers.crosscheck_table1(g)
        ops.append(Op("crosscheck", f"crosscheck n={n} m={m} #{i}", 1, run,
                      checked(_crosscheck_check(eq))))
    return ops


def _crosscheck_check(eq):
    rec, ec = eq.recognizers, eq.equicert

    def check(g, report):
        if report.violations:
            raise Wrong("; ".join(report.violations))
        expected = set(rec.ROWS) - ({rec.ROW_STRONG} if g.m > ec.DEFAULT_STRONG_GROUND_LIMIT else set())
        if set(report.rows) != expected:
            raise Failed(f"rows {sorted(report.rows)}, expected {sorted(expected)}")
        ctx = Context(eq, g)
        for row, outcome in report.rows.items():
            for side, verdict in (("left", outcome.left), ("right", outcome.right)):
                if verdict.is_unknown:
                    raise Failed(f"row {row} {side} unknown")
                _check_verdict_witness(eq, ctx, row, side, verdict)
    return check


def _check_verdict_witness(eq, ctx, row, side, verdict):
    ec, rec, mt = eq.equicert, eq.recognizers, eq.matching
    w = verdict.witness
    system = ctx.star if side == "left" else ctx.stab
    if isinstance(w, ec.WeightFunction):
        if not ec.verify_weighting(system, w).is_yes:
            raise Wrong(f"row {row} {side}: weighting fails verification")
    elif isinstance(w, ec.ForcedValueCertificate):
        ec.check_certificate(system, w)
        if w.value != 1:
            raise Wrong(f"row {row} {side}: certificate forces {w.value}, not 1")
    elif isinstance(w, ec.UnitSystemInfeasible):
        ec.check_infeasibility(system, w)
    elif isinstance(w, ec.StrongWitness):
        ec.check_strong_witness(system, w)
    elif isinstance(w, rec.FivePath):
        rec.check_five_path(ctx.g, w)
    elif isinstance(w, rec.StrongCliqueMap):
        rec.check_strong_clique_map(ctx.col, w)
    elif isinstance(w, rec.ComponentClassification):
        for tag in w.tags:
            if isinstance(tag.witness, mt.Matching):
                mt.check_matching(ctx.g, tag.witness)


# ---------------------------------------------------------------------------
# corpus: `crosscheck --max-n 6`, the call of acceptance criterion 5

def corpus(eq, seed, workdir, notes):
    def check(_, result):
        code, out = result
        report = json.loads(out)
        if report["violations"]:
            raise Wrong(f"{len(report['violations'])} violations")
        if report["graphs_checked"] != CORPUS_GRAPHS:
            raise Wrong(f"{report['graphs_checked']} graphs checked, expected {CORPUS_GRAPHS}")
        if report["rows"] != CORPUS_ROWS:
            raise Wrong(f"row histogram {report['rows']}")
        if code != 0:
            raise Failed(f"exit code {code}")
    argv = ["crosscheck", "--max-n", "6"]
    return [Op("crosscheck_cli", " ".join(argv), CORPUS_GRAPHS,
               lambda: _cli(eq, argv), checked(check))]


# ---------------------------------------------------------------------------
# recognize: the bipartite and forest recognizers on yes and no instances

KNN_SIZES = (10, 12)
SPIDER_LEGS = 100_000            # 2 * 10^5 + 1 vertices, legs of length 2
PATH_LENGTHS = tuple(range(10_000, 34_000, 2_000))
RANDOM_BIPARTITE = 12
RANDOM_SIDE = 9


def spider_text(legs):
    return "".join(f"c u{i}\nu{i} w{i}\n" for i in range(legs))


def path_text(n):
    return "".join(f"p{i} p{i + 1}\n" for i in range(n - 1))


def planted_bipartite(rng, side):
    """Connected random bipartite graph on sides a0.., b0.. where b0 has
    degree 2 (neighbours a0, a1) and a0-b1, a1-b2 are edges, so b1-a0-b0-a1-b2
    is a five-path with a degree-2 middle: the graph is not equistarable.
    Returns (edge-list text, the five-path labels)."""
    planted = [(0, 0), (1, 0), (0, 1), (1, 2)]
    edges = set(planted)
    edges.update((i, j) for i in range(side) for j in range(1, side) if rng.random() < 0.3)
    parent = list(range(2 * side))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for i, j in edges:
        parent[find(i)] = find(side + j)
    while len({find(x) for x in range(2 * side)}) > 1:
        i, j = rng.randrange(side), rng.randrange(1, side)
        if find(i) != find(side + j):
            edges.add((i, j))
            parent[find(i)] = find(side + j)
    rest = sorted(edges - set(planted))
    rng.shuffle(rest)
    text = "".join(f"a{i} b{j}\n" for i, j in planted + rest)
    return text, ("b1", "a0", "b0", "a1", "b2")


def recognize(eq, seed, workdir, notes):
    gen, fmt = eq.graphs.generate, eq.graphs.format_edge_list
    rng = random.Random(seed)
    bip, forest = "bipartite", "forest"
    cases = [(f"K_{{{n},{n}}}", bip, "yes", fmt(gen(f"complete_bipartite({n},{n})")), None)
             for n in KNN_SIZES]
    cases.append((f"spider {SPIDER_LEGS} legs", forest, "yes", spider_text(SPIDER_LEGS), None))
    cases.append(("kmn_plus(6,6)", bip, "no", fmt(gen("kmn_plus(6,6)")), None))
    for i in range(RANDOM_BIPARTITE):
        text, p5 = planted_bipartite(rng, RANDOM_SIDE)
        cases.append((f"random bipartite #{i}", bip, "no", text, p5))
    cases.extend((f"path {n}", forest, "no", path_text(n), None) for n in PATH_LENGTHS)
    ops = []
    for label, family, ref, text, p5 in cases:
        def run(text=text, name=f"recognize_equistarable_{family}"):
            g = eq.graphs.parse_edge_list(text)
            return g, getattr(eq.recognizers, name)(g)
        ops.append(Op(f"{family}_{ref}", label, 1, run,
                      checked(_recognize_check(eq, family, ref, p5))))
    return ops


def _recognize_check(eq, family, ref, p5):
    rec, mt = eq.recognizers, eq.matching

    def check(g, verdict):
        if verdict.is_unknown:
            raise Failed("unknown")
        if verdict.value != ref:
            raise Wrong(f"{verdict.value}, reference {ref}")
        if p5 is not None:  # the reference itself: the planted five-path
            rec.check_five_path(g, rec.FivePath(_vertex_ids(g, p5)))
        w = verdict.witness
        if family == "bipartite" and ref == "no":
            mt.check_matching(g, w)
            if w.size != 2:
                raise Wrong("witness is not a 2-matching")
        elif family == "bipartite":
            seen = sorted(v for tag in w.tags for v in tag.vertices)
            if seen != list(range(g.n)) or not w.all_good:
                raise Wrong("classification does not cover the graph with good components")
        elif ref == "no":
            rec.check_five_path(g, w)
        else:
            table = w["leaf_neighbors"]
            if [v for v, _ in table] != [v for v in range(g.n) if g.degree(v) == 2]:
                raise Wrong("leaf table misses a degree-2 vertex")
            if any(leaf not in g.adjacency[v] or g.degree(leaf) != 1 for v, leaf in table):
                raise Wrong("leaf table names a non-leaf")
    return check


WORKLOADS = {"gallery": gallery, "harness": harness, "corpus": corpus, "recognize": recognize}
