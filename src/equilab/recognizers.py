"""Decision procedures built on the matching and certificate engines:
the degree-2 five-path constraint, equistarable recognition for bipartite
graphs and forests, the triangle condition, general partitions via strong
cliques, the property panel behind `analyze`, and a side-by-side cross-check
harness relating a triangle-free graph with its co-line graph."""

from __future__ import annotations

from dataclasses import dataclass

from . import equicert  # read per call, so patches on equicert reach panel
from .common import (
    Budget,
    BudgetExhausted,
    GraphError,
    Verdict,
    make_budget,
    no,
    unknown,
    yes,
)
from .graphs import (
    Bipartition,
    Graph,
    bipartition as compute_bipartition,
    component_count,
    components,
    enumerate_maximal_cliques,
    enumerate_maximal_stable_sets,
    find_edge,
    induced_subgraph,
    is_triangle_free,
)
from .matching import Matching, is_k_internally_extendable
from .transforms import co_line


# ---------------------------------------------------------------------------
# five-path constraint

@dataclass(frozen=True)
class FivePath:
    """A 5-vertex path (not necessarily induced) whose middle vertex has
    degree exactly 2 in the host graph."""

    vertices: tuple[int, int, int, int, int]


def check_five_path(g: Graph, w: FivePath) -> None:
    vs = w.vertices
    if len(set(vs)) != 5:
        raise AssertionError("five-path vertices not distinct")
    for a, b in zip(vs, vs[1:]):
        if find_edge(g, a, b, missing_ok=True) is None:
            raise AssertionError("five-path is not a path")
    if g.degree(vs[2]) != 2:
        raise AssertionError("middle vertex does not have degree 2")


def is_p5_constrained(g: Graph) -> Verdict:
    """yes iff no 5-vertex path in g has a degree-2 middle vertex.

    Only degree-2 vertices can sit in the middle; with neighbors x and y,
    vertex v violates iff distinct v1 in N(x)-{v,y} and v5 in N(y)-{v,x}
    can be picked.
    """
    checked = []
    for v in range(g.n):
        if g.degree(v) != 2:
            continue
        x, y = sorted(g.adjacency[v])
        a = [w for w in sorted(g.adjacency[x]) if w not in (v, y)]
        b = [w for w in sorted(g.adjacency[y]) if w not in (v, x)]
        for v1 in a:
            for v5 in b:
                if v1 != v5:
                    witness = FivePath(vertices=(v1, x, v, y, v5))
                    check_five_path(g, witness)
                    return no(witness)
        checked.append(v)
    return yes({"degree_two_vertices_checked": tuple(checked)})


# ---------------------------------------------------------------------------
# component classification

STAR = "star"
TWO_INTERNALLY_EXTENDABLE = "two_internally_extendable"
NEITHER = "neither"


@dataclass(frozen=True)
class ComponentTag:
    kind: str
    vertices: tuple[int, ...]
    witness: object = None


@dataclass(frozen=True)
class ComponentClassification:
    tags: tuple[ComponentTag, ...]

    @property
    def all_good(self) -> bool:
        return all(t.kind != NEITHER for t in self.tags)


def _is_star(g: Graph) -> bool:
    return g.m == g.n - 1 and max(g.degree(v) for v in range(g.n)) == g.n - 1


def component_classification(g: Graph) -> ComponentClassification:
    """Tag each component as a star, 2-internally extendable, or neither
    (with a non-extendable 2-matching as witness, in host edge ids)."""
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise GraphError("isolated vertex")
    tags = []
    comps = components(g)
    for comp in comps:
        if len(comps) == 1:  # a connected graph is its own component: no copy
            sub, old_ids = g, tuple(range(g.n))
        else:
            sub, old_ids = induced_subgraph(g, comp)
        if _is_star(sub):
            tags.append(ComponentTag(kind=STAR, vertices=tuple(old_ids)))
            continue
        ok, wit = is_k_internally_extendable(sub, 2)
        if ok:
            tags.append(ComponentTag(kind=TWO_INTERNALLY_EXTENDABLE, vertices=tuple(old_ids)))
        else:
            if isinstance(wit, Matching):
                wit = Matching(frozenset(
                    find_edge(g, old_ids[sub.edges[eid][0]], old_ids[sub.edges[eid][1]])
                    for eid in wit.edge_ids
                ))
            tags.append(ComponentTag(kind=NEITHER, vertices=tuple(old_ids), witness=wit))
    return ComponentClassification(tags=tuple(tags))


# ---------------------------------------------------------------------------
# recognition

def recognize_equistarable_bipartite(g: Graph) -> Verdict:
    """yes iff every component of the bipartite graph g is a star or
    2-internally extendable; witness is the classification (yes) or a
    2-matching that does not extend to a perfect internal matching (no)."""
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise GraphError("isolated vertex")
    b = compute_bipartition(g)
    if not isinstance(b, Bipartition):
        raise GraphError("graph is not bipartite")
    cls = component_classification(g)
    for tag in cls.tags:
        if tag.kind == NEITHER:
            return no(tag.witness)
    return yes(cls)


def recognize_equistarable_forest(g: Graph) -> Verdict:
    """Linear-time recognition on forests: yes iff every degree-2 vertex has
    a leaf neighbor.  Witness: leaf-neighbor table (yes) or a five-path with
    degree-2 middle (no)."""
    adj = g.adjacency
    if not all(adj):
        raise GraphError("isolated vertex")
    if g.m != g.n - component_count(g):
        raise GraphError("graph has a cycle")
    table = []
    for v, nbrs in enumerate(adj):
        if len(nbrs) != 2:
            continue
        # adjacency tuples are sorted, so x < y
        x, y = nbrs
        if len(adj[x]) == 1:
            table.append((v, x))
        elif len(adj[y]) == 1:
            table.append((v, y))
        else:
            v1 = next(w for w in adj[x] if w != v)
            v5 = next(w for w in adj[y] if w != v)
            witness = FivePath(vertices=(v1, x, v, y, v5))
            check_five_path(g, witness)
            return no(witness)
    return yes({"leaf_neighbors": tuple(table)})


# ---------------------------------------------------------------------------
# triangle condition and general partitions

@dataclass(frozen=True)
class TriangleConditionFailure:
    stable_set: tuple[int, ...]
    edge: tuple[int, int]


def triangle_condition(g: Graph, budget: Budget | int | None = None) -> Verdict:
    """For every maximal stable set S and every edge uv disjoint from S,
    some s in S must form a triangle with u and v."""
    budget = make_budget(budget)
    try:
        stables = enumerate_maximal_stable_sets(g, budget)
    except BudgetExhausted as exc:
        return unknown({"budget": str(exc)})
    pairs = 0
    for s in stables:
        sset = set(s)
        for u, v in g.edges:
            if u in sset or v in sset:
                continue
            try:
                budget.spend()
            except BudgetExhausted as exc:
                return unknown({"budget": str(exc)})
            pairs += 1
            adj_u = set(g.adjacency[u])
            adj_v = set(g.adjacency[v])
            if not any(w in adj_u and w in adj_v for w in s):
                return no(TriangleConditionFailure(stable_set=s, edge=(u, v)))
    return yes({"pairs_checked": pairs})


@dataclass(frozen=True)
class StrongCliqueMap:
    """For each edge id, a maximal clique containing it that meets every
    maximal stable set."""

    clique_of_edge: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PartitionFailure:
    """An edge none of whose containing maximal cliques is strong."""

    edge: tuple[int, int]
    cliques_tried: tuple[tuple[int, ...], ...]


def general_partition(g: Graph, budget: Budget | int | None = None) -> Verdict:
    """yes iff every edge lies in a strong clique (a maximal clique that
    intersects every maximal stable set)."""
    budget = make_budget(budget)
    try:
        cliques = enumerate_maximal_cliques(g, budget)
        stables = enumerate_maximal_stable_sets(g, budget)
    except BudgetExhausted as exc:
        return unknown({"budget": str(exc)})
    stable_sets = [set(s) for s in stables]
    chosen = []
    for u, v in g.edges:
        containing = [c for c in cliques if u in c and v in c]
        pick = None
        for c in containing:
            try:
                budget.spend()
            except BudgetExhausted as exc:
                return unknown({"budget": str(exc)})
            cset = set(c)
            if all(cset & s for s in stable_sets):
                pick = c
                break
        if pick is None:
            return no(PartitionFailure(edge=(u, v), cliques_tried=tuple(containing)))
        chosen.append(pick)
    return yes(StrongCliqueMap(clique_of_edge=tuple(chosen)))


def check_strong_clique_map(g: Graph, m: StrongCliqueMap,
                            budget: Budget | int | None = None) -> None:
    stables = [set(s) for s in enumerate_maximal_stable_sets(g, make_budget(budget))]
    for eid, clique in enumerate(m.clique_of_edge):
        cset = set(clique)
        u, v = g.edges[eid]
        if not {u, v} <= cset:
            raise AssertionError("clique does not contain its edge")
        for a in clique:
            for b in clique:
                if a < b and find_edge(g, a, b, missing_ok=True) is None:
                    raise AssertionError("clique is not a clique")
        if not all(cset & s for s in stables):
            raise AssertionError("clique is not strong")


# ---------------------------------------------------------------------------
# property panel

def panel(g: Graph, budget: Budget | int | None = None, strong: bool = False,
          with_co_line: bool = False):
    """Decide p5_constrained, equistarable on g's star system (left out when g
    has an isolated vertex) and, with with_co_line, equistable on the stable
    system of co-line(g) (left out when g has no edges); with strong, also the
    strong variants.  An engine stop (BudgetExhausted from the engine, from
    strong_check's ground limit, or from enumerating the stable system within
    `budget`) becomes unknown(exc).  For a triangle-free g the maximal stable
    sets of co-line(g) are the maximal stars of g: when `SetSystem.same_members`
    holds, the co-line verdicts are the star verdicts themselves.  Each
    system's unit equations are analyzed once, for all of its deciders.

    Returns (verdicts in report order, star system, co-line graph, stable
    system); each of the last three is None where it was not built."""
    verdicts = {"p5_constrained": is_p5_constrained(g)}
    deciders = [("", equicert.decide_equi_exact)]
    if strong:
        deciders.append(("strongly_", equicert.strong_check))

    def settle(side, system):
        analysis = equicert.analyze_unit_system(system)
        for prefix, decide in deciders:
            try:
                verdicts[prefix + side] = decide(system, analysis)
            except BudgetExhausted as exc:
                verdicts[prefix + side] = unknown(exc)

    star = None if any(g.degree(v) == 0 for v in range(g.n)) else equicert.star_system(g)
    if star is not None:
        settle("equistarable", star)
    col = stab = None
    if with_co_line and g.m:
        col = co_line(g).graph
        try:
            stab = equicert.stable_system(col, budget)
        except BudgetExhausted as exc:
            verdicts.update((p + "equistable", unknown(exc)) for p, _ in deciders)
        else:
            if star is not None and stab.same_members(star):
                verdicts.update((p + "equistable", verdicts[p + "equistarable"])
                                for p, _ in deciders)
            else:
                settle("equistable", stab)
    return verdicts, star, col, stab


# ---------------------------------------------------------------------------
# cross-check harness

ROW_PARTITION = "partition"
ROW_STRONG = "strong"
ROW_EQUI = "equi"
ROW_P5 = "p5"
ROWS = (ROW_PARTITION, ROW_STRONG, ROW_EQUI, ROW_P5)


@dataclass(frozen=True)
class RowOutcome:
    left: Verdict
    right: Verdict


@dataclass
class CrosscheckReport:
    rows: dict
    violations: tuple[str, ...] = ()


def crosscheck_table1(g: Graph, budget: Budget | int | None = None) -> CrosscheckReport:
    """Evaluate the four paired properties on a triangle-free graph g (left)
    and on its co-line graph (right), then check the pairwise equivalences
    and the downward implication chain.

    Rows, top to bottom: components all star-or-2-internally-extendable vs
    general partition; strong weighting existence on stars vs stable sets;
    weighting existence on stars vs stable sets; five-path constraint vs
    triangle condition.  Any recorded violation is a genuine bug, a co-line
    side that `panel` did not copy from the star side included.  An engine
    stop in the two weighting rows is raised, except that the strong row is
    left out past strong_check's ground limit.
    """
    tri = is_triangle_free(g)
    if not tri[0]:
        raise GraphError(f"graph has a triangle {tri[1]}")
    if g.m < 1:
        raise GraphError("graph needs at least one edge")
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise GraphError("isolated vertex")
    budget = make_budget(budget)
    v, _, col, _ = panel(g, budget, strong=True, with_co_line=True)
    weighting = {ROW_STRONG: RowOutcome(v["strongly_equistarable"], v["strongly_equistable"]),
                 ROW_EQUI: RowOutcome(v["equistarable"], v["equistable"])}
    if weighting[ROW_STRONG].left.is_unknown:  # past strong_check's ground limit
        del weighting[ROW_STRONG]
    stops = [x.witness for o in weighting.values() for x in (o.left, o.right) if x.is_unknown]
    if stops:
        raise stops[0]

    violations: list[str] = []
    if v["equistable"] is not v["equistarable"]:
        violations.append("star family differs from co-line stable family")

    cls = component_classification(g)
    rows = {ROW_PARTITION: RowOutcome(yes(cls) if cls.all_good else no(cls),
                                      general_partition(col, budget))}
    rows.update(weighting)
    rows[ROW_P5] = RowOutcome(v["p5_constrained"], triangle_condition(col, budget))

    for row, outcome in rows.items():
        lv, rv = outcome.left.value, outcome.right.value
        if "unknown" not in (lv, rv) and lv != rv:
            violations.append(f"row {row}: left {lv} vs right {rv}")

    chain = [rows[r].left.value for r in ROWS if r in rows]
    for upper, lower in zip(chain, chain[1:]):
        if upper == "yes" and lower == "no":
            violations.append("implication chain broken")
            break

    return CrosscheckReport(rows, tuple(violations))
