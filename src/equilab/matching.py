"""Matching machinery: maximum bipartite matching, saturating matchings with
Hall-violator witnesses, the alternating-component merge of two matchings,
matchings covering a prescribed vertex set, perfect internal matchings, and
k-/k-internal-extendability for k in {1, 2}.

On a bipartite graph, k-internal extendability is a sweep over one graph: one
base perfect internal matching is computed, and for each k-matching a copy of
it loses the base edges at the k-matching's endpoints and is repaired by at
most 2k alternating paths that avoid those endpoints.  All augmenting and
repairing goes through `_augment`."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .common import Budget, GraphError, make_budget
from .graphs import (
    Bipartition,
    Graph,
    bipartition as compute_bipartition,
    component_count,
    find_edge,
    induced_subgraph,
)


@dataclass(frozen=True)
class Matching:
    edge_ids: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class HallViolator:
    """One-sided set X with |N(X)| too small for the requested saturation."""

    subset: frozenset[int]
    neighborhood: frozenset[int]
    context: str = ""


@dataclass(frozen=True)
class InternalMatching:
    matching: Matching
    uncovered: frozenset[int]


@dataclass(frozen=True)
class CoverFailure:
    """Exhaustive-search evidence: no matching covers `required` in the
    (non-bipartite) remainder graph."""

    required: frozenset[int]
    note: str = ""


def covered_vertices(g: Graph, m: Matching) -> frozenset[int]:
    out: set[int] = set()
    for eid in m.edge_ids:
        out.update(g.edges[eid])
    return frozenset(out)


def check_matching(g: Graph, m: Matching) -> None:
    seen: set[int] = set()
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        if u in seen or v in seen:
            raise AssertionError("matching edges share an endpoint")
        seen.update((u, v))


def check_internal_matching(g: Graph, im: InternalMatching) -> None:
    check_matching(g, im.matching)
    cov = covered_vertices(g, im.matching)
    if im.uncovered != frozenset(range(g.n)) - cov:
        raise AssertionError("uncovered set inconsistent with matching")
    for v in im.uncovered:
        if g.degree(v) != 1:
            raise AssertionError(f"uncovered vertex {v} is not a leaf")


def check_hall_violator(g: Graph, hv: HallViolator, within: frozenset[int] | None = None) -> None:
    """Verify |N(X)| < |X|, neighborhoods taken inside `within` when given."""
    nbh: set[int] = set()
    for v in hv.subset:
        for w in g.adjacency[v]:
            if within is None or w in within:
                nbh.add(w)
    nbh -= set(hv.subset)
    if frozenset(nbh) != hv.neighborhood:
        raise AssertionError("stored neighborhood is wrong")
    if len(nbh) >= len(hv.subset):
        raise AssertionError("not a Hall violator")


# ---------------------------------------------------------------------------
# augmenting-path machinery (bipartite)

def _augment(g: Graph, match: list[int], start: int,
             avoid: frozenset[int] = frozenset(), leaf_ends: bool = False) -> bool:
    """One BFS-layered alternating-path search from the exposed vertex
    `start`, in smallest-id order, that never enters `avoid`; the path found
    is flipped.  It ends at an exposed vertex or, with `leaf_ends`, at a
    matched leaf, which the flip leaves uncovered."""
    parent: dict[int, int] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        nxt: list[int] = []
        for u in sorted(frontier):
            for w in g.adjacency[u]:
                if w in parent or w in avoid:
                    continue
                parent[w] = u
                mw = match[w]
                if mw < 0 or (leaf_ends and g.degree(mw) == 1):
                    if mw >= 0:
                        match[mw] = -1
                    v = w
                    while True:
                        u2 = parent[v]
                        prev = match[u2]
                        match[u2] = v
                        match[v] = u2
                        if u2 == start:
                            return True
                        v = prev
                if mw not in seen:
                    seen.add(mw)
                    nxt.append(mw)
        frontier = nxt
    return False


def _matching_from_match_array(g: Graph, match: list[int], side: frozenset[int]) -> Matching:
    eids = {find_edge(g, u, match[u]) for u in side if match[u] >= 0}
    return Matching(frozenset(eids))


def max_matching_bipartite(g: Graph, b: Bipartition) -> Matching:
    """Maximum-cardinality matching via augmenting paths; deterministic."""
    match = [-1] * g.n
    for u in sorted(b.side_a):
        if match[u] < 0:
            _augment(g, match, u)
    m = _matching_from_match_array(g, match, b.side_a)
    check_matching(g, m)
    return m


def saturating_matching(g: Graph, b: Bipartition, targets):
    """Matching covering all of `targets` (subset of one side), or a Hall
    violator X within the targets with |N(X)| < |X|."""
    targets = frozenset(targets)
    if targets <= b.side_a:
        pass
    elif targets <= b.side_b:
        pass
    else:
        raise GraphError("targets must lie within one side of the bipartition")
    match = [-1] * g.n
    for t in sorted(targets):
        if match[t] >= 0:
            continue
        if not _augment(g, match, t):
            x, nbh = _alternating_reach(g, match, t)
            hv = HallViolator(subset=frozenset(x), neighborhood=frozenset(nbh),
                             context="saturation")
            check_hall_violator(g, hv)
            return hv
    m = _matching_from_match_array(g, match, targets)
    check_matching(g, m)
    return m


def _alternating_reach(g: Graph, match: list[int], start: int):
    """Same-side vertices reachable from an exposed vertex by alternating
    paths, together with the reached opposite side."""
    same = {start}
    other: set[int] = set()
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w not in other:
                other.add(w)
                mw = match[w]
                if mw >= 0 and mw not in same:
                    same.add(mw)
                    stack.append(mw)
    return same, other


def dm_merge(g: Graph, b: Bipartition, m_a: Matching, m_b: Matching) -> Matching:
    """Sub-matching of M_A u M_B covering (A n V(M_A)) u (B n V(M_B)).

    The union decomposes into alternating paths and cycles; in each component
    one of the two pure selections retains the required covered vertices.
    """
    check_matching(g, m_a)
    check_matching(g, m_b)
    required = (b.side_a & covered_vertices(g, m_a)) | (b.side_b & covered_vertices(g, m_b))
    union = m_a.edge_ids | m_b.edge_ids
    # union components via vertex walk
    vert_edges: dict[int, list[int]] = {}
    for eid in union:
        for v in g.edges[eid]:
            vert_edges.setdefault(v, []).append(eid)
    seen_e: set[int] = set()
    chosen: set[int] = set()
    for seed in sorted(union):
        if seed in seen_e:
            continue
        comp_e = {seed}
        comp_v = set(g.edges[seed])
        stack = list(g.edges[seed])
        while stack:
            v = stack.pop()
            for eid in vert_edges[v]:
                if eid not in comp_e:
                    comp_e.add(eid)
                    for w in g.edges[eid]:
                        if w not in comp_v:
                            comp_v.add(w)
                            stack.append(w)
        seen_e |= comp_e
        need = required & comp_v
        for cand in (comp_e & m_a.edge_ids, comp_e & m_b.edge_ids):
            cov = {v for eid in cand for v in g.edges[eid]}
            if need <= cov:
                chosen |= cand
                break
        else:
            raise AssertionError("no pure selection covers the component requirement")
    merged = Matching(frozenset(chosen))
    check_matching(g, merged)
    assert required <= covered_vertices(g, merged)
    return merged


def matching_covering(g: Graph, b: Bipartition, targets):
    """Matching covering the (two-sided) vertex set `targets`, or a Hall
    violator from one side."""
    targets = frozenset(targets)
    res_a = saturating_matching(g, b, targets & b.side_a)
    if isinstance(res_a, HallViolator):
        return res_a
    res_b = saturating_matching(g, b, targets & b.side_b)
    if isinstance(res_b, HallViolator):
        return res_b
    merged = dm_merge(g, b, res_a, res_b)
    assert targets <= covered_vertices(g, merged)
    return merged


# ---------------------------------------------------------------------------
# exhaustive searches (small non-bipartite remainders)

def _exhaustive_cover(g: Graph, required: frozenset[int], budget: Budget) -> set[int] | None:
    """Backtracking search for a matching (as edge-id set) covering `required`."""

    def rec(req: list[int], used: set[int], acc: set[int]) -> set[int] | None:
        budget.spend()
        while req and req[-1] in used:
            req = req[:-1]
        if not req:
            return set(acc)
        v = req[-1]
        for w in g.adjacency[v]:
            if w in used:
                continue
            eid = find_edge(g, v, w)
            used.update((v, w))
            acc.add(eid)
            out = rec(req[:-1], used, acc)
            if out is not None:
                return out
            acc.discard(eid)
            used.difference_update((v, w))
        return None

    return rec(sorted(required, reverse=True), set(), set())


def _exhaustive_perfect_matching(g: Graph, budget: Budget) -> set[int] | None:
    if g.n % 2:
        return None
    return _exhaustive_cover(g, frozenset(range(g.n)), budget)


# ---------------------------------------------------------------------------
# perfect internal matchings and extendability

def extend_to_perfect_internal(g: Graph, m: Matching, b: Bipartition | None = None,
                               budget: Budget | int | None = None):
    """Extend matching `m` to a matching whose uncovered vertices are all
    leaves of g, or return a failure witness.

    Reduction: the extension exists iff g - V(m) has a matching covering
    U = {u not covered by m : deg_g(u) > 1}.  Bipartite graphs use the
    Hall/merge construction (witness: HallViolator in g - V(m)); other graphs
    fall back to exhaustive search (witness: CoverFailure).
    """
    check_matching(g, m)
    budget = make_budget(budget)
    cov = covered_vertices(g, m)
    rest = frozenset(range(g.n)) - cov
    sub, old_ids = induced_subgraph(g, rest)
    pos = {v: i for i, v in enumerate(old_ids)}
    u_set = frozenset(pos[v] for v in rest if g.degree(v) > 1)

    if b is None:
        b = compute_bipartition(g)
        if not isinstance(b, Bipartition):
            b = None
    if isinstance(b, Bipartition):
        sub_b = Bipartition(
            side_a=frozenset(pos[v] for v in rest if v in b.side_a),
            side_b=frozenset(pos[v] for v in rest if v in b.side_b),
        )
        res = matching_covering(sub, sub_b, u_set)
        if isinstance(res, HallViolator):
            return HallViolator(
                subset=frozenset(old_ids[v] for v in res.subset),
                neighborhood=frozenset(old_ids[v] for v in res.neighborhood),
                context="internal extension",
            )
        extra = res.edge_ids
    else:
        found = _exhaustive_cover(sub, u_set, budget)
        if found is None:
            return CoverFailure(
                required=frozenset(old_ids[v] for v in u_set),
                note="no matching in the remainder covers the non-leaf vertices",
            )
        extra = frozenset(found)

    eids = set(m.edge_ids)
    for eid in extra:
        u, v = sub.edges[eid]
        eids.add(find_edge(g, old_ids[u], old_ids[v]))
    full = Matching(frozenset(eids))
    im = InternalMatching(matching=full, uncovered=frozenset(range(g.n)) - covered_vertices(g, full))
    check_internal_matching(g, im)
    return im


def _k_matchings(g: Graph, k: int):
    """All k-matchings in ascending lexicographic edge-id order."""
    for combo in itertools.combinations(range(g.m), k):
        used: set[int] = set()
        ok = True
        for eid in combo:
            u, v = g.edges[eid]
            if u in used or v in used:
                ok = False
                break
            used.update((u, v))
        if ok:
            yield Matching(frozenset(combo))


def _repair(g: Graph, base: list[int], m: Matching) -> bool:
    """Whether the k-matching `m` extends to a perfect internal matching,
    given one perfect internal matching `base` of bipartite g as a mate array.

    The base edges at the fixed endpoints V(m) are removed; then, for each
    exposed non-leaf, an alternating path avoiding V(m) is flipped.  This is
    exact: if some matching N of g - V(m) covers every non-leaf, the component
    of (current matching) xor N that starts at an exposed non-leaf is such a
    path, ending at an exposed vertex or at a matched leaf."""
    mate = list(base)
    fixed = frozenset(v for eid in m.edge_ids for v in g.edges[eid])
    exposed = []
    for x in fixed:
        y = mate[x]
        if y >= 0:
            mate[y] = -1
            exposed.append(y)
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        mate[u], mate[v] = v, u
    for s in sorted(exposed):
        if mate[s] < 0 and g.degree(s) > 1:
            if not _augment(g, mate, s, avoid=fixed, leaf_ends=True):
                return False
    _check_internal_mate(g, mate, m)
    return True


def _check_internal_mate(g: Graph, mate: list[int], m: Matching) -> None:
    """The mate array is a matching of g containing m whose uncovered
    vertices are all leaves."""
    adj = g.adjacency
    for v, w in enumerate(mate):
        if w < 0:
            if len(adj[v]) != 1:
                raise AssertionError(f"uncovered vertex {v} is not a leaf")
        elif mate[w] != v or w not in adj[v]:
            raise AssertionError(f"mate of {v} is not a matched neighbour")
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        if mate[u] != v:
            raise AssertionError("repaired matching drops a fixed edge")


def is_k_internally_extendable(g: Graph, k: int, budget: Budget | int | None = None):
    """(bool, witness): every k-matching extends to a perfect internal matching.

    False witness: the lexicographically smallest non-extendable k-matching,
    or the string 'no k-matching' when none exists.  Bipartite graphs repair
    one base perfect internal matching per k-matching; other graphs search
    each extension exhaustively.
    """
    if k not in (1, 2):
        raise GraphError("k must be 1 or 2")
    if component_count(g) != 1:
        raise GraphError("graph must be connected")
    budget = make_budget(budget)
    b = compute_bipartition(g)
    bipartite = isinstance(b, Bipartition)
    mate = None
    if bipartite:
        base = extend_to_perfect_internal(g, Matching(frozenset()), b)
        if isinstance(base, InternalMatching):
            mate = [-1] * g.n
            for eid in base.matching.edge_ids:
                u, v = g.edges[eid]
                mate[u], mate[v] = v, u
    any_matching = False
    for m in _k_matchings(g, k):
        any_matching = True
        if bipartite:
            ok = mate is not None and _repair(g, mate, m)
        else:
            ok = isinstance(extend_to_perfect_internal(g, m, None, budget), InternalMatching)
        if not ok:
            return False, m
    if not any_matching:
        return False, "no k-matching"
    return True, None


def is_k_extendable(g: Graph, k: int, budget: Budget | int | None = None):
    """(bool, witness): every k-matching extends to a perfect matching."""
    if k not in (1, 2):
        raise GraphError("k must be 1 or 2")
    if component_count(g) != 1:
        raise GraphError("graph must be connected")
    if g.n < 2 * k:
        raise GraphError("too few vertices")
    budget = make_budget(budget)
    any_matching = False
    for m in _k_matchings(g, k):
        any_matching = True
        rest = frozenset(range(g.n)) - covered_vertices(g, m)
        sub, _ = induced_subgraph(g, rest)
        if _exhaustive_perfect_matching(sub, budget) is None:
            return False, m
    if not any_matching:
        return False, "no k-matching"
    return True, None


def plummer_condition(g: Graph, b: Bipartition, k: int):
    """(bool, witness): |A| = |B| and |N(X)| >= |X| + k for every nonempty
    X within one side with |X| <= |A| - k.  Brute force over subsets."""
    if component_count(g) != 1:
        raise GraphError("graph must be connected")
    if g.n < 2 * k:
        raise GraphError("too few vertices")
    side_a = sorted(b.side_a)
    if len(side_a) > 20:
        raise GraphError("side too large for brute-force check")
    if len(b.side_a) != len(b.side_b):
        return False, "unequal sides"
    for size in range(1, len(side_a) - k + 1):
        for x in itertools.combinations(side_a, size):
            nbh: set[int] = set()
            for v in x:
                nbh.update(g.adjacency[v])
            if len(nbh) < len(x) + k:
                return False, HallViolator(
                    subset=frozenset(x), neighborhood=frozenset(nbh),
                    context=f"plummer k={k}")
    return True, None
