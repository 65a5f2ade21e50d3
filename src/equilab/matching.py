"""Matching machinery: perfect internal matchings (every uncovered vertex a
leaf) extending a given matching, with Hall-violator or exhaustive-search
witnesses, and k-/k-internal-extendability for k in {1, 2}.

Every question is asked of the host graph itself; no remainder graph is
built.  On a bipartite graph, a mate array is filled by leaf-ended
alternating paths that avoid the fixed matching's endpoints (`_fill`, one
`_augment` per exposed non-leaf); a failed search is itself the "no" witness,
a set of non-leaves on one side with too few neighbours.  k-internal
extendability fills one base matching and, for each k-matching, re-covers
the at most 2k vertices the k-matching exposes in a copy of it.  Other
graphs use an exhaustive search for the covering matching."""

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
# leaf-ended alternating paths (bipartite)

def _augment(g: Graph, mate: list[int], start: int, avoid: frozenset[int]):
    """One BFS-layered alternating-path search from the exposed vertex
    `start`, in smallest-id order, that never enters `avoid`.  A path ending
    at an exposed vertex or at a matched leaf (which the flip leaves
    uncovered) is flipped, and None is returned.  Otherwise the reached
    (same side, other side) sets are returned: every reached other-side
    vertex is matched to a reached non-leaf, so the same-side set has fewer
    neighbours outside `avoid` than members."""
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
                mw = mate[w]
                if mw < 0 or g.degree(mw) == 1:
                    if mw >= 0:
                        mate[mw] = -1
                    v = w
                    while True:
                        u2 = parent[v]
                        prev = mate[u2]
                        mate[u2] = v
                        mate[v] = u2
                        if u2 == start:
                            return None
                        v = prev
                if mw not in seen:
                    seen.add(mw)
                    nxt.append(mw)
        frontier = nxt
    return frozenset(seen), frozenset(parent)


def _fill(g: Graph, mate: list[int], m: Matching, starts):
    """Seed the mate array with the edges of m, then cover each exposed
    non-leaf of `starts`, in increasing order, by one leaf-ended alternating
    path avoiding V(m).  Returns None when all are covered, or the reach of
    the first start that cannot be.

    This is exact: if some matching N of g - V(m) covers every non-leaf, the
    component of (current matching) xor N that starts at an exposed non-leaf
    is such a path, ending at an exposed vertex or at a matched leaf."""
    fixed = frozenset(v for eid in m.edge_ids for v in g.edges[eid])
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        mate[u], mate[v] = v, u
    for s in sorted(starts):
        if mate[s] < 0 and g.degree(s) > 1:
            reach = _augment(g, mate, s, fixed)
            if reach is not None:
                return reach
    return None


# ---------------------------------------------------------------------------
# exhaustive search (non-bipartite graphs)

def _exhaustive_cover(g: Graph, required: frozenset[int], used: frozenset[int],
                      budget: Budget) -> set[int] | None:
    """Backtracking search for a matching (as edge-id set) of g - `used`
    covering `required`.  The largest-id uncovered required vertex is matched
    first, to its neighbours in increasing order; one budget step per search
    node.  The search tree is walked on an explicit stack."""
    req = sorted(required, reverse=True)
    used = set(used)
    chosen: list[int] = []
    stack = []  # per open node: (vertex, required prefix left, neighbour iterator)
    i = len(req)
    while True:
        budget.spend()
        while i and req[i - 1] in used:
            i -= 1
        if not i:
            return set(chosen)
        v = req[i - 1]
        stack.append((v, i - 1, iter(g.adjacency[v])))
        while True:
            v, i, nbrs = stack[-1]
            w = next((w for w in nbrs if w not in used), None)
            if w is not None:
                break
            stack.pop()
            if not stack:
                return None
            used.difference_update(g.edges[chosen.pop()])
        used.update((v, w))
        chosen.append(find_edge(g, v, w))


# ---------------------------------------------------------------------------
# perfect internal matchings and extendability

def extend_to_perfect_internal(g: Graph, m: Matching, budget: Budget | int | None = None):
    """Extend matching `m` to a matching whose uncovered vertices are all
    leaves of g, or return a failure witness.

    Reduction: the extension exists iff g - V(m) has a matching covering
    U = {u not covered by m : deg_g(u) > 1}.  Bipartite graphs fill a mate
    array by leaf-ended alternating paths (witness: a one-sided HallViolator
    of non-leaves in g - V(m)); other graphs fall back to exhaustive search
    (witness: CoverFailure).
    """
    check_matching(g, m)
    fixed = covered_vertices(g, m)
    rest = frozenset(range(g.n)) - fixed
    if isinstance(compute_bipartition(g), Bipartition):
        mate = [-1] * g.n
        reach = _fill(g, mate, m, range(g.n))
        if reach is not None:
            hv = HallViolator(subset=reach[0], neighborhood=reach[1],
                              context="internal extension")
            check_hall_violator(g, hv, within=rest)
            return hv
        eids = frozenset(find_edge(g, v, w) for v, w in enumerate(mate) if v < w)
    else:
        required = frozenset(v for v in rest if g.degree(v) > 1)
        found = _exhaustive_cover(g, required, fixed, make_budget(budget))
        if found is None:
            return CoverFailure(
                required=required,
                note="no matching in the remainder covers the non-leaf vertices",
            )
        eids = m.edge_ids | found
    full = Matching(eids)
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

    The base edges at the fixed endpoints V(m) are removed, and `_fill`
    re-covers the at most 2k vertices this exposed."""
    mate = list(base)
    exposed = []
    for eid in m.edge_ids:
        for x in g.edges[eid]:
            y = mate[x]
            if y >= 0:
                mate[y] = -1
                exposed.append(y)
    if _fill(g, mate, m, exposed) is not None:
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
    bipartite = isinstance(compute_bipartition(g), Bipartition)
    if bipartite:
        base = [-1] * g.n
        if _fill(g, base, Matching(frozenset()), range(g.n)) is not None:
            base = None
    any_matching = False
    for m in _k_matchings(g, k):
        any_matching = True
        if bipartite:
            ok = base is not None and _repair(g, base, m)
        else:
            fixed = covered_vertices(g, m)
            required = frozenset(v for v in range(g.n) if v not in fixed and g.degree(v) > 1)
            ok = _exhaustive_cover(g, required, fixed, budget) is not None
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
        fixed = covered_vertices(g, m)
        rest = frozenset(range(g.n)) - fixed
        if g.n % 2 or _exhaustive_cover(g, rest, fixed, budget) is None:
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
