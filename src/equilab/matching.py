"""Matching machinery: perfect internal matchings (every uncovered vertex a
leaf) extending a given matching, with Tutte-Berge barrier witnesses, and
k-/k-internal-extendability for k in {1, 2}.

Every question is asked of the host graph itself; no remainder graph is
built.  A mate array is filled by alternating paths that avoid the fixed
matching's endpoints (`_fill`, one `_augment` per exposed vertex that must be
covered), shrinking odd cycles as Edmonds' blossom search does (Edmonds,
Canad. J. Math. 1965); a path may end at a matched leaf, which the flip
leaves uncovered.  A failed search is itself the "no" witness: a set X and
more than |X| odd components of the remainder minus X, none holding a vertex
that may stay uncovered (Lovasz & Plummer, Matching Theory, 1986).  On a
bipartite graph the components are single vertices on one side, so X with
their union is a Hall violator.  k-(internal) extendability fills one base
matching and, for each k-matching, re-covers the at most 2k vertices the
k-matching exposes in a copy of it."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .common import GraphError
from .graphs import Graph, component_count, find_edge


@dataclass(frozen=True)
class Matching:
    edge_ids: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class InternalMatching:
    matching: Matching
    uncovered: frozenset[int]


@dataclass(frozen=True)
class Barrier:
    """No matching of g - V(m) covers every vertex that must be covered:
    `components` are more than |`inner`| disjoint odd components of
    g - V(m) - `inner` made only of such vertices, and each needs its own
    partner in `inner`."""

    inner: frozenset[int]
    components: tuple[frozenset[int], ...]


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


def check_barrier(g: Graph, w: Barrier, fixed: frozenset[int], may_skip: bool) -> None:
    """Verify that `w` refutes a matching of g - `fixed` covering every
    non-leaf (every vertex unless `may_skip`): it lists more components than
    |X|, each odd, connected, disjoint from the others, from X and from
    `fixed`, with all its neighbours outside it in X or `fixed`, and holding
    no leaf when leaves may stay uncovered."""
    if len(w.components) <= len(w.inner):
        raise AssertionError("no more components than barrier vertices")
    taken = set(fixed) | w.inner
    for comp in w.components:
        if len(comp) % 2 == 0 or comp & taken:
            raise AssertionError("component is even or overlaps")
        taken |= comp
        if may_skip and any(g.degree(v) == 1 for v in comp):
            raise AssertionError("component holds a leaf")
        reach, stack = set(), [min(comp)]
        while stack:
            v = stack.pop()
            if v not in reach:
                reach.add(v)
                for x in g.adjacency[v]:
                    if x in comp:
                        stack.append(x)
                    elif x not in w.inner and x not in fixed:
                        raise AssertionError("component is not closed")
        if reach != comp:
            raise AssertionError("component is not connected")


# ---------------------------------------------------------------------------
# alternating paths with blossoms

def _augment(g: Graph, mate: list[int], start: int, avoid: frozenset[int], may_skip: bool):
    """One BFS-layered alternating-path search from the exposed vertex
    `start`, in smallest-id order, that never enters `avoid`.  Outer vertices
    are keys of `base`, mapped to the base of their blossom; an edge between
    two outer blossoms closes an odd cycle, which is shrunk into one.  A path
    ending at an exposed vertex or (when `may_skip`) at a matched leaf, which
    the flip leaves uncovered, is flipped, and None is returned.  Otherwise
    every outer vertex's neighbours are in `avoid`, its blossom or the inner
    vertices, each inner vertex is matched to the base of one blossom, and
    the Barrier is returned."""
    adj = g.adjacency
    parent: dict[int, int] = {}  # tree parent; around a blossom, of outer vertices too
    base = {start: start}

    def root_path(v):  # bases from v's blossom up to start's
        while True:
            v = base[v]
            yield v
            if v == start:
                return
            v = parent[mate[v]]

    def shrink(v, b, child):  # route v's side of the cycle to base b; its bases
        passed = set()
        while base[v] != b:
            passed.update((base[v], mate[v]))
            parent[v], child = child, mate[v]
            v = parent[child]
        return passed

    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for u in sorted(frontier):
            for w in adj[u]:
                if w in avoid:
                    continue
                if w in base:
                    if base[w] != base[u]:
                        up = set(root_path(u))
                        b = next(x for x in root_path(w) if x in up)
                        marked = shrink(u, b, w) | shrink(w, b, u)
                        for x in list(base) + list(parent):
                            if base.get(x, x) in marked:
                                if x not in base:
                                    nxt.append(x)
                                base[x] = b
                    continue
                if w in parent:
                    continue
                parent[w] = u
                mw = mate[w]
                if mw < 0 or (may_skip and len(adj[mw]) == 1):
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
                base[mw] = mw
                nxt.append(mw)
        frontier = nxt
    groups: dict[int, set[int]] = {}
    for v, b in base.items():
        groups.setdefault(b, set()).add(v)
    return Barrier(inner=frozenset(parent).difference(base),
                   components=tuple(sorted(map(frozenset, groups.values()), key=min)))


def _fill(g: Graph, mate: list[int], m: Matching, starts, may_skip: bool):
    """Seed the mate array with the edges of m, then cover each exposed
    vertex of `starts` (each non-leaf, when `may_skip`), in increasing order,
    by one alternating path avoiding V(m).  Returns None when all are
    covered, or the Barrier of the first start that cannot be.

    This is exact: if some matching N of g - V(m) covers every vertex that
    must be covered, the component of (current matching) xor N that starts
    at an exposed one is such a path, ending at an exposed vertex or at a
    matched leaf."""
    fixed = frozenset(v for eid in m.edge_ids for v in g.edges[eid])
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        mate[u], mate[v] = v, u
    for s in sorted(starts):
        if mate[s] < 0 and (g.degree(s) > 1 or not may_skip):
            barrier = _augment(g, mate, s, fixed, may_skip)
            if barrier is not None:
                return barrier
    return None


# ---------------------------------------------------------------------------
# perfect internal matchings and extendability

def extend_to_perfect_internal(g: Graph, m: Matching):
    """Extend matching `m` to a matching whose uncovered vertices are all
    leaves of g, or return a failure witness.

    Reduction: the extension exists iff g - V(m) has a matching covering
    U = {u not covered by m : deg_g(u) > 1}.  A mate array is filled by
    alternating paths; the witness of a failure is a Barrier, checked here.
    An isolated vertex is neither a leaf nor coverable: GraphError.
    """
    if any(not nbrs for nbrs in g.adjacency):
        raise GraphError("isolated vertex")
    check_matching(g, m)
    mate = [-1] * g.n
    barrier = _fill(g, mate, m, range(g.n), True)
    if barrier is not None:
        check_barrier(g, barrier, covered_vertices(g, m), True)
        return barrier
    full = Matching(frozenset(find_edge(g, v, w) for v, w in enumerate(mate) if v < w))
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


def _repair(g: Graph, base: list[int], m: Matching, may_skip: bool) -> bool:
    """Whether the k-matching `m` extends to a matching that leaves only
    leaves uncovered (none, unless `may_skip`), given one such matching
    `base` of g as a mate array.

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
    if _fill(g, mate, m, exposed, may_skip) is not None:
        return False
    _check_internal_mate(g, mate, m, may_skip)
    return True


def _check_internal_mate(g: Graph, mate: list[int], m: Matching, may_skip: bool) -> None:
    """The mate array is a matching of g containing m whose uncovered
    vertices are all leaves (none, unless `may_skip`)."""
    adj = g.adjacency
    for v, w in enumerate(mate):
        if w < 0:
            if len(adj[v]) != 1 or not may_skip:
                raise AssertionError(f"uncovered vertex {v} is not a leaf")
        elif mate[w] != v or w not in adj[v]:
            raise AssertionError(f"mate of {v} is not a matched neighbour")
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        if mate[u] != v:
            raise AssertionError("repaired matching drops a fixed edge")


def _sweep(g: Graph, k: int, may_skip: bool):
    """(bool, witness): every k-matching extends to a matching leaving only
    leaves uncovered (none, unless `may_skip`).  One base matching is filled,
    then repaired per k-matching.  False witness: the lexicographically
    smallest non-extendable k-matching, or 'no k-matching' when none exists."""
    if k not in (1, 2):
        raise GraphError("k must be 1 or 2")
    if component_count(g) != 1:
        raise GraphError("graph must be connected")
    base = [-1] * g.n
    if _fill(g, base, Matching(frozenset()), range(g.n), may_skip) is not None:
        base = None
    m = None
    for m in _k_matchings(g, k):
        if base is None or not _repair(g, base, m, may_skip):
            return False, m
    return (True, None) if m is not None else (False, "no k-matching")


def is_k_internally_extendable(g: Graph, k: int):
    """(bool, witness): every k-matching extends to a perfect internal matching."""
    return _sweep(g, k, True)


def is_k_extendable(g: Graph, k: int):
    """(bool, witness): every k-matching extends to a perfect matching."""
    if g.n < 2 * k:
        raise GraphError("too few vertices")
    return _sweep(g, k, False)

