"""Core graph representation, parsing, analysis, and the gallery of named families.

Vertices carry arbitrary string labels externally and dense integer ids
internally.  Edges are stored once as sorted id pairs; edge ids are the
positions in the canonically sorted edge tuple and are stable for the
lifetime of a Graph value.  Graphs are immutable.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from dataclasses import dataclass

from .common import Budget, GraphError, make_budget


@dataclass(frozen=True)
class Graph:
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_labels(self, eid: int) -> tuple[str, str]:
        u, v = self.edges[eid]
        return self.labels[u], self.labels[v]

    def edge_name(self, eid: int) -> str:
        lu, lv = self.edge_labels(eid)
        return f"{lu}-{lv}"


def make_graph(labels, pairs) -> Graph:
    """Build a Graph from labels and id pairs, canonicalizing edge storage."""
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise GraphError("duplicate vertex labels")
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range")
        if u == v:
            raise GraphError(f"self-loop at vertex {labels[u]!r}")
        seen.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(seen))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(map(tuple, adj))  # ascending: appended in sorted edge order
    return Graph(labels=labels, edges=edges, adjacency=adjacency)


def graph_from_label_pairs(pairs, extra_vertices=()) -> Graph:
    """Build a Graph from (label, label) pairs, vertices in first-appearance order."""
    order: dict[str, int] = {}
    for lu, lv in pairs:
        for lab in (lu, lv):
            if lab not in order:
                order[lab] = len(order)
    for lab in extra_vertices:
        if lab not in order:
            order[lab] = len(order)
    labels = tuple(order)
    return make_graph(labels, [(order[lu], order[lv]) for lu, lv in pairs])


# Derived lookup maps are built on first use and stored in the graph's
# instance dict, as functools.cached_property would but without the lock it
# takes on Python 3.11, so they are freed with the graph.  They are not
# fields, so equality and hashing ignore them.

def edge_index(g: Graph) -> dict[tuple[int, int], int]:
    """Map from sorted id pair to edge id, built once per graph."""
    idx = g.__dict__.get("_edge_index")
    if idx is None:
        idx = g.__dict__["_edge_index"] = {e: i for i, e in enumerate(g.edges)}
    return idx


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbour bitmask of each vertex, built once per graph."""
    masks = g.__dict__.get("_adjacency_masks")
    if masks is None:
        bits = [0] * g.n
        for u, v in g.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        masks = g.__dict__["_adjacency_masks"] = tuple(bits)
    return masks


def find_edge(g: Graph, u: int, v: int, missing_ok: bool = False) -> int | None:
    key = (u, v) if u < v else (v, u)
    if missing_ok:
        return edge_index(g).get(key)
    return edge_index(g)[key]


def find_edge_by_name(g: Graph, name: str, missing_ok: bool = False) -> int | None:
    """Resolve an element name of the form '<label>-<label>' to an edge id.

    Labels may contain '-', so one name can spell two different edges
    (a-b c and a b-c are both 'a-b-c'); such a name raises GraphError."""
    matches = []
    for eid in range(g.m):
        lu, lv = g.edge_labels(eid)
        if name in (f"{lu}-{lv}", f"{lv}-{lu}"):
            matches.append(eid)
    if not matches:
        if missing_ok:
            return None
        raise GraphError(f"unknown edge {name!r}")
    if len(matches) > 1:
        raise GraphError(
            f"ambiguous edge {name!r}: matches edges "
            f"{g.edge_labels(matches[0])} and {g.edge_labels(matches[1])}")
    return matches[0]


# ---------------------------------------------------------------------------
# parsing / formatting

_COMMENT = re.compile(r"^\s*#")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: one 'u v' edge per line, '#' comments,
    'v <label>' isolated-vertex declarations.  Duplicate edges collapse.

    'v' is the declaration keyword, so it cannot label a vertex, and a
    declared vertex may have no edges (the line could be the edge v-<label>)."""
    pairs: list[tuple[str, str]] = []
    extras: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or _COMMENT.match(line):
            continue
        tokens = line.split()
        if tokens[-1] == "v" and len(tokens) > 1:
            raise GraphError(f"line {lineno}: 'v' is reserved and cannot label a vertex")
        if tokens[0] == "v" and len(tokens) == 2:
            extras.setdefault(tokens[1], lineno)
            continue
        if len(tokens) != 2:
            raise GraphError(f"line {lineno}: expected two labels, got {line!r}")
        a, b = tokens
        if a == b:
            raise GraphError(f"line {lineno}: self-loop on {a!r}")
        pairs.append((a, b))
    if extras:
        clash = next((lab for pair in pairs for lab in pair if lab in extras), None)
        if clash is not None:
            raise GraphError(f"line {extras[clash]}: 'v {clash}' declares an isolated "
                             f"vertex, but {clash!r} has edges")
    return graph_from_label_pairs(pairs, extras)


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text; isolated vertices via 'v <label>' lines."""
    if "v" in g.labels:
        raise GraphError("the label 'v' cannot be written: 'v' declares isolated vertices")
    lines = [f"v {g.labels[v]}" for v in range(g.n) if g.degree(v) == 0]
    lines.extend(f"{lu} {lv}" for lu, lv in (g.edge_labels(i) for i in range(g.m)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# components / bipartition

def _component_labels(g: Graph) -> tuple[list[int], int]:
    """Component id of every vertex, ids ordered by smallest member vertex,
    and the number of components."""
    adj = g.adjacency
    comp = [-1] * g.n
    cid = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        comp[s] = cid
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if comp[w] < 0:
                    comp[w] = cid
                    stack.append(w)
        cid += 1
    return comp, cid


def component_count(g: Graph) -> int:
    return _component_labels(g)[1]


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex tuples of the components, ordered by smallest member vertex."""
    comp, cid = _component_labels(g)
    verts: list[list[int]] = [[] for _ in range(cid)]
    for v in range(g.n):
        verts[comp[v]].append(v)
    return tuple(map(tuple, verts))


@dataclass(frozen=True)
class Bipartition:
    side_a: frozenset[int]
    side_b: frozenset[int]


@dataclass(frozen=True)
class OddWalkWitness:
    """Closed walk of odd length; consecutive vertices (cyclically) adjacent."""

    vertices: tuple[int, ...]


def check_bipartition(g: Graph, b: Bipartition) -> None:
    if b.side_a | b.side_b != set(range(g.n)) or b.side_a & b.side_b:
        raise AssertionError("sides do not partition the vertex set")
    for u, v in g.edges:
        if (u in b.side_a) == (v in b.side_a):
            raise AssertionError(f"edge ({u},{v}) does not cross the bipartition")


def check_odd_walk(g: Graph, w: OddWalkWitness) -> None:
    k = len(w.vertices)
    if k % 2 == 0 or k < 3:
        raise AssertionError("walk length is not odd")
    masks = adjacency_masks(g)
    for i in range(k):
        u, v = w.vertices[i], w.vertices[(i + 1) % k]
        if not masks[u] >> v & 1:
            raise AssertionError(f"walk uses non-edge ({u},{v})")


def bipartition(g: Graph):
    """Two-color g.  Returns a Bipartition (per component, the side of the
    smallest vertex id goes to A) or an OddWalkWitness."""
    color = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return OddWalkWitness(_odd_cycle(parent, u, w))
    side_a = frozenset(v for v in range(g.n) if color[v] == 0)
    side_b = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(side_a=side_a, side_b=side_b)


def _odd_cycle(parent, u, w) -> tuple[int, ...]:
    pu, pw = [u], [w]
    su, sw = {u}, {w}
    while True:
        if pu[-1] in sw:
            break
        if pw[-1] in su:
            break
        if parent[pu[-1]] >= 0:
            pu.append(parent[pu[-1]])
            su.add(pu[-1])
        if parent[pw[-1]] >= 0:
            pw.append(parent[pw[-1]])
            sw.add(pw[-1])
    if pu[-1] in sw:
        lca = pu[-1]
    else:
        lca = pw[-1]
    up = pu[: pu.index(lca) + 1]
    wp = pw[: pw.index(lca)]
    return tuple(up + list(reversed(wp)))


# ---------------------------------------------------------------------------
# triangle freeness

def is_triangle_free(g: Graph) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff no three mutually adjacent vertices; witness triple otherwise."""
    masks = adjacency_masks(g)
    for u, v in g.edges:
        common = masks[u] & masks[v]
        if common:
            w = (common & -common).bit_length() - 1
            return False, tuple(sorted((u, v, w)))
    return True, None


# ---------------------------------------------------------------------------
# maximal clique / stable-set enumeration

def _bron_kerbosch(nbr: list[int], n: int, budget: Budget) -> list[int]:
    """Maximal cliques of the graph given by neighbor bitmasks, with pivoting.
    Pivot = candidate with most candidates as neighbors, ties by smallest id.

    The search tree is walked depth first on an explicit stack of
    [r, p, x, ext] frames, so deep cliques need no Python recursion; the
    node order, the output order and one budget step per node are those of
    the recursive formulation."""
    out: list[int] = []
    if n == 0:
        return out
    stack: list[list[int]] = []

    def enter(r: int, p: int, x: int) -> None:
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
            # no candidates; x nonempty means r is not maximal
            return
        stack.append([r, p, x, p & ~nbr[pivot]])

    enter(0, (1 << n) - 1, 0)
    while stack:
        frame = stack[-1]
        r, p, x, ext = frame
        if not ext:
            stack.pop()
            continue
        bit = ext & -ext
        v = bit.bit_length() - 1
        frame[1], frame[2], frame[3] = p & ~bit, x | bit, ext & (ext - 1)
        enter(r | bit, p & nbr[v], x & nbr[v])
    return out


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def enumerate_maximal_cliques(g: Graph, budget: Budget | int | None = None) -> list[tuple[int, ...]]:
    budget = make_budget(budget)
    masks = list(adjacency_masks(g))
    sets = _bron_kerbosch(masks, g.n, budget)
    return sorted(_mask_to_tuple(s) for s in sets)


def enumerate_maximal_stable_sets(g: Graph, budget: Budget | int | None = None) -> list[tuple[int, ...]]:
    """Inclusion-maximal independent sets, via clique enumeration on the complement."""
    budget = make_budget(budget)
    full = (1 << g.n) - 1
    masks = [full & ~m & ~(1 << v) for v, m in enumerate(adjacency_masks(g))]
    sets = _bron_kerbosch(masks, g.n, budget)
    return sorted(_mask_to_tuple(s) for s in sets)


# ---------------------------------------------------------------------------
# induced subgraphs

def induced_subgraph(g: Graph, keep) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on `keep`; returns (subgraph, new-id -> old-id map)."""
    old = tuple(sorted(keep))
    pos = {v: i for i, v in enumerate(old)}
    pairs = [
        (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
    ]
    return make_graph(tuple(g.labels[v] for v in old), pairs), old


# ---------------------------------------------------------------------------
# gallery generators

def _path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    labels = tuple(str(i + 1) for i in range(n))
    return make_graph(labels, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    labels = tuple(str(i + 1) for i in range(n))
    return make_graph(labels, [(i, (i + 1) % n) for i in range(n)])


def _star(n: int) -> Graph:
    if n < 1:
        raise GraphError("star needs n >= 1 leaves")
    labels = ("c",) + tuple(str(i + 1) for i in range(n))
    return make_graph(labels, [(0, i + 1) for i in range(n)])


def _complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete needs n >= 1")
    labels = tuple(str(i + 1) for i in range(n))
    return make_graph(labels, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GraphError("complete_bipartite needs positive side sizes")
    labels = tuple(f"a{i+1}" for i in range(m)) + tuple(f"b{j+1}" for j in range(n))
    return make_graph(labels, [(i, m + j) for i in range(m) for j in range(n)])


def _kmn_plus(m: int, n: int) -> Graph:
    """K_{m,n} with one private leaf attached to each vertex of the n-side."""
    if m < 1 or n < 1:
        raise GraphError("kmn_plus needs positive side sizes")
    labels = (
        tuple(f"a{i+1}" for i in range(m))
        + tuple(f"b{j+1}" for j in range(n))
        + tuple(f"l{j+1}" for j in range(n))
    )
    pairs = [(i, m + j) for i in range(m) for j in range(n)]
    pairs += [(m + j, m + n + j) for j in range(n)]
    return make_graph(labels, pairs)


def _petersen() -> Graph:
    labels = tuple(str(i) for i in range(10))
    pairs = [(i, (i + 1) % 5) for i in range(5)]          # outer 5-cycle
    pairs += [(i, i + 5) for i in range(5)]               # spokes
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]  # inner pentagram
    return make_graph(labels, pairs)


def _circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    if n < 3:
        raise GraphError("circulant needs n >= 3")
    if not offsets:
        raise GraphError("circulant needs a nonempty connection set")
    if len(set(offsets)) != len(offsets):
        raise GraphError("duplicate circulant offsets")
    for s in offsets:
        if not 1 <= s <= n // 2:
            raise GraphError(f"circulant offset {s} outside 1..n/2")
    labels = tuple(str(i) for i in range(n))
    pairs = [(i, (i + s) % n) for s in offsets for i in range(n)]
    return make_graph(labels, pairs)


def _graph_h() -> Graph:
    """The 9-vertex gallery graph with two special edges a-b and c-d.

    Removing a-b and c-d leaves a connected bipartite graph with parts
    {a,b,c,d,h} and {p,q,r,s}; each of p,q,r,s is joined to the hub h and to
    one vertex of each special edge, no two of them sharing both.
    """
    pairs = [
        ("a", "b"), ("c", "d"),
        ("p", "a"), ("p", "c"), ("p", "h"),
        ("q", "a"), ("q", "d"), ("q", "h"),
        ("r", "b"), ("r", "c"), ("r", "h"),
        ("s", "b"), ("s", "d"), ("s", "h"),
    ]
    return graph_from_label_pairs(pairs)


_FAMILIES = {
    "path": (1, _path),
    "cycle": (1, _cycle),
    "star": (1, _star),
    "complete": (1, _complete),
    "complete_bipartite": (2, _complete_bipartite),
    "kmn_plus": (2, _kmn_plus),
    "petersen": (0, _petersen),
    "graph_h": (0, _graph_h),
}

_DESC = re.compile(r"([a-z_]+)(?:\((.*)\))?")
_CIRCULANT = re.compile(r"\s*([0-9]+)\s*,\s*\{([0-9\s,]*)\}\s*", re.ASCII)
_INT = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)
_UNION_PLUS = re.compile(r"\+(?![^()]*\))")  # a '+' outside parentheses


def _ints(tokens, error: str) -> tuple[int, ...]:
    """ASCII decimal integers, or GraphError(error): int() alone would also
    take '1_0', '+3' and non-ASCII digits."""
    if not all(_INT.fullmatch(t) for t in tokens):
        raise GraphError(error)
    return tuple(map(int, tokens))


def generate(text: str) -> Graph:
    """Build the canonical labeled graph of a gallery descriptor: a family
    name with integer arguments, 'circulant(n,{s1,s2,...})', or descriptors
    joined by '+' for their disjoint union."""
    text = text.strip()
    parts = _UNION_PLUS.split(text)
    if len(parts) > 1:
        from .transforms import disjoint_union

        return functools.reduce(disjoint_union, map(generate, parts))
    m = _DESC.fullmatch(text)
    if not m:
        raise GraphError(f"bad gallery descriptor {text!r}")
    name, argtext = m.group(1), m.group(2)
    if name == "circulant":
        cm = _CIRCULANT.fullmatch(argtext or "")
        if not cm:
            raise GraphError(f"bad circulant descriptor {text!r}")
        offsets = _ints([t for t in cm.group(2).split(",") if t.strip()],
                        f"bad circulant descriptor {text!r}")
        return _circulant(int(cm.group(1)), offsets)
    args = _ints(argtext.split(","), f"bad arguments in {text!r}") if argtext else ()
    if name not in _FAMILIES:
        raise GraphError(f"unknown gallery family {name!r}")
    arity, build = _FAMILIES[name]
    if len(args) != arity:
        raise GraphError(f"{name} expects {arity} integer argument(s)")
    return build(*args)
