"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the package's own machinery: subset
enumeration via itertools, stable sets by definition.  Frozen expectations
in the tests were produced by these oracles (or checked against
networkx/sympy/scipy).
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from equilab.common import GraphError
from equilab.corpus import _default_labels, _is_connected
from equilab.graphs import Bipartition, Graph, make_graph


# ---------------------------------------------------------------------------
# brute-force oracles

def oracle_maximal_stable_sets(g: Graph):
    """All maximal stable sets by direct subset enumeration."""
    edge_set = set(g.edges)

    def stable(sub):
        return not any((u, v) in edge_set for u, v in itertools.combinations(sub, 2))

    stables = [frozenset(sub)
               for r in range(g.n + 1)
               for sub in itertools.combinations(range(g.n), r)
               if stable(sub)]
    return sorted(
        tuple(sorted(s)) for s in stables
        if s and not any(s < t for t in stables)
    )


def oracle_maximal_cliques(g: Graph):
    edge_set = set(g.edges)

    def clique(sub):
        return all((min(u, v), max(u, v)) in edge_set
                   for u, v in itertools.combinations(sub, 2))

    cliques = [frozenset(sub)
               for r in range(1, g.n + 1)
               for sub in itertools.combinations(range(g.n), r)
               if clique(sub)]
    return sorted(
        tuple(sorted(c)) for c in cliques
        if not any(c < d for d in cliques)
    )


def oracle_unit_subsets(g: Graph, weights):
    """All nonempty edge subsets of total weight exactly 1."""
    out = []
    for r in range(1, g.m + 1):
        for combo in itertools.combinations(range(g.m), r):
            if sum((weights[i] for i in combo), Fraction(0)) == 1:
                out.append(combo)
    return sorted(out)


def reference_check_set_system(s):
    """check_set_system by comparing every member with every other."""
    if len(s.element_names) != s.ground_size:
        raise AssertionError("element name count mismatch")
    masks = s.family_masks()
    if len(set(masks)) != len(masks):
        raise AssertionError("family members not distinct")
    for j, mask in enumerate(masks):
        if mask == 0:
            raise AssertionError("empty family member")
        for k, other in enumerate(masks):
            if j != k and mask & other == mask:
                raise AssertionError("family member not inclusion-maximal in family")


def oracle_maximal_stars(g: Graph):
    stars = []
    for v in range(g.n):
        star = frozenset(
            i for i, (a, b) in enumerate(g.edges) if v in (a, b)
        )
        if star:
            stars.append(star)
    return sorted(set(
        tuple(sorted(s)) for s in stars if not any(s < t for t in stars)
    ))


@dataclass(frozen=True)
class HallViolator:
    """One-sided set X with |N(X)| too small for the requested saturation."""

    subset: frozenset[int]
    neighborhood: frozenset[int]
    context: str = ""


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


def plummer_condition(g: Graph, b: Bipartition, k: int):
    """(bool, witness): |A| = |B| and |N(X)| >= |X| + k for every nonempty
    X within one side with |X| <= |A| - k.  Brute force over subsets."""
    if not _is_connected(g.n, g.edges):
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


def reference_coefficients(s, target):
    """Coefficients lam with sum_j lam_j chi(F_j) = chi(target), by exact
    elimination of the transposed unit system: the solution that is 0 at
    every member in the span of earlier members."""
    from equilab.exactla import solve_exact

    members = [[Fraction(int(i in f)) for i in range(s.ground_size)] for f in s.family]
    rows = [[row[i] for row in members] for i in range(s.ground_size)]
    res = solve_exact(rows, [Fraction(int(i in target)) for i in range(s.ground_size)])
    assert res[0] == "solution", "forced target has no coefficient representation"
    return tuple(res[1])


# ---------------------------------------------------------------------------
# small graph helpers

# the nine graphs of the benchmark's gallery workload
GALLERY = (
    "cycle(4)",
    "cycle(6)",
    "path(5)",
    "complete_bipartite(3,3)",
    "complete_bipartite(4,3)",
    "kmn_plus(2,3)",
    "petersen",
    "circulant(11,{1,3})",
    "graph_h",
)


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call adds one to the returned counter."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def graph_from_pairs(pairs):
    labels = sorted({str(x) for p in pairs for x in p})
    pos = {l: i for i, l in enumerate(labels)}
    return make_graph(tuple(labels), [(pos[str(u)], pos[str(v)]) for u, v in pairs])


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def same_labeled_graph(g: Graph, h: Graph) -> bool:
    """Equality as labeled graphs (vertex ids may differ)."""
    if set(g.labels) != set(h.labels):
        return False
    ge = {frozenset(g.edge_labels(i)) for i in range(g.m)}
    he = {frozenset(h.edge_labels(i)) for i in range(h.m)}
    return ge == he


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Vertex set V(g) x V(h); edges pair up edges of both factors."""
    labels = tuple(
        f"({lg},{lh})" for lg in g.labels for lh in h.labels
    )
    nh = h.n
    pairs = []
    for u1, u2 in g.edges:
        for v1, v2 in h.edges:
            pairs.append((u1 * nh + v1, u2 * nh + v2))
            pairs.append((u1 * nh + v2, u2 * nh + v1))
    return make_graph(labels, pairs)


def random_graph_with_triangle(n: int, p: float, rng: random.Random) -> Graph:
    """Random connected graph on n >= 3 vertices, edge probability p, with the
    triangle 0-1-2 and every later vertex joined to an earlier one."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    edges |= {(0, 1), (1, 2), (0, 2)} | {(rng.randrange(v), v) for v in range(3, n)}
    return make_graph(_default_labels(n), sorted(edges))


def random_connected_bipartite(a: int, b: int, p: float, rng: random.Random) -> Graph:
    """Random bipartite graph with sides a, b and edge probability p,
    patched to be connected and isolated-vertex-free by chaining stragglers."""
    n = a + b
    edges = {
        (i, a + j)
        for i in range(a)
        for j in range(b)
        if rng.random() < p
    }
    # attach every vertex, then stitch components together greedily
    for i in range(a):
        if not any(u == i for u, _ in edges):
            edges.add((i, a + rng.randrange(b)))
    for j in range(b):
        if not any(v == a + j for _, v in edges):
            edges.add((rng.randrange(a), a + j))
    while not _is_connected(n, edges):
        edges.add((rng.randrange(a), a + rng.randrange(b)))
    return make_graph(_default_labels(n), sorted(edges))


@pytest.fixture(scope="session")
def small_bipartite_corpus():
    from equilab.corpus import connected_bipartite_graphs

    return connected_bipartite_graphs(6)


@pytest.fixture(scope="session")
def bipartite8():
    from equilab.corpus import connected_bipartite_graphs

    return connected_bipartite_graphs(8)


@pytest.fixture(scope="session")
def triangle_free7():
    """The 89 connected triangle-free graphs with 2 <= n <= 7, read from the
    networkx graph atlas rather than the package's own generator."""
    import networkx as nx

    return [make_graph(_default_labels(h.number_of_nodes()), list(h.edges()))
            for h in nx.graph_atlas_g()
            if h.number_of_edges() and nx.is_connected(h)
            and not any(nx.triangles(h).values())]


@pytest.fixture(scope="session")
def triangle_free_corpus():
    from equilab.corpus import connected_triangle_free_graphs

    return connected_triangle_free_graphs(5)
