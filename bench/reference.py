"""Frozen reference verdicts for the benchmark's fixed inputs.

The gallery table agrees with the frozen witnesses of the acceptance tests:
C6 is forced by the edges 1-2 and 4-5, the Petersen graph by an induced
3-matching, graph_h fails the strong variant with gamma = 1/2 on a 2-matching,
and K_{2,3}^+ is forced by its three leaf edges.  "unknown" marks a property
that the exact engine may legitimately leave undecided: circulant(11,{1,3})
has 22 edges, above the strong-check ground limit of 16.
"""

YES, NO, UNKNOWN = "yes", "no", "unknown"

# the graphs of scripts/run_gallery_panel.py, in the same order
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

# properties reported by `analyze` (plain) and `analyze --strong --with-co-line`
PLAIN = ("p5_constrained", "equistarable")
STRONG = PLAIN + ("strongly_equistarable", "equistable", "strongly_equistable",
                  "triangle_condition", "general_partition")

_ROWS = {
    #                         p5   equi  s-equi  equist s-equist tri  partition
    "cycle(4)":              (YES, YES, YES,     YES,   YES,     YES, YES),
    "cycle(6)":              (NO,  NO,  NO,      NO,    NO,      NO,  NO),
    "path(5)":               (NO,  NO,  NO,      NO,    NO,      NO,  NO),
    "complete_bipartite(3,3)": (YES, YES, YES,   YES,   YES,     YES, YES),
    "complete_bipartite(4,3)": (YES, NO, NO,     NO,    NO,      YES, NO),
    "kmn_plus(2,3)":         (YES, NO,  NO,      NO,    NO,      YES, NO),
    "petersen":              (YES, NO,  NO,      NO,    NO,      YES, NO),
    "circulant(11,{1,3})":   (YES, YES, UNKNOWN, YES,   UNKNOWN, YES, NO),
    "graph_h":               (YES, YES, NO,      YES,   NO,      YES, NO),
}
VERDICTS = {name: dict(zip(STRONG, row)) for name, row in _ROWS.items()}

# frozen witnesses: (graph, property) -> (witness type, sorted target names)
FROZEN_TARGETS = {
    ("cycle(6)", "equistarable"): ("forced_value", ("1-2", "4-5")),
    ("kmn_plus(2,3)", "equistarable"): ("forced_value", ("b1-l1", "b2-l2", "b3-l3")),
    ("graph_h", "strongly_equistarable"): ("constant_subset", ("a-b", "c-d")),
}
FROZEN_GAMMA = {("graph_h", "strongly_equistarable"): (1, 2)}
# Petersen: the forcing target is an induced matching with three edges
PETERSEN_INDUCED_MATCHING = 3

# `certify` targets: (graph, comma-separated target, forced value)
CERTIFY = (
    ("cycle(6)", "1-2,4-5", (1, 1)),
    ("kmn_plus(2,3)", "b1-l1,b2-l2,b3-l3", (1, 1)),
)

# `analyze gallery:cycle(60)` must end within the probe deadline with this
# equistarability verdict; the graph is bipartite, and its degree-2 vertices
# without leaf neighbours violate the five-path condition.
PROBE = ("cycle(60)", "equistarable", NO)

# `crosscheck --max-n 6`: 30 connected triangle-free graphs, no violations,
# and this left/right outcome histogram per Table-1 row.
CORPUS_GRAPHS = 30
CORPUS_ROWS = {
    "equi": {"no/no": 18, "yes/yes": 12},
    "p5": {"no/no": 18, "yes/yes": 12},
    "partition": {"no/no": 18, "yes/yes": 12},
    "strong": {"no/no": 18, "yes/yes": 12},
}
