#!/usr/bin/env python3
"""Run the property panel over the whole counterexample gallery and print a
compact verdict matrix.  Handy for eyeballing regressions after a change.

Usage: python scripts/run_gallery_panel.py [--strong]
"""

import argparse
import sys
import time

from equilab.common import DEFAULT_STRONG_GROUND_LIMIT
from equilab.equicert import decide_equi_exact, star_system, strong_check
from equilab.graphs import generate, is_triangle_free
from equilab.recognizers import is_p5_constrained

GALLERY = [
    "cycle(4)",
    "cycle(6)",
    "path(5)",
    "complete_bipartite(3,3)",
    "complete_bipartite(4,3)",
    "kmn_plus(2,3)",
    "petersen",
    "circulant(11,{1,3})",
    "graph_h",
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--strong", action="store_true",
                    help="also run the strong-variant check (slower)")
    args = ap.parse_args()

    header = f"{'graph':24} {'n':>3} {'m':>3} {'tri-free':>8} {'p5':>4} {'equi':>5}"
    if args.strong:
        header += f" {'strong':>7}"
    print(header)
    for name in GALLERY:
        g = generate(name)
        t0 = time.time()
        s = star_system(g)
        equi = decide_equi_exact(s).value
        row = (f"{name:24} {g.n:>3} {g.m:>3} "
               f"{str(is_triangle_free(g)[0]):>8} "
               f"{is_p5_constrained(g).value:>4} {equi:>5}")
        if args.strong:
            if s.ground_size <= DEFAULT_STRONG_GROUND_LIMIT:
                row += f" {strong_check(s).value:>7}"
            else:
                row += f" {'skip':>7}"
        row += f"   [{time.time() - t0:.2f}s]"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
