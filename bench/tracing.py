"""Spans around the public functions of equilab, installed from outside.

Every public function of the traced modules is replaced, in its defining
module and in each sibling module that imported it with `from .x import f`,
by a wrapper that records a span while the tracer is installed.  A span is
(name, start, end, parent span id, operation id); the benchmark opens one
root span per operation, so every span of an operation descends from it.
Spans stay in memory, in flat arrays that the garbage collector does not
traverse, and are written out once, after the run.

Counters read from outside the program:
- graphs.bk_nodes: Bron-Kerbosch nodes, read as the growth of the `Budget`
  passed to the clique and stable-set enumerators (a `Budget` with the
  library's default limit is passed where the caller passed none);
- verify_weighting results, to count sampling attempts per verified weighting;
- the largest set-system ground size handed to the exact engine.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("graphs", "transforms", "matching", "exactla", "simplex",
           "equicert", "recognizers", "corpus", "cli")

_BK_FUNCTIONS = ("graphs.enumerate_maximal_cliques",
                 "graphs.enumerate_maximal_stable_sets")
_GROUND_FUNCTIONS = ("equicert.decide_equi_exact", "equicert.strong_check",
                     "equicert.solve_unit_system")
ROOT = "op"


def public_functions(mod):
    """(name, function) pairs defined in `mod` whose name is public."""
    return [(name, obj) for name, obj in vars(mod).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__]


class Tracer:
    def __init__(self, eq):
        self.eq = eq
        self.names: list[str] = [ROOT]
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op_id: array = array("i")
        self.stack = [-1]
        self.op = -1
        self.bk_nodes = 0
        self.verify_yes = 0
        self.max_ground = 0
        self._patches = []  # (module, attribute, original, wrapper)
        wrappers = {}
        for modname in MODULES:
            mod = getattr(eq, modname)
            for name, fn in public_functions(mod):
                wrappers[fn] = self._wrap(f"{modname}.{name}", fn)
        for modname in MODULES:
            mod = getattr(eq, modname)
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[obj]))

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, op_id, stack = self.parent, self.op_id, self.stack
        if name in _BK_FUNCTIONS:
            call = self._bk_call(fn)
        elif name == "equicert.verify_weighting":
            call = self._verify_call(fn)
        elif name in _GROUND_FUNCTIONS:
            call = self._ground_call(fn)
        else:
            call = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return call(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return wrapper

    def _bk_call(self, fn):
        sig = inspect.signature(fn)
        make_budget = self.eq.common.make_budget

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            budget = make_budget(bound.arguments.get("budget"))
            bound.arguments["budget"] = budget
            used = budget.used
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self.bk_nodes += budget.used - used
        return call

    def _verify_call(self, fn):
        def call(system, *args, **kwargs):
            self.max_ground = max(self.max_ground, system.ground_size)
            verdict = fn(system, *args, **kwargs)
            self.verify_yes += verdict.is_yes
            return verdict
        return call

    def _ground_call(self, fn):
        def call(system, *args, **kwargs):
            self.max_ground = max(self.max_ground, system.ground_size)
            return fn(system, *args, **kwargs)
        return call

    def begin_op(self, op: int) -> None:
        """Open the root span of operation `op`."""
        self.op = op
        self.stack.append(len(self.name_id))
        for column, value in ((self.name_id, 0), (self.parent, -1), (self.op_id, op),
                              (self.start, 0.0), (self.end, 0.0)):
            column.append(value)

    def end_op(self, t0: float, t1: float) -> None:
        """Close the root span; it covers the operation's timed interval."""
        sid = self.stack.pop()
        self.start[sid], self.end[sid] = t0, t1
        self.op = -1

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per function, per module and for the
        unattributed remainder of the root spans (the operation's own time
        outside every wrapped call)."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        op_self = defaultdict(float)
        op_root = {}
        strong_lp = 0
        lp, strong = self.names.index("simplex.lp_optimize"), self.names.index("equicert.strong_check")
        for i in range(n):
            own = dur[i] - child[i]
            name = self.names[self.name_id[i]]
            self_s[name] += own
            op_self[self.op_id[i]] += own
            if self.name_id[i] == 0:
                op_root[self.op_id[i]] = dur[i]
                continue
            calls[name] += 1
            if self.name_id[i] == lp and self._has_ancestor(i, strong):
                strong_lp += 1
        modules = defaultdict(float)
        for name, own in self_s.items():
            if name != ROOT:
                modules[name.split(".", 1)[0]] += own
        error = max((abs(op_self[op] - root) for op, root in op_root.items()), default=0.0)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "modules": dict(modules),
            "root_s": sum(op_root.values()),
            "unattributed_s": self_s.get(ROOT, 0.0),
            "attribution_error_s": error,
            "spans": n,
            "bk_nodes": self.bk_nodes,
            "strong_lp_calls": strong_lp,
            "verify_yes": self.verify_yes,
            "max_ground": self.max_ground,
        }

    def _has_ancestor(self, sid: int, nid: int) -> bool:
        p = self.parent[sid]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path) -> None:
        """All spans as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_id[i]}\n")
