"""Spans and exact counters around neckflow's public functions.

Everything here is installed from the benchmark's side: the program is not
edited.  ``Instrument.install`` replaces each listed function or method with
a wrapper, both on its owner and on every ``neckflow`` module that imported
it by name (``sweeps`` binds ``verify_level``, ``verifier`` binds
``build_hierarchy``, ...), so the wrapper sits wherever callers reach it.

Two modes share one table:

* counters only (every pass): a handful of cheap exact counts (panel tables,
  levels, LU fill, solves, cache gets) that must repeat exactly;
* traced (``spans=True``): additionally a span ``[name, start, end, parent]``
  per call, kept in memory and written out when the pass ends.  Layer self
  time is a span's duration minus its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (layer, owner path, attribute, outermost only).  The owner path is
# "module" or "module:Class"; "scipy.sparse.linalg" holds splu as fd calls it.
SPANS = [
    ("coeffs.eval", "neckflow.coeffs", "eval_many", True),
    ("coeffs.eval", "neckflow.coeffs", "coeff_eval", True),
    ("coeffs.eval", "neckflow.coeffs:Coeff", "eval", True),
    ("coeffs.diff", "neckflow.coeffs", "coeff_diff", True),
    ("fields.sample", "neckflow.fields:PolyField", "eval", False),
    ("fields.sample", "neckflow.fields", "eval_fields", False),
    ("fields.sample", "neckflow.fields", "sup_abs", False),
    ("fields.sample", "neckflow.fields", "fiber_sup", False),
    ("correctors.build", "neckflow.correctors", "build_hierarchy", False),
    ("correctors.build", "neckflow.correctors", "build_symmetric_green", False),
    ("correctors.build", "neckflow.correctors", "extend", False),
    ("correctors.verify", "neckflow.correctors", "verify_level", False),
    ("verifier.fit", "neckflow.verifier", "residual_order", False),
    ("verifier.fit", "neckflow.verifier", "corrector_blowup_order", False),
    ("verifier.fit", "neckflow.verifier", "theorem_rate_table", False),
    ("verifier.fit", "neckflow.verifier:HierarchyCache", "get", False),
    ("fd.assemble", "neckflow.fd:NeckGrid", "solver", False),
    ("fd.factor", "scipy.sparse.linalg", "splu", False),
    ("fd.solve", "neckflow.fd", "solve_w", False),
    ("fd.sample", "neckflow.fd", "solve_fields", False),
    ("fd.post", "neckflow.fd", "sup_grad", False),
    ("fd.post", "neckflow.fd", "global_energy", False),
    ("fd.post", "neckflow.fd", "local_energy", False),
    ("sweeps.run", "neckflow.sweeps", "run", False),
    ("sweeps.emit", "neckflow.sweeps", "emit", False),
]

LAYERS = sorted({name for name, _, _, _ in SPANS})

# counters that must repeat exactly for one code version and one seed
EXACT = ("coeffs.nodes", "coeffs.quad_tables", "coeffs.quad_panels",
         "correctors.levels", "fd.unknowns", "fd.lu_fill", "fd.solves",
         "verifier.cache_gets", "verifier.cache_hits")


def _resolve(path: str):
    mod_name, _, cls = path.partition(":")
    owner = sys.modules[mod_name]
    return getattr(owner, cls) if cls else owner


def _points(x1, x2=None) -> int:
    x1 = np.asarray(x1)
    if x2 is None:
        return int(x1.size)
    x2 = np.asarray(x2)
    if x2.ndim > x1.ndim:
        return int(np.broadcast(x1[..., None], x2).size)
    return int(np.broadcast(x1, x2).size)


class Instrument:
    """Counters (always) and spans (when ``spans`` is set) for one pass."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list = []
        self._stack: list = []
        self.counts = dict.fromkeys(EXACT, 0)
        self.counts.update({"coeffs.eval_calls": 0, "coeffs.eval_points": 0,
                            "fields.sample_points": 0})
        self._node_base = 0

    # -- counting hooks, called before the wrapped function ------------------

    def _count(self, layer, attr, args, kwargs):
        c = self.counts
        if layer == "coeffs.eval":
            c["coeffs.eval_calls"] += 1
            c["coeffs.eval_points"] += _points(args[1])
        elif layer == "fields.sample" and attr in ("eval", "eval_fields"):
            c["fields.sample_points"] += _points(args[1], args[2])
        elif attr == "get":
            green = kwargs.get("green", args[5] if len(args) > 5 else False)
            cache, key = args[0], (args[1], args[2], args[3], green)
            c["verifier.cache_gets"] += 1
            c["verifier.cache_hits"] += key in cache._hier
        elif attr == "extend" or attr.startswith("build_"):
            c["correctors.levels"] += 1  # a build makes the first level
        elif attr == "solve_w":
            c["fd.solves"] += 1

    def _wrap(self, layer, attr, fn, outermost):
        spans, stack = self.spans, self._stack
        count = self._count
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            count(layer, attr, args, kwargs)
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _wrap_counts(self, layer, attr, fn):
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(layer, attr, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every listed function; call after ``import neckflow``."""
        import neckflow.coeffs as ca

        counted = {"get", "extend", "solve_w", "build_hierarchy",
                   "build_symmetric_green"}
        for layer, path, attr, outermost in SPANS:
            owner = _resolve(path)
            orig = getattr(owner, attr)
            if self.spans_on:
                new = self._wrap(layer, attr, orig, outermost)
            elif attr in counted:
                new = self._wrap_counts(layer, attr, orig)
            else:
                continue
            setattr(owner, attr, new)
            for name, mod in list(sys.modules.items()):
                if name.startswith("neckflow") and mod is not None:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)

        table_init = ca._PanelTable.__init__

        @functools.wraps(table_init)
        def panel_table(table, node, tol):
            table_init(table, node, tol)
            self.counts["coeffs.quad_tables"] += 1
            self.counts["coeffs.quad_panels"] += len(table.edges) - 1
        ca._PanelTable.__init__ = panel_table

        import scipy.sparse.linalg as spla
        splu = spla.splu

        @functools.wraps(splu)
        def counted_splu(A, *args, **kwargs):
            lu = splu(A, *args, **kwargs)
            self.counts["fd.unknowns"] += int(A.shape[0])
            self.counts["fd.lu_fill"] += int(lu.L.nnz + lu.U.nnz)
            return lu
        spla.splu = counted_splu
        self._node_base = ca._NEXT_ID[0]

    def finish(self) -> dict:
        """Exact counters of the pass (nodes are read from the intern ids)."""
        import neckflow.coeffs as ca
        self.counts["coeffs.nodes"] = ca._NEXT_ID[0] - self._node_base
        return dict(self.counts)

    # -- span summaries ------------------------------------------------------

    def self_times(self, root_start: float, root_end: float) -> dict:
        """Seconds of self time per layer, plus ``trace.other_s`` for the part
        of the pass covered by no span."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        out["trace.other"] = (root_end - root_start) - top
        return out

    def nested_time(self, outer: str, inner: tuple) -> float:
        """Seconds spent in the outermost ``inner`` spans below an ``outer``
        span (inclusive time; it overlaps the self times of ``inner``)."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in inner or (parent >= 0 and self.spans[parent][0] in inner):
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def write(self, path: str, root_start: float):
        """Write the spans as JSON lines: name, start, end (seconds from the
        pass start) and the index of the parent span (-1 for none)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - root_start, 7),
                                     round(end - root_start, 7), parent]) + "\n")
