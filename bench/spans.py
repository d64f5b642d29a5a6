"""Spans around the library's public functions, recorded from outside.

:class:`Tracer` replaces each named function by a wrapper in every
``graphck`` module that holds a reference to it (``from .graph import
dominates`` binds a separate name in the importing module), keeps one
span per call in flat arrays, and restores the originals on
:meth:`Tracer.uninstall`.  A span holds its name, start, end, parent
span and the index of the benchmark operation it ran under.

Per-layer metrics are derived from the spans afterwards: calls and
inclusive busy time per function, and a module's self time, which is
the time in that module's spans minus the child spans they cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from graphck.moves import MOVE_KINDS

#: (module, qualified name) of every spanned function.  The ones without
#: a metric of their own are spanned so their time lands in the right
#: module's self time instead of in their caller's.
SPANNED = [
    ("graph", "Graph.__init__"),
    ("graph", "Graph.digest"),
    ("graph", "Graph.to_dot"),
    ("graph", "reaches"),
    ("graph", "dominates"),
    ("graph", "shortest_nonzero_path"),
    ("graph", "simple_cycle_count_at"),
    ("graph", "condition_K"),
    ("graph", "vertex_class"),
    ("graph", "hereditary_closure"),
    ("graph", "saturate"),
    ("graph", "is_hereditary"),
    ("graph", "is_saturated"),
    ("moves", "apply_move"),
    ("canonical", "canonicalize"),
    ("canonical", "is_stably_complete"),
    ("ktheory", "k_groups"),
    ("ktheory", "k0_reduce"),
    ("ktheory", "smith_normal_form"),
    ("ideals", "saturated_hereditary_sets"),
    ("ideals", "breaking_vertices"),
    ("ideals", "admissible_pairs"),
    ("ideals", "IdealLattice.hasse_edges"),
    ("ideals", "IdealLattice.to_json"),
    ("ideals", "IdealLattice.to_dot"),
    ("corners", "corner_graph"),
    ("corners", "realize"),
    ("corners", "unitize"),
    ("corners", "build_EH"),
    ("projcalc", "corner_pipeline"),
    ("projcalc", "fullify"),
    ("projcalc", "make_partitioned"),
    ("projcalc", "eliminate_loop_emitter"),
    ("projcalc", "eliminate_dominated_emitter"),
    ("projcalc", "eliminate_undominated_emitter"),
    ("projcalc", "to_multiplicities"),
    ("corpus", "verify_corpus"),
    ("corpus", "random_graph"),
    ("corpus", "random_move"),
    ("cli", "main"),
]

#: Counted, not timed: a timing wrapper would swamp sub-microsecond calls.
COUNTED = [("extnat", "ExtNat.__init__")]

LAYERS = ("graph", "extnat", "moves", "canonical", "ktheory", "ideals", "corners",
          "projcalc", "corpus", "cli")


def _span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.removesuffix('.__init__')}"


class Tracer:
    """Installs the wrappers and collects spans and counters in memory."""

    def __init__(self):
        self.names: list = []
        self.name_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op_of: array = array("i")
        self.stack = [-1]
        self.op = -1
        #: Spans and counts are kept only while set: checks run untraced.
        self.active = False
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphck"]
        for module, qualname in SPANNED + COUNTED:
            owner = importlib.import_module(f"graphck.{module}")
            *cls, attr = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            name = _span_name(module, qualname)
            if (module, qualname) in COUNTED:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._spanner(name, original, _AFTER.get(name))
            if cls:
                self._patch(owner, attr, original, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, name, fn, after):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, op_of, stack = self.parent, self.op_of, self.stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op_of.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        snf_fresh = 0
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            busy[name] += dur[i]
            self_s[name.split(".")[0]] += dur[i] - child[i]
            if name == "ktheory.smith_normal_form":
                p = self.parent[i]
                if p >= 0 and self.names[self.name_of[p]] in ("ktheory.k_groups", "ktheory.k0_reduce"):
                    snf_fresh += 1
        c = self.counts
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for layer in LAYERS:
            if layer != "extnat":
                put(f"{layer}.self_ms", self_s[layer] * 1e3, "ms")
        for fn in ("simple_cycle_count_at", "dominates"):
            put(f"graph.{fn}.calls", calls[f"graph.{fn}"], "count")
            put(f"graph.{fn}.busy_ms", busy[f"graph.{fn}"] * 1e3, "ms")
        for fn in ("reaches", "shortest_nonzero_path", "Graph"):
            put(f"graph.{fn}.calls", calls[f"graph.{fn}"], "count")
        put("graph.Graph.digest.calls", calls["graph.Graph.digest"], "count")
        put("graph.Graph.digest.busy_ms", busy["graph.Graph.digest"] * 1e3, "ms")
        put("extnat.ExtNat.calls", c["extnat.ExtNat"], "count")
        put("moves.apply_move.calls", calls["moves.apply_move"], "count")
        for kind in MOVE_KINDS:
            put(f"moves.apply_move.{kind}.calls", c[f"apply_move.{kind}"], "count")
        for fn in ("canonicalize", "is_stably_complete"):
            put(f"canonical.{fn}.calls", calls[f"canonical.{fn}"], "count")
            put(f"canonical.{fn}.busy_ms", busy[f"canonical.{fn}"] * 1e3, "ms")
        put("canonical.trace_moves",
            c["trace_moves"] / calls["canonical.canonicalize"] if calls["canonical.canonicalize"] else 0.0,
            "moves/call")
        put("ktheory.k_groups.calls", calls["ktheory.k_groups"], "count")
        put("ktheory.smith_normal_form.calls", calls["ktheory.smith_normal_form"], "count")
        put("ktheory.smith_normal_form.busy_ms", busy["ktheory.smith_normal_form"] * 1e3, "ms")
        asked = calls["ktheory.k_groups"] + calls["ktheory.k0_reduce"]
        put("ktheory.snf_reuse", (asked - snf_fresh) / asked if asked else 0.0, "share")
        put("ideals.saturated_hereditary_sets.busy_ms",
            busy["ideals.saturated_hereditary_sets"] * 1e3, "ms")
        put("ideals.subsets_kept",
            c["subsets_kept"] / c["subsets_examined"] if c["subsets_examined"] else 0.0, "share")
        put("ideals.admissible_pairs.busy_ms", busy["ideals.admissible_pairs"] * 1e3, "ms")
        put("ideals.lattice_nodes", c["lattice_nodes"], "count")
        put("ideals.IdealLattice.hasse_edges.busy_ms",
            busy["ideals.IdealLattice.hasse_edges"] * 1e3, "ms")
        for fn in ("corner_graph", "realize", "unitize", "build_EH"):
            put(f"corners.{fn}.busy_ms", busy[f"corners.{fn}"] * 1e3, "ms")
        put("projcalc.corner_pipeline.busy_ms", busy["projcalc.corner_pipeline"] * 1e3, "ms")
        for fn in ("fullify", "make_partitioned", "eliminate_loop_emitter",
                   "eliminate_dominated_emitter", "eliminate_undominated_emitter",
                   "to_multiplicities"):
            put(f"projcalc.{fn}.calls", calls[f"projcalc.{fn}"], "count")
            put(f"projcalc.{fn}.busy_ms", busy[f"projcalc.{fn}"] * 1e3, "ms")
        put("corpus.random_move.calls", calls["corpus.random_move"], "count")
        put("corpus.random_move.busy_ms", busy["corpus.random_move"] * 1e3, "ms")
        put("cli.bytes_out", c["cli.bytes_out"], "B")
        return out

    def write(self, path) -> None:
        """The spans, column by column, with times in µs from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name_of.tolist(),
                "start_us": [round((t - t0) * 1e6, 3) for t in self.start],
                "end_us": [round((t - t0) * 1e6, 3) for t in self.end],
                "parent": self.parent.tolist(),
                "op": self.op_of.tolist(),
            }, fh, separators=(",", ":"))


def _after_apply_move(counts, args, result):
    counts[f"apply_move.{args[1]}"] += 1


def _after_canonicalize(counts, args, result):
    counts["trace_moves"] += len(result[1])


def _after_saturated_sets(counts, args, result):
    counts["subsets_kept"] += len(result)
    counts["subsets_examined"] += 2 ** args[0].n


def _after_admissible_pairs(counts, args, result):
    counts["lattice_nodes"] += len(result.nodes)


#: Counters read from a call's arguments and result, after it returns.
_AFTER = {
    "moves.apply_move": _after_apply_move,
    "canonical.canonicalize": _after_canonicalize,
    "ideals.saturated_hereditary_sets": _after_saturated_sets,
    "ideals.admissible_pairs": _after_admissible_pairs,
}
