"""The stably complete form and the pipeline that reaches it.

A graph with finitely many vertices is *stably complete* when

1. its vertex set is finite (structural here),
2. every regular vertex supports a loop,
3. every vertex with two distinct simple cycles supports two loops,
4. every infinite emitter emits infinitely to every vertex it dominates,
5. dominance implies a direct edge, and
6. every infinite emitter supporting a loop has a regular vertex on a
   common cycle.

``canonicalize`` rewrites any graph into a stably complete one by a
finite sequence of moves, returning the result together with the full
replayable trace.  Every stage uses only moves that preserve the
K-theory pair, so the output is interchangeable with the input for all
invariants computed by this package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InternalError, NotFoundError, ValidationError
from .graph import (
    EdgeRef,
    Graph,
    _bits,
    dominates,
    shortest_nonzero_path,
    simple_cycle_count_at,
)
from .moves import REMAINDER, Partition, _finite_edges, _remove_sources, apply_move

#: Environment variable overriding the column-operation fuel bound.
FUEL_ENV = "GRAPHCK_FUEL"


@dataclass(frozen=True)
class StablyCompleteReport:
    """Outcome of the six structural checks, with witnesses per violation."""

    satisfied: bool
    violations: tuple  # of (condition_number, witness_vertices)

    def to_json(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "violations": [[c, list(w)] for c, w in self.violations],
        }


def is_stably_complete(g: Graph) -> StablyCompleteReport:
    """Check the six conditions; vertices witnessing failures are reported.

    Computed on first use and kept with the graph, which is immutable.
    """
    if g._report is None:
        violations = []
        for v in g.vertices:
            if g.is_regular(v) and not g.supports_loop(v):
                violations.append((2, (v,)))
        for v in g.vertices:
            if g.a(v, v) < 2 and simple_cycle_count_at(g, v) >= 2:
                violations.append((3, (v,)))
        reach, inf = g._reachability().reach, g._emitting().inf
        for i, v in enumerate(g.vertices):
            if g.is_infinite_emitter(v):
                violations.extend((4, (v, g.vertices[j])) for j in _bits(reach[i] & ~inf[i]))
        violations.extend((5, pair) for pair in _missing_edges(g))
        for v in g.vertices:
            if g.is_infinite_emitter(v) and g.supports_loop(v):
                if companion(g, v) is None:
                    violations.append((6, (v,)))
        g._report = StablyCompleteReport(not violations, tuple(violations))
    return g._report


def _missing_edges(g: Graph):
    """Pairs (v, w) where v dominates w with no edge v → w, in vertex order."""
    r = g._reachability()
    for i, v in enumerate(g.vertices):
        for j in _bits(r.reach[i] & ~r.succ[i]):
            yield v, g.vertices[j]


def companion(g: Graph, v: str):
    """First regular vertex on a common cycle with ``v``, or None."""
    for w in g.vertices:
        if g.is_regular(w) and dominates(g, v, w) and dominates(g, w, v):
            return w
    return None


def _fuel(g: Graph) -> int:
    env = os.environ.get(FUEL_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"{FUEL_ENV} must be an integer, got {env!r}") from None
    return max(1, g.n * g.n)


class _Pipeline:
    """Mutable cursor over a graph being rewritten, accumulating the trace."""

    def __init__(self, g: Graph):
        self.graph = g
        self.trace = []

    def do(self, kind: str, params: dict) -> None:
        self.graph, rec = apply_move(self.graph, kind, params)
        self.trace.append(rec)


def canonicalize(g: Graph) -> tuple:
    """Rewrite ``g`` into a stably complete graph; returns (graph, trace).

    Stages: split every infinite emitter off its finitely-parallel
    edges; make infinite emitters emit infinitely to everything they
    dominate; delete regular sources; collapse loopless regular
    vertices; out-split looped infinite emitters lacking a regular cycle
    companion; finally repair missing edges and missing second loops by
    legal column operations.  The result is checked before it returns.
    """
    pipe = _Pipeline(g)

    # 1: every edge of an infinite emitter should have infinitely many parallels
    while True:
        cur = pipe.graph
        mixed = [
            v for v in cur.vertices if cur.is_infinite_emitter(v) and _finite_edges(cur, v)
        ]
        if not mixed:
            break
        pipe.do("BREAKSPLIT", {"vertex": mixed[0]})

    # 2: infinite emitters emit (infinitely) to everything they dominate
    cur = pipe.graph
    for v in [v for v in cur.vertices if cur.is_infinite_emitter(v)]:
        for w in cur.vertices:
            if dominates(pipe.graph, v, w):
                pipe.do("T", {"path": shortest_nonzero_path(pipe.graph, v, w)})

    # 3: no regular sources
    pipe.graph, records = _remove_sources(pipe.graph)
    pipe.trace.extend(records)

    # 4: every regular vertex supports a loop
    while True:
        cur = pipe.graph
        loopless = [
            v for v in cur.vertices if cur.is_regular(v) and not cur.supports_loop(v)
        ]
        if not loopless:
            break
        pipe.do("COLLAPSE", {"vertex": loopless[0]})

    # 5 + 6: companion splits, then column-operation repairs, to a fixed point
    rounds = pipe.graph.n + 2
    for _ in range(rounds):
        for v in list(pipe.graph.vertices):
            cur = pipe.graph
            if (
                cur.is_infinite_emitter(v)
                and cur.supports_loop(v)
                and companion(cur, v) is None
            ):
                pipe.do("O", {"vertex": v, "classes": _companion_partition(cur, v)})
        _repair_missing_edges(pipe)
        _repair_second_loops(pipe)
        if is_stably_complete(pipe.graph).satisfied:
            return pipe.graph, pipe.trace
    raise InternalError(
        f"canonicalization did not converge: {is_stably_complete(pipe.graph).violations}"
    )


def _companion_partition(g: Graph, v: str) -> list:
    """Partition JSON splitting off one edge toward each dominated vertex.

    Valid for infinite emitters whose rows are pure ∞: dominance then
    coincides with direct emission, so picking the index-0 edge toward
    every row target captures one edge per dominated vertex.
    """
    chosen = frozenset(EdgeRef(v, w, 0) for w in g.successors(v))
    return Partition((frozenset(chosen), REMAINDER)).to_json()


def _repair_missing_edges(pipe: _Pipeline) -> None:
    """Add a direct edge for every dominance pair lacking one (condition 5)."""
    budget = _fuel(pipe.graph)
    attempts: dict = {}
    while True:
        cur = pipe.graph
        pair = next(_missing_edges(cur), None)
        if pair is None:
            return
        attempts[pair] = attempts.get(pair, 0) + 1
        if attempts[pair] > budget:
            raise InternalError(f"column operations did not close the pair {pair}")
        path = shortest_nonzero_path(cur, pair[0], pair[1])
        for a, b in zip(path[1:], path[2:]):
            pipe.do("COLADD", {"source": a, "target": b})


def _repair_second_loops(pipe: _Pipeline) -> None:
    """Give every two-cycle vertex a second loop (condition 3)."""
    budget = _fuel(pipe.graph)
    attempts: dict = {}
    while True:
        cur = pipe.graph
        vertex = None
        for v in cur.vertices:
            if cur.a(v, v) < 2 and simple_cycle_count_at(cur, v) >= 2:
                vertex = v
                break
        if vertex is None:
            return
        attempts[vertex] = attempts.get(vertex, 0) + 1
        if attempts[vertex] > budget:
            raise InternalError(f"column operations left {vertex!r} with one loop")
        path = _short_cycle(cur, vertex)
        if path is None:
            raise InternalError(f"{vertex!r} has two simple cycles but no long cycle")
        for a, b in zip(path[1:], path[2:]):
            pipe.do("COLADD", {"source": a, "target": b})


def _short_cycle(g: Graph, v: str):
    """Shortest interior-simple cycle of length >= 2 based at ``v``."""
    best = None
    for u in g.successors(v):
        if u == v:
            continue
        try:
            path = shortest_nonzero_path(g, u, v)
        except NotFoundError:
            continue
        candidate = [v] + path
        interior = candidate[:-1]
        if len(set(interior)) != len(interior):
            continue
        if best is None or len(candidate) < len(best):
            best = candidate
    return best
