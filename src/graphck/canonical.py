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

from typing import NamedTuple

from .errors import InternalError
from .graph import (
    Graph,
    _bits,
    _cycle_mates,
    _first,
    _reached_by,
    _shortest_path,
    simple_cycle_count_at,
)
from .moves import MoveRecord, _breaks, _column_add, _dispatch, _exhaust, _move_T, _remove_sources


class StablyCompleteReport(NamedTuple):
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
        violations = [(2, (v,)) for i, v in enumerate(g.vertices) if _lacks_loop(g, i)]
        violations += [(3, (v,)) for v in g.vertices if _needs_second_loop(g, v)]
        reach, inf = g._reachability().reach, g._emitting()
        for i, v in enumerate(g.vertices):
            if g.is_infinite_emitter(v):
                violations.extend((4, (v, g.vertices[j])) for j in _bits(reach[i] & ~inf[i]))
        violations.extend((5, pair) for pair in _missing_edges(g))
        violations += [(6, (v,)) for v in g.vertices if _lacks_companion(g, v)]
        g._report = StablyCompleteReport(not violations, tuple(violations))
    return g._report


def _lacks_loop(g: Graph, i: int) -> bool:
    """Condition 2 fails at position ``i``: a regular vertex without a loop."""
    return bool(g._degs().regular >> i & 1) and i not in g._rows[i]


def _needs_second_loop(g: Graph, v: str) -> bool:
    """Condition 3 fails at ``v``: two simple cycles but fewer than two loops."""
    return g._mult(v, v) < 2 and simple_cycle_count_at(g, v) >= 2


def _lacks_companion(g: Graph, v: str) -> bool:
    """Condition 6 fails at ``v``: a looped infinite emitter with no regular companion."""
    return g.is_infinite_emitter(v) and g.supports_loop(v) and companion(g, v) is None


def _missing_edges(g: Graph):
    """Pairs (v, w) where v dominates w with no edge v → w, in vertex order."""
    r = g._reachability()
    for i, v in enumerate(g.vertices):
        for j in _bits(r.reach[i] & ~r.succ[i]):
            yield v, g.vertices[j]


def companion(g: Graph, v: str):
    """First regular vertex on a common cycle with ``v``, or None."""
    return _first(g, g._degs().regular & _cycle_mates(g, g.index(v)))


class _Pipeline:
    """Mutable cursor over a graph being rewritten, accumulating the trace."""

    def __init__(self, g: Graph):
        self.graph = g
        self.trace = []

    def record(self, kind: str, params: dict, out: Graph) -> None:
        """Continue from ``out``, which the move ``kind`` with ``params`` made of the graph."""
        self.trace.append(MoveRecord._of(kind, params, self.graph, out))
        self.graph = out

    def extend(self, result: tuple) -> None:
        """Continue from the (graph, records) of a run of moves."""
        self.graph, records = result
        self.trace.extend(records)


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
    pipe.extend(_exhaust(pipe.graph, "BREAKSPLIT", _breaks))

    # 2: infinite emitters emit (infinitely) to everything they dominate
    cur = pipe.graph  # T moves keep the vertices and reachability: cur's answers hold throughout
    for i, v in enumerate(cur.vertices):
        for j in _bits(cur._reachability().reach[i]) if cur.is_infinite_emitter(v) else ():
            path = _shortest_path(pipe.graph._rows, i, j)
            pipe.record("T", {"path": [cur.vertices[k] for k in path]}, _move_T(pipe.graph, path))

    # 3: no regular sources
    pipe.extend(_remove_sources(pipe.graph))

    # 4: every regular vertex supports a loop
    pipe.extend(_exhaust(pipe.graph, "COLLAPSE", _lacks_loop))

    # 5 + 6: companion splits, then column-operation repairs, to a fixed point
    rounds = pipe.graph.n + 2
    for _ in range(rounds):
        for v in list(pipe.graph.vertices):
            if _lacks_companion(pipe.graph, v):
                params = {"vertex": v, "classes": _companion_partition(pipe.graph, v)}
                pipe.record("O", params, _dispatch(pipe.graph, "O", params))
        _repair(pipe, _missing_edges, lambda g, pair: _shortest_path(g._rows, *map(g.index, pair)))
        _repair(pipe, lambda g: (v for v in g.vertices if _needs_second_loop(g, v)), _short_cycle)
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
    return [[[v, w, 0] for w in sorted(g.successors(v))], "rest"]


def _repair(pipe: _Pipeline, defects, closing_path) -> None:
    """Apply ``COLADD`` along a path closing the first defect until none is left.

    ``defects(g)`` yields the defects of ``g`` in order, and
    ``closing_path(g, defect)`` gives the path, as positions, whose column
    adds close one.  A defect may come back after later repairs; each gets at most
    |V|² attempts, counting the vertices of the graph the repair starts on.
    """
    budget = max(1, pipe.graph.n ** 2)
    attempts: dict = {}
    while (defect := next(defects(pipe.graph), None)) is not None:
        attempts[defect] = attempts.get(defect, 0) + 1
        if attempts[defect] > budget:
            raise InternalError(f"column operations did not repair {defect!r}")
        path = closing_path(pipe.graph, defect)
        vs = pipe.graph.vertices  # column adds keep the vertices
        for a, b in zip(path[1:], path[2:]):
            pipe.record("COLADD", {"source": vs[a], "target": vs[b]}, _column_add(pipe.graph, a, b))


def _short_cycle(g: Graph, v: str) -> list:
    """Shortest interior-simple cycle of length >= 2 based at ``v``, as positions."""
    best = None
    i = g.index(v)
    # the successors of v, other than v itself, that have a path back to v
    for j in _bits(g._reachability().succ[i] & _reached_by(g, i) & ~(1 << i)):
        candidate = [i] + _shortest_path(g._rows, j, i)
        interior = candidate[:-1]
        if len(set(interior)) != len(interior):
            continue
        if best is None or len(candidate) < len(best):
            best = candidate
    if best is None:
        raise InternalError(f"{v!r} has two simple cycles but no long cycle")
    return best
