"""Seeded random graphs and moves, for verification harnesses and tests.

Everything here is deterministic given a :class:`random.Random`
instance, so corpora are reproducible from a single integer seed.
"""

from __future__ import annotations

import random

from .canonical import canonicalize, is_stably_complete
from .graph import _INF, Graph
from .ktheory import k_groups
from .moves import _breaks, apply_move

DEFAULT_ENTRIES = (0, 0, 0, 1, 1, 2, "inf")


def random_graph(rng: random.Random, max_vertices: int = 6, entries=DEFAULT_ENTRIES) -> Graph:
    """A random graph with 1..max_vertices vertices and entries drawn from ``entries``."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
    return Graph(vs, rows)


def applicable_moves(g: Graph, rng: random.Random) -> list:
    """Every move :func:`random_move` draws from, as (kind, params) pairs in a fixed order.

    Not a sample: first each applicable S, COLLAPSE or BREAKSPLIT move in
    vertex order, then a COLADD move for each edge ``u → v`` (``u ≠ v``)
    out of a vertex that receives edges and emits more than one, then a
    T move for each path ``[v, w, x]`` whose ``(v, w)`` entry is ∞ and
    ``(v, x)`` entry is finite.  Last come out-splits, one drawn from
    ``rng`` per vertex that has one, in vertex order.
    """
    return [_params(g, c) for c in _candidates(g, rng)]


def random_move(g: Graph, rng: random.Random):
    """``rng.choice(applicable_moves(g, rng))``, or None if there is none.

    It draws from ``rng`` as that would, but builds only the move chosen.
    """
    candidates = _candidates(g, rng)
    return _params(g, rng.choice(candidates)) if candidates else None


def _candidates(g: Graph, rng: random.Random) -> list:
    """The moves of :func:`applicable_moves`, in its order, as vertex positions."""
    rows, degs = g._rows, g._degs()
    out = []
    for i, row in enumerate(rows):
        if degs.regular >> i & 1:
            if i not in degs.receiving:
                out.append(("S", i))
            elif i not in row:
                out.append(("COLLAPSE", i))
        elif _breaks(g, i):
            out.append(("BREAKSPLIT", i))
    for i, row in enumerate(rows):
        if i in degs.receiving and degs.out[i] > 1:
            out.extend(("COLADD", i, j) for j in row if j != i)
    for i, row in enumerate(rows):
        for j, m in row.items():
            if m == _INF:
                # a T move onto an entry that is ∞ already changes nothing
                out.extend(("T", i, j, k) for k in rows[j] if row.get(k) != _INF)
    for i, row in enumerate(rows):
        drawn = _draw_split(row, rng)
        if drawn is not None:
            out.append(("O", i, drawn))
    return out


def _params(g: Graph, candidate: tuple) -> tuple:
    """The (kind, params) pair of one candidate of :func:`_candidates`."""
    kind, *at = candidate
    vs = g.vertices
    if kind == "O":
        return kind, {"vertex": vs[at[0]], "classes": _split_classes(g, *at)}
    if kind == "COLADD":
        return kind, {"source": vs[at[0]], "target": vs[at[1]]}
    if kind == "T":
        return kind, {"path": [vs[p] for p in at]}
    return kind, {"vertex": vs[at[0]]}


def _random_split(g: Graph, u: str, rng: random.Random):
    """A random valid two-class partition of the out-edges of ``u``."""
    i = g.index(u)
    drawn = _draw_split(g._rows[i], rng)
    return None if drawn is None else _split_classes(g, i, drawn)


def _draw_split(row: dict, rng: random.Random):
    """Positions drawn into the first class of an out-split of ``row``, or None.

    The out-edges are numbered in column order, with 3 slots for an ∞
    family and one per edge of a finite one.  At an infinite emitter the
    undrawn edges form the remainder class, so a single edge may be drawn.
    """
    size = sum(3 if m == _INF else m for m in row.values())
    if _INF in row.values():
        return rng.sample(range(size), rng.randint(1, max(1, size // 2)))
    if size < 2:
        return None
    return rng.sample(range(size), rng.randint(1, size - 1))


def _split_classes(g: Graph, i: int, drawn: list) -> list:
    """The JSON classes of the out-split of position ``i`` that ``drawn`` picks."""
    u, vs, row = g.vertices[i], g.vertices, g._rows[i]
    pool = [[u, vs[j], k] for j, m in row.items() for k in range(3 if m == _INF else m)]
    chosen = sorted(pool[p] for p in drawn)
    if _INF in row.values():
        return [chosen, "rest"]
    picked = set(drawn)
    return [chosen, sorted(e for p, e in enumerate(pool) if p not in picked)]


def verify_corpus(count: int, max_vertices: int, seed: int) -> tuple:
    """Run the invariance harness; returns (passed, failures).

    Each item draws a random graph, applies a short random sequence of
    applicable moves checking that the K-theory pair never changes, then
    canonicalizes the original graph and checks both the structural
    postcondition and K-theory invariance of the pipeline.
    """
    rng = random.Random(seed)
    failures = []
    passed = 0
    for i in range(count):
        item_rng = random.Random(rng.getrandbits(64))
        g = random_graph(item_rng, max_vertices=max_vertices)
        try:
            base = k_groups(g)
            cur = g
            for _ in range(item_rng.randint(1, 3)):
                mv = random_move(cur, item_rng)
                if mv is None:
                    break
                cur, _rec = apply_move(cur, mv[0], mv[1])
                after = k_groups(cur)
                if after != base:
                    raise AssertionError(
                        f"move {mv[0]} changed K-theory: {base} -> {after}"
                    )
            canon, _trace = canonicalize(g)
            report = is_stably_complete(canon)
            if not report.satisfied:
                raise AssertionError(f"canonical output violates {report.violations}")
            if k_groups(canon) != base:
                raise AssertionError("canonicalization changed K-theory")
        except Exception as exc:  # noqa: BLE001 - harness reports, never hides
            failures.append((i, g.to_json(), f"{type(exc).__name__}: {exc}"))
            continue
        passed += 1
    return passed, failures
