"""Seeded random graphs and moves, for verification harnesses and tests.

Everything here is deterministic given a :class:`random.Random`
instance, so corpora are reproducible from a single integer seed.
"""

from __future__ import annotations

import random

from .canonical import canonicalize, is_stably_complete
from .graph import EdgeRef, Graph
from .ktheory import k_groups
from .moves import _finite_edges, apply_move

DEFAULT_ENTRIES = (0, 0, 0, 1, 1, 2, "inf")


def random_graph(rng: random.Random, max_vertices: int = 6, entries=DEFAULT_ENTRIES) -> Graph:
    """A random graph with 1..max_vertices vertices and entries drawn from ``entries``."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
    return Graph(vs, rows)


def applicable_moves(g: Graph, rng: random.Random) -> list:
    """A sample of applicable (kind, params) pairs on ``g``."""
    out = []
    for v in g.vertices:
        if g.is_regular(v) and not g.supports_loop(v) and not g.is_source(v):
            out.append(("COLLAPSE", {"vertex": v}))
        if g.is_regular(v) and g.is_source(v):
            out.append(("S", {"vertex": v}))
        if g.is_infinite_emitter(v) and _finite_edges(g, v):
            out.append(("BREAKSPLIT", {"vertex": v}))
    for u in g.vertices:
        if g.is_source(u) or g.out_degree(u) <= 1:
            continue
        for v in g.successors(u):
            if u != v:
                out.append(("COLADD", {"source": u, "target": v}))
    for v in g.vertices:
        for w in g.successors(v):
            if g.a(v, w).is_infinite:
                # a T move onto an entry that is ∞ already changes nothing
                for x in g.successors(w):
                    if not g.a(v, x).is_infinite:
                        out.append(("T", {"path": [v, w, x]}))
    for u in g.vertices:
        split = _random_split(g, u, rng)
        if split is not None:
            out.append(("O", {"vertex": u, "classes": split}))
    return out


def _random_split(g: Graph, u: str, rng: random.Random):
    """A random valid two-class partition of the out-edges of ``u``."""
    if g.is_sink(u):
        return None
    pool = []
    for w in g.successors(u):
        m = g.a(u, w)
        pool.extend(EdgeRef(u, w, i) for i in range(3 if m.is_infinite else int(m)))
    if g.is_infinite_emitter(u):
        k = rng.randint(1, max(1, len(pool) // 2))
        chosen = frozenset(rng.sample(pool, k))
        return [sorted(e.to_json() for e in chosen), "rest"]
    if len(pool) < 2:
        return None
    k = rng.randint(1, len(pool) - 1)
    chosen = frozenset(rng.sample(pool, k))
    rest = frozenset(pool) - chosen
    return [sorted(e.to_json() for e in chosen), sorted(e.to_json() for e in rest)]


def random_move(g: Graph, rng: random.Random):
    """One random applicable move, or None if there is none."""
    moves = applicable_moves(g, rng)
    return rng.choice(moves) if moves else None


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
