"""Sparse row storage inside ``Graph`` against dense reference builders.

``Graph`` keeps only the nonzero entries of each row.  These tests
compare it, on seeded random graphs with ∞ entries, against the dense
``ExtNat`` matrix it replaced: both constructors, the dense view, the
degrees and kinds, and every derived-graph builder, each re-implemented
here on dense matrices.
"""

import math
import random
import tracemalloc

from graphck import (
    INF,
    EdgeRef,
    ExtNat,
    Graph,
    Partition,
    build_EH,
    collapse,
    column_add,
    make_corner,
    move_T,
    out_split,
    random_graph,
    realize,
    split_breaking,
    unitize,
)
from graphck.corpus import _random_split
from graphck.graph import fresh_names
from graphck.moves import REMAINDER, apply_move

DRAWS = 500


def _draws():
    rng = random.Random(20240607)
    for _ in range(DRAWS):
        yield rng, random_graph(rng, max_vertices=6)


def _sparse_rows(adjacency) -> tuple:
    return tuple(
        {j: math.inf if x == "inf" else x for j, x in enumerate(row) if x} for row in adjacency
    )


# -- dense references: the builders as they were on an n x n ExtNat matrix ----


def _dense(g: Graph) -> list:
    return [list(row) for row in g.adjacency]


def ref_induced(g: Graph, keep) -> Graph:
    idx = [i for i, v in enumerate(g.vertices) if v in keep]
    a = g.adjacency
    return Graph([g.vertices[i] for i in idx], [[a[i][j] for j in idx] for i in idx])


def ref_class_counts(g: Graph, u: str, p: Partition) -> list:
    """Per class, the edges toward each target; the remainder takes the rest."""
    counts, used = [], {w: 0 for w in g.vertices}
    for c in p.entries:
        count = {}
        if c is not REMAINDER:
            for e in c:
                count[e.dst] = count.get(e.dst, 0) + 1
                used[e.dst] += 1
        counts.append(count)
    rest = {
        w: g.a(u, w) if g.a(u, w).is_infinite else ExtNat(int(g.a(u, w)) - used[w])
        for w in g.vertices
    }
    return [rest if c is REMAINDER else count for c, count in zip(p.entries, counts)]


def ref_out_split(g: Graph, u: str, p: Partition) -> Graph:
    counts = ref_class_counts(g, u, p)
    names = fresh_names(u, len(p.entries), [v for v in g.vertices if v != u])
    pos = g.index(u)
    vs = list(g.vertices[:pos]) + names + list(g.vertices[pos + 1 :])

    def entry(x, y):
        if x in names:
            c = counts[names.index(x)]
            return ExtNat.of(c.get(u if y in names else y, 0))
        return g.a(x, u if y in names else y)

    return Graph(vs, [[entry(x, y) for y in vs] for x in vs])


def ref_collapse(g: Graph, u: str) -> Graph:
    keep = [v for v in g.vertices if v != u]
    return Graph(keep, [[g.a(x, y) + g.a(x, u) * g.a(u, y) for y in keep] for x in keep])


def ref_move_T(g: Graph, path) -> Graph:
    rows = _dense(g)
    rows[g.index(path[0])][g.index(path[-1])] = INF
    return Graph(g.vertices, rows)


def ref_column_add(g: Graph, u: str, v: str) -> Graph:
    rows = _dense(g)
    j = g.index(v)
    for i, x in enumerate(g.vertices):
        new = rows[i][j] + g.a(x, u)
        rows[i][j] = new.dec() if x == u else new
    return Graph(g.vertices, rows)


def ref_split_breaking(g: Graph, u: str) -> Graph:
    finite = [
        EdgeRef(u, w, i)
        for w in g.vertices
        if g.a(u, w) and g.a(u, w).is_finite
        for i in range(int(g.a(u, w)))
    ]
    if not finite:
        return g
    return ref_out_split(g, u, Partition((REMAINDER, frozenset(finite))))


def ref_realize(cg) -> Graph:
    base = cg.base
    taken = set(base.vertices)
    chains = {}
    for v, h in cg.heads:
        chains[v] = fresh_names(v, int(h), taken)
        taken.update(chains[v])
    vs = list(base.vertices) + [c for v in base.vertices for c in chains[v]]
    index = {w: i for i, w in enumerate(vs)}
    rows = [[ExtNat(0)] * len(vs) for _ in vs]
    for x in base.vertices:
        for y in base.vertices:
            rows[index[x]][index[y]] = base.a(x, y)
    for v in base.vertices:
        prev = v
        for name in chains[v]:
            rows[index[name]][index[prev]] = ExtNat(1)
            prev = name
    return Graph(vs, rows)


def ref_unitize(cg) -> Graph:
    base = cg.base
    star = "⋆"
    while base.has_vertex(star):
        star += "'"
    rows = [list(row) + [ExtNat(0)] for row in base.adjacency]
    rows.append([h for _, h in cg.heads] + [ExtNat(0)])
    return Graph(list(base.vertices) + [star], rows)


def ref_spikes(star: Graph, H) -> Graph:
    """The spike graph of a star graph whose only vertex outside H is the star."""
    s = next(v for v in star.vertices if v not in H)
    core = ref_induced(star, H)
    names = [
        f"e({s}→{w},{i})"
        for w in star.vertices
        if w in H
        for i in range(int(star.a(s, w)))
    ]
    targets = [w for w in star.vertices if w in H for _ in range(int(star.a(s, w)))]
    vs = list(core.vertices) + names
    rows = [list(row) + [ExtNat(0)] * len(names) for row in core.adjacency]
    for w in targets:
        rows.append([ExtNat(1) if x == w else ExtNat(0) for x in vs])
    return Graph(vs, rows)


# -- the tests -----------------------------------------------------------------


def test_constructors_agree():
    for _, g in _draws():
        data = g.to_json()
        trusted = Graph._trusted(tuple(g.vertices), _sparse_rows(data["adjacency"]))
        assert trusted == g and hash(trusted) == hash(g)
        assert trusted.to_json() == data
        assert trusted.canonical_json() == g.canonical_json()
        assert trusted.digest() == g.digest()
        assert Graph(g.vertices, g.adjacency) == g


def test_degrees_and_kinds_match_the_dense_view():
    for _, g in _draws():
        a = g.adjacency
        for i, v in enumerate(g.vertices):
            out = sum(a[i], ExtNat(0))
            into = sum((row[i] for row in a), ExtNat(0))
            assert g.out_degree(v) == out and g.in_degree(v) == into
            assert g.is_infinite_emitter(v) == out.is_infinite
            assert g.is_regular(v) == (out.is_finite and bool(out))
            assert g.is_sink(v) == (not out)
            assert g.is_source(v) == (not into)
            assert g.supports_loop(v) == bool(a[i][i])
            assert g.row(v) == a[i]
            assert g.successors(v) == tuple(w for w, x in zip(g.vertices, a[i]) if x)
            assert g.predecessors(v) == tuple(
                u for u, row in zip(g.vertices, a) if row[i]
            )


def _same(builder, reference, *args):
    got, want = builder(*args), reference(*args)
    assert got == want and hash(got) == hash(want)
    assert got.canonical_json() == want.canonical_json()


def test_moves_and_induced_match_dense_references():
    for rng, g in _draws():
        keep = {v for v in g.vertices if rng.random() < 0.6}
        _same(g.induced, lambda k: ref_induced(g, k), keep)
        for v in g.vertices:
            if g.is_regular(v) and not g.supports_loop(v) and not g.is_source(v):
                _same(collapse, ref_collapse, g, v)
            if g.is_regular(v) and g.is_source(v):
                others = set(g.vertices) - {v}
                _same(lambda h, _: apply_move(h, "S", {"vertex": v})[0], ref_induced, g, others)
            if g.is_infinite_emitter(v):
                _same(split_breaking, ref_split_breaking, g, v)
            classes = _random_split(g, v, rng)
            if classes is not None:
                _same(out_split, ref_out_split, g, v, Partition.from_json(classes))
            for w in g.vertices:
                if v != w and g.a(v, w) and not g.is_source(v) and g.out_degree(v) > 1:
                    _same(column_add, ref_column_add, g, v, w)
                if g.a(v, w).is_infinite:
                    _same(move_T, ref_move_T, g, [v, w])
                    for x in g.successors(w):
                        _same(move_T, ref_move_T, g, [v, w, x])


def test_corner_builders_match_dense_references():
    for rng, g in _draws():
        cg = make_corner(g, {v: rng.choice([0, 0, 1, 2, 3]) for v in g.vertices})
        _same(realize, ref_realize, cg)
        _same(unitize, ref_unitize, cg)
        if any(h for _, h in cg.heads):
            # the star vertex is then regular and the only vertex outside the base
            _same(build_EH, ref_spikes, unitize(cg), set(g.vertices))
        inf_cg = make_corner(g, {v: rng.choice([0, 1, "inf"]) for v in g.vertices})
        _same(unitize, ref_unitize, inf_cg)


def test_realize_stays_sparse():
    """A head total of 2,000 allocates far below a dense matrix's >= 32 MB."""
    base = Graph(["a", "b"], [[1, 1], [0, 2]])
    cg = make_corner(base, {"a": 1200, "b": 800})
    tracemalloc.start()
    try:
        out = realize(cg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.n == 2002
    assert peak < 2 * 2**20
