"""Checks computed apart from the library.

Everything here reads a graph only through its vertex list and its
adjacency values, and recomputes the answer along its own code path:
the relation matrix is rebuilt from the adjacency, invariant factors
come from a pivot elimination that keeps no transforms (or from the
minors-gcd oracle of the test suite on small matrices), reachability
is a Warshall closure, and simple-cycle counts use the classical
characterization by strongly connected components.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import (  # noqa: E402  (the test suite's brute-force oracles)
    oracle_admissible_pair_count,
    oracle_condition_K,
    oracle_invariant_factors,
)

INF = "inf"

__all__ = [
    "admissible_pair_count",
    "admissible_pairs",
    "check_dot_graph",
    "check_dot_lattice",
    "check_lattice_json",
    "condition_K",
    "cycle_count",
    "dominance",
    "entries",
    "invariant_factors",
    "is_regular",
    "k_pair",
    "relation_columns",
    "relation_matrix",
    "stable_completeness_violations",
]

admissible_pair_count = oracle_admissible_pair_count
condition_K = oracle_condition_K

# minors-gcd enumerates every k x k minor; beyond this size it is too slow
_MINORS_MAX = 4


def entries(g) -> list:
    """Adjacency as plain ints with the string "inf" for ∞."""
    return [[x.to_json() for x in row] for row in g.adjacency]


def is_regular(row) -> bool:
    return INF not in row and sum(row) > 0


def relation_matrix(g) -> list:
    """Rows over all vertices, one column per regular vertex v: A(v, ·)ᵗ − χ_v."""
    cols = relation_columns(entries(g))
    return [[col.get(w, 0) for col in cols] for w in range(g.n)]


def relation_columns(a: list) -> list:
    """The relation matrix's columns as sparse {row: entry} maps."""
    cols = []
    for v, row in enumerate(a):
        if is_regular(row):
            col = {w: x for w, x in enumerate(row) if x}
            col[v] = col.get(v, 0) - 1
            cols.append({w: x for w, x in col.items() if x})
    return cols


def _dense_factors(m: list) -> list:
    """Nonzero invariant factors by pivoting on a least entry, no transforms kept."""
    a = [row[:] for row in m]
    out = []
    while a and a[0]:
        nonzero = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[0], a[pi] = a[pi], a[0]
        for row in a:
            row[0], row[pj] = row[pj], row[0]
        while True:
            p = a[0][0]
            for i in range(1, len(a)):
                q = a[i][0] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            for j in range(1, len(a[0])):
                q = a[0][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[0]
            rest = [(abs(a[i][0]), i, 0) for i in range(1, len(a)) if a[i][0]]
            rest += [(abs(a[0][j]), 0, j) for j in range(1, len(a[0])) if a[0][j]]
            if rest:
                # a remainder is smaller than the pivot: make it the pivot
                _, i, j = min(rest)
                a[0], a[i] = a[i], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
                continue
            bad = next(
                (i for i in range(1, len(a)) if any(x % p for x in a[i][1:])), None
            )
            if bad is None:
                break
            # p must divide the rest; adding the offending row brings a remainder in
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
        out.append(abs(a[0][0]))
        a = [row[1:] for row in a[1:]]
    return out


def invariant_factors(cols: list) -> list:
    """Nonzero invariant factors of a matrix given by sparse columns.

    Unit entries are pivoted away first, sparsely: clearing the pivot's
    row by column operations leaves the rest of the matrix as it is, so
    the pivot's row and column simply drop out with a factor 1.  That
    takes the long chains of ``realize`` in time linear in their length.
    What remains is reduced densely.
    """
    cols = [dict(c) for c in cols]
    where = defaultdict(set)  # row -> columns with an entry in it
    for j, col in enumerate(cols):
        for i in col:
            where[i].add(j)
    alive = set(range(len(cols)))
    units = 0
    queue = list(alive)
    while queue:
        c = queue.pop()
        if c not in alive:
            continue
        r = next((i for i, x in cols[c].items() if abs(x) == 1), None)
        if r is None:
            continue
        p = cols[c][r]
        for j in where[r] - {c}:
            f = cols[j][r] * p
            for i, x in cols[c].items():
                y = cols[j].get(i, 0) - f * x
                if y:
                    cols[j][i] = y
                    where[i].add(j)
                elif i in cols[j]:
                    del cols[j][i]
                    where[i].discard(j)
            queue.append(j)
        for i in cols[c]:
            where[i].discard(c)
        alive.discard(c)
        units += 1
    rest = [cols[c] for c in sorted(alive) if cols[c]]
    rows = sorted({i for col in rest for i in col})
    dense = [[col.get(i, 0) for col in rest] for i in rows]
    return [1] * units + (_dense_factors(dense) if dense else [])


def k_pair(g) -> dict:
    """The K-theory pair, in the library's JSON shape, from the rebuilt matrix."""
    cols = relation_columns(entries(g))
    if cols and min(g.n, len(cols)) <= _MINORS_MAX:
        factors = oracle_invariant_factors(relation_matrix(g))
    else:
        factors = invariant_factors(cols)
    rank = len(factors)
    return {
        "k0_invariant_factors": [d for d in factors if d > 1],
        "k0_free_rank": g.n - rank,
        "k1_free_rank": len(cols) - rank,
    }


def dominance(a: list) -> list:
    """D[v][w]: a path of length >= 1 from v to w, by a Warshall closure."""
    n = len(a)
    d = [[bool(a[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if d[i][k]:
                rk = d[k]
                d[i] = [x or y for x, y in zip(d[i], rk)]
    return d


def cycle_count(a: list, d: list, v: int) -> int:
    """0, 1 or 2 (meaning at least two) simple cycles based at ``v``.

    None when ``v`` is on no cycle; exactly one when its strongly
    connected component is a bare cycle, every member having a single
    in-component out-edge of multiplicity one; otherwise at least two.
    """
    if not d[v][v]:
        return 0
    comp = [u for u in range(len(a)) if u == v or (d[v][u] and d[u][v])]
    for u in comp:
        out = [a[u][w] for w in comp if a[u][w]]
        if out != [1]:
            return 2
    return 1


def stable_completeness_violations(g) -> list:
    """Conditions 2 to 6 of stable completeness that fail, as (number, vertex names)."""
    a = entries(g)
    vs = g.vertices
    n = len(a)
    d = dominance(a)
    regular = [is_regular(row) for row in a]
    infinite = [INF in row for row in a]
    out = []
    for v in range(n):
        if regular[v] and not a[v][v]:
            out.append((2, vs[v]))
        if cycle_count(a, d, v) >= 2 and a[v][v] != INF and a[v][v] < 2:
            out.append((3, vs[v]))
        for w in range(n):
            if d[v][w] and infinite[v] and a[v][w] != INF:
                out.append((4, vs[v], vs[w]))
            if d[v][w] and not a[v][w]:
                out.append((5, vs[v], vs[w]))
        if infinite[v] and a[v][v] and not any(
            regular[w] and d[v][w] and d[w][v] for w in range(n)
        ):
            out.append((6, vs[v]))
    return out


_DOT_VERTEX = re.compile(r'^  "([^"]*)";$')
_DOT_EDGE = re.compile(r'^  "([^"]*)" -> "([^"]*)" \[label="(∞|\d+)"\];$')
_DOT_NODE = re.compile(r'^  n(\d+) \[label="\(\{([^}]*)\},(?:\{([^}]*)\}|∅)\)"\];$')
_DOT_COVER = re.compile(r"^  n(\d+) -> n(\d+);$")


def _dot_body(text: str, header: list) -> list:
    lines = text.rstrip("\n").split("\n")
    if lines[: len(header)] != header or lines[-1] != "}":
        raise ValueError("DOT text lacks its header or closing brace")
    return lines[len(header) : -1]


def check_dot_graph(text: str, g) -> None:
    """Parse ``export-dot`` output; vertices and labelled edges must match the graph."""
    a = entries(g)
    want_edges = {
        (g.vertices[i], g.vertices[j], "∞" if x == INF else str(x))
        for i, row in enumerate(a)
        for j, x in enumerate(row)
        if x
    }
    vertices, edges = [], set()
    for line in _dot_body(text, ["digraph G {"]):
        if m := _DOT_VERTEX.match(line):
            vertices.append(m.group(1))
        elif m := _DOT_EDGE.match(line):
            edges.add(m.groups())
        else:
            raise ValueError(f"unparsed DOT line {line!r}")
    if vertices != list(g.vertices) or edges != want_edges:
        raise ValueError("DOT vertices or edges differ from the adjacency")


def admissible_pairs(g) -> set:
    """Every admissible pair (H, S), as two frozensets of vertex names.

    H runs over all vertex subsets as bitmasks and is kept when it is
    hereditary (no edge leaves it) and saturated (no regular vertex
    outside it sends edges only into it); S runs over the subsets of the
    breaking vertices, the infinite emitters with finitely many, but at
    least one, edges into the complement of H.
    """
    a = entries(g)
    vs = g.vertices
    n = len(a)
    succ = [sum(1 << j for j in range(n) if a[i][j]) for i in range(n)]
    regular = [is_regular(row) for row in a]
    out = set()
    for h in range(1 << n):
        if any(h >> v & 1 and succ[v] & ~h for v in range(n)):
            continue
        if any(regular[v] and not h >> v & 1 and not succ[v] & ~h for v in range(n)):
            continue
        breaking = []
        for v in range(n):
            leaving = [a[v][w] for w in range(n) if not h >> w & 1]
            if INF in a[v] and INF not in leaving and sum(leaving) >= 1:
                breaking.append(vs[v])
        hs = frozenset(vs[v] for v in range(n) if h >> v & 1)
        for bits in range(1 << len(breaking)):
            out.add((hs, frozenset(b for k, b in enumerate(breaking) if bits >> k & 1)))
    return out


def _strict_order(nodes: list) -> list:
    """up[i]: bitmask of the j != i with nodes[i] <= nodes[j].

    (H1, S1) <= (H2, S2) iff H1 ⊆ H2 and S1 ⊆ H2 ∪ S2.
    """
    names = {v: k for k, v in enumerate(sorted({v for h, s in nodes for v in h | s}))}
    masks = [(sum(1 << names[v] for v in h), sum(1 << names[v] for v in s)) for h, s in nodes]
    up = []
    for i, (h1, s1) in enumerate(masks):
        up.append(sum(
            1 << j for j, (h2, s2) in enumerate(masks)
            if j != i and not h1 & ~h2 and not s1 & ~(h2 | s2)
        ))
    return up


def _check_nodes(nodes: list, pairs: set) -> None:
    if len(nodes) != len(pairs) or set(nodes) != pairs:
        raise ValueError(f"{len(nodes)} lattice nodes differ from the {len(pairs)} admissible pairs")


def check_lattice_json(text: str, pairs: set) -> None:
    """Parse ``ideals`` JSON: its nodes are the admissible pairs, its order is containment."""
    data = json.loads(text)
    nodes = [(frozenset(p["H"]), frozenset(p["S"])) for p in data["nodes"]]
    _check_nodes(nodes, pairs)
    up = _strict_order(nodes)
    want = sorted([[i, i] for i in range(len(nodes))]
                  + [[i, j] for i, u in enumerate(up) for j in range(len(nodes)) if u >> j & 1])
    if data["order"] != want:
        raise ValueError("the lattice order differs from containment")


def check_dot_lattice(text: str, pairs: set) -> None:
    """Parse ``ideals --format dot``: one node per admissible pair, its edges the covers."""
    nodes, edges = [], set()
    for line in _dot_body(text, ["digraph ideals {", "  rankdir=BT;"]):
        if m := _DOT_NODE.match(line):
            index, h, s = m.groups()
            if int(index) != len(nodes):
                raise ValueError(f"node out of sequence: {line!r}")
            nodes.append((frozenset(h.split(",")) - {"∅"}, frozenset(s.split(",") if s else ())))
        elif m := _DOT_COVER.match(line):
            edges.add(tuple(map(int, m.groups())))
        else:
            raise ValueError(f"unparsed DOT line {line!r}")
    _check_nodes(nodes, pairs)
    up = _strict_order(nodes)
    covers = set()
    for i, u in enumerate(up):
        above = 0  # nodes strictly above a node strictly above i
        for k in range(len(nodes)):
            if u >> k & 1:
                above |= up[k]
        covers |= {(i, j) for j in range(len(nodes)) if (u & ~above) >> j & 1}
    if edges != covers:
        raise ValueError(f"{len(edges)} lattice edges are not the {len(covers)} covers")
