"""Hereditary saturated subsets, breaking vertices, and the ideal lattice.

The gauge-invariant ideal structure of the algebra of a finite-vertex
graph is indexed by admissible pairs (H, S): a hereditary saturated
vertex set H together with a set S of breaking vertices for H.  A
breaking vertex for H is an infinite emitter with finitely many, but at
least one, edges into the complement of H.  This module enumerates all
admissible pairs, orders them, and builds the restriction graph whose
algebra realizes a given pair's ideal up to stable isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .graph import (
    Graph,
    _bits,
    _closure_mask,
    _mask,
    _names,
    _saturate_mask,
    is_hereditary,
    is_saturated,
)


@dataclass(frozen=True)
class AdmissiblePair:
    """A hereditary saturated set H with breaking vertices S for it."""

    h: frozenset
    s: frozenset

    def to_json(self) -> dict:
        return {"H": sorted(self.h), "S": sorted(self.s)}


@dataclass(frozen=True)
class IdealLattice:
    """All admissible pairs of a graph under containment order.

    (H1, S1) <= (H2, S2) iff H1 ⊆ H2 and S1 ⊆ H2 ∪ S2.  The order has
    bottom (∅, ∅) and top (all vertices, ∅).
    """

    nodes: tuple
    order: frozenset  # of (i, j) index pairs with nodes[i] <= nodes[j]

    def leq(self, a: AdmissiblePair, b: AdmissiblePair) -> bool:
        return a.h <= b.h and a.s <= (b.h | b.s)

    def bottom(self) -> AdmissiblePair:
        return AdmissiblePair(frozenset(), frozenset())

    def top(self) -> AdmissiblePair:
        return max(self.nodes, key=lambda p: (len(p.h), len(p.s)))

    def hasse_edges(self) -> list:
        """Covering relations of the order, as sorted index pairs.

        With ``up[i]`` the nodes strictly above node i and ``down[j]`` the
        nodes strictly below node j, i < j is a cover when no node lies in
        both.
        """
        n = len(self.nodes)
        up, down = [0] * n, [0] * n
        for i, j in self.order:
            if i != j:
                up[i] |= 1 << j
                down[j] |= 1 << i
        return [(i, j) for i in range(n) for j in _bits(up[i]) if not up[i] & down[j]]

    def to_json(self) -> dict:
        return {
            "nodes": [p.to_json() for p in self.nodes],
            "order": [list(pair) for pair in sorted(self.order)],
        }

    def to_dot(self) -> str:
        lines = ["digraph ideals {", "  rankdir=BT;"]
        for i, p in enumerate(self.nodes):
            h = ",".join(sorted(p.h)) or "∅"
            s = ",".join(sorted(p.s))
            label = f"({{{h}}},{{{s}}})" if s else f"({{{h}}},∅)"
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in self.hasse_edges():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def breaking_vertices(g: Graph, H) -> frozenset:
    """Infinite emitters with finitely many, but some, edges leaving into E⁰ \\ H."""
    h = _mask(g, H)
    if _closure_mask(g, h) != h:
        raise DomainError("H is not hereditary")
    if _saturate_mask(g, h) != h:
        raise DomainError("H is not saturated")
    return _names(g, _breaking_mask(g, h))


def _breaking_mask(g: Graph, h: int) -> int:
    """Infinite emitters with no ∞ entry outside ``h`` but some edge outside it."""
    out = 0
    for i, (inf, succ) in enumerate(zip(g._emitting().inf, g._reachability().succ)):
        if inf and not inf & ~h and succ & ~h:
            out |= 1 << i
    return out


def saturated_hereditary_sets(g: Graph, max_vertices: int = 16) -> list:
    """All saturated hereditary subsets, by size and then in ``combinations`` order.

    Only hereditary sets are visited: each undecided vertex in turn is
    either put in, with everything it reaches, or left out, with
    everything that reaches it, so every branch ends in a hereditary set.
    """
    if g.n > max_vertices:
        raise DomainError(
            f"refusing to enumerate 2^{g.n} subsets; raise max_vertices to force"
        )
    n = g.n
    below = [reach | 1 << i for i, reach in enumerate(g._reachability().reach)]
    above = [sum(1 << u for u in range(n) if below[u] >> i & 1) for i in range(n)]
    found = []
    stack = [(0, 0, 0)]  # (next vertex, put in, left out)
    while stack:
        i, inside, outside = stack.pop()
        decided = inside | outside
        while decided >> i & 1:
            i += 1
        if i < n:
            stack.append((i + 1, inside, outside | above[i]))
            stack.append((i + 1, inside | below[i], outside))
        elif _saturate_mask(g, inside) == inside:
            found.append(inside)
    found.sort(key=lambda m: (m.bit_count(), list(_bits(m))))
    return [_names(g, m) for m in found]


def admissible_pairs(g: Graph, max_vertices: int = 16) -> IdealLattice:
    """Enumerate every admissible pair and the containment order between them."""
    nodes = []
    for H in saturated_hereditary_sets(g, max_vertices):
        bv = sorted(_names(g, _breaking_mask(g, _mask(g, H))))
        for k in range(len(bv) + 1):
            for combo in combinations(bv, k):
                nodes.append(AdmissiblePair(H, frozenset(combo)))
    nodes.sort(key=lambda p: (len(p.h), sorted(p.h), len(p.s), sorted(p.s)))
    nodes = tuple(nodes)
    # a <= b iff H_a ⊆ H_b and H_a ∪ S_a ⊆ H_b ∪ S_b (S is disjoint from H):
    # one subset test on both masks side by side.  A node is below only
    # nodes sorted after it, since a smaller H has fewer vertices and an
    # equal H forces S_a ⊆ S_b.
    keys = [_mask(g, p.h) | _mask(g, p.h | p.s) << g.n for p in nodes]
    order = frozenset(
        (i, j)
        for i, a in enumerate(keys)
        for j in range(i, len(keys))
        if a & keys[j] == a
    )
    return IdealLattice(nodes, order)


def restriction_graph(g: Graph, pair: AdmissiblePair) -> Graph:
    """The subgraph carrying the ideal of an admissible pair.

    Vertices are H ∪ S.  All edges with source in H survive; vertices of
    S keep only their edges into H.
    """
    H, S = pair.h, pair.s
    for v in H | S:
        g.index(v)
    if not (is_hereditary(g, H) and is_saturated(g, H)):
        raise DomainError("H is not saturated hereditary")
    if not S <= breaking_vertices(g, H):
        raise DomainError("S contains non-breaking vertices")
    sub = g.induced(H | S)
    h = _mask(sub, H)
    rows = tuple({j: m for j, m in row.items() if h >> j & 1} for row in sub._rows)
    return Graph._trusted(sub.vertices, rows)
