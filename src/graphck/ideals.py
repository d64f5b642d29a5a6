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

from functools import cached_property, reduce
from itertools import chain, combinations, compress
from json.encoder import encode_basestring
from operator import and_
from typing import NamedTuple

from .errors import DomainError
from .graph import (
    Graph,
    _bits,
    _closure_mask,
    _mask,
    _names,
    _quoted,
    _reached_by,
    _saturate_mask,
)


class AdmissiblePair(NamedTuple):
    """A hereditary saturated set H with breaking vertices S for it."""

    h: frozenset
    s: frozenset

    def to_json(self) -> dict:
        return {"H": sorted(self.h), "S": sorted(self.s)}


class _IdealLatticeFields(NamedTuple):
    nodes: tuple
    up: tuple


class IdealLattice(_IdealLatticeFields):
    """All admissible pairs of a graph under containment order.

    (H1, S1) <= (H2, S2) iff H1 ⊆ H2 and S1 ⊆ H2 ∪ S2.  The order has
    bottom (∅, ∅) and top (all vertices, ∅).  It is kept as one bitmask
    row per node: bit j of ``up[i]`` is set iff nodes[i] <= nodes[j].
    Instances have a ``__dict__``, which holds only the cached ``order``.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def order(self) -> frozenset:
        """The (i, j) index pairs with nodes[i] <= nodes[j]."""
        return frozenset(self._pairs(self.up))

    def leq(self, a: AdmissiblePair, b: AdmissiblePair) -> bool:
        return a.h <= b.h and a.s <= (b.h | b.s)

    def bottom(self) -> AdmissiblePair:
        return AdmissiblePair(frozenset(), frozenset())

    def top(self) -> AdmissiblePair:
        return max(self.nodes, key=lambda p: (len(p.h), len(p.s)))

    def hasse_edges(self) -> list:
        """Covering relations of the order, as sorted index pairs.

        Every node lies after the nodes below it, so the lowest node strictly
        above i and above none of the covers found so far is itself a cover
        of i: take it, drop every node above it, and repeat.
        """
        edges = []
        for i, row in enumerate(self.up):
            row &= ~(1 << i)
            while row:  # the covers come lowest first, so the pairs come sorted
                j = (row & -row).bit_length() - 1
                edges.append((i, j))
                row &= ~self.up[j]
        return edges

    def to_json(self) -> dict:
        return {
            "nodes": [p.to_json() for p in self.nodes],
            "order": list(map(list, self._pairs(self.up))),
        }

    def to_dot(self) -> str:
        lines = ["digraph ideals {", "  rankdir=BT;"]
        shown, h = _label_texts(self.nodes), None
        for i, p in enumerate(self.nodes):
            if p.h is not h:  # the pairs of one H come together and share one label head
                h = p.h
                head = '[label="({' + (",".join([shown[v] for v in sorted(h)]) or "∅") + "},"
            s = ",".join([shown[v] for v in sorted(p.s)])
            lines.append(f'  n{i} {head}{{{s}}})"];' if s else f'  n{i} {head}∅)"];')
        for i, j in self.hasse_edges():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    @staticmethod
    def _pairs(rows) -> list:
        """The (i, j) with bit j set in ``rows[i]``, in sorted order."""
        cols = range(len(rows))  # the rows are as wide as they are many
        return [(i, j) for i, row in enumerate(rows) for j in compress(cols, _flags(row))]


#: Maps the digits of ``bin`` to flag bytes: b"0" to 0 and b"1" to 1.
_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """One flag per bit of ``mask``, lowest first, for ``itertools.compress``.

    A mask with more than a few bits set (a lattice row, a set H) is
    scanned faster this way than by ``graph._bits``.
    """
    return bin(mask)[:1:-1].encode().translate(_FLAG_BYTES)


#: Characters of a lattice label's own syntax; names holding one are quoted.
_LABEL_SYNTAX = frozenset(',{}()"\\')


def _label_texts(nodes) -> dict:
    """Each name in ``nodes`` as written in a DOT label: JSON-quoted when it
    could read as label syntax, then escaped as ``_quoted`` escapes a label."""
    names = frozenset().union(*[p.h for p in nodes], *[p.s for p in nodes])
    misread = {v for v in names if v in ("", "∅") or not _LABEL_SYNTAX.isdisjoint(v)}
    return {v: _quoted(encode_basestring(v) if v in misread else v)[1:-1] for v in names}


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
    for i, (inf, succ) in enumerate(zip(g._emitting(), g._reachability().succ)):
        if inf and not inf & ~h and succ & ~h:
            out |= 1 << i
    return out


def saturated_hereditary_sets(g: Graph, max_vertices: int = 16) -> list:
    """All saturated hereditary subsets, by size and then in ``combinations`` order."""
    found = _saturated_hereditary_masks(g, max_vertices)
    found.sort(key=lambda m: (m.bit_count(), list(_bits(m))))
    return [_names(g, m) for m in found]


def _saturated_hereditary_masks(g: Graph, max_vertices: int) -> list:
    """The masks of all saturated hereditary subsets, in no fixed order.

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
    above = [_reached_by(g, i) | 1 << i for i in range(n)]
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
    return found


def admissible_pairs(g: Graph, max_vertices: int = 16) -> IdealLattice:
    """Enumerate every admissible pair and the containment order between them.

    Pairs come sorted by (len(H), sorted H, len(S), sorted S), and the pairs
    of one H share one ``h`` frozenset.
    """
    names, n = g.vertices, g.n
    groups = sorted(
        (h.bit_count(), sorted(compress(names, _flags(h))), h)
        for h in _saturated_hereditary_masks(g, max_vertices)
    )
    # a <= b iff H_a ⊆ H_b and S_a ⊆ H_b ∪ S_b.  Bit-sliced: ``in_h[v]`` and
    # ``in_hs[v]`` hold the nodes whose H, and whose H ∪ S, has vertex v; the
    # nodes above a are those in ``in_h`` of each vertex of H_a, one row per
    # H, and in ``in_hs`` of each vertex of S_a.  A node is below only nodes
    # sorted after it, since a smaller H has fewer vertices and an equal H
    # forces S_a ⊆ S_b; ``hasse_edges`` and the CLI's text rely on this.
    nodes, spans, in_h, in_hs = [], [], [0] * n, [0] * n
    for _, named, h in groups:
        H, start = frozenset(named), len(nodes)
        breaking = sorted((names[i], i) for i in _bits(_breaking_mask(g, h)))
        for s in _subsets(breaking):
            for _, i in s:
                in_hs[i] |= 1 << len(nodes)
            nodes.append(AdmissiblePair(H, frozenset([v for v, _ in s])))
        for v in compress(range(n), _flags(h)):
            in_h[v] |= (1 << len(nodes)) - (1 << start)
        spans.append((h, [i for _, i in breaking]))
    in_hs = [a | b for a, b in zip(in_h, in_hs)]
    up = []
    for h, breaking in spans:
        above = reduce(and_, compress(in_h, _flags(h)), (1 << len(nodes)) - 1)
        up += [reduce(and_, s, above) for s in _subsets([in_hs[i] for i in breaking])]
    return IdealLattice(tuple(nodes), tuple(up))


def _subsets(items):
    """Every subset of ``items`` as a tuple, by size and then in ``combinations`` order."""
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def restriction_graph(g: Graph, pair: AdmissiblePair) -> Graph:
    """The subgraph carrying the ideal of an admissible pair.

    Vertices are H ∪ S.  All edges with source in H survive; vertices of
    S keep only their edges into H.
    """
    H, S = pair.h, pair.s
    _mask(g, H | S)  # every name must be a vertex
    h = _mask(g, H)
    if _closure_mask(g, h) != h or _saturate_mask(g, h) != h:
        raise DomainError("H is not saturated hereditary")
    if _mask(g, S) & ~_breaking_mask(g, h):
        raise DomainError("S contains non-breaking vertices")
    sub = g.induced(H | S)
    inside = _mask(sub, H)
    rows = tuple({j: m for j, m in row.items() if inside >> j & 1} for row in sub._rows)
    return Graph._trusted(sub.vertices, rows)
