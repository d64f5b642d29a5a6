"""Stabilization, corner graphs, and the spike/star unitization graphs.

The stabilization of a graph attaches an infinite head
v ← v¹ ← v² ← ... to every vertex v.  A corner graph is the subgraph of
the stabilization induced on a hereditary vertex set containing every
base vertex, encoded compactly as the base graph plus a per-vertex head
length in ℕ₀ ∪ {∞}.  Corner graphs are exactly the receivers produced
by the projection calculus: a multiplicity vector n with every
n_v >= 1 yields head lengths n_v - 1.

For a hereditary set H the spike graph adds one fresh vertex per path
that enters H from outside, while the star graph funnels all those
paths through a single new vertex; the star graph realizes the minimal
unitization of the algebra carried by the corner graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CannotRealizeError, DomainError, ValidationError
from .extnat import INF, ExtNat
from .graph import EdgeRef, Graph, _closure_mask, _fresh, _mask, fresh_names


class _CornerGraphFields(NamedTuple):
    base: Graph
    heads: tuple  # of (vertex, ExtNat), in base vertex order


class CornerGraph(_CornerGraphFields):
    """A base graph plus a head length h_v in ℕ₀ ∪ {∞} for every vertex.

    Each head is coerced through ``ExtNat.of``, so an int or ``"inf"``
    becomes an ``ExtNat`` and any other value raises ``DomainError``.
    """

    __slots__ = ()

    def __new__(cls, base: Graph, heads: tuple):
        heads = tuple((v, ExtNat.of(h)) for v, h in heads)
        if [v for v, _ in heads] != list(base.vertices):
            raise ValidationError("heads must cover exactly the base vertices, in order")
        return super().__new__(cls, base, heads)

    @classmethod
    def _make(cls, fields) -> "CornerGraph":
        """Checked like the constructor, and so is ``_replace``, which calls it."""
        return cls(*fields)

    def head(self, v: str) -> ExtNat:
        return self.heads[self.base.index(v)][1]

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "heads": {v: h.to_json() for v, h in self.heads},
        }

    @staticmethod
    def from_json(data) -> "CornerGraph":
        if not isinstance(data, dict) or "base" not in data:
            raise ValidationError("corner graph JSON needs 'base'")
        base = Graph.from_json(data["base"])
        heads = data.get("heads", {})
        if not isinstance(heads, dict):
            raise ValidationError("corner graph JSON 'heads' must be an object")
        return make_corner(base, heads)


def make_corner(base: Graph, heads: dict) -> CornerGraph:
    missing = [v for v in base.vertices if v not in heads]
    if missing:
        raise ValidationError(f"missing heads for {missing}")
    extra = [v for v in heads if not base.has_vertex(v)]
    if extra:
        raise ValidationError(f"heads for unknown vertices {extra}")
    return CornerGraph(base, tuple((v, heads[v]) for v in base.vertices))


def stabilize(g: Graph) -> CornerGraph:
    """The full stabilization: an infinite head on every vertex."""
    return CornerGraph(g, tuple((v, INF) for v in g.vertices))


def corner_graph(g: Graph, multiplicities: dict) -> CornerGraph:
    """Corner graph for a multiplicity vector with every n_v >= 1.

    Head lengths are n_v - 1; a zero multiplicity would drop a base
    vertex and is rejected, and so is a multiplicity for a name that is
    not a vertex.
    """
    missing = [v for v in g.vertices if v not in multiplicities]
    if missing:
        raise ValidationError(f"multiplicities missing for {missing}")
    extra = [v for v in multiplicities if not g.has_vertex(v)]
    if extra:
        raise ValidationError(f"multiplicities for unknown vertices {extra}")
    heads = []
    for v in g.vertices:
        m = ExtNat.of(multiplicities[v])
        if not m:
            raise DomainError(f"multiplicity of {v!r} must be at least 1")
        heads.append((v, m.dec()))
    return CornerGraph(g, tuple(heads))


def realize(cg: CornerGraph) -> Graph:
    """Expand finite heads into explicit chain vertices v^i → v^(i-1) → ... → v."""
    if any(h.is_infinite for _, h in cg.heads):
        raise CannotRealizeError("infinite heads have no finite expansion")
    base = cg.base
    taken = set(base.vertices)
    vertices = list(base.vertices)
    rows = list(base._rows)
    for i, (v, h) in enumerate(cg.heads):
        chain = fresh_names(v, int(h), taken)
        taken.update(chain)
        prev = i
        for name in chain:
            rows.append({prev: 1})
            prev = len(vertices)
            vertices.append(name)
    return Graph._trusted(tuple(vertices), tuple(rows))


def build_EH(g: Graph, H) -> Graph:
    """The spike graph of a hereditary set H: one fresh source per entering path.

    Requires: H hereditary; the subgraph outside H acyclic and made of
    regular vertices, each of which dominates H.  A finite acyclic
    complement bounds the length of entering paths.  Paths are enumerated
    explicitly, so every vertex outside H must be a finite emitter.
    """
    H = frozenset(H)
    h = _mask(g, H)
    if _closure_mask(g, h) != h:
        raise DomainError("H is not hereditary")
    reach = g._reachability().reach
    comp = [v for v in g.vertices if v not in H]
    for v in comp:
        if not g.is_regular(v):
            raise DomainError(f"vertex {v!r} outside H is not regular")
        if not reach[g.index(v)] & h:
            raise DomainError(f"vertex {v!r} outside H does not dominate H")
    # H is hereditary, so a cycle through a vertex outside H never enters H:
    # the cycles of g through those vertices are those of the subgraph outside H
    if any(reach[i] >> i & 1 for i in map(g.index, comp)):
        raise DomainError("the subgraph outside H has a cycle")

    paths = _entering_paths(g, H, comp)
    names = _fresh(
        ["·".join(f"e({e.src}→{e.dst},{e.index})" for e in seq) for seq in paths],
        set(g.vertices),
    )

    core = g.induced(H)
    rows = core._rows + tuple({core.index(seq[-1].dst): 1} for seq in paths)
    return Graph._trusted(core.vertices + tuple(names), rows)


def _entering_paths(g: Graph, H: frozenset, comp: list) -> list:
    """All edge paths that stay outside H and then cross into it, in DFS order."""
    out = []

    def extend(prefix, at):
        for w in g.successors(at):
            count = g._mult(at, w)  # complement vertices are regular, entries finite
            for i in range(count):
                e = EdgeRef(at, w, i)
                if w in H:
                    out.append(prefix + [e])
                else:
                    extend(prefix + [e], w)

    for start in comp:
        extend([], start)
    return out


def unitize(cg: CornerGraph) -> Graph:
    """The star graph of a corner graph: one fresh vertex emitting h_v edges to each v.

    Every head vertex contributes exactly one path entering the base, so
    the star vertex emits h_v edges toward v; it receives nothing.  The
    star is a finite emitter exactly when all heads are finite (and a
    sink when they are all zero).
    """
    base = cg.base
    (star,) = _fresh(["⋆"], set(base.vertices))
    spokes = {j: h._v for j, (_, h) in enumerate(cg.heads) if h}
    return Graph._trusted(base.vertices + (star,), base._rows + (spokes,))
