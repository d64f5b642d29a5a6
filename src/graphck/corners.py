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
from .graph import Graph, _closure_mask, _fresh, _mask


class _CornerGraphFields(NamedTuple):
    base: Graph
    heads: tuple  # of (vertex, ExtNat), in base vertex order


class CornerGraph(_CornerGraphFields):
    """A base graph plus a head length h_v in ℕ₀ ∪ {∞} for every vertex.

    ``heads`` must be a list or tuple of ``(vertex, head)`` lists or
    tuples, or ``ValidationError`` is raised.  Each head is coerced
    through ``ExtNat.of``: an int or ``"inf"`` becomes an ``ExtNat`` and
    any other value raises ``DomainError``.
    """

    __slots__ = ()

    def __new__(cls, base: Graph, heads: tuple):
        pairs = isinstance(heads, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in heads
        )
        if not pairs:
            raise ValidationError(f"heads must be a list of (vertex, head) pairs, got {heads!r}")
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
    """Expand finite heads into explicit chain vertices v^i → v^(i-1) → ... → v.

    The names v^1 .. v^h, in head order, are made fresh against the base and each other.
    """
    if any(h.is_infinite for _, h in cg.heads):
        raise CannotRealizeError("infinite heads have no finite expansion")
    base = cg.base
    wanted, rows = [], list(base._rows)
    for i, (v, h) in enumerate(cg.heads):
        for k in range(1, h._v + 1):  # v^1 → v, and v^k → v^(k-1), the row just before
            wanted.append(f"{v}^{k}")
            rows.append({i if k == 1 else len(rows) - 1: 1})
    names = _fresh(wanted, set(base.vertices))
    return Graph._trusted(base.vertices + tuple(names), tuple(rows))


def build_EH(g: Graph, H) -> Graph:
    """The spike graph of a hereditary set H: one fresh source per entering path.

    Requires: H hereditary; the subgraph outside H acyclic and made of
    regular vertices, each of which dominates H.  A finite acyclic
    complement bounds the length of entering paths.  Paths are enumerated
    explicitly, so every vertex outside H must be a finite emitter: one
    depth-first walk over the rows outside H names each path as it
    reaches H, the names e(u→w,i) of its edges joined by ``·``.
    """
    H = frozenset(H)
    h = _mask(g, H)
    if _closure_mask(g, h) != h:
        raise DomainError("H is not hereditary")
    reach = g._reachability().reach
    comp = [i for i in range(g.n) if not h >> i & 1]
    regular, vs, rows = g._degs().regular, g.vertices, g._rows
    for i in comp:
        if not regular >> i & 1:
            raise DomainError(f"vertex {vs[i]!r} outside H is not regular")
        if not reach[i] & h:
            raise DomainError(f"vertex {vs[i]!r} outside H does not dominate H")
    # H is hereditary, so a cycle through a vertex outside H never enters H:
    # the cycles of g through those vertices are those of the subgraph outside H
    if any(reach[i] >> i & 1 for i in comp):
        raise DomainError("the subgraph outside H has a cycle")

    core = g.induced(H)
    names, spikes = [], []
    todo = [("", i) for i in reversed(comp)]  # paths to extend: (name, end), next on top
    while todo:
        name, i = todo.pop()
        if h >> i & 1:
            names.append(name)
            spikes.append({core._pos[vs[i]]: 1})
            continue
        prefix = name + "·" if name else ""
        # entries outside H are finite: the vertex is regular
        todo += [
            (f"{prefix}e({vs[i]}→{vs[j]},{k})", j)
            for j, m in reversed(rows[i].items())
            for k in reversed(range(m))
        ]
    names = _fresh(names, set(vs))
    return Graph._trusted(core.vertices + tuple(names), core._rows + tuple(spikes))


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
