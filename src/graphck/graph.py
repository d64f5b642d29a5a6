"""Directed multigraphs with edge multiplicities in ℕ ∪ {∞}.

A graph is a finite ordered list of vertices together with a square
adjacency matrix over the extended naturals: ``A(u, v)`` is the number
of edges from ``u`` to ``v``.  Individual parallel edges are addressed
positionally as ``EdgeRef(src, dst, index)`` with ``index < A(src, dst)``
(every index is valid when the entry is ∞), so finite edge sets remain
representable even at vertices emitting infinitely many edges.

Traversals treat ``A(u, v) >= 1`` as "there is an edge" and never
enumerate infinite families.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, NotFoundError, ValidationError
from .extnat import ExtNat


class EdgeRef(NamedTuple):
    """One parallel edge from ``src`` to ``dst``, addressed by position."""

    src: str
    dst: str
    index: int

    def to_json(self):
        return [self.src, self.dst, self.index]

    @staticmethod
    def from_json(data) -> "EdgeRef":
        if not isinstance(data, (list, tuple)) or len(data) != 3:
            raise ValidationError(f"edge must be [src, dst, index], got {data!r}")
        src, dst, idx = data
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
            raise ValidationError(f"edge index must be a nonnegative int, got {idx!r}")
        return EdgeRef(str(src), str(dst), idx)


class Graph:
    """Immutable directed multigraph over a finite vertex list."""

    # ``_reach``, ``_emission``, ``_snf``, ``_report`` and ``_digest`` are
    # filled on first query (by this module, ktheory and canonical); they are
    # derived from the adjacency, so identity, hashing and serialization
    # ignore them.
    __slots__ = (
        "vertices", "adjacency", "_pos", "_reach", "_emission", "_snf", "_report", "_digest"
    )

    def __init__(self, vertices: Sequence[str], adjacency: Sequence[Sequence]):
        vs = tuple(str(v) for v in vertices)
        if len(set(vs)) != len(vs):
            raise ValidationError("duplicate vertex names")
        rows = []
        if len(adjacency) != len(vs):
            raise ValidationError(
                f"adjacency has {len(adjacency)} rows for {len(vs)} vertices"
            )
        for row in adjacency:
            if len(row) != len(vs):
                raise ValidationError(
                    f"adjacency row of length {len(row)} for {len(vs)} vertices"
                )
            try:
                rows.append(tuple(ExtNat.of(x) for x in row))
            except DomainError as exc:
                raise ValidationError(str(exc)) from exc
        self.vertices = vs
        self.adjacency = tuple(rows)
        self._pos = {v: i for i, v in enumerate(vs)}
        self._reach = None
        self._emission = None
        self._snf = None
        self._report = None
        self._digest = None

    # -- basic access --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise NotFoundError(f"no vertex named {v!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._pos

    def a(self, u: str, v: str) -> ExtNat:
        return self.adjacency[self.index(u)][self.index(v)]

    def row(self, v: str) -> tuple:
        return self.adjacency[self.index(v)]

    def out_degree(self, v: str) -> ExtNat:
        total = ExtNat(0)
        for x in self.row(v):
            total = total + x
        return total

    def in_degree(self, v: str) -> ExtNat:
        j = self.index(v)
        total = ExtNat(0)
        for row in self.adjacency:
            total = total + row[j]
        return total

    def is_sink(self, v: str) -> bool:
        return not any(self.row(v))

    def is_infinite_emitter(self, v: str) -> bool:
        return self.out_degree(v).is_infinite

    def is_regular(self, v: str) -> bool:
        d = self.out_degree(v)
        return d.is_finite and bool(d)

    def is_source(self, v: str) -> bool:
        return not bool(self.in_degree(v))

    def supports_loop(self, v: str) -> bool:
        return bool(self.a(v, v))

    def successors(self, v: str) -> tuple:
        row = self.row(v)
        return tuple(w for w, x in zip(self.vertices, row) if x)

    def predecessors(self, v: str) -> tuple:
        j = self.index(v)
        return tuple(u for u, row in zip(self.vertices, self.adjacency) if row[j])

    def edge_valid(self, e: EdgeRef) -> bool:
        if not (self.has_vertex(e.src) and self.has_vertex(e.dst)) or e.index < 0:
            return False
        m = self.a(e.src, e.dst)
        return m.is_infinite or e.index < int(m)

    def edges_from(self, v: str) -> tuple:
        """All out-edges of a finite emitter, in positional order."""
        if self.is_infinite_emitter(v):
            raise DomainError(f"cannot enumerate the edges of infinite emitter {v!r}")
        out = []
        for w, m in zip(self.vertices, self.row(v)):
            out.extend(EdgeRef(v, w, i) for i in range(int(m)))
        return tuple(out)

    def _reachability(self) -> "_Reach":
        if self._reach is None:
            self._reach = _reach_of(self.adjacency)
        return self._reach

    def _emitting(self) -> "_Emission":
        if self._emission is None:
            self._emission = _emission_of(self.adjacency, self._reachability().succ)
        return self._emission

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.vertices, self.adjacency))

    def __repr__(self):
        return f"Graph({list(self.vertices)!r}, {self.n}x{self.n})"

    # -- derived graphs -------------------------------------------------

    def to_lists(self) -> list:
        """Mutable copy of the adjacency, for building derived graphs."""
        return [list(row) for row in self.adjacency]

    def induced(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph on ``keep``, preserving this graph's vertex order."""
        keep = set(keep)
        vs = [v for v in self.vertices if v in keep]
        idx = [self.index(v) for v in vs]
        rows = [[self.adjacency[i][j] for j in idx] for i in idx]
        return Graph(vs, rows)

    def relabeled(self, mapping: dict) -> "Graph":
        return Graph([mapping.get(v, v) for v in self.vertices], self.adjacency)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "adjacency": [[x.to_json() for x in row] for row in self.adjacency],
        }

    @staticmethod
    def from_json(data) -> "Graph":
        if not isinstance(data, dict) or "vertices" not in data or "adjacency" not in data:
            raise ValidationError("graph JSON needs 'vertices' and 'adjacency'")
        vertices, adjacency = data["vertices"], data["adjacency"]
        if not isinstance(vertices, list):
            raise ValidationError("graph JSON 'vertices' must be a list")
        if not (isinstance(adjacency, list) and all(isinstance(r, list) for r in adjacency)):
            raise ValidationError("graph JSON 'adjacency' must be a list of rows")
        return Graph(vertices, adjacency)

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"), ensure_ascii=False)

    def digest(self) -> str:
        if self._digest is None:
            text = self.canonical_json().encode("utf-8")
            self._digest = hashlib.sha256(text).hexdigest()
        return self._digest

    def to_dot(self, name: str = "G") -> str:
        """DOT text with one rendered edge per vertex pair, labeled by multiplicity."""
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u in self.vertices:
            for w, m in zip(self.vertices, self.row(u)):
                if m:
                    label = "∞" if m.is_infinite else str(int(m))
                    lines.append(f'  "{u}" -> "{w}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def make_graph(vertices: Sequence[str], adjacency: Sequence[Sequence]) -> Graph:
    """Validate and build a graph from a vertex list and a square matrix.

    Entries may be ints, ``ExtNat`` values, or the string ``"inf"``.
    """
    return Graph(vertices, adjacency)


@dataclass(frozen=True)
class VertexClass:
    """Structural classification of a single vertex."""

    kind: str  # "regular" | "sink" | "infinite-emitter"
    is_source: bool
    supports_loop: bool
    loop_count: ExtNat

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "is_source": self.is_source,
            "supports_loop": self.supports_loop,
            "loop_count": self.loop_count.to_json(),
        }


def vertex_class(g: Graph, v: str) -> VertexClass:
    """Classify ``v`` as regular, sink or infinite emitter, with source/loop flags.

    A vertex is regular when it emits finitely many edges and at least
    one, a sink when it emits none, and an infinite emitter otherwise.
    """
    d = g.out_degree(v)
    if d.is_infinite:
        kind = "infinite-emitter"
    elif bool(d):
        kind = "regular"
    else:
        kind = "sink"
    return VertexClass(
        kind=kind,
        is_source=g.is_source(v),
        supports_loop=g.supports_loop(v),
        loop_count=g.a(v, v),
    )


class _Reach(NamedTuple):
    """Reachability of one graph as bitmasks over vertex positions."""

    succ: list  # bit j of succ[i]: an edge i → j
    reach: list  # bit j of reach[i]: a path of length >= 1 from i to j


def _reach_of(adjacency) -> _Reach:
    """Successor masks and their transitive closure (Warshall, one mask per row)."""
    n = len(adjacency)
    bits = [1 << j for j in range(n)]
    succ = [sum(compress(bits, row)) for row in adjacency]
    reach = succ[:]
    for k in range(n):
        bit, through = bits[k], reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= through
    return _Reach(succ, reach)


class _Emission(NamedTuple):
    """How each vertex emits, as bitmasks over vertex positions.

    Kept apart from :class:`_Reach`, which rewriting builds for many
    graphs that are never asked about saturation or breaking vertices.
    """

    inf: list  # bit j of inf[i]: infinitely many edges i → j
    regular: int  # bit i: i emits finitely many edges, and at least one


def _emission_of(adjacency, succ) -> _Emission:
    bits = [1 << j for j in range(len(adjacency))]
    inf = [sum(compress(bits, [x.is_infinite for x in row])) for row in adjacency]
    return _Emission(inf, sum(b for b, s, i in zip(bits, succ, inf) if s and not i))


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(g: Graph, names: Iterable[str]) -> int:
    """The bitmask of a vertex set; unknown names raise :class:`NotFoundError`."""
    m = 0
    for v in names:
        m |= 1 << g.index(v)
    return m


def _names(g: Graph, mask: int) -> frozenset:
    return frozenset(g.vertices[i] for i in _bits(mask))


def _closure_mask(g: Graph, m: int) -> int:
    """``m`` and everything it reaches."""
    reach = g._reachability().reach
    out = m
    for i in _bits(m):
        out |= reach[i]
    return out


def _saturate_mask(g: Graph, m: int) -> int:
    """Add regular vertices whose edges all land inside, until none is left."""
    succ, regular = g._reachability().succ, g._emitting().regular
    while True:
        add = 0
        for i in _bits(regular & ~m):
            if not succ[i] & ~m:
                add |= 1 << i
        if not add:
            return m
        m |= add


def reaches(g: Graph, v: str, w: str) -> bool:
    """True when there is a path from ``v`` to ``w``, possibly of length zero."""
    i, j = g.index(v), g.index(w)
    return i == j or bool(g._reachability().reach[i] >> j & 1)


def dominates(g: Graph, v: str, w: str) -> bool:
    """True when there is a path of nonzero length from ``v`` to ``w``.

    For distinct vertices this agrees with :func:`reaches`; for
    ``v == w`` it demands an honest cycle through ``v``.
    """
    i, j = g.index(v), g.index(w)
    return bool(g._reachability().reach[i] >> j & 1)


def shortest_nonzero_path(g: Graph, v: str, w: str) -> list:
    """A shortest path of length >= 1 from ``v`` to ``w``, as a vertex list.

    One breadth-first search starts from the successors of ``v`` in
    vertex order, with ``v`` itself unvisited so that cycles back to it
    are found.  Of the shortest paths it takes the one through the first
    such successor, and below it the first found.  Raises
    :class:`NotFoundError` when ``v`` does not dominate ``w``.
    """
    i, j = g.index(v), g.index(w)
    r = g._reachability()
    if not r.reach[i] >> j & 1:
        raise NotFoundError(f"{v!r} does not dominate {w!r}")
    if r.succ[i] >> j & 1:
        return [v, w]
    seen = r.succ[i]
    prev = dict.fromkeys(_bits(seen))
    queue = deque(prev)
    while j not in prev:
        x = queue.popleft()
        new = r.succ[x] & ~seen
        seen |= new
        for y in _bits(new):
            prev[y] = x
            if y == j:
                break
            queue.append(y)
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.append(i)
    return [g.vertices[k] for k in reversed(path)]


def hereditary_closure(g: Graph, S: Iterable[str]) -> frozenset:
    """Smallest superset of ``S`` closed under forward reachability."""
    return _names(g, _closure_mask(g, _mask(g, S)))


def is_hereditary(g: Graph, H: Iterable[str]) -> bool:
    m = _mask(g, H)
    return _closure_mask(g, m) == m


def saturate(g: Graph, H: Iterable[str]) -> frozenset:
    """Smallest saturated superset of ``H``.

    A set is saturated when it contains every regular vertex all of
    whose edges land inside it.  The rule never applies to sinks or to
    infinite emitters.
    """
    return _names(g, _saturate_mask(g, _mask(g, H)))


def is_saturated(g: Graph, H: Iterable[str]) -> bool:
    m = _mask(g, H)
    return _saturate_mask(g, m) == m


def simple_cycle_count_at(g: Graph, v: str) -> int:
    """Count the simple cycles based at ``v``: 0, 1, or 2 meaning at least two.

    A cycle is simple when it returns to its base vertex only once.
    Parallel edges give distinct cycles.  A vertex on a cycle has exactly
    one when its strongly connected component is a bare cycle, every
    member having a single edge of multiplicity 1 inside the component;
    any further edge inside the component yields a second cycle through
    ``v`` (the "no cycle without an exit" form of Condition (K)).  The
    count is exact only up to two, so there is no truncation parameter.
    """
    i = g.index(v)
    r = g._reachability()
    if not r.reach[i] >> i & 1:
        return 0
    # v's strongly connected component: the vertices v reaches that reach v
    comp = [j for j in range(g.n) if r.reach[i] >> j & 1 and r.reach[j] >> i & 1]
    mask = sum(1 << j for j in comp)
    for j in comp:
        inner = r.succ[j] & mask
        if inner & (inner - 1) or g.adjacency[j][inner.bit_length() - 1] != 1:
            return 2
    return 1


def condition_K(g: Graph) -> bool:
    """True when every vertex has either no cycle or at least two simple cycles."""
    for v in g.vertices:
        if g.a(v, v) >= 2:
            continue
        if simple_cycle_count_at(g, v) == 1:
            return False
    return True


def _entry_key(x: ExtNat):
    return (x.is_infinite, int(x) if x.is_finite else 0)


def _signature(g: Graph, i: int):
    row = g.adjacency[i]
    col = tuple(g.adjacency[j][i] for j in range(g.n))
    return (
        tuple(sorted(_entry_key(x) for x in row)),
        tuple(sorted(_entry_key(x) for x in col)),
        _entry_key(row[i]),
    )


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Graph isomorphism on adjacency matrices (edge indices are ignored)."""
    if g1.n != g2.n:
        return False
    sig1 = [_signature(g1, i) for i in range(g1.n)]
    sig2 = [_signature(g2, i) for i in range(g2.n)]
    if sorted(sig1) != sorted(sig2):
        return False
    candidates = [
        [j for j in range(g2.n) if sig2[j] == sig1[i]] for i in range(g1.n)
    ]
    order = sorted(range(g1.n), key=lambda i: len(candidates[i]))
    assign: dict[int, int] = {}
    used: set[int] = set()

    def ok(i: int, j: int) -> bool:
        for i2, j2 in assign.items():
            if g1.adjacency[i][i2] != g2.adjacency[j][j2]:
                return False
            if g1.adjacency[i2][i] != g2.adjacency[j2][j]:
                return False
        return g1.adjacency[i][i] == g2.adjacency[j][j]

    def backtrack(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in candidates[i]:
            if j not in used and ok(i, j):
                assign[i] = j
                used.add(j)
                if backtrack(k + 1):
                    return True
                del assign[i]
                used.remove(j)
        return False

    return backtrack(0)


def fresh_names(base: str, count: int, taken: Iterable[str]) -> list:
    """Deterministic names ``base^1 .. base^count`` avoiding ``taken``."""
    taken = set(taken)
    out = []
    for i in range(1, count + 1):
        name = f"{base}^{i}"
        while name in taken:
            name += "'"
        taken.add(name)
        out.append(name)
    return out
