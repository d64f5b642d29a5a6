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
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, NotFoundError, ValidationError
from .extnat import INF, ExtNat


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


#: ∞ as a multiplicity in a sparse row; finite multiplicities are plain ints.
_INF = math.inf

#: Shared ``ExtNat`` values for the multiplicities read most at the API.
_SMALL = tuple(ExtNat(k) for k in range(256))


def _ext(m) -> ExtNat:
    """The ``ExtNat`` of a stored multiplicity."""
    try:
        return _SMALL[m]
    except TypeError:  # the float _INF
        return INF
    except IndexError:
        return ExtNat(m)


def _raw(x):
    """The stored form of an int, an ``ExtNat`` or ``"inf"``; DomainError otherwise."""
    if type(x) is int and x >= 0:
        return x
    x = ExtNat.of(x)
    return _INF if x.is_infinite else int(x)


def _vertex_names(vertices) -> tuple:
    vs = tuple(str(v) for v in vertices)
    if len(set(vs)) != len(vs):
        raise ValidationError("duplicate vertex names")
    return vs


def _with(row: dict, j: int, m) -> dict:
    """A copy of a sparse row with column ``j`` set to ``m``, in column order."""
    out = dict(row)
    out[j] = m
    return {k: x for k, x in sorted(out.items()) if x}


class Graph:
    """Immutable directed multigraph over a finite vertex list.

    Each row is stored sparsely: a dict from column position to
    multiplicity holding only the nonzero entries, in column order, with
    plain ints for finite multiplicities and ``_INF`` for ∞.  ``ExtNat``
    values appear only at the API (``a``, ``row``, the degrees and the
    dense ``adjacency`` view) and JSON boundary.
    """

    # ``_reach``, ``_emission``, ``_degrees``, ``_snf``, ``_report`` and
    # ``_digest`` are filled on first query (by this module, ktheory and
    # canonical); they are derived from the rows, so identity, hashing and
    # serialization ignore them.
    __slots__ = (
        "vertices", "_rows", "_pos", "_reach", "_emission", "_degrees", "_snf", "_report",
        "_digest",
    )

    def __init__(self, vertices: Sequence[str], adjacency: Sequence[Sequence]):
        vs = _vertex_names(vertices)
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
                rows.append({j: m for j, m in enumerate(map(_raw, row)) if m})
            except DomainError as exc:
                raise ValidationError(str(exc)) from exc
        self._fill(vs, tuple(rows))

    @classmethod
    def _trusted(cls, vertices: tuple, rows: tuple) -> "Graph":
        """Build from distinct names and valid sparse rows, without checking them."""
        g = object.__new__(cls)
        g._fill(vertices, rows)
        return g

    def _fill(self, vertices: tuple, rows: tuple) -> None:
        self.vertices = vertices
        self._rows = rows
        self._pos = {v: i for i, v in enumerate(vertices)}
        self._reach = self._emission = self._degrees = None
        self._snf = self._report = self._digest = None

    # -- basic access --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def adjacency(self) -> tuple:
        """The dense matrix of ``ExtNat`` entries, built on every call in O(n²).

        A view for oracles and tests; the library reads the sparse rows.
        """
        return tuple(map(self._dense, self._rows))

    def _dense(self, row: dict) -> tuple:
        out = [_SMALL[0]] * len(self.vertices)
        for j, m in row.items():
            out[j] = _ext(m)
        return tuple(out)

    def index(self, v: str) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise NotFoundError(f"no vertex named {v!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._pos

    def a(self, u: str, v: str) -> ExtNat:
        return _ext(self._mult(u, v))

    def _mult(self, u: str, v: str):
        """The multiplicity of ``u → v`` as stored: an int, or ``_INF``."""
        return self._rows[self.index(u)].get(self.index(v), 0)

    def row(self, v: str) -> tuple:
        return self._dense(self._rows[self.index(v)])

    def out_degree(self, v: str) -> ExtNat:
        return _ext(self._degs().out[self.index(v)])

    def in_degree(self, v: str) -> ExtNat:
        return _ext(self._degs().into[self.index(v)])

    def _kind(self, v: str) -> str:
        return self._degs().kind[self.index(v)]

    def is_sink(self, v: str) -> bool:
        return not self._rows[self.index(v)]

    def is_infinite_emitter(self, v: str) -> bool:
        return self._kind(v) == "infinite-emitter"

    def is_regular(self, v: str) -> bool:
        return self._kind(v) == "regular"

    def is_source(self, v: str) -> bool:
        return not self._degs().into[self.index(v)]

    def supports_loop(self, v: str) -> bool:
        i = self.index(v)
        return i in self._rows[i]

    def successors(self, v: str) -> tuple:
        return tuple(map(self.vertices.__getitem__, self._rows[self.index(v)]))

    def predecessors(self, v: str) -> tuple:
        j = self.index(v)
        return tuple(u for u, row in zip(self.vertices, self._rows) if j in row)

    def edge_valid(self, e: EdgeRef) -> bool:
        if not (self.has_vertex(e.src) and self.has_vertex(e.dst)) or e.index < 0:
            return False
        return e.index < self._mult(e.src, e.dst)

    def _degs(self) -> "_Degrees":
        if self._degrees is None:
            self._degrees = _degrees_of(self._rows)
        return self._degrees

    def _reachability(self) -> "_Reach":
        if self._reach is None:
            self._reach = _reach_of(self._rows)
        return self._reach

    def _emitting(self) -> "_Emission":
        if self._emission is None:
            self._emission = _emission_of(self._rows, self._reachability().succ)
        return self._emission

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._rows == other._rows

    def __hash__(self):
        return hash((self.vertices, tuple(tuple(row.items()) for row in self._rows)))

    def __repr__(self):
        return f"Graph({list(self.vertices)!r}, {self.n}x{self.n})"

    # -- derived graphs -------------------------------------------------

    def induced(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph on ``keep``, preserving this graph's vertex order."""
        keep = set(keep)
        idx = [i for i, v in enumerate(self.vertices) if v in keep]
        new = {i: k for k, i in enumerate(idx)}
        rows = tuple({new[j]: m for j, m in self._rows[i].items() if j in new} for i in idx)
        return Graph._trusted(tuple(self.vertices[i] for i in idx), rows)

    def relabeled(self, mapping: dict) -> "Graph":
        vs = _vertex_names([mapping.get(v, v) for v in self.vertices])
        return Graph._trusted(vs, self._rows)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        adjacency = []
        for row in self._rows:
            out = [0] * self.n
            for j, m in row.items():
                out[j] = "inf" if m == _INF else m
            adjacency.append(out)
        return {"vertices": list(self.vertices), "adjacency": adjacency}

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
        for u, row in zip(self.vertices, self._rows):
            for j, m in row.items():
                label = "∞" if m == _INF else str(m)
                lines.append(f'  "{u}" -> "{self.vertices[j]}" [label="{label}"];')
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
    return VertexClass(
        kind=g._kind(v),
        is_source=g.is_source(v),
        supports_loop=g.supports_loop(v),
        loop_count=g.a(v, v),
    )


class _Reach(NamedTuple):
    """Reachability of one graph as bitmasks over vertex positions."""

    succ: list  # bit j of succ[i]: an edge i → j
    reach: list  # bit j of reach[i]: a path of length >= 1 from i to j


class _Degrees(NamedTuple):
    """Stored degrees and the kind of every vertex, by position."""

    out: list  # an int, or _INF
    into: list  # an int, or _INF
    kind: list  # "regular" | "sink" | "infinite-emitter"


def _degrees_of(rows) -> _Degrees:
    into = [0] * len(rows)
    for row in rows:
        for j, m in row.items():
            into[j] += m
    out = [sum(row.values()) for row in rows]
    kind = ["infinite-emitter" if d == _INF else "regular" if d else "sink" for d in out]
    return _Degrees(out, into, kind)


def _reach_of(rows) -> _Reach:
    """Successor masks and their transitive closure (Warshall, one mask per row)."""
    n = len(rows)
    bits = [1 << j for j in range(n)]
    succ = [sum(map(bits.__getitem__, row)) for row in rows]
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


def _emission_of(rows, succ) -> _Emission:
    bits = [1 << j for j in range(len(rows))]
    inf = [sum(bits[j] for j, m in row.items() if m == _INF) for row in rows]
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
        if inner & (inner - 1) or g._rows[j][inner.bit_length() - 1] != 1:
            return 2
    return 1


def condition_K(g: Graph) -> bool:
    """True when every vertex has either no cycle or at least two simple cycles."""
    for v in g.vertices:
        if g._mult(v, v) >= 2:
            continue
        if simple_cycle_count_at(g, v) == 1:
            return False
    return True


def _signatures(g: Graph) -> list:
    """Per vertex: its sorted nonzero out-entries and in-entries, and its loop count.

    Between graphs with equal vertex counts these determine the sorted
    dense row and column.
    """
    cols = [{} for _ in range(g.n)]
    for i, row in enumerate(g._rows):
        for j, m in row.items():
            cols[j][i] = m
    return [
        (sorted(row.values()), sorted(col.values()), row.get(i, 0))
        for i, (row, col) in enumerate(zip(g._rows, cols))
    ]


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Graph isomorphism on adjacency matrices (edge indices are ignored)."""
    if g1.n != g2.n:
        return False
    rows1, rows2 = g1._rows, g2._rows
    sig1, sig2 = _signatures(g1), _signatures(g2)
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
            if rows1[i].get(i2, 0) != rows2[j].get(j2, 0):
                return False
            if rows1[i2].get(i, 0) != rows2[j2].get(j, 0):
                return False
        return rows1[i].get(i, 0) == rows2[j].get(j, 0)

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
