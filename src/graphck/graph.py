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
from collections import deque
from json.encoder import encode_basestring
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, NotFoundError, ValidationError
from .extnat import _INF, ExtNat, _ext


class EdgeRef(NamedTuple):
    """One parallel edge from ``src`` to ``dst``, addressed by position."""

    src: str
    dst: str
    index: int

    def to_json(self):
        return [self.src, self.dst, self.index]

    @staticmethod
    def from_json(data) -> "EdgeRef":
        src, dst, idx = _edge_fields(data)
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
            raise ValidationError(f"edge index must be a nonnegative int, got {idx!r}")
        return EdgeRef(_json_name(src), _json_name(dst), idx)


def _edge_fields(data) -> Sequence:
    """An edge's ``[src, dst, index]``, checked for its shape only."""
    if not isinstance(data, (list, tuple)) or len(data) != 3:
        raise ValidationError(f"edge must be [src, dst, index], got {data!r}")
    return data


def _raw(x):
    """The stored form of an int, an ``ExtNat`` or ``"inf"``; DomainError otherwise."""
    return x if type(x) is int and x >= 0 else ExtNat.of(x)._v


def _vertex_names(vertices) -> tuple:
    """Distinct names that encode as UTF-8, as digests and the CLI need."""
    vs = tuple(str(v) for v in vertices)
    if len(set(vs)) != len(vs):
        raise ValidationError("duplicate vertex names")
    for v in vs:
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"vertex name {v!r} is not valid Unicode text") from None
    return vs


def _json_name(x) -> str:
    """A vertex name read from JSON, which must be a string."""
    if not isinstance(x, str):
        raise ValidationError(f"vertex name must be a string, got {x!r}")
    return x


def _with(row: dict, j: int, m) -> dict:
    """A copy of a sparse row with column ``j`` set to ``m``, in column order.

    Only a new column is sorted in; setting or deleting one keeps the order.
    """
    if j not in row:
        return dict(sorted({**row, j: m}.items())) if m else dict(row)
    out = dict(row)
    if m:
        out[j] = m
    else:
        del out[j]
    return out


class Graph:
    """Immutable directed multigraph over a finite vertex list.

    Each row is stored sparsely: a dict from column position to
    multiplicity holding only the nonzero entries, in column order.  A
    multiplicity is stored as an ``ExtNat`` stores its value: a plain int,
    or ``_INF`` for ∞.  The API (``a``, ``row``, the degrees and the dense
    ``adjacency`` view) wraps it in an ``ExtNat``.
    """

    # ``_reach``, ``_emission``, ``_degrees``, ``_snf``, ``_report`` and
    # ``_digest`` are filled on first query (by this module, ktheory and
    # canonical); they are derived from the rows, so identity, hashing and
    # serialization ignore them.  The one derived structure a move carries
    # is ``_reach``, through ``column_add`` when the move cannot change it.
    # ``_snf`` is ktheory's one slot: the relation matrix's column count,
    # Smith diagonal and the reduction that K₀ residues replay.  ``_pos``,
    # the name index, is never written after it is built, so moves that
    # keep the vertex tuple share their input's.
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
    def _trusted(
        cls, vertices: tuple, rows: tuple, pos: dict = None, reach: "_Reach" = None
    ) -> "Graph":
        """Build from distinct names and valid sparse rows, without checking them.

        ``pos`` is the name index of ``vertices`` and ``reach`` the rows'
        :class:`_Reach`, when the caller already has them.
        """
        g = object.__new__(cls)
        g._fill(vertices, rows, pos, reach)
        return g

    def _fill(self, vertices: tuple, rows: tuple, pos: dict = None, reach: "_Reach" = None) -> None:
        self.vertices = vertices
        self._rows = rows
        self._pos = {v: i for i, v in enumerate(vertices)} if pos is None else pos
        self._reach = reach
        self._emission = self._degrees = None
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
        out = [_ext(0)] * len(self.vertices)
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
        j = self.index(v)
        return _ext(sum(row.get(j, 0) for row in self._rows))

    def _kind(self, v: str) -> str:
        if self.is_regular(v):
            return "regular"
        return "infinite-emitter" if self.is_infinite_emitter(v) else "sink"

    def is_sink(self, v: str) -> bool:
        return not self._rows[self.index(v)]

    def is_infinite_emitter(self, v: str) -> bool:
        return self._degs().out[self.index(v)] == _INF

    def is_regular(self, v: str) -> bool:
        return bool(self._degs().regular >> self.index(v) & 1)

    def is_source(self, v: str) -> bool:
        return self.index(v) not in self._degs().receiving

    def supports_loop(self, v: str) -> bool:
        i = self.index(v)
        return i in self._rows[i]

    def successors(self, v: str) -> tuple:
        return tuple(map(self.vertices.__getitem__, self._rows[self.index(v)]))

    def predecessors(self, v: str) -> tuple:
        j = self.index(v)
        return tuple(u for u, row in zip(self.vertices, self._rows) if j in row)

    def edge_valid(self, e: EdgeRef) -> bool:
        if type(e.index) is not int or not (self.has_vertex(e.src) and self.has_vertex(e.dst)):
            return False
        return 0 <= e.index < self._mult(e.src, e.dst)

    def _degs(self) -> "_Degrees":
        if self._degrees is None:
            self._degrees = _degrees_of(self._rows)
        return self._degrees

    def _reachability(self) -> "_Reach":
        if self._reach is None:
            self._reach = _reach_of(self._rows)
        return self._reach

    def _emitting(self) -> list:
        if self._emission is None:
            self._emission = _emission_of(self._rows)
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
        return Graph(list(map(_json_name, vertices)), adjacency)

    def canonical_json(self) -> str:
        """``json.dumps(self.to_json(), separators=(",", ":"), ensure_ascii=False)``.

        Written straight from the sparse rows, without the dense lists.
        """
        zeros = ["0"] * len(self.vertices)
        rows = []
        for row in self._rows:
            out = zeros[:]
            for j, m in row.items():
                out[j] = '"inf"' if m == _INF else str(m)
            rows.append("[" + ",".join(out) + "]")
        names = ",".join(map(encode_basestring, self.vertices))
        return '{"vertices":[' + names + '],"adjacency":[' + ",".join(rows) + "]}"

    def digest(self) -> str:
        if self._digest is None:
            text = self.canonical_json().encode("utf-8")
            self._digest = hashlib.sha256(text).hexdigest()
        return self._digest

    def to_dot(self, name: str = "G") -> str:
        """DOT text with one rendered edge per vertex pair, labeled by multiplicity.

        ``name`` is written bare when it is a plain DOT ID, else quoted.
        """
        bare = name.isascii() and name.isidentifier() and name.lower() not in _DOT_KEYWORDS
        lines = [f"digraph {name if bare else _quoted(name)} {{"]
        ids = [_quoted(v) for v in self.vertices]
        for v in ids:
            lines.append(f"  {v};")
        for u, row in zip(ids, self._rows):
            for j, m in row.items():
                label = "∞" if m == _INF else str(m)
                lines.append(f'  {u} -> {ids[j]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def make_graph(vertices: Sequence[str], adjacency: Sequence[Sequence]) -> Graph:
    """Validate and build a graph from a vertex list and a square matrix.

    Entries may be ints, ``ExtNat`` values, or the string ``"inf"``.
    """
    return Graph(vertices, adjacency)


class VertexClass(NamedTuple):
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
    """How each vertex emits and receives, by position."""

    out: list  # out-degrees: an int, or _INF
    regular: int  # bit i: out[i] is finite and nonzero
    receiving: frozenset  # the positions with at least one edge in


def _degrees_of(rows) -> _Degrees:
    """Built in ``sum`` and ``union``, with no Python loop over row entries."""
    out = [sum(row.values()) for row in rows]
    regular = sum(1 << i for i, d in enumerate(out) if d and d != _INF)
    return _Degrees(out, regular, frozenset().union(*rows))


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


def _emission_of(rows) -> list:
    """The ∞ entries of each row: bit j of item i is set for infinitely many edges i → j.

    Kept apart from :class:`_Degrees`, which rewriting builds for many
    graphs that are never asked about saturation or breaking vertices.
    """
    return [sum(1 << j for j, m in row.items() if m == _INF) for row in rows]


#: Words DOT reserves, in any case; as graph names they must be quoted.
_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def _quoted(text: str) -> str:
    """``text`` as a double-quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(g: Graph, names: Iterable[str]) -> int:
    """The bitmask of a vertex set.

    Unknown names raise :class:`NotFoundError` naming the least of them,
    so the message does not depend on the order a set iterates in.
    """
    pos = g._pos
    m = 0
    names = iter(names)
    for v in names:
        if v not in pos:
            g.index(min([v, *(w for w in names if w not in pos)], key=str))  # raises
        m |= 1 << pos[v]
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


def _reached_by(g: Graph, i: int) -> int:
    """The positions with a path of length >= 1 to position ``i``: column ``i`` of ``reach``."""
    return sum(1 << k for k, row in enumerate(g._reachability().reach) if row >> i & 1)


def _cycle_mates(g: Graph, i: int) -> int:
    """The positions on a common cycle with position ``i``; ``i`` itself when it is on a cycle."""
    return g._reachability().reach[i] & _reached_by(g, i)


def _first(g: Graph, mask: int):
    """The vertex at the lowest set bit of ``mask``, or None when it is 0."""
    return g.vertices[(mask & -mask).bit_length() - 1] if mask else None


def _saturate_mask(g: Graph, m: int) -> int:
    """Add regular vertices whose edges all land inside, until none is left."""
    succ, regular = g._reachability().succ, g._degs().regular
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

    One breadth-first search over the rows starts from the successors of
    ``v`` in vertex order, with ``v`` itself unvisited so that cycles back
    to it are found.  Of the shortest paths it takes the one through the
    first such successor, and below it the first found.  Raises
    :class:`NotFoundError` when ``v`` does not dominate ``w``.
    """
    path = _shortest_path(g._rows, g.index(v), g.index(w))
    if path is None:
        raise NotFoundError(f"{v!r} does not dominate {w!r}")
    return [g.vertices[k] for k in path]


def _shortest_path(rows, i: int, j: int):
    """:func:`shortest_nonzero_path` on positions; None when ``i`` does not dominate ``j``.

    The search's first layer is checked before a queue is built.  It gives the
    same path: an edge i → j, else the first successor of i in column order
    that has an edge to j.
    """
    first = rows[i]
    if j in first:
        return [i, j]
    for x in first:
        if j in rows[x]:
            return [i, x, j]
    prev = dict.fromkeys(first)
    queue = deque(prev)
    while j not in prev:
        if not queue:
            return None
        x = queue.popleft()
        for y in rows[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.append(i)
    return path[::-1]


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
    comp = _cycle_mates(g, i)  # v's strongly connected component
    for j in _bits(comp):
        inner = r.succ[j] & comp
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


def _fresh(names: Iterable[str], taken: set) -> list:
    """Each name with ``'`` appended until it is not in ``taken``, which then takes it."""
    out = []
    for name in names:
        while name in taken:
            name += "'"
        taken.add(name)
        out.append(name)
    return out


def fresh_names(base: str, count: int, taken: Iterable[str]) -> list:
    """Deterministic names ``base^1 .. base^count`` avoiding ``taken``."""
    return _fresh([f"{base}^{i}" for i in range(1, count + 1)], set(taken))
