"""Elementary moves on graphs, with replayable provenance records.

Each move is a pure function from a graph to a new graph, defined by an
explicit adjacency transformation.  All of them preserve the stable
isomorphism class of the associated algebra, which at the level of this
package means they leave the integer-matrix K-theory pair unchanged;
that invariance is what the test suite certifies on random corpora.

The moves:

* ``out_split``       distribute a vertex's out-edges over fresh copies
* ``collapse``        remove a loopless regular vertex, composing edges
* ``remove_regular_sources``  delete regular sources to a fixed point, one
                      ``S`` move per removed source
* ``move_T``          add an infinite parallel family along a path whose
                      first edge already has infinitely many parallels
* ``column_add``      a legal column operation on A - I
* ``column_ops_along_path``   the composite of column adds along a path
* ``split_breaking``  out-split separating the infinitely-parallel edges
                      of an infinite emitter from the finitely-parallel ones

Applying a move through :func:`apply_move` also yields a
:class:`MoveRecord` that replays bit-exactly via :func:`replay`.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import MoveError, ValidationError
from .graph import _INF, EdgeRef, Graph, _with, fresh_names


class _Remainder:
    """Marker for the class holding all not-otherwise-listed edges."""

    def __repr__(self):
        return "REMAINDER"

    def __reduce__(self):
        return "REMAINDER"  # the module's one instance, so copies compare equal


#: Placeholder usable once per partition; it may be the only infinite class.
REMAINDER = _Remainder()


class _PartitionFields(NamedTuple):
    entries: tuple


class Partition(_PartitionFields):
    """An ordered partition of the out-edges of one vertex.

    ``entries`` holds finite ``frozenset`` s of :class:`EdgeRef` with a
    common source, plus optionally the :data:`REMAINDER` marker standing
    for every remaining out-edge.  At most one class may be infinite,
    and only the remainder can be.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple):
        if not all(isinstance(c, (_Remainder, frozenset)) for c in entries):
            raise ValidationError("partition classes must be edge sets or REMAINDER")
        if sum(1 for c in entries if isinstance(c, _Remainder)) > 1:
            raise ValidationError("at most one remainder class")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, fields) -> "Partition":
        """Checked like the constructor, and so is ``_replace``, which calls it."""
        return cls(*fields)

    def to_json(self) -> list:
        return [
            "rest" if isinstance(c, _Remainder) else [e.to_json() for e in sorted(c)]
            for c in self.entries
        ]

    @staticmethod
    def from_json(data) -> "Partition":
        if not isinstance(data, (list, tuple)):
            raise ValidationError(f"partition must be a list of classes, got {data!r}")
        entries = []
        for c in data:
            if c == "rest":
                entries.append(REMAINDER)
            elif isinstance(c, (list, tuple)):
                entries.append(frozenset(EdgeRef.from_json(e) for e in c))
            else:
                raise ValidationError(f"partition class must be an edge list or 'rest', got {c!r}")
        return Partition(tuple(entries))


def _check_partition(g: Graph, u: str, p: Partition) -> list:
    """Validate ``p`` against the out-edges of ``u``; returns one sparse row per class.

    Row ``k`` maps each target position to the number of edges class ``k``
    sends there, in column order.  The remainder's row is what the other
    classes leave of the row of ``u``.  Each class's edges are checked in
    sorted order, so an error names the first bad one.
    """
    if g.is_sink(u):
        raise MoveError(f"cannot out-split the sink {u!r}")
    if not p.entries:
        raise MoveError("empty partition")
    seen: set = set()
    rows = []
    for c in p.entries:
        if isinstance(c, _Remainder):
            rows.append(None)  # filled in below
            continue
        if not c:
            raise MoveError("partition classes must be nonempty")
        for e in sorted(c):
            if e.src != u:
                raise MoveError(f"edge {e} does not leave {u!r}")
            if not g.edge_valid(e):
                raise MoveError(f"edge {e} is not an edge of the graph")
            if e in seen:
                raise MoveError(f"edge {e} appears in two classes")
            seen.add(e)
        rows.append(dict(sorted(Counter(g.index(e.dst) for e in c).items())))
    # every used edge is valid and used once, so no count exceeds its entry
    used = Counter(g.index(e.dst) for e in seen)
    rest = {j: m - used[j] for j, m in g._rows[g.index(u)].items() if m != used[j]}
    if None in rows:
        if not rest:
            raise MoveError("remainder class is empty")
        rows[rows.index(None)] = rest
    elif rest:
        raise MoveError("partition does not cover all out-edges and has no remainder")
    return rows


def out_split(g: Graph, u: str, p: Partition) -> Graph:
    """Out-split ``u`` along ``p`` into fresh vertices u^1 .. u^n.

    Each class becomes a new vertex emitting exactly its edges; every
    edge into ``u`` is duplicated toward each new vertex.  Edges of a
    class that looped at ``u`` now emit one copy toward every u^j.  Once
    ``p`` is checked, the output is built from the classes' sparse rows.
    """
    class_rows = _check_partition(g, u, p)
    return _split(g, g.index(u), class_rows)


def _split(g: Graph, pos: int, class_rows: list) -> Graph:
    """Replace the vertex at ``pos`` by one fresh vertex per class row, emitting that row."""
    k = len(class_rows)
    u = g.vertices[pos]
    names = fresh_names(u, k, [v for v in g.vertices if v != u])

    def spread(row: dict) -> dict:
        """A row over the new vertices: column ``pos`` repeats at every u^j."""
        out = {}
        for j, m in row.items():
            if j < pos:
                out[j] = m
            elif j == pos:
                out.update(dict.fromkeys(range(pos, pos + k), m))
            else:
                out[j + k - 1] = m
        return out

    rows = [spread(row) for row in g._rows]
    rows[pos : pos + 1] = map(spread, class_rows)
    return Graph._trusted(g.vertices[:pos] + tuple(names) + g.vertices[pos + 1 :], tuple(rows))


def collapse(g: Graph, u: str) -> Graph:
    """Remove a loopless regular non-source ``u``, composing edges through it."""
    return _collapse(g, g.index(u))


def _collapse(g: Graph, pos: int) -> Graph:
    """:func:`collapse` of the vertex at ``pos``, with every check."""
    u, degs = g.vertices[pos], g._degs()
    if not degs.regular >> pos & 1:
        raise MoveError(f"{u!r} is not regular")
    if pos in g._rows[pos]:
        raise MoveError(f"{u!r} supports a loop")
    if pos not in degs.receiving:
        raise MoveError(f"{u!r} is a source")
    through = g._rows[pos]
    rows = []
    for i, row in enumerate(g._rows):
        if i == pos:
            continue
        new = {j - (j > pos): m for j, m in row.items() if j != pos}
        via = row.get(pos)
        if via:
            for j, m in through.items():
                k = j - (j > pos)
                new[k] = new.get(k, 0) + via * m
            new = dict(sorted(new.items()))
        rows.append(new)
    return Graph._trusted(g.vertices[:pos] + g.vertices[pos + 1 :], tuple(rows))


def remove_regular_sources(g: Graph) -> Graph:
    """Delete regular sources, and the ones so exposed, to a fixed point."""
    return _remove_sources(g)[0]


def move_T(g: Graph, path) -> Graph:
    """Adjoin a countable family of parallel paths along ``path``.

    The first edge of the path must already have infinitely many
    parallels; the effect on the adjacency is to set the entry from the
    path's source to its range to ∞.  When that entry is ∞ already, ``g``
    itself is returned; otherwise the output is built from the rows alone.
    """
    path = list(path)
    if len(path) < 2:  # before the names are looked up
        raise MoveError("path must have length at least one")
    return _move_T(g, [g.index(v) for v in path])


def _move_T(g: Graph, at: list) -> Graph:
    """:func:`move_T` along the positions ``at``, at least two, with every other check."""
    rows = g._rows
    for a, b in zip(at, at[1:]):
        if b not in rows[a]:
            raise MoveError(f"no edge from {g.vertices[a]!r} to {g.vertices[b]!r} along the path")
    i, j = at[0], at[-1]
    if rows[i][at[1]] != _INF:
        raise MoveError("the first edge of the path must have infinitely many parallels")
    if rows[i].get(j) == _INF:
        return g
    rows = list(rows)
    rows[i] = _with(rows[i], j, _INF)
    return Graph._trusted(g.vertices, tuple(rows), g._pos)


def column_add(g: Graph, u: str, v: str) -> Graph:
    """Legal column operation: (A' - I) = (A - I)·E_{u,v}.

    For every x the entry A(x, v) becomes A(x, v) + A(x, u), less one
    when x = u, in saturating arithmetic.  Requires ``u != v``, at least
    one edge from ``u`` to ``v``, and that ``u`` is neither a source nor
    a vertex of out-degree one: the operation is the composite of
    out-splitting the chosen edge off ``u`` and collapsing the split
    vertex, which needs a nonempty remainder class and an incoming edge.
    Without those, the operation can change the K-theory pair (it may
    silently delete a regular vertex's last edge).

    The output shares the input's name index.  It keeps the input's
    reachability, if the input has built it, unless the entry u → v
    drops to 0.
    """
    if u == v:  # before the names are looked up
        raise MoveError("column operation needs distinct vertices")
    return _column_add(g, g.index(u), g.index(v))


def _column_add(g: Graph, iu: int, j: int) -> Graph:
    """:func:`column_add` of the distinct positions ``iu`` and ``j``, with every other check."""
    old_rows = g._rows
    u = g.vertices[iu]
    if j not in old_rows[iu]:
        raise MoveError(f"no edge from {u!r} to {g.vertices[j]!r}")
    if not any(iu in row for row in old_rows):
        raise MoveError(f"{u!r} is a source; the move cannot be realized")
    if sum(old_rows[iu].values()) <= 1:
        raise MoveError(f"{u!r} has out-degree one; the move cannot be realized")
    rows = list(old_rows)
    for i, row in enumerate(old_rows):
        old = row.get(j, 0)
        new = old + row.get(iu, 0) - (i == iu)
        if new != old:
            rows[i] = _with(row, j, new)
    r = g._reach
    if r is not None and j in rows[iu]:
        # Only column v grows, and only entry (u, v) can shrink.  While u → v
        # survives, each new edge x → v has the old path x → u → v, so paths
        # reach what they reached before: ``reach`` stands, and ``succ`` gains
        # bit v in every row with an edge into u.
        bit = 1 << j
        r = r._replace(succ=[s | bit if s >> iu & 1 else s for s in r.succ])
    else:
        r = None
    return Graph._trusted(g.vertices, tuple(rows), g._pos, r)


def column_ops_along_path(g: Graph, path) -> Graph:
    """Successive column adds along a path through distinct vertices.

    The path needs length >= 2; it may close up at its starting vertex.
    The composite adds at least one edge from the path's source to its
    range.
    """
    path = list(path)
    if len(path) < 3:
        raise MoveError("need a path of length at least two")
    interior = path[:-1]
    if len(set(interior)) != len(interior):
        raise MoveError("path must pass through distinct vertices")
    if path[-1] in interior[1:]:
        raise MoveError("path may close up only at its starting vertex")
    cur = g
    for a, b in zip(path[1:], path[2:]):
        cur = column_add(cur, a, b)
    return cur


def split_breaking(g: Graph, u: str) -> Graph:
    """Out-split an infinite emitter into its infinitely-parallel part and the rest.

    u^1 keeps every edge with infinitely many parallels, u^2 the finitely
    many others and is then a finite emitter.  When every edge of ``u``
    has infinitely many parallels the graph is returned unchanged.
    """
    return _split_breaking(g, g.index(u))


def _split_breaking(g: Graph, i: int) -> Graph:
    """:func:`split_breaking` of the vertex at ``i``, with every check."""
    if g._degs().out[i] != _INF:
        raise MoveError(f"{g.vertices[i]!r} is not an infinite emitter")
    if not _breaks(g, i):
        return g
    row = g._rows[i]
    infinite = {j: m for j, m in row.items() if m == _INF}
    finite = {j: m for j, m in row.items() if m != _INF}
    return _split(g, i, [infinite, finite])


def _breaks(g: Graph, i: int) -> bool:
    """Whether :func:`split_breaking` changes ``g`` at position ``i``.

    It does at an infinite emitter with some finitely-parallel family.
    """
    return g._degs().out[i] == _INF and any(m != _INF for m in g._rows[i].values())


# -- provenance -------------------------------------------------------------


class MoveRecord:
    """A replayable record of one applied move.

    ``MoveRecord(kind, params, input_hash, output_hash)`` takes the two
    graphs' hex digests.  A record made by :func:`apply_move` or by
    ``canonicalize`` holds the graphs instead, hashes both on the first
    read of either hash (each graph's own cached :meth:`Graph.digest`) and
    then drops them; its fields read the same.  Records are immutable and compare by their
    four fields.  A record hashes its fields, so ``hash`` raises
    ``TypeError`` while ``params`` is a dict, and assigning to or deleting
    an attribute raises ``AttributeError``.
    """

    __slots__ = ("kind", "params", "_hashes", "_graphs")

    def __init__(self, kind: str, params: dict, input_hash: str, output_hash: str):
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "params", params)
        init(self, "_hashes", (input_hash, output_hash))
        init(self, "_graphs", None)

    @classmethod
    def _of(cls, kind: str, params: dict, g: Graph, out: Graph) -> "MoveRecord":
        """The record of the move ``g`` → ``out``, hashing the graphs on first read."""
        rec = cls(kind, params, None, None)
        object.__setattr__(rec, "_graphs", (g, out))
        return rec

    def _digests(self) -> tuple:
        if self._graphs is not None:
            object.__setattr__(self, "_hashes", tuple(x.digest() for x in self._graphs))
            object.__setattr__(self, "_graphs", None)
        return self._hashes

    @property
    def input_hash(self) -> str:
        return self._digests()[0]

    @property
    def output_hash(self) -> str:
        return self._digests()[1]

    def _fields(self) -> tuple:
        return (self.kind, self.params, *self._digests())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        names = ("kind", "params", "input_hash", "output_hash")
        return "MoveRecord(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, self._fields())) + ")"

    def __reduce__(self):
        return MoveRecord, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "input-hash": self.input_hash,
            "output-hash": self.output_hash,
        }

    @staticmethod
    def from_json(data) -> "MoveRecord":
        """Read a record: string ``kind`` and hashes, ``params`` with the fields its kind needs."""
        if not isinstance(data, dict):
            raise ValidationError(f"bad move record: the record must be an object, got {data!r}")
        try:
            fields = [data[k] for k in ("kind", "params", "input-hash", "output-hash")]
        except KeyError as exc:
            raise ValidationError(f"bad move record: {exc}") from exc
        kind, params, *hashes = fields
        for name, got in zip(("kind", "input-hash", "output-hash"), (kind, *hashes)):
            if not isinstance(got, str):
                raise ValidationError(f"bad move record: {name!r} must be a string, got {got!r}")
        if not isinstance(params, dict):
            raise ValidationError(f"bad move record: params must be an object, got {params!r}")
        # an unknown kind is left to ``replay``
        for field, (ok, what) in _PARAMS.get(kind, {}).items():
            got = params.get(field)
            if not ok(got):
                raise ValidationError(
                    f"bad move record: {kind} needs {field!r} as {what}, got {got!r}"
                )
        return MoveRecord(*fields)


_NAME = (lambda x: isinstance(x, str), "a vertex name")
_PATH = (lambda x: isinstance(x, list) and all(map(_NAME[0], x)), "a list of vertex names")
_CLASSES = (lambda x: isinstance(x, list), "a list of classes")
#: Per move kind: each field of its params, with a test of its JSON type.
_PARAMS = {
    "O": {"vertex": _NAME, "classes": _CLASSES},
    "S": {"vertex": _NAME},
    "T": {"path": _PATH},
    "COLLAPSE": {"vertex": _NAME},
    "COLADD": {"source": _NAME, "target": _NAME},
    "BREAKSPLIT": {"vertex": _NAME},
}
MOVE_KINDS = tuple(_PARAMS)


def _regular_source(g: Graph, i: int) -> bool:
    """Whether the vertex at ``i`` is regular and receives no edge."""
    degs = g._degs()
    return bool(degs.regular >> i & 1) and i not in degs.receiving


def _remove_source(g: Graph, i: int) -> Graph:
    """The ``S`` move: delete the regular source at position ``i``."""
    if not _regular_source(g, i):
        raise MoveError(f"{g.vertices[i]!r} is not a regular source")
    return g.induced(g.vertices[:i] + g.vertices[i + 1 :])


def _dispatch(g: Graph, kind: str, params: dict) -> Graph:
    if kind == "O":
        return out_split(g, params["vertex"], Partition.from_json(params["classes"]))
    if kind == "S":
        return _remove_source(g, g.index(params["vertex"]))
    if kind == "T":
        return move_T(g, params["path"])
    if kind == "COLLAPSE":
        return collapse(g, params["vertex"])
    if kind == "COLADD":
        return column_add(g, params["source"], params["target"])
    if kind == "BREAKSPLIT":
        return split_breaking(g, params["vertex"])
    raise ValidationError(f"unknown move kind {kind!r}")


#: The bodies of the moves at one vertex, by kind: each takes the vertex's position.
_AT_VERTEX = {"S": _remove_source, "COLLAPSE": _collapse, "BREAKSPLIT": _split_breaking}


def apply_move(g: Graph, kind: str, params: dict) -> tuple:
    """Apply a move by name, returning the new graph and its record."""
    out = _dispatch(g, kind, params)
    return out, MoveRecord._of(kind, params, g, out)


def _exhaust(g: Graph, kind: str, bad) -> tuple:
    """Apply the move ``kind`` at the first position where ``bad(g, i)`` holds until none is left.

    Returns the graph and the move records.  After a move at position k the
    scan resumes where a vertex can have turned bad:

    * at k after ``BREAKSPLIT`` or ``COLLAPSE``.  A split copies each earlier
      row's entry at k into the duplicated column, so no earlier row gains an
      ∞ or a finite entry it lacked, and its two new vertices never break.  A
      collapse keeps every earlier vertex's kind and its loops, which only grow.
    * at 0 after ``S``: removing a source can take the last edge into an
      earlier vertex.
    """
    body = _AT_VERTEX[kind]
    records, start = [], 0
    while (k := next((i for i in range(start, g.n) if bad(g, i)), None)) is not None:
        out = body(g, k)
        records.append(MoveRecord._of(kind, {"vertex": g.vertices[k]}, g, out))
        g, start = out, 0 if kind == "S" else k
    return g, records


def _remove_sources(g: Graph) -> tuple:
    """Apply ``S`` at the first regular source until none is left.

    Removing a source changes no other vertex's out-degree, so the graph
    reached does not depend on the order of removal.
    """
    return _exhaust(g, "S", _regular_source)


def replay(g: Graph, record: MoveRecord) -> Graph:
    """Re-apply a recorded move, checking both hashes."""
    if g.digest() != record.input_hash:
        raise ValidationError("record does not apply: input hash differs")
    out = _dispatch(g, record.kind, record.params)
    if out.digest() != record.output_hash:
        raise ValidationError("replay produced a different graph")
    return out
