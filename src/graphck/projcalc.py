"""A symbolic calculus of projection coefficient systems.

A *coefficient system* over a graph is a finite collection of terms
(v, T) ↦ n with n a positive integer, v a vertex and T a finite set of
out-edges of v, nonempty only when v is an infinite emitter.  It stands
for the projection ⊕ n·(p_v − Σ_{e∈T} s_e s_e*) built from a generating
family of the graph's algebra; its K₀ class is Σ n·(χ_v − Σ_{e∈T}
χ_{r(e)}), computable by :mod:`graphck.ktheory`.

A *projection sequence* is a finite head of coefficient systems plus an
optional tail template repeated countably (with edge indices allocated
fresh per repetition); it encodes a strictly convergent sum of
projections.  The pipeline in :func:`corner_pipeline` normalizes a full
sequence over a stably complete graph until every term has empty T
except at vertices whose total T is infinite, at which point the sum
collapses to a multiplicity vector n_v ∈ ℕ₀ ∪ {∞}: the data of a corner
graph.

Three elimination rules drive the normalization, one per kind of
infinite emitter: with a loop, without a loop but dominated by a
regular vertex, and without any regular dominator.  The first two are
equivalences that preserve the K₀ class of the head exactly.  The third
is induced by an automorphism of the stabilized algebra; it shifts K₀
classes by a computable action (see :func:`undominated_k0_action`),
which the tests track explicitly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, InternalError, ValidationError
from .extnat import INF, ExtNat
from .graph import (
    _INF,
    EdgeRef,
    Graph,
    _bits,
    _closure_mask,
    _edge_fields,
    _first,
    _json_name,
    _mask,
    _reached_by,
    _saturate_mask,
)
from .ktheory import K0Class, k0_reduce
from .canonical import companion, is_stably_complete


# -- data -------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSystem:
    """Finite map (vertex, finite edge set) → positive multiplicity."""

    terms: tuple  # of (v, tuple_of_EdgeRef_sorted, n), canonically sorted

    @staticmethod
    def make(items) -> "CoefficientSystem":
        """Build from (v, edges, n) triples, merging equal (v, T) keys."""
        acc = {}
        for term in items:
            if not isinstance(term, (list, tuple)) or len(term) != 3:
                raise ValidationError(f"coefficient term must be (v, edges, n), got {term!r}")
            v, edges, n = term
            if not isinstance(edges, (list, tuple)):
                raise ValidationError(f"term 'T' must be a list of edges, got {edges!r}")
            edges = [e if type(e) is EdgeRef else EdgeRef(*_edge_fields(e)) for e in edges]
            edges = tuple(sorted(edges))
            if len(set(edges)) != len(edges):
                raise ValidationError(f"duplicate edge in T of {v!r}")
            if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
                raise ValidationError(f"multiplicity must be a positive int, got {n!r}")
            key = (str(v), edges)
            acc[key] = acc.get(key, 0) + n
        terms = tuple(sorted((v, t, n) for (v, t), n in acc.items()))
        return CoefficientSystem(terms)

    @staticmethod
    def empty() -> "CoefficientSystem":
        return CoefficientSystem(())

    def as_dict(self) -> dict:
        return {(v, t): n for v, t, n in self.terms}

    def support(self) -> frozenset:
        return frozenset(v for v, _, _ in self.terms)

    def merge(self, *others: "CoefficientSystem") -> "CoefficientSystem":
        items = [(v, t, n) for v, t, n in self.terms]
        for o in others:
            items.extend(o.terms)
        return CoefficientSystem.make(items)

    def validate(self, g: Graph) -> None:
        for v, t, n in self.terms:
            g.index(v)
            for e in t:
                if e.src != v:
                    raise ValidationError(f"edge {e} in a term at {v!r}")
                if not g.edge_valid(e):
                    raise ValidationError(f"{e} is not an edge of the graph")
            if t and not g.is_infinite_emitter(v):
                raise ValidationError(
                    f"nonempty T at {v!r}, which is not an infinite emitter"
                )

    def k0_vector(self, g: Graph) -> list:
        """Integer vertex-vector Σ n·(χ_v − Σ_{e∈T} χ_{r(e)})."""
        vec = [0] * g.n
        for v, t, n in self.terms:
            vec[g.index(v)] += n
            for e in t:
                vec[g.index(e.dst)] -= n
        return vec

    def to_json(self) -> list:
        return [
            {"v": v, "T": [e.to_json() for e in t], "n": n} for v, t, n in self.terms
        ]

    @staticmethod
    def from_json(data) -> "CoefficientSystem":
        if not isinstance(data, (list, tuple)):
            raise ValidationError(f"coefficient system must be a list of terms, got {data!r}")
        items = []
        for term in data:
            if not isinstance(term, dict):
                raise ValidationError(f"coefficient term must be an object, got {term!r}")
            for field in ("v", "n"):
                if field not in term:
                    raise ValidationError(f"coefficient term {term!r} lacks {field!r}")
            edges = term.get("T", [])
            if not isinstance(edges, (list, tuple)):
                raise ValidationError(f"term 'T' must be a list of edges, got {edges!r}")
            items.append((_json_name(term["v"]), [EdgeRef.from_json(e) for e in edges], term["n"]))
        return CoefficientSystem.make(items)


@dataclass(frozen=True)
class ProjectionSequence:
    """A finite head of systems plus an optional countably-repeated template."""

    head: tuple  # of CoefficientSystem
    tail: Optional[CoefficientSystem] = None

    def support(self) -> frozenset:
        out = frozenset()
        for c in self.head:
            out |= c.support()
        if self.tail is not None:
            out |= self.tail.support()
        return out

    def validate(self, g: Graph) -> None:
        for c in self.head:
            c.validate(g)
        if self.tail is not None:
            self.tail.validate(g)
            for v, t, _ in self.tail.terms:
                for e in t:
                    if g._mult(e.src, e.dst) != _INF:
                        raise ValidationError(
                            "tail template edges need infinitely many parallels "
                            f"to repeat, got {e} with finite multiplicity"
                        )

    def head_total(self) -> CoefficientSystem:
        if not self.head:
            return CoefficientSystem.empty()
        return self.head[0].merge(*self.head[1:])

    def to_json(self) -> dict:
        out = {"head": [c.to_json() for c in self.head]}
        if self.tail is not None:
            out["tail"] = self.tail.to_json()
        return out

    @staticmethod
    def from_json(data) -> "ProjectionSequence":
        if not isinstance(data, dict):
            raise ValidationError(f"projection sequence must be an object, got {data!r}")
        head = data.get("head", [])
        if not isinstance(head, (list, tuple)):
            raise ValidationError(f"projection sequence 'head' must be a list, got {head!r}")
        head = tuple(CoefficientSystem.from_json(c) for c in head)
        tail = data.get("tail")
        return ProjectionSequence(
            head, CoefficientSystem.from_json(tail) if tail is not None else None
        )


def tail_instance(seq: ProjectionSequence, rep: int) -> CoefficientSystem:
    """Materialize repetition ``rep`` of the tail template.

    Edge indices shift by 2·rep·m within each (src, dst) family of m
    template edges.  After :func:`make_partitioned` the template holds
    contiguous even blocks, so distinct repetitions are disjoint from
    each other and from the head.
    """
    if seq.tail is None:
        raise DomainError("sequence has no tail")
    if not isinstance(rep, int) or isinstance(rep, bool) or rep < 0:
        raise ValidationError(f"repetition must be a non-negative int, got {rep!r}")
    group_sizes: dict = defaultdict(int)
    for _, t, _ in seq.tail.terms:
        for e in t:
            group_sizes[(e.src, e.dst)] += 1
    items = []
    for v, t, n in seq.tail.terms:
        edges = [
            EdgeRef(e.src, e.dst, e.index + 2 * rep * group_sizes[(e.src, e.dst)])
            for e in t
        ]
        items.append((v, edges, n))
    return CoefficientSystem.make(items)


# -- queries ----------------------------------------------------------------


def _require_stably_complete(g: Graph) -> None:
    report = is_stably_complete(g)
    if not report.satisfied:
        raise DomainError(f"graph is not stably complete: {report.violations}")


def k0_class_of(g: Graph, c: CoefficientSystem) -> K0Class:
    """Canonical K₀ residue of one coefficient system."""
    c.validate(g)
    return k0_reduce(g, c.k0_vector(g))


def head_k0_class(g: Graph, seq: ProjectionSequence) -> K0Class:
    """Canonical K₀ residue of the merged finite head."""
    return k0_class_of(g, seq.head_total())


def is_full(g: Graph, seq: ProjectionSequence) -> bool:
    """Whether the support generates everything.

    True when the saturation of the hereditary closure of the support
    vertices is the whole vertex set.  Requires a stably complete graph.
    """
    _require_stably_complete(g)
    seq.validate(g)
    return _generates(g, seq.support())


def _require_full(g: Graph, seq: ProjectionSequence) -> None:
    """The guard of the steps that need a full sequence on a stably complete graph."""
    if not is_full(g, seq):
        raise DomainError("sequence is not full")


def _generates(g: Graph, support) -> bool:
    """Whether the saturated hereditary closure of ``support`` is everything."""
    return _saturate_mask(g, _closure_mask(g, _mask(g, support))) == (1 << g.n) - 1


def _nonempty_T(g: Graph, seq: ProjectionSequence) -> tuple:
    """The masks of the vertices with a nonempty T in the head and in the tail template."""
    tail = _mask(g, (v for v, t, _ in seq.tail.terms if t)) if seq.tail is not None else 0
    return _mask(g, (v for c in seq.head for v, t, _ in c.terms if t)), tail


# -- partitioning -----------------------------------------------------------


def make_partitioned(g: Graph, seq: ProjectionSequence) -> ProjectionSequence:
    """Reindex edges so distinct terms use pairwise disjoint T sets.

    Head edges keep an even, so-far-unused index when they already have
    one and otherwise take the smallest free even index of their
    (src, dst) family; edges on finitely-parallel families instead take
    the smallest free valid index, since parity slack is neither needed
    nor available there.  The tail template is rewritten to contiguous
    blocks of fresh even indices, so each repetition occupies its own
    window.  Along every infinitely-parallel family the odd indices
    remain unused, leaving infinitely many spare parallel edges.
    Fullness is unaffected: terms keep their (src, dst) profile.
    """
    seq.validate(g)
    return _make_partitioned(g, seq)


def _make_partitioned(g: Graph, seq: ProjectionSequence) -> ProjectionSequence:
    used = defaultdict(set)

    def alloc(e: EdgeRef) -> EdgeRef:
        sd = (e.src, e.dst)
        cap = g._mult(e.src, e.dst)
        if cap == _INF:
            if e.index % 2 == 0 and e.index not in used[sd]:
                used[sd].add(e.index)
                return e
            i = 0
            while i in used[sd]:
                i += 2
            used[sd].add(i)
            return EdgeRef(e.src, e.dst, i)
        if e.index not in used[sd]:
            used[sd].add(e.index)
            return e
        for i in range(cap):
            if i not in used[sd]:
                used[sd].add(i)
                return EdgeRef(e.src, e.dst, i)
        raise DomainError(
            f"cannot make terms disjoint: all {cap} parallel edges "
            f"from {e.src!r} to {e.dst!r} are in use"
        )

    new_head = []
    for c in seq.head:
        items = []
        for v, t, n in c.terms:
            items.append((v, [alloc(e) for e in t], n))
        new_head.append(CoefficientSystem.make(items))

    new_tail = None
    if seq.tail is not None:
        nxt: dict = {}  # the next index of each family's window, above the head's even ones
        items = []
        for v, t, n in seq.tail.terms:
            edges = []
            for e in t:
                sd = (e.src, e.dst)
                if sd not in nxt:
                    nxt[sd] = max(used[sd], default=-2) + 2
                edges.append(EdgeRef(e.src, e.dst, nxt[sd]))
                nxt[sd] += 2
            items.append((v, edges, n))
        new_tail = CoefficientSystem.make(items)

    return ProjectionSequence(tuple(new_head), new_tail)


# -- making the first system full -------------------------------------------


def fullify(g: Graph, seq: ProjectionSequence) -> ProjectionSequence:
    """Rewrite a full sequence so its first system touches every vertex.

    First the shortest prefix whose support already generates everything
    is merged into a single system (materializing one tail repetition if
    the head alone does not suffice).  Then vertices are absorbed one
    edge-step at a time: a covered regular vertex w with an edge f to an
    uncovered v trades one CK relation, adding p_v and one p_{r(e)} for
    every out-edge e of w other than f and w's loop; a covered infinite
    emitter w instead enlarges one of its T sets by a fresh parallel
    edge toward v and adds the term (v, ∅).  Both rewrites preserve the
    K₀ class of the head exactly.
    """
    _require_full(g, seq)
    if not g.vertices:
        return seq

    tail = seq.tail
    prefix: list = []
    support: frozenset = frozenset()
    while not _generates(g, support):  # the empty support generates only the empty graph
        n = len(prefix)
        if n < len(seq.head):
            prefix.append(seq.head[n])
        elif tail is not None and n == len(seq.head):
            prefix.append(tail_instance(seq, 0))
        else:
            raise InternalError("full sequence has no generating prefix")
        support |= prefix[-1].support()
    merged = prefix[0].merge(*prefix[1:])

    terms = merged.as_dict()
    covered = set(merged.support())
    missing = g.n - len(covered)
    for _ in range(missing):  # each round covers one more vertex
        step = next(
            (
                (w, v)
                for v in g.vertices
                if v not in covered
                for w in g.predecessors(v)
                if w in covered
            ),
            None,
        )
        if step is None:
            raise InternalError("coverage cannot grow despite fullness")
        w, v = step
        if g.is_regular(w):
            # trade the relation p_w = Σ s_e s_e*: keep (w, ∅), gain p_v and
            # one p_{r(e)} per out-edge other than the used edge and the loop
            if (w, ()) not in terms:
                raise InternalError(f"covered regular vertex {w!r} has no (w, ∅) term")
            terms[(v, ())] = terms.get((v, ()), 0) + 1
            for y, count in _companion_expansion(g, w, [v]):
                terms[(y, ())] = terms.get((y, ()), 0) + count
        else:
            key = min((t for (u, t) in terms if u == w), key=lambda t: (len(t), t))
            current = CoefficientSystem(tuple((u, t, m) for (u, t), m in terms.items()))
            f = _fresh_parallel_edge(g, ProjectionSequence((current,), tail), w, v, set(key))
            old = terms[(w, key)]
            if old == 1:
                del terms[(w, key)]
            else:
                terms[(w, key)] = old - 1
            new_t = tuple(sorted(key + (f,)))
            terms[(w, new_t)] = terms.get((w, new_t), 0) + 1
            terms[(v, ())] = terms.get((v, ()), 0) + 1
        covered.add(v)

    if missing:
        merged = CoefficientSystem.make([(v, t, m) for (v, t), m in terms.items()])
    return ProjectionSequence((merged,) + seq.head[len(prefix):], tail)


def _fresh_parallel_edge(
    g: Graph, seq: ProjectionSequence, src: str, dst: str, avoid: set
) -> EdgeRef:
    """Smallest-index edge src → dst unused in the sequence and not in ``avoid``.

    Even indices at or above the tail-template window of the pair are
    skipped so later repetitions stay disjoint.
    """
    cap = g._mult(src, dst)
    tail = () if seq.tail is None else (seq.tail,)
    used = {e.index for e in avoid}.union(_indices(seq.head + tail, src, dst))
    window_floor = min(_indices(tail, src, dst), default=None)
    i = 0
    while True:
        if i >= cap:
            raise DomainError(f"no free parallel edge from {src!r} to {dst!r}")
        blocked = i in used or (
            window_floor is not None and i >= window_floor and i % 2 == 0
        )
        if not blocked:
            return EdgeRef(src, dst, i)
        i += 1


def _indices(systems, src: str, dst: str):
    """The indices of the edges ``src → dst`` in the T sets of ``systems``."""
    for c in systems:
        for _, t, _ in c.terms:
            for e in t:
                if e.src == src and e.dst == dst:
                    yield e.index


# -- the three eliminations -------------------------------------------------


def _companion_expansion(g: Graph, w: str, targets) -> list:
    """Extra vertex counts from rerouting |targets| relations through ``w``.

    ``w`` must be regular with a loop; when a target equals ``w`` a
    second loop is required (guaranteed at vertices on two cycles in a
    stably complete graph).  For each target r the contribution is one
    p_{r(e)} per out-edge e of w other than the loop and one edge toward
    r; equivalently A(w, y) minus the used edges, per y.
    """
    i = g.index(w)
    row = g._rows[i]  # finite: w is regular
    if i not in row:
        raise InternalError(f"companion {w!r} has no loop")
    out = []
    for r in targets:
        if r == w and row[i] < 2:
            raise InternalError(f"companion {w!r} needs a second loop")
        for j, m in row.items():
            y = g.vertices[j]
            count = m - (1 if j == i else 0) - (1 if y == r else 0)
            if count > 0:
                out.append((y, count))
    return out


def _reroute(g: Graph, c: CoefficientSystem, v: str, w: str) -> CoefficientSystem:
    """Reroute every (v, T ≠ ∅) term of ``c`` through the regular vertex ``w``.

    A term (v, T) ↦ n becomes (v, ∅) ↦ n plus n copies of the companion
    expansion of the T-edge targets through ``w``.
    """
    items = []
    for u, t, n in c.terms:
        if u == v and t:
            items.append((v, (), n))
            for y, count in _companion_expansion(g, w, [e.dst for e in t]):
                items.append((y, (), n * count))
        else:
            items.append((u, t, n))
    return CoefficientSystem.make(items)


def _dominator(g: Graph, v: str):
    """First regular vertex dominating ``v``, or None."""
    return _first(g, g._degs().regular & _reached_by(g, g.index(v)))


def _require_emitter(g: Graph, seq: ProjectionSequence, v: str, looped: bool) -> None:
    """The guard the eliminations share: ``v`` is an infinite emitter, looped iff ``looped``."""
    _require_stably_complete(g)
    seq.validate(g)
    if not g.is_infinite_emitter(v):
        raise DomainError(f"{v!r} is not an infinite emitter")
    if g.supports_loop(v) != looped:
        raise DomainError(f"{v!r} does not support a loop" if looped else f"{v!r} supports a loop")


def eliminate_loop_emitter(g: Graph, seq: ProjectionSequence, v: str) -> ProjectionSequence:
    """Empty the T sets at an infinite emitter that supports a loop.

    Uses a regular vertex w on a common cycle with v: each term
    (v, T) ↦ n becomes (v, ∅) ↦ n plus n copies of the companion
    expansion of the T-edge targets through w.  The K₀ class of every
    system is preserved exactly.
    """
    _require_emitter(g, seq, v, looped=True)
    return _eliminate_loop_emitter(g, seq, v)


def _eliminate_loop_emitter(g: Graph, seq: ProjectionSequence, v: str) -> ProjectionSequence:
    head, tail = _nonempty_T(g, seq)
    if not (head | tail) >> g.index(v) & 1:
        return seq
    w = companion(g, v)
    if w is None:
        raise DomainError(f"no regular vertex shares a cycle with {v!r}")
    head = tuple(_reroute(g, c, v, w) for c in seq.head)
    tail = _reroute(g, seq.tail, v, w) if seq.tail is not None else None
    return ProjectionSequence(head, tail)


def eliminate_dominated_emitter(
    g: Graph, seq: ProjectionSequence, v: str
) -> ProjectionSequence:
    """Empty the T sets at a loopless infinite emitter below a regular vertex.

    The head prefix up to the last system mentioning (v, T ≠ ∅) is
    merged so that the regular dominator's (w, ∅) term coexists with
    every such term; the terms are then rerouted through w exactly as in
    the looped case.  K₀ classes are preserved exactly.
    """
    _require_emitter(g, seq, v, looped=False)
    head, tail = _nonempty_T(g, seq)
    bit = 1 << g.index(v)
    if tail & bit:
        raise DomainError(f"the total T at {v!r} is infinite")
    w = _dominator(g, v)
    if w is None and head & bit:
        raise DomainError(f"no regular vertex dominates {v!r}")
    return _eliminate_dominated_emitter(g, seq, v, w)


def _eliminate_dominated_emitter(
    g: Graph, seq: ProjectionSequence, v: str, w: str
) -> ProjectionSequence:
    """Reroute the T sets at ``v`` through its regular dominator ``w``."""
    last = max(
        (i for i, c in enumerate(seq.head) if any(u == v and t for u, t, _ in c.terms)),
        default=None,
    )
    if last is None:
        return seq
    merged = seq.head[0].merge(*seq.head[1 : last + 1])
    if (w, ()) not in merged.as_dict():
        raise DomainError(
            f"the merged prefix has no ({w!r}, ∅) term; run fullify first"
        )
    head = (_reroute(g, merged, v, w),) + seq.head[last + 1 :]
    return ProjectionSequence(head, seq.tail)


def eliminate_undominated_emitter(
    g: Graph, seq: ProjectionSequence, v: str
) -> ProjectionSequence:
    """Empty the T sets at a loopless infinite emitter with no regular dominator.

    Realizes the automorphism that out-splits v along (everything else,
    T_v) and collapses the finite part back: every term (u, U) with an
    edge e ∈ U into v gains one fresh parallel edge u → r(f) for each
    f ∈ T_v (such u are necessarily infinite emitters with ∞ entries
    toward those targets), and every term (v, T') becomes (v, ∅) plus
    one (r(e), ∅) per e ∈ T_v \\ T'.  K₀ classes move by the action
    returned from :func:`undominated_k0_action`.
    """
    _require_emitter(g, seq, v, looped=False)
    if _dominator(g, v) is not None:
        raise DomainError(f"{v!r} has a regular dominator; use the dominated rule")
    if _nonempty_T(g, seq)[1] >> g.index(v) & 1:
        raise DomainError(f"the total T at {v!r} is infinite")
    return _eliminate_undominated_emitter(g, seq, v)


def _eliminate_undominated_emitter(
    g: Graph, seq: ProjectionSequence, v: str
) -> ProjectionSequence:
    T = tuple(sorted({e for c in seq.head for u, t, _ in c.terms if u == v for e in t}))
    if not T:
        return seq

    fresh_used: dict = defaultdict(set)
    systems = seq.head + (() if seq.tail is None else (seq.tail,))

    def fresh(u: str, dst: str, in_template: bool) -> EdgeRef:
        if g._mult(u, dst) != _INF:
            raise InternalError(
                f"expected infinitely many parallels from {u!r} to {dst!r}"
            )
        used = fresh_used[(u, dst)]
        if in_template:
            # template additions sit in a consecutive odd run above everything
            # already used for the pair, so shifted repetitions cannot collide
            top = max([*_indices(systems, u, dst), *used], default=-1)
            i = top + 1 if (top + 1) % 2 else top + 2
        else:
            avoid = {EdgeRef(u, dst, j) for j in used}
            i = _fresh_parallel_edge(g, seq, u, dst, avoid).index
        used.add(i)
        return EdgeRef(u, dst, i)

    def rewrite(c: CoefficientSystem, in_template: bool) -> CoefficientSystem:
        items = []
        for u, t, n in c.terms:
            if u == v:
                items.append((v, (), n))
                for e in T:
                    if e not in t:
                        items.append((e.dst, (), n))
            elif any(e.dst == v for e in t):
                new_t = list(t)
                for e in t:
                    if e.dst == v:
                        for f in T:
                            new_t.append(fresh(u, f.dst, in_template))
                items.append((u, new_t, n))
            else:
                items.append((u, t, n))
        return CoefficientSystem.make(items)

    head = tuple(rewrite(c, False) for c in seq.head)
    tail = rewrite(seq.tail, True) if seq.tail is not None else None
    return ProjectionSequence(head, tail)


def undominated_k0_action(g: Graph, v: str, T) -> "callable":
    """K₀ action of the undominated elimination, as a map on vertex vectors.

    The action sends x to x + x_v · Σ_{f∈T} χ_{r(f)}.  It descends to
    the cokernel because no regular vertex emits into v, so every
    relation column has a zero v-entry.
    """
    j = g.index(v)
    shift = [0] * g.n
    for f in T:
        shift[g.index(f.dst)] += 1

    def act(vec):
        vec = list(vec)
        c = vec[j]
        return [x + c * s for x, s in zip(vec, shift)]

    return act


# -- collapsing to multiplicities -------------------------------------------


def to_multiplicities(g: Graph, seq: ProjectionSequence) -> dict:
    """Collapse a full partitioned sequence into a multiplicity vector.

    Writing T_v for the union of all T sets at v across the sequence
    (infinite exactly when the tail template has a (v, T ≠ ∅) term),
    every vertex must satisfy: T_v = ∅, or some w with a path to v has
    infinite T_w.  Then

    * n_v = Σ_k n_{(v,∅)} when T_w = ∅ for every w reaching v,
    * n_v = ∞ when T_v is infinite and T_w = ∅ for every other w
      reaching v,
    * n_v = 1 otherwise.
    """
    _require_full(g, seq)
    return _to_multiplicities(g, seq)


def _to_multiplicities(g: Graph, seq: ProjectionSequence) -> dict:
    _check_partitioned(seq)
    tail = seq.tail.terms if seq.tail is not None else ()
    head, infinite = _nonempty_T(g, seq)  # bit i: a nonempty T at i in the head, in the tail
    repeated = _mask(g, (v for v, t, _ in tail if not t))  # bit i: a (i, ∅) term in the tail
    nonempty = head | infinite
    totals = dict.fromkeys(g.vertices, 0)  # of the (v, ∅) terms in the head
    for c in seq.head:
        for v, t, n in c.terms:
            if not t:
                totals[v] += n
    # bit w of above[i]: a path, possibly of length zero, from w to i
    above = [_reached_by(g, i) | 1 << i for i in range(g.n)]

    for i in _bits(nonempty):
        if not infinite & above[i]:
            raise DomainError(
                f"finite nonempty total T at {g.vertices[i]!r} with no infinite T above; "
                "run the elimination rules first"
            )

    out = {}
    for i, v in enumerate(g.vertices):
        bit = 1 << i
        if not nonempty & above[i]:
            out[v] = INF if repeated & bit else ExtNat(totals[v])
        elif infinite & bit and not nonempty & above[i] & ~bit:
            out[v] = INF
        else:
            out[v] = ExtNat(1)
    return out


def _check_partitioned(seq: ProjectionSequence) -> None:
    seen = set()
    tail = (tail_instance(seq, 0),) if seq.tail is not None else ()
    for c in seq.head + tail:
        for _, t, _ in c.terms:
            for e in t:
                if e in seen:
                    raise DomainError(f"sequence is not partitioned: {e} reused")
            seen.update(t)


def normalize_multiplicities(g: Graph, m: dict) -> dict:
    """Canonical rewrite: below an ∞ vertex every multiplicity becomes 1.

    A multiplicity vector may be rewritten at v whenever some other
    vertex with an ∞ multiplicity has a path to v; among the allowed
    rewrites this picks the constant 1.
    """
    if set(m) != set(g.vertices):
        raise ValidationError("multiplicity vector must cover exactly the vertices")
    vals = [ExtNat.of(m[v]) for v in g.vertices]
    infinite = sum(1 << i for i, x in enumerate(vals) if x.is_infinite)
    out = {}
    for i, v in enumerate(g.vertices):
        shadowed = infinite & ~(1 << i) & _reached_by(g, i)
        out[v] = ExtNat(1) if shadowed else vals[i]
    return out


# -- the full pipeline -------------------------------------------------------


def corner_pipeline(g: Graph, seq: ProjectionSequence) -> dict:
    """Normalize a full sequence into multiplicities n_v >= 1.

    Runs fullify, make_partitioned, then the eliminations in vertex
    order: the loop rule at every looped infinite emitter; then, among
    the loopless ones with a finite total T, the dominated rule at those
    with a regular dominator and the undominated rule at the rest; and
    finally :func:`to_multiplicities`.  The loop and dominated rules
    preserve the head's K₀ class exactly; the undominated rule twists it
    by the documented automorphism action.
    """
    # fullify checks the input; each later step's input is the previous step's output
    seq = _make_partitioned(g, fullify(g, seq))
    for v in g.vertices:
        if g.is_infinite_emitter(v) and g.supports_loop(v):
            seq = _eliminate_loop_emitter(g, seq, v)
    infinite = _nonempty_T(g, seq)[1]
    loopless = [
        v
        for i, v in enumerate(g.vertices)
        if g.is_infinite_emitter(v) and not g.supports_loop(v) and not infinite >> i & 1
    ]
    dominators = {v: _dominator(g, v) for v in loopless}
    for v in loopless:
        if dominators[v] is not None:
            seq = _eliminate_dominated_emitter(g, seq, v, dominators[v])
    for v in loopless:
        if dominators[v] is None:
            seq = _eliminate_undominated_emitter(g, seq, v)
    return _to_multiplicities(g, seq)
