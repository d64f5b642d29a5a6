"""The value classes are immutable named tuples.

Their reprs, hashes, constructors, checks and pickling are pinned here;
the expected reprs are those the classes had as frozen dataclasses.
"""

import pickle
import re

import pytest

from graphck import (
    REMAINDER,
    CoefficientSystem,
    CornerGraph,
    EdgeRef,
    MoveRecord,
    Partition,
    ProjectionSequence,
    ValidationError,
    admissible_pairs,
    corner_graph,
    is_stably_complete,
    k0_reduce,
    k_groups,
    make_graph,
    vertex_class,
)

G = make_graph(["v", "w"], [[0, "inf"], [0, 1]])
SYSTEM = CoefficientSystem.make([("v", [("v", "w", 0)], 2)])

#: One instance of each value class, with its repr.
SAMPLES = [
    (
        vertex_class(G, "v"),
        "VertexClass(kind='infinite-emitter', is_source=True, supports_loop=False, loop_count=0)",
    ),
    (is_stably_complete(G), "StablyCompleteReport(satisfied=True, violations=())"),
    (
        corner_graph(G, {"v": 2, "w": 1}),
        "CornerGraph(base=Graph(['v', 'w'], 2x2), heads=(('v', 1), ('w', 0)))",
    ),
    (admissible_pairs(G).nodes[1], "AdmissiblePair(h=frozenset({'w'}), s=frozenset())"),
    (
        admissible_pairs(make_graph(["a"], [[1]])),
        "IdealLattice(nodes=(AdmissiblePair(h=frozenset(), s=frozenset()), "
        "AdmissiblePair(h=frozenset({'a'}), s=frozenset())), up=(3, 2))",
    ),
    (k_groups(G), "KTheoryPair(k0_invariant_factors=(), k0_free_rank=2, k1_free_rank=1)"),
    (k0_reduce(G, [1, 0]), "K0Class(residues=(1, 0))"),
    (
        Partition((frozenset({EdgeRef("v", "w", 0)}), REMAINDER)),
        "Partition(entries=(frozenset({EdgeRef(src='v', dst='w', index=0)}), REMAINDER))",
    ),
    (SYSTEM, "CoefficientSystem(terms=(('v', (EdgeRef(src='v', dst='w', index=0),), 2),))"),
    (
        ProjectionSequence((SYSTEM,)),
        "ProjectionSequence(head=(CoefficientSystem(terms=(('v', (EdgeRef(src='v', dst='w', "
        "index=0),), 2),)),), tail=None)",
    ),
]

VALUES = [value for value, _ in SAMPLES]
IDS = [type(value).__name__ for value in VALUES]


@pytest.mark.parametrize("value, text", SAMPLES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_hash_and_equality_are_those_of_the_fields(value):
    assert hash(value) == hash(tuple(value))
    assert value == tuple(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_keyword_construction(value):
    built = type(value)(**dict(zip(value._fields, value)))
    assert type(built) is type(value) and built == value


def test_projection_sequence_tail_defaults_to_none():
    assert ProjectionSequence(head=(SYSTEM,)) == ProjectionSequence((SYSTEM,), None)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_assignment_raises_attribute_error(value):
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_move_record_assignment_raises_attribute_error():
    record = MoveRecord("S", {"vertex": "v"}, "0" * 64, "1" * 64)
    for name in ("kind", "params", "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition((REMAINDER, REMAINDER)), "at most one remainder class"),
        (lambda: Partition((5,)), "partition classes must be edge sets or REMAINDER"),
        (
            lambda: Partition((REMAINDER,))._replace(entries=(REMAINDER, REMAINDER)),
            "at most one remainder class",
        ),
        (
            lambda: CornerGraph(G, (("w", 0), ("v", 1))),
            "heads must cover exactly the base vertices, in order",
        ),
        (
            lambda: corner_graph(G, {"v": 1, "w": 1})._replace(heads=()),
            "heads must cover exactly the base vertices, in order",
        ),
        (lambda: SYSTEM._replace(terms=5), "coefficient system must be a list of terms, got 5"),
        (
            lambda: CoefficientSystem._make(([("v", [], 0)],)),
            "multiplicity must be a positive int, got 0",
        ),
        (
            lambda: ProjectionSequence((SYSTEM,))._replace(head=5),
            "projection sequence head must be a list of systems, got 5",
        ),
        (
            lambda: ProjectionSequence._make(((SYSTEM,), [("w", (), 1)])),
            "expected a coefficient system, got [('w', (), 1)]",
        ),
    ],
    ids=[
        "two-remainders", "not-a-class", "replace-partition", "heads-order", "replace-heads",
        "replace-terms", "make-system", "replace-head", "make-sequence",
    ],
)
def test_checked_constructors(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_replace_and_make_store_the_canonical_form():
    made = CoefficientSystem.make([("v", [], 1), ("w", [], 2)])
    assert SYSTEM._replace(terms=[("w", [], 2), ["v", [], 1]]) == made
    assert CoefficientSystem._make(([("w", [], 2), ("v", [], 1)],)) == made
    s = ProjectionSequence._make(([SYSTEM], None))
    assert type(s.head) is tuple and s == ProjectionSequence((SYSTEM,))
    assert s._replace(head=[made]).head == (made,)


def test_lattice_order_is_computed_once():
    lattice = admissible_pairs(G)
    assert lattice.order is lattice.order
    assert lattice.order == frozenset(
        (i, j) for i, a in enumerate(lattice.nodes) for j, b in enumerate(lattice.nodes)
        if lattice.leq(a, b)
    )
    assert pickle.loads(pickle.dumps(lattice)).order == lattice.order


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
