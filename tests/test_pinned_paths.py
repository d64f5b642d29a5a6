"""Code paths that no other test executes, each pinned by one test.

The validation branches pin their exception type and message.  The property
test pins the shape of the cycles ``canonical._short_cycle`` returns, which
is why it needs no check of its own for a repeated interior vertex.
"""

import re

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs
from sample_graphs import two_loops

from graphck import (
    AdmissiblePair,
    CoefficientSystem,
    DomainError,
    EdgeRef,
    InternalError,
    MoveError,
    MoveRecord,
    Partition,
    ProjectionSequence,
    REMAINDER,
    ValidationError,
    apply_move,
    column_ops_along_path,
    make_graph,
    replay,
    restriction_graph,
    smith_normal_form,
)
from graphck.canonical import _short_cycle
from graphck.ktheory import K0Class, k0_add


@settings(max_examples=200, deadline=None)
@given(graphs(max_vertices=8))
def test_short_cycle_is_a_cycle_with_distinct_interior(g):
    """Every cycle starts and ends at its vertex, visits no position twice
    before it closes, has length >= 2 and follows edges.  Where no successor
    other than the vertex leads back, ``_short_cycle`` raises."""
    for i, v in enumerate(g.vertices):
        back = [w for w in g.successors(v) if w != v and oracles.oracle_reaches(g, w, v)]
        if not back:
            with pytest.raises(InternalError, match="no long cycle"):
                _short_cycle(g, v)
            continue
        cycle = _short_cycle(g, v)
        assert cycle[0] == cycle[-1] == i
        assert len(set(cycle[:-1])) == len(cycle) - 1
        assert len(cycle) - 1 >= 2
        assert all(g.a(g.vertices[a], g.vertices[b]) for a, b in zip(cycle, cycle[1:]))


def test_edge_ref_from_json_rejects_a_negative_index():
    with pytest.raises(ValidationError, match="^edge index must be a nonnegative int, got -1$"):
        EdgeRef.from_json(["a", "b", -1])


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "S", "input-hash": "", "output-hash": ""}, "bad move record: 'params'"),
        (["S"], "bad move record: the record must be an object, got ['S']"),
    ],
    ids=["missing-key", "not-an-object"],
)
def test_move_record_from_json_rejects_a_missing_key_or_non_object(data, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        MoveRecord.from_json(data)


def test_replay_rejects_a_record_whose_output_hash_differs():
    g = make_graph(["x", "u", "y"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    _, rec = apply_move(g, "COLLAPSE", {"vertex": "u"})
    forged = MoveRecord.from_json({**rec.to_json(), "output-hash": "0" * 64})
    with pytest.raises(ValidationError, match="^replay produced a different graph$"):
        replay(g, forged)


def test_column_ops_along_path_closes_only_at_its_start():
    g = make_graph(["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 1, 1]])
    with pytest.raises(MoveError, match="^path may close up only at its starting vertex$"):
        column_ops_along_path(g, ["a", "b", "c", "b"])


def test_smith_normal_form_rejects_a_ragged_matrix():
    with pytest.raises(ValidationError, match="^ragged matrix$"):
        smith_normal_form([[1, 2], [3]])


def test_k0_add_rejects_residues_of_another_graph():
    g = two_loops()
    with pytest.raises(ValidationError, match="^class residues do not match the graph$"):
        k0_add(g, K0Class((0,)), K0Class((0, 0)))


def test_restriction_graph_rejects_an_h_that_is_not_saturated_hereditary():
    g = make_graph(["a", "b"], [[1, 1], [0, 1]])  # a reaches b, so {a} is not hereditary
    with pytest.raises(DomainError, match="^H is not saturated hereditary$"):
        restriction_graph(g, AdmissiblePair(frozenset({"a"}), frozenset()))


def test_coefficient_system_rejects_an_edge_from_another_vertex():
    g = make_graph(["a", "b"], [[0, "inf"], ["inf", 0]])
    c = CoefficientSystem.make([("a", [("b", "a", 0)], 1)])
    message = "edge EdgeRef(src='b', dst='a', index=0) in a term at 'a'"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        c.validate(g)


def test_projection_sequence_rejects_a_finite_edge_in_the_tail():
    g = make_graph(["v", "w", "x"], [[0, "inf", 1], [0, 1, 0], [0, 0, 1]])
    tail = CoefficientSystem.make([("v", [("v", "x", 0)], 1)])
    message = (
        "tail template edges need infinitely many parallels to repeat, "
        "got EdgeRef(src='v', dst='x', index=0) with finite multiplicity"
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ProjectionSequence((), tail).validate(g)


def test_partition_to_json_round_trips():
    p = Partition((frozenset({EdgeRef("u", "w", 1), EdgeRef("u", "w", 0)}), REMAINDER))
    data = p.to_json()
    assert data == [[["u", "w", 0], ["u", "w", 1]], "rest"]
    assert Partition.from_json(data) == p
