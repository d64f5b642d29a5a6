import hashlib
import json
import random
import re

import pytest

import gen_systems
from sample_graphs import (
    chain_dominated,
    edge_to_sink,
    inf_dag,
    inf_to_loop,
    looped_pair,
    two_loops,
)

from graphck import (
    INF,
    CoefficientSystem,
    DomainError,
    EdgeRef,
    GraphCKError,
    ProjectionSequence,
    ValidationError,
    build_EH,
    corner_graph,
    corner_pipeline,
    eliminate_dominated_emitter,
    eliminate_loop_emitter,
    eliminate_undominated_emitter,
    fullify,
    head_k0_class,
    hereditary_closure,
    is_full,
    k0_class_of,
    k0_reduce,
    make_graph,
    make_partitioned,
    normalize_multiplicities,
    realize,
    tail_instance,
    to_multiplicities,
    undominated_k0_action,
    unitize,
)


def seq(*systems, tail=None):
    return ProjectionSequence(tuple(systems), tail)


def sys_of(*terms):
    return CoefficientSystem.make(list(terms))


class TestCoefficientSystem:
    def test_merge_sums_multiplicities(self):
        a = sys_of(("v", [], 1))
        b = sys_of(("v", [], 2))
        assert a.merge(b).as_dict() == {("v", ()): 3}

    def test_json_round_trip(self):
        c = sys_of(("v", [("v", "w", 0)], 2), ("w", [], 1))
        assert CoefficientSystem.from_json(c.to_json()) == c

    def test_nonempty_t_needs_infinite_emitter(self):
        c = sys_of(("w", [("w", "w", 0)], 1))
        with pytest.raises(ValidationError):
            c.validate(inf_to_loop())

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValidationError):
            sys_of(("v", [], 0))

    @pytest.mark.parametrize(
        "items, message",
        [
            ([("a", [("a", "b")], 1)], "edge must be [src, dst, index], got ('a', 'b')"),
            ([("a", [5], 1)], "edge must be [src, dst, index], got 5"),
            ([("a", None, 1)], "term 'T' must be a list of edges, got None"),
            (
                [("a", [("a", "b", 0)])],
                "coefficient term must be (v, edges, n), got ('a', [('a', 'b', 0)])",
            ),
            ([5], "coefficient term must be (v, edges, n), got 5"),
            (5, "coefficient system must be a list of terms, got 5"),
            (None, "coefficient system must be a list of terms, got None"),
            (
                [("a", [(5, "b", 0), ("a", "b", 0)], 1)],
                "edges need string names and int indices, got [('a', [(5, 'b', 0), ('a', 'b', 0)], 1)]",
            ),
            (
                [("a", [("a", "b", None), ("a", "b", 0)], 1)],
                "edges need string names and int indices, "
                "got [('a', [('a', 'b', None), ('a', 'b', 0)], 1)]",
            ),
            (
                [("a", [("a", "b", None)], 1), ("a", [("a", "b", 0)], 1)],
                "edges need string names and int indices, "
                "got [('a', [('a', 'b', None)], 1), ('a', [('a', 'b', 0)], 1)]",
            ),
            (
                [("a", [(["a"], "b", 0)], 1)],
                "edges need string names and int indices, got [('a', [(['a'], 'b', 0)], 1)]",
            ),
        ],
        ids=[
            "short-edge", "edge-not-a-list", "edges-null", "short-term", "term-not-a-list",
            "items-not-a-list", "items-null", "mixed-names", "mixed-indices",
            "mixed-indices-across-terms", "unhashable-name",
        ],
    )
    def test_malformed_terms_raise_one_line(self, items, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            CoefficientSystem.make(items)

    @pytest.mark.parametrize("n", [True, 2.0, -1, 0], ids=repr)
    def test_bad_multiplicity_message(self, n):
        message = f"multiplicity must be a positive int, got {n!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sys_of(("v", [], n))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sys_of(("v", [("v", "w", 0)], n))

    def test_duplicate_edge_message(self):
        with pytest.raises(ValidationError, match="^duplicate edge in T of 'v'$"):
            sys_of(("v", [("v", "w", 0), ("v", "w", 1), ("v", "w", 0)], 1))

    def test_duplicate_edge_is_checked_before_multiplicity(self):
        with pytest.raises(ValidationError, match="^duplicate edge in T of 'v'$"):
            sys_of(("v", [("v", "w", 0), ("v", "w", 0)], 0))

    def test_name_is_coerced_to_str(self):
        assert sys_of((5, [], 1)).terms == (("5", (), 1),)
        assert sys_of((5, [], 1), ("5", [], 2)).terms == (("5", (), 3),)

    def test_terms_sorted_and_merged(self):
        c = sys_of(
            ("w", [], 1), ("v", [("v", "w", 1), ("v", "w", 0)], 2), ("v", [], 1), ("w", [], 4)
        )
        e0, e1 = EdgeRef("v", "w", 0), EdgeRef("v", "w", 1)
        assert c.terms == (("v", (), 1), ("v", (e0, e1), 2), ("w", (), 5))
        assert all(type(e) is EdgeRef for _, t, _ in c.terms for e in t)

    @pytest.mark.parametrize("index", [2.5, True])
    def test_non_int_edge_index_is_not_an_edge(self, index):
        g = make_graph(["b"], [["inf"]])
        with pytest.raises(ValidationError, match="is not an edge"):
            sys_of(("b", [("b", "b", index)], 1)).validate(g)


class TestK0ClassOf:
    def test_trivial_cokernel(self):
        g = two_loops()
        cls = k0_class_of(g, sys_of(("a", [], 1)))
        assert cls == k0_reduce(g, [0])

    def test_free_rank_one(self):
        g = make_graph(["a"], [[1]])
        cls = k0_class_of(g, sys_of(("a", [], 2)))
        assert cls == k0_reduce(g, [2])

    def test_difference_vector(self):
        g = inf_to_loop()
        cls = k0_class_of(g, sys_of(("v", [("v", "w", 0)], 1)))
        assert cls == k0_reduce(g, [1, -1])
        # w's relation is vacuous here, so the class is literally (1, -1)
        assert cls.residues == (1, -1)


class TestIsFull:
    def test_closure_reaches_everything(self):
        g = inf_to_loop()
        assert is_full(g, seq(sys_of(("v", [("v", "w", 0)], 1))))

    def test_closed_proper_subset(self):
        g = inf_to_loop()
        assert not is_full(g, seq(sys_of(("w", [], 1))))

    def test_support_everywhere(self):
        g = looped_pair()
        assert is_full(g, seq(sys_of(("v", [], 1), ("w", [], 1))))

    def test_requires_stably_complete(self):
        with pytest.raises(DomainError):
            is_full(edge_to_sink(), seq(sys_of(("a", [], 1))))

    def test_tail_support_counts(self):
        g = inf_to_loop()
        assert is_full(g, seq(sys_of(("w", [], 1)), tail=sys_of(("v", [], 1))))


class TestMakePartitioned:
    def test_collision_moves_to_next_even(self):
        g = inf_to_loop()
        s = seq(
            sys_of(("v", [("v", "w", 0)], 1)),
            sys_of(("v", [("v", "w", 0)], 1)),
        )
        out = make_partitioned(g, s)
        used = [t for c in out.head for _, t, _ in c.terms]
        assert used[0] == (EdgeRef("v", "w", 0),)
        assert used[1] == (EdgeRef("v", "w", 2),)

    def test_disjoint_even_input_unchanged(self):
        g = inf_to_loop()
        s = seq(
            sys_of(("v", [("v", "w", 0)], 1)),
            sys_of(("v", [("v", "w", 2)], 1)),
        )
        assert make_partitioned(g, s) == s

    def test_tail_gets_fresh_windows(self):
        g = inf_to_loop()
        s = seq(
            sys_of(("v", [("v", "w", 0)], 1)),
            tail=sys_of(("v", [("v", "w", 0)], 1)),
        )
        out = make_partitioned(g, s)
        head_edges = {e for c in out.head for _, t, _ in c.terms for e in t}
        rep0 = {e for _, t, _ in tail_instance(out, 0).terms for e in t}
        rep1 = {e for _, t, _ in tail_instance(out, 1).terms for e in t}
        assert head_edges.isdisjoint(rep0)
        assert rep0.isdisjoint(rep1)
        assert all(e.index % 2 == 0 for e in head_edges | rep0 | rep1)

    def test_finite_pair_allocation(self):
        # an infinite emitter may also point finitely at some target;
        # those edges reallocate within the finitely many slots
        g = make_graph(["v", "w", "z"], [[0, "inf", 2], [0, 1, 0], [0, 0, 1]])
        s = seq(
            sys_of(("v", [("v", "z", 0)], 1)),
            sys_of(("v", [("v", "z", 0)], 1)),
        )
        out = make_partitioned(g, s)
        used = sorted(e for c in out.head for _, t, _ in c.terms for e in t)
        assert used == [EdgeRef("v", "z", 0), EdgeRef("v", "z", 1)]

    def test_finite_pair_exhaustion_rejected(self):
        g = make_graph(["v", "w", "z"], [[0, "inf", 1], [0, 1, 0], [0, 0, 1]])
        s = seq(
            sys_of(("v", [("v", "z", 0)], 1)),
            sys_of(("v", [("v", "z", 0)], 1)),
        )
        with pytest.raises(DomainError):
            make_partitioned(g, s)

    def test_preserves_k0_class_per_system(self):
        g = inf_to_loop()
        s = seq(
            sys_of(("v", [("v", "w", 1)], 1)),
            sys_of(("v", [("v", "w", 1)], 2)),
        )
        out = make_partitioned(g, s)
        for before, after in zip(s.head, out.head):
            assert k0_class_of(g, before) == k0_class_of(g, after)


class TestFullify:
    def test_infinite_emitter_route(self):
        g = inf_to_loop()
        out = fullify(g, seq(sys_of(("v", [("v", "w", 0)], 1))))
        assert out.head[0].as_dict() == {
            ("v", (EdgeRef("v", "w", 0), EdgeRef("v", "w", 1))): 1,
            ("w", ()): 1,
        }

    def test_already_covering_unchanged(self):
        g = looped_pair()
        s = seq(sys_of(("v", [], 1), ("w", [], 1)))
        assert fullify(g, s) == s

    def test_not_full_rejected(self):
        g = inf_to_loop()
        with pytest.raises(DomainError):
            fullify(g, seq(sys_of(("w", [], 1))))

    def test_regular_route_preserves_class(self):
        # w regular covers x through its relation
        g = chain_dominated()
        s = seq(sys_of(("w", [], 1)))
        out = fullify(g, s)
        assert head_k0_class(g, out) == head_k0_class(g, s)
        assert out.head[0].support() == {"w", "v", "x"}

    def test_merges_prefix_when_needed(self):
        # two disjoint looped vertices: neither generates the other
        g = make_graph(["a", "b"], [[2, 0], [0, 2]])
        s = seq(sys_of(("a", [], 1)), sys_of(("b", [], 1)))
        out = fullify(g, s)
        assert out.head[0].support() == {"a", "b"}
        assert len(out.head) == 1

    def test_preserves_k0_class(self):
        g = inf_to_loop()
        s = seq(sys_of(("v", [("v", "w", 0)], 1)))
        assert head_k0_class(g, fullify(g, s)) == head_k0_class(g, s)


class TestEliminateLoopEmitter:
    def test_hand_worked_example(self):
        g = looped_pair()
        s = seq(sys_of(("v", [("v", "w", 0)], 1)))
        out = eliminate_loop_emitter(g, s, "v")
        assert out.head[0].as_dict() == {("v", ()): 2}

    def test_empty_t_unchanged(self):
        g = looped_pair()
        s = seq(sys_of(("v", [], 1)))
        assert eliminate_loop_emitter(g, s, "v") == s

    def test_no_t_anywhere_returns_the_sequence(self):
        g = looped_pair()
        s = seq(sys_of(("v", [], 1), ("w", [], 2)), tail=sys_of(("w", [], 1)))
        assert eliminate_loop_emitter(g, s, "v") is s

    def test_no_loop_rejected(self):
        g = inf_to_loop()
        with pytest.raises(DomainError):
            eliminate_loop_emitter(g, seq(sys_of(("v", [], 1))), "v")

    def test_preserves_k0_class(self):
        g = looped_pair()
        s = seq(sys_of(("v", [("v", "w", 0), ("v", "v", 3)], 2), ("w", [], 1)))
        out = eliminate_loop_emitter(g, s, "v")
        assert head_k0_class(g, out) == head_k0_class(g, s)
        assert not any(t for u, t, _ in out.head[0].terms if u == "v")


class TestEliminateDominatedEmitter:
    def test_hand_worked_example(self):
        g = chain_dominated()
        s = seq(sys_of(("w", [], 1), ("v", [("v", "x", 0)], 1)))
        out = eliminate_dominated_emitter(g, s, "v")
        assert out.head[0].as_dict() == {("w", ()): 1, ("v", ()): 2}

    def test_empty_t_unchanged(self):
        g = chain_dominated()
        s = seq(sys_of(("w", [], 1), ("v", [], 1)))
        assert eliminate_dominated_emitter(g, s, "v") == s

    def test_merges_prefix(self):
        g = chain_dominated()
        s = seq(
            sys_of(("w", [], 1), ("x", [], 1)),
            sys_of(("v", [("v", "x", 0)], 1)),
            sys_of(("x", [], 5)),
        )
        out = eliminate_dominated_emitter(g, s, "v")
        assert len(out.head) == 2  # first two merged, trailing system kept
        assert out.head[1].as_dict() == {("x", ()): 5}
        assert head_k0_class(g, out) == head_k0_class(g, s)

    def test_requires_regular_dominator(self):
        g = inf_dag()
        s = seq(sys_of(("v", [("v", "x", 0)], 1)))
        with pytest.raises(DomainError):
            eliminate_dominated_emitter(g, s, "v")

    def test_preserves_k0_class(self):
        g = chain_dominated()
        s = seq(sys_of(("w", [], 2), ("v", [("v", "x", 0), ("v", "x", 2)], 3)))
        out = eliminate_dominated_emitter(g, s, "v")
        assert head_k0_class(g, out) == head_k0_class(g, s)


class TestEliminateUndominatedEmitter:
    def test_hand_worked_example(self):
        g = inf_dag()
        s = seq(sys_of(("v", [("v", "x", 0)], 1), ("u", [("u", "v", 0)], 1)))
        out = eliminate_undominated_emitter(g, s, "v")
        assert out.head[0].as_dict() == {
            ("v", ()): 1,
            ("u", (EdgeRef("u", "v", 0), EdgeRef("u", "x", 0))): 1,
        }

    def test_t_prime_equal_to_t_leaves_no_extras(self):
        g = inf_dag()
        s = seq(sys_of(("v", [("v", "x", 0)], 1)))
        out = eliminate_undominated_emitter(g, s, "v")
        assert out.head[0].as_dict() == {("v", ()): 1}

    def test_loop_rejected(self):
        g = looped_pair()
        with pytest.raises(DomainError):
            eliminate_undominated_emitter(g, seq(sys_of(("v", [("v", "w", 0)], 1))), "v")

    def test_regular_dominator_rejected(self):
        g = chain_dominated()
        with pytest.raises(DomainError):
            eliminate_undominated_emitter(g, seq(sys_of(("v", [("v", "x", 0)], 1))), "v")

    def test_partial_t_prime_gains_ranges(self):
        g = inf_dag()
        s = seq(
            sys_of(("v", [("v", "x", 0)], 1)),
            sys_of(("v", [("v", "x", 2)], 1)),
        )
        out = eliminate_undominated_emitter(g, s, "v")
        # each term misses one of the two T edges, so each gains one (x, ∅)
        assert out.head[0].as_dict() == {("v", ()): 1, ("x", ()): 1}
        assert out.head[1].as_dict() == {("v", ()): 1, ("x", ()): 1}

    def test_k0_moves_by_documented_action(self):
        g = inf_dag()
        s = seq(sys_of(("v", [("v", "x", 0)], 1), ("u", [("u", "v", 0)], 2)))
        T = sorted({e for c in s.head for u, t, _ in c.terms if u == "v" for e in t})
        act = undominated_k0_action(g, "v", T)
        out = eliminate_undominated_emitter(g, s, "v")
        expected = k0_reduce(g, act(s.head_total().k0_vector(g)))
        assert head_k0_class(g, out) == expected

    def test_balanced_input_preserves_k0(self):
        g = inf_dag()
        s = seq(sys_of(("v", [("v", "x", 0)], 1), ("u", [("u", "v", 0)], 1)))
        out = eliminate_undominated_emitter(g, s, "v")
        assert head_k0_class(g, out) == head_k0_class(g, s)

    def test_template_edge_is_fresh_above_the_template_itself(self):
        # u→x#1 is taken by the template, so the template's new u→x edge is #3
        g = inf_dag()
        s = seq(
            sys_of(("v", [("v", "x", 0)], 1), ("u", [], 1)),
            tail=sys_of(("u", [("u", "v", 0), ("u", "x", 1)], 1)),
        )
        out = eliminate_undominated_emitter(g, s, "v")
        assert out.tail.as_dict() == {
            ("u", (EdgeRef("u", "v", 0), EdgeRef("u", "x", 1), EdgeRef("u", "x", 3))): 1,
        }


class TestToMultiplicities:
    def test_infinite_tail_gives_infinity(self):
        g = inf_to_loop()
        s = seq(
            sys_of(("w", [], 1)),
            tail=sys_of(("v", [("v", "w", 0)], 1)),
        )
        out = to_multiplicities(g, make_partitioned(g, s))
        assert out == {"v": INF, "w": ExtNatLike(1)}

    def test_plain_sums(self):
        g = looped_pair()
        s = seq(sys_of(("v", [], 2), ("w", [], 1)), sys_of(("w", [], 3)))
        out = to_multiplicities(g, s)
        assert out == {"v": 2, "w": 4}

    def test_finite_t_without_infinite_above_rejected(self):
        g = inf_to_loop()
        s = seq(sys_of(("v", [("v", "w", 0)], 1), ("w", [], 1)))
        with pytest.raises(DomainError):
            to_multiplicities(g, s)

    def test_infinite_head_sum_from_tail(self):
        g = looped_pair()
        s = seq(sys_of(("v", [], 1), ("w", [], 1)), tail=sys_of(("w", [], 1)))
        out = to_multiplicities(g, s)
        assert out["w"] == INF
        assert out["v"] == 1


def ExtNatLike(n):
    from graphck import ExtNat

    return ExtNat(n)


class TestNormalizeMultiplicities:
    def test_below_infinity_becomes_one(self):
        g = inf_to_loop()
        out = normalize_multiplicities(g, {"v": INF, "w": 7})
        assert out == {"v": INF, "w": 1}

    def test_no_infinity_unchanged(self):
        g = looped_pair()
        assert normalize_multiplicities(g, {"v": 3, "w": 2}) == {"v": 3, "w": 2}

    def test_single_infinite_unchanged(self):
        g = two_loops()
        assert normalize_multiplicities(g, {"a": INF}) == {"a": INF}

    def test_missing_vertices_rejected(self):
        with pytest.raises(ValidationError):
            normalize_multiplicities(inf_to_loop(), {})


class TestCornerPipeline:
    def test_undominated_route(self):
        g = inf_to_loop()
        out = corner_pipeline(g, seq(sys_of(("v", [("v", "w", 0)], 1))))
        assert out == {"v": 1, "w": 1}

    def test_no_infinite_emitters(self):
        g = two_loops()
        out = corner_pipeline(g, seq(sys_of(("a", [], 3))))
        assert out == {"a": 3}

    def test_inf_dag_route(self):
        g = inf_dag()
        s = seq(sys_of(("v", [("v", "x", 0)], 1), ("u", [("u", "v", 0)], 1)))
        out = corner_pipeline(g, s)
        assert out == {"u": 1, "v": 1, "x": 1}

    def test_all_multiplicities_positive(self):
        g = looped_pair()
        s = seq(sys_of(("v", [("v", "v", 0), ("v", "w", 4)], 2)))
        out = corner_pipeline(g, s)
        assert all(m >= 1 for m in out.values())

    def test_loop_route_preserves_k0(self):
        g = looped_pair()
        s = seq(sys_of(("v", [("v", "w", 0)], 1)))
        out = corner_pipeline(g, s)
        assert all(m >= 1 for m in out.values())

    @pytest.mark.parametrize(
        "g, s, error",
        [
            (edge_to_sink(), seq(sys_of(("a", [], 1))), "DomainError"),
            (inf_to_loop(), seq(sys_of(("q", [], 1))), "NotFoundError"),
            (inf_to_loop(), seq(sys_of(("w", [], 1))), "DomainError"),
        ],
        ids=["not-stably-complete", "unknown-vertex", "not-full"],
    )
    def test_rejects_as_fullify_does(self, g, s, error):
        want = _record(fullify, g, s)
        assert want[0] == error
        assert _record(corner_pipeline, g, s) == want

    @pytest.mark.parametrize("tail", [None, CoefficientSystem.empty()])
    def test_empty_graph_gives_no_multiplicities(self, tail):
        assert corner_pipeline(make_graph([], []), seq(tail=tail)) == {}


class TestTailInstance:
    def test_no_tail_rejected(self):
        with pytest.raises(DomainError):
            tail_instance(seq(sys_of(("v", [], 1))), 0)

    def test_rep_zero_is_template(self):
        s = seq(tail=sys_of(("v", [("v", "w", 0)], 1)))
        assert tail_instance(s, 0) == s.tail

    @pytest.mark.parametrize("rep", [-3, 1.5, True])
    def test_rep_must_be_a_non_negative_int(self, rep):
        s = seq(tail=sys_of(("v", [("v", "w", 0)], 1)))
        with pytest.raises(ValidationError, match="repetition"):
            tail_instance(s, rep)


class TestSequenceJson:
    def test_round_trip_with_tail(self):
        s = seq(
            sys_of(("v", [("v", "w", 0)], 2)),
            tail=sys_of(("w", [], 1)),
        )
        assert ProjectionSequence.from_json(s.to_json()) == s

    def test_tail_field_absent_without_tail(self):
        s = seq(sys_of(("v", [], 1)))
        assert "tail" not in s.to_json()

    @pytest.mark.parametrize(
        "load, data, field",
        [
            (CoefficientSystem.from_json, [{"v": "a"}], "'n'"),
            (CoefficientSystem.from_json, [{"n": 1}], "'v'"),
            (CoefficientSystem.from_json, 5, "list of terms"),
            (CoefficientSystem.from_json, [5], "term must be an object"),
            (CoefficientSystem.from_json, [{"v": "a", "n": 1, "T": 5}], "'T'"),
            (CoefficientSystem.from_json, [{"v": None, "n": 1}], "a string, got None"),
            (ProjectionSequence.from_json, {"head": 3}, "'head'"),
            (ProjectionSequence.from_json, [], "must be an object"),
        ],
        ids=["no-n", "no-v", "not-a-list", "term-not-object", "T-not-a-list", "v-null",
             "head-not-a-list", "not-an-object"],
    )
    def test_malformed_json_names_the_field(self, load, data, field):
        with pytest.raises(ValidationError, match=field):
            load(data)


class TestPipelineCornerKTheory:
    def test_finite_multiplicities_preserve_k_theory(self):
        # a pipeline output with finite heads realizes to a graph with the
        # same K-theory pair as the base
        from graphck import corner_graph, k_groups, realize

        g = inf_dag()
        s = seq(sys_of(("v", [("v", "x", 0)], 2), ("u", [("u", "v", 1)], 1)))
        mult = corner_pipeline(g, s)
        assert all(m.is_finite for m in mult.values())
        expanded = realize(corner_graph(g, mult))
        assert k_groups(expanded) == k_groups(g)


def _record(step, *args):
    """A step's output as JSON data, or the type and message of the error it raises."""
    try:
        out = step(*args)
    except GraphCKError as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(out, dict):
        return {v: m.to_json() for v, m in out.items()}
    return out.to_json()


def _corner_outputs(g, s):
    """Every projcalc and corners step on one draw, failures included, in a fixed order."""
    out = [g.to_json(), s.to_json()]
    out += [_record(step, g, s) for step in (corner_pipeline, fullify, make_partitioned)]
    try:
        part = make_partitioned(g, fullify(g, s))
    except GraphCKError:
        part = None
    for cur in (s, part) if part is not None else (s,):
        for rule in (eliminate_loop_emitter, eliminate_dominated_emitter,
                     eliminate_undominated_emitter):
            out += [_record(rule, g, cur, v) for v in g.vertices]
        out.append(_record(to_multiplicities, g, cur))
    try:
        mult = normalize_multiplicities(g, corner_pipeline(g, s))
    except GraphCKError:
        return out
    above_first = {v: 5 for v in g.vertices} | {g.vertices[0]: INF}
    out += [_record(normalize_multiplicities, g, m) for m in ({}, above_first)]
    out.append({v: m.to_json() for v, m in mult.items()})
    cg = corner_graph(g, mult)
    out += [cg.to_json(), _record(unitize, cg), _record(realize, cg)]
    out.append(_record(build_EH, unitize(cg), g.vertices))
    if all(h.is_finite for _, h in cg.heads):
        out.append(_record(build_EH, realize(cg), g.vertices))
    out += [_record(build_EH, g, hereditary_closure(g, [v])) for v in g.vertices]
    out.append(_record(build_EH, g, [g.vertices[-1]]))
    finite = g.induced(v for v in g.vertices if not g.is_infinite_emitter(v))
    out += [_record(build_EH, finite, hereditary_closure(finite, [v])) for v in finite.vertices]
    return out


#: SHA-256 over seeded draws of the three ``gen_systems`` families, with and without a tail.
CORNER_GOLDEN = "3dc33c4deda2a94447c973fc8b67ba6f8955e111987bd86ac6bdb456129c6d69"


def test_corner_outputs_match_golden_hash():
    digest = hashlib.sha256()
    for family in (gen_systems.looped_emitter_graph, gen_systems.dominated_emitter_graph,
                   gen_systems.undominated_emitter_graph):
        for with_tail in (False, True):
            for s in range(30):
                rng = random.Random(s)
                g = family(rng)
                data = _corner_outputs(g, gen_systems.random_full_sequence(rng, g, with_tail))
                digest.update(json.dumps(data, ensure_ascii=False).encode())
    assert digest.hexdigest() == CORNER_GOLDEN
