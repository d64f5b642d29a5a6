import gc
import hashlib
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings

from conftest import graphs
from gen_moves import _random_split, applicable_moves
from oracles import is_isomorphic
from sample_graphs import inf_to_loop, one_loop, two_loops

from graphck import (
    INF,
    EdgeRef,
    Graph,
    GraphCKError,
    MoveError,
    MoveRecord,
    NotFoundError,
    Partition,
    REMAINDER,
    ValidationError,
    apply_move,
    collapse,
    column_add,
    column_ops_along_path,
    dominates,
    k_groups,
    make_graph,
    move_T,
    out_split,
    remove_regular_sources,
    replay,
    split_breaking,
)
from graphck.corpus import random_graph, random_move
from graphck.graph import _INF, _degrees_of, _reach_of, _with
from graphck.moves import MOVE_KINDS


class TestOutSplit:
    def test_split_mixed_emitter(self):
        # u emits ∞ to w and 2 to z; class 1 = remainder (∞ part), class 2 = z edges
        g = make_graph(["u", "w", "z"], [[0, "inf", 2], [0, 0, 0], [0, 0, 0]])
        p = Partition((REMAINDER, frozenset({EdgeRef("u", "z", 0), EdgeRef("u", "z", 1)})))
        out = out_split(g, "u", p)
        assert set(out.vertices) == {"u^1", "u^2", "w", "z"}
        assert out.a("u^1", "w") == INF
        assert out.a("u^1", "z") == 0
        assert out.a("u^2", "z") == 2
        assert out.a("u^2", "w") == 0

    def test_singleton_partition_is_isomorphism(self):
        g = inf_to_loop()
        out = out_split(g, "v", Partition((REMAINDER,)))
        assert is_isomorphic(out, g)

    def test_two_infinite_classes_rejected(self):
        g = make_graph(["u", "w"], [[0, "inf"], [0, 0]])
        with pytest.raises(Exception):
            Partition((REMAINDER, REMAINDER))

    def test_sink_rejected(self):
        g = make_graph(["a", "b"], [[0, 1], [0, 0]])
        with pytest.raises(MoveError):
            out_split(g, "b", Partition((REMAINDER,)))

    def test_incoming_edges_duplicated(self):
        g = make_graph(["x", "u", "w"], [[0, 3, 0], [0, 0, "inf"], [0, 0, 0]])
        p = Partition(
            (frozenset({EdgeRef("u", "w", 0)}), REMAINDER)
        )
        out = out_split(g, "u", p)
        assert out.a("x", "u^1") == 3
        assert out.a("x", "u^2") == 3

    def test_loops_fan_out(self):
        # a loop at u lands once on every new vertex, from its class's vertex
        g = make_graph(["u"], [[2]])
        p = Partition(
            (frozenset({EdgeRef("u", "u", 0)}), frozenset({EdgeRef("u", "u", 1)}))
        )
        out = out_split(g, "u", p)
        for row in out.adjacency:
            assert list(row) == [1, 1]

    def test_empty_class_rejected(self):
        g = two_loops()
        with pytest.raises(MoveError):
            out_split(g, "a", Partition((frozenset(), REMAINDER)))

    def test_overlapping_classes_rejected(self):
        g = two_loops()
        e = EdgeRef("a", "a", 0)
        with pytest.raises(MoveError):
            out_split(g, "a", Partition((frozenset({e}), frozenset({e}))))

    def test_uncovered_edges_without_remainder_rejected(self):
        g = two_loops()
        with pytest.raises(MoveError):
            out_split(g, "a", Partition((frozenset({EdgeRef("a", "a", 0)}),)))

    @pytest.mark.parametrize("index", [0.5, True])
    def test_non_int_edge_index_rejected(self, index):
        g = make_graph(["a", "b"], [[0, 2], [0, 1]])
        p = Partition((frozenset({EdgeRef("a", "b", index)}), REMAINDER))
        with pytest.raises(MoveError, match="is not an edge"):
            out_split(g, "a", p)

    @pytest.mark.parametrize(
        "u, classes, message",
        [
            ("c", [REMAINDER], "cannot out-split the sink 'c'"),
            ("a", [], "empty partition"),
            ("a", [[], REMAINDER], "partition classes must be nonempty"),
            (
                "a",
                [[("b", "b", 0)], REMAINDER],
                "edge EdgeRef(src='b', dst='b', index=0) does not leave 'a'",
            ),
            (
                "a",
                [[("a", "b", 2)], REMAINDER],
                "edge EdgeRef(src='a', dst='b', index=2) is not an edge of the graph",
            ),
            (
                "a",
                [[("a", "a", 0)], [("a", "a", 0)], REMAINDER],
                "edge EdgeRef(src='a', dst='a', index=0) appears in two classes",
            ),
            (
                "a",
                [[("a", "a", 0)], [("a", "b", 0), ("a", "b", 1)], REMAINDER],
                "remainder class is empty",
            ),
            (
                "a",
                [[("a", "a", 0), ("a", "b", 1)]],
                "partition does not cover all out-edges and has no remainder",
            ),
        ],
    )
    def test_error_messages(self, u, classes, message):
        g = make_graph(["a", "b", "c"], [[1, 2, 0], [0, 1, 0], [0, 0, 0]])
        entries = tuple(
            c if c is REMAINDER else frozenset(EdgeRef(*e) for e in c) for c in classes
        )
        with pytest.raises(MoveError) as exc:
            out_split(g, u, Partition(entries))
        assert str(exc.value) == message

    def test_error_names_the_first_bad_edge_in_sorted_order(self):
        class Reversed(frozenset):
            """A frozenset that iterates its edges in reverse sorted order."""

            def __iter__(self):
                return iter(sorted(frozenset.__iter__(self), reverse=True))

        g = make_graph(["a", "b"], [[1, 1], [0, 1]])
        bad = Reversed({EdgeRef("a", "a", 5), EdgeRef("a", "b", 7)})
        with pytest.raises(MoveError) as exc:
            out_split(g, "a", Partition((bad, REMAINDER)))
        assert str(exc.value) == (
            "edge EdgeRef(src='a', dst='a', index=5) is not an edge of the graph"
        )


class TestCollapse:
    def test_chain(self):
        g = make_graph(["x", "u", "y"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        out = collapse(g, "u")
        assert list(out.vertices) == ["x", "y"]
        assert out.a("x", "y") == 1

    def test_infinite_times_finite(self):
        g = make_graph(["x", "u", "y"], [[0, "inf", 0], [0, 0, 2], [0, 0, 0]])
        out = collapse(g, "u")
        assert out.a("x", "y") == INF

    def test_source_rejected(self):
        g = make_graph(["u", "y"], [[0, 1], [0, 0]])
        with pytest.raises(MoveError):
            collapse(g, "u")

    def test_looped_rejected(self):
        with pytest.raises(MoveError):
            collapse(one_loop(), "a")

    def test_vertex_count_drops_by_one(self):
        g = make_graph(["x", "u", "y"], [[1, 1, 0], [0, 0, 1], [0, 0, 1]])
        assert collapse(g, "u").n == g.n - 1


class TestRemoveRegularSources:
    def test_single_round(self):
        g = make_graph(["a", "b"], [[0, 1], [0, 0]])
        out = remove_regular_sources(g)
        assert out.to_json() == {"vertices": ["b"], "adjacency": [[0]]}

    def test_fixed_point(self):
        g = two_loops()
        assert remove_regular_sources(g) == g

    def test_cascade(self):
        g = make_graph(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        out = remove_regular_sources(g)
        assert list(out.vertices) == ["c"]

    def test_infinite_emitter_source_stays(self):
        g = inf_to_loop()
        assert remove_regular_sources(g) == g


class TestMoveT:
    def test_extends_infinite_family(self):
        g = make_graph(["v", "w", "x"], [[0, "inf", 0], [0, 0, 1], [0, 0, 0]])
        out = move_T(g, ["v", "w", "x"])
        assert out.a("v", "x") == INF
        assert out.a("v", "w") == INF
        assert out.a("w", "x") == 1

    def test_length_one_already_infinite(self):
        g = inf_to_loop()
        assert move_T(g, ["v", "w"]) == g

    def test_offered_T_moves_change_the_graph(self):
        offered = 0
        for s in range(300):
            rng = random.Random(s)
            g = random_graph(rng, max_vertices=5)
            for kind, params in applicable_moves(g, rng):
                if kind == "T":
                    assert move_T(g, params["path"]) != g
                    offered += 1
        assert offered >= 50

    def test_entry_already_infinite_returns_the_input(self):
        g = make_graph(["v", "w", "x"], [[0, "inf", "inf"], [0, 0, 1], [0, 0, 0]])
        assert move_T(g, ["v", "w", "x"]) is g
        assert move_T(g, ["v", "x"]) is g
        out, rec = apply_move(g, "T", {"path": ["v", "w", "x"]})
        assert out is g
        assert rec.input_hash == rec.output_hash == g.digest()

    def test_finite_first_edge_rejected(self):
        g = make_graph(["v", "w"], [[0, 2], [0, 0]])
        with pytest.raises(MoveError):
            move_T(g, ["v", "w"])

    def test_missing_edge_rejected(self):
        g = inf_to_loop()
        with pytest.raises(MoveError):
            move_T(g, ["v", "w", "v"])


def _holds_graph(obj, depth=2) -> bool:
    """Whether ``obj`` refers to a Graph, directly or through ``depth`` levels of tuples."""
    return any(
        isinstance(x, Graph) or (depth and isinstance(x, tuple) and _holds_graph(x, depth - 1))
        for x in gc.get_referents(obj)
    )


class TestCarriedStructure:
    """Whatever degrees or reachability a move's output carries are those of its rows."""

    @pytest.mark.parametrize("kind", MOVE_KINDS)
    def test_carried_caches_are_the_fresh_ones(self, kind):
        applied = 0
        for s in range(200):
            rng = random.Random(s)
            g = random_graph(rng, max_vertices=5)
            g._degs(), g._reachability()  # known on the input, so a move may carry them
            for mv_kind, params in applicable_moves(g, rng):
                if mv_kind != kind:
                    continue
                out, _rec = apply_move(g, kind, params)
                # and once more from an output that may carry them itself
                again = [p for k, p in applicable_moves(out, rng) if k == kind]
                nexts = [apply_move(out, kind, p)[0] for p in again]
                for x in [out] + nexts:
                    assert x._degrees is None or x._degrees == _degrees_of(x._rows)
                    assert x._reach is None or x._reach == _reach_of(x._rows)
                applied += 1 + len(nexts)
        assert applied >= 10

    def test_column_add_keeps_reach_while_u_to_v_survives(self):
        kept = vanished = 0
        for s in range(300):
            rng = random.Random(s)
            g = random_graph(rng, max_vertices=6)
            g._reachability()
            for kind, params in applicable_moves(g, rng):
                if kind != "COLADD":
                    continue
                out = apply_move(g, kind, params)[0]
                if out._mult(params["source"], params["target"]):
                    assert out._reach is not None and out._reach == _reach_of(out._rows)
                    assert out._reach.reach == g._reach.reach
                    kept += 1
                else:
                    assert out._reach is None or out._reach == _reach_of(out._rows)
                    vanished += 1
        assert kept >= 50 and vanished >= 5

    def test_column_add_carries_no_reach_when_u_to_v_vanishes(self):
        # u is loopless with one edge to v, so the add takes away u's only path to v
        g = make_graph(["u", "v", "w"], [[0, 1, 1], [1, 0, 0], [0, 0, 1]])
        assert dominates(g, "u", "v")
        out = column_add(g, "u", "v")
        assert out._mult("u", "v") == 0
        assert out._reach is None
        assert not dominates(out, "u", "v")

    @pytest.mark.parametrize("kind", MOVE_KINDS)
    def test_only_moves_that_keep_the_vertices_share_the_index(self, kind):
        shares = kind in ("T", "COLADD")
        applied = 0
        for s in range(300):
            rng = random.Random(s)
            g = random_graph(rng, max_vertices=5)
            for mv_kind, params in applicable_moves(g, rng):
                if mv_kind != kind:
                    continue
                out = apply_move(g, kind, params)[0]
                assert (out._pos is g._pos) == shares
                assert out._pos == {v: i for i, v in enumerate(out.vertices)}
                applied += 1
        assert applied >= 10

    def test_shared_index_rejects_unknown_names(self):
        g = make_graph(["u", "v"], [[1, 2], [1, 0]])
        out = column_add(g, "u", "v")
        assert out._pos is g._pos
        with pytest.raises(NotFoundError, match="no vertex named 'x'"):
            out.index("x")
        assert not out.has_vertex("x")
        with pytest.raises(NotFoundError):
            column_add(out, "x", "u")


def _assert_rows_in_order(g):
    for row in g._rows:
        assert list(row) == sorted(row) and all(row.values())
    assert g.canonical_json() == json.dumps(g.to_json(), separators=(",", ":"), ensure_ascii=False)


class TestRowOrder:
    """Every move's output keeps each sparse row in column order, without zeros."""

    @pytest.mark.parametrize("kind", MOVE_KINDS)
    def test_every_output_row_is_in_column_order(self, kind):
        applied = 0
        for s in range(200):
            rng = random.Random(s)
            g = random_graph(rng, max_vertices=6)
            for mv_kind, params in applicable_moves(g, rng):
                if mv_kind == kind:
                    _assert_rows_in_order(apply_move(g, kind, params)[0])
                    applied += 1
        assert applied >= 10

    def test_column_add_overwrites_inserts_and_deletes(self):
        g = make_graph(
            ["a", "b", "c", "d"],
            [[1, 0, 1, 1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 1, 2, 0]],
        )
        out = column_add(g, "c", "b")
        # a gains column b between a and c, d's b entry grows, c's vanishes
        expected = [[1, 1, 1, 1], [1, 0, 0, 0], [0, 0, 0, 1], [0, 3, 2, 0]]
        assert out.to_json()["adjacency"] == expected
        _assert_rows_in_order(out)

    def test_move_T_inserts_in_column_order(self):
        g = make_graph(
            ["a", "b", "c", "d"],
            [[0, 0, 0, "inf"], [0, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
        )
        out = move_T(g, ["a", "d", "b"])
        assert list(out._rows[0].items()) == [(1, _INF), (3, _INF)]
        _assert_rows_in_order(out)

    def test_with(self):
        row = {1: 2, 3: _INF, 5: 1}
        assert list(_with(row, 3, 4).items()) == [(1, 2), (3, 4), (5, 1)]
        assert list(_with(row, 0, 1).items()) == [(0, 1), (1, 2), (3, _INF), (5, 1)]
        assert list(_with(row, 4, 7)) == [1, 3, 4, 5]
        assert list(_with(row, 6, 7)) == [1, 3, 5, 6]
        assert list(_with(row, 3, 0).items()) == [(1, 2), (5, 1)]
        assert _with(row, 2, 0) == row and _with(row, 2, 0) is not row
        assert _with({2: 1}, 2, 0) == {}
        assert row == {1: 2, 3: _INF, 5: 1}


class TestColumnAdd:
    def test_triangle(self):
        g = make_graph(["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        out = column_add(g, "b", "c")
        assert out.a("a", "c") == 1
        assert out.a("b", "c") == 1
        assert out.a("c", "c") == 1

    def test_no_edge_rejected(self):
        g = make_graph(["a", "b"], [[0, 0], [1, 0]])
        with pytest.raises(MoveError):
            column_add(g, "a", "b")

    def test_same_vertex_rejected(self):
        with pytest.raises(MoveError):
            column_add(two_loops(), "a", "a")

    def test_looped_source_balances(self):
        g = make_graph(["u", "v"], [[1, 1], [0, 0]])
        out = column_add(g, "u", "v")
        assert out.a("u", "v") == 1  # 1 + 1 - 1


class TestColumnOpsAlongPath:
    def test_chain_gains_edge(self):
        g = make_graph(["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        out = column_ops_along_path(g, ["a", "b", "c"])
        assert out.a("a", "c") >= 1

    def test_closed_path_doubles_loop(self):
        g = make_graph(["v", "b"], [[1, 1], [1, 1]])
        out = column_ops_along_path(g, ["v", "b", "v"])
        assert out.a("v", "v") >= 2

    def test_too_short_rejected(self):
        with pytest.raises(MoveError):
            column_ops_along_path(two_loops(), ["a", "a"])

    def test_repeated_interior_rejected(self):
        g = make_graph(["a", "b"], [[1, 1], [1, 1]])
        with pytest.raises(MoveError):
            column_ops_along_path(g, ["a", "b", "a", "b"])


class TestSplitBreaking:
    def test_separates_finite_edges(self):
        g = make_graph(["u", "w", "z"], [[0, "inf", 2], [0, 0, 0], [0, 0, 0]])
        out = split_breaking(g, "u")
        assert out.a("u^1", "w") == INF
        assert out.a("u^2", "z") == 2
        assert out.is_regular("u^2")
        # every edge of u^1 has infinitely many parallels
        assert all(m == 0 or m.is_infinite for m in out.row("u^1"))

    def test_pure_infinite_unchanged(self):
        g = make_graph(["u", "w"], [["inf", "inf"], [0, 0]])
        assert split_breaking(g, "u") is g

    def test_regular_vertex_rejected(self):
        with pytest.raises(MoveError):
            split_breaking(two_loops(), "a")

    def test_incoming_duplicated_to_both(self):
        g = make_graph(["x", "u"], [[0, 1], [1, "inf"]])
        # u has a finite edge to x and infinitely many loops
        out = split_breaking(g, "u")
        assert out.a("x", "u^1") == 1
        assert out.a("x", "u^2") == 1


class TestKTheoryInvariance:
    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=5))
    def test_random_applicable_moves_preserve_k(self, g):
        rng = random.Random(g.digest())
        mv = random_move(g, rng)
        if mv is None:
            return
        out, _rec = apply_move(g, mv[0], mv[1])
        assert k_groups(out) == k_groups(g)


#: ∞-heavy entries on up to 10 vertices, so some out-split pools exceed the
#: 21 slots past which ``random.sample`` switches to its set-based branch.
INF_HEAVY = (0, 1, "inf", "inf", "inf")


def _draw_graphs(count=120):
    """Seeded (rng, graph) pairs: half at the CLI's default size, half ∞-heavy."""
    for s in range(count):
        rng = random.Random(s)
        if s % 2:
            yield rng, random_graph(rng, max_vertices=6)
        else:
            yield rng, random_graph(rng, max_vertices=10, entries=INF_HEAVY)


#: SHA-256 over the reprs of seeded draws: move sequences of up to 3 steps,
#: move lists, out-splits of every vertex, and the generator after them.
DRAWS_GOLDEN = "e0a75c5cf3c3cc535dc0c1b6566dd22b1c0ef70d3877c110f758a7bff64de13e"


class TestDraws:
    def test_draws_match_golden_hash(self):
        digest = hashlib.sha256()
        big_pools = 0
        for rng, g in _draw_graphs():
            cur = g
            for _ in range(3):
                mv = random_move(cur, rng)
                digest.update(repr(mv).encode())
                if mv is None:
                    break
                cur = apply_move(cur, *mv)[0]
            digest.update(repr(applicable_moves(g, rng)).encode())
            digest.update(repr([_random_split(g, v, rng) for v in g.vertices]).encode())
            digest.update(repr(rng.random()).encode())
            big_pools += sum(
                sum(3 if m.is_infinite else int(m) for m in g.row(v)) > 21 for v in g.vertices
            )
        assert big_pools >= 10
        assert digest.hexdigest() == DRAWS_GOLDEN

    def test_random_move_is_a_choice_from_applicable_moves(self):
        for s, (_, g) in enumerate(_draw_graphs()):
            mine, theirs = random.Random(s), random.Random(s)
            mv = random_move(g, mine)
            moves = applicable_moves(g, theirs)
            assert mv == (theirs.choice(moves) if moves else None)
            assert mine.getstate() == theirs.getstate()


class TestRecords:
    def test_replay_bit_exact(self):
        g = make_graph(["x", "u", "y"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        out, rec = apply_move(g, "COLLAPSE", {"vertex": "u"})
        again = replay(g, rec)
        assert again.canonical_json() == out.canonical_json()

    def test_record_json_round_trip(self):
        g = inf_to_loop()
        out, rec = apply_move(g, "T", {"path": ["v", "w"]})
        rec2 = MoveRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert replay(g, rec2) == out

    def test_lazy_record_reads_as_the_eager_one(self):
        checked = 0
        for s in range(60):
            g = random_graph(random.Random(s), max_vertices=5)
            mv = random_move(g, random.Random(s))
            if mv is None:
                continue

            def lazy():  # a fresh record, so each check below is its first read
                return apply_move(g, *mv)[1]

            out = apply_move(g, *mv)[0]
            eager = MoveRecord(mv[0], mv[1], g.digest(), out.digest())
            assert lazy() == eager and eager == lazy()
            assert lazy().to_json() == eager.to_json()
            assert repr(lazy()) == repr(eager)
            assert (lazy().input_hash, lazy().output_hash) == (eager.input_hash, eager.output_hash)
            assert MoveRecord.from_json(json.loads(json.dumps(lazy().to_json()))) == eager
            assert replay(g, lazy()) == out
            assert pickle.loads(pickle.dumps(lazy())) == eager
            with pytest.raises(TypeError):
                hash(lazy())
            checked += 1
        assert checked >= 50

    def test_record_holds_no_graph_after_its_first_read(self):
        g = make_graph(["x", "u", "y"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        for read in (lambda r: r.input_hash, lambda r: r.output_hash, MoveRecord.to_json, repr):
            _out, rec = apply_move(g, "COLLAPSE", {"vertex": "u"})
            assert _holds_graph(rec)
            read(rec)
            assert not _holds_graph(rec)
            assert isinstance(rec.input_hash, str) and isinstance(rec.output_hash, str)

    def test_replay_rejects_wrong_input(self):
        g = inf_to_loop()
        _out, rec = apply_move(g, "T", {"path": ["v", "w"]})
        from graphck import ValidationError

        with pytest.raises(ValidationError):
            replay(two_loops(), rec)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_vertices=4))
    def test_random_move_records_replay(self, g):
        rng = random.Random(g.digest() + "r")
        mv = random_move(g, rng)
        if mv is None:
            return
        out, rec = apply_move(g, mv[0], mv[1])
        assert replay(g, rec).canonical_json() == out.canonical_json()


class TestVertexCounts:
    def test_split_breaking_adds_one_or_zero(self):
        mixed = make_graph(["u", "w", "z"], [[0, "inf", 2], [0, 0, 0], [0, 0, 0]])
        pure = make_graph(["u", "w"], [[0, "inf"], [0, 0]])
        assert split_breaking(mixed, "u").n == mixed.n + 1
        assert split_breaking(pure, "u").n == pure.n

    def test_collapse_removes_exactly_one(self):
        g = make_graph(["x", "u", "y"], [[1, 2, 0], [0, 0, 1], [0, 0, 1]])
        assert collapse(g, "u").n == g.n - 1


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("S", {}, "S needs 'vertex' as a vertex name, got None"),
        ("T", {"path": 5}, "T needs 'path' as a list of vertex names, got 5"),
        ("COLLAPSE", [], "params must be an object, got \\[\\]"),
        ("O", {"vertex": "a"}, "O needs 'classes' as a list of classes, got None"),
        ("BREAKSPLIT", {"vertex": ["a"]}, "BREAKSPLIT needs 'vertex' as a vertex name"),
        ("T", {"path": ["a", 1]}, "T needs 'path' as a list of vertex names"),
    ],
    ids=["S-no-vertex", "T-path-not-a-list", "params-not-an-object", "O-no-classes",
         "vertex-not-a-name", "path-holds-a-number"],
)
def test_malformed_move_record_params_are_a_validation_error(kind, params, message):
    g = two_loops()
    data = {"kind": kind, "params": params, "input-hash": g.digest(), "output-hash": g.digest()}
    with pytest.raises(ValidationError, match=message):
        replay(g, MoveRecord.from_json(data))


@pytest.mark.parametrize(
    "field, value", [("kind", ["T"]), ("input-hash", 5), ("output-hash", None)],
    ids=["kind", "input-hash", "output-hash"],
)
def test_move_record_kind_and_hashes_must_be_strings(field, value):
    g = two_loops()
    data = {"kind": "T", "params": {"path": ["a", "b"]},
            "input-hash": g.digest(), "output-hash": g.digest()}
    data[field] = value
    message = f"bad move record: '{field}' must be a string, got {re.escape(repr(value))}"
    with pytest.raises(ValidationError, match=message):
        MoveRecord.from_json(data)


def _precondition_graph():
    """One vertex of each kind a move precondition tells apart.

    e: a looped infinite emitter with one finite edge;  r: regular and looped;
    q: a regular source of out-degree one;  s: a sink;  f: a pure infinite
    emitter and a source;  c: regular, loopless, out-degree one, not a source;
    z: a sink and a source.
    """
    return make_graph(
        ["e", "r", "q", "s", "f", "c", "z"],
        [
            ["inf", 1, 0, 0, 0, 0, 0],
            [0, 1, 0, 1, 0, 1, 0],
            [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, "inf", 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ],
    )


_UNKNOWN = (NotFoundError, "no vertex named 'x'")


@pytest.mark.parametrize(
    "kind, params, error",
    [
        ("T", {"path": []}, (MoveError, "path must have length at least one")),
        # the length is checked before the names are looked up
        ("T", {"path": ["x"]}, (MoveError, "path must have length at least one")),
        ("T", {"path": ["x", "y"]}, _UNKNOWN),
        # every name is looked up before any edge is checked
        ("T", {"path": ["q", "s", "x"]}, _UNKNOWN),
        ("T", {"path": ["q", "s"]}, (MoveError, "no edge from 'q' to 's' along the path")),
        # every edge is checked before the first edge's multiplicity
        ("T", {"path": ["q", "r", "q"]}, (MoveError, "no edge from 'r' to 'q' along the path")),
        ("T", {"path": ["q", "r", "c"]},
         (MoveError, "the first edge of the path must have infinitely many parallels")),
        # distinctness is checked before the names are looked up
        ("COLADD", {"source": "x", "target": "x"},
         (MoveError, "column operation needs distinct vertices")),
        ("COLADD", {"source": "r", "target": "r"},
         (MoveError, "column operation needs distinct vertices")),
        ("COLADD", {"source": "x", "target": "q"}, _UNKNOWN),
        ("COLADD", {"source": "q", "target": "x"}, _UNKNOWN),
        ("COLADD", {"source": "q", "target": "s"}, (MoveError, "no edge from 'q' to 's'")),
        ("COLADD", {"source": "q", "target": "r"},
         (MoveError, "'q' is a source; the move cannot be realized")),
        ("COLADD", {"source": "c", "target": "s"},
         (MoveError, "'c' has out-degree one; the move cannot be realized")),
        ("COLLAPSE", {"vertex": "x"}, _UNKNOWN),
        ("COLLAPSE", {"vertex": "e"}, (MoveError, "'e' is not regular")),
        ("COLLAPSE", {"vertex": "f"}, (MoveError, "'f' is not regular")),
        ("COLLAPSE", {"vertex": "z"}, (MoveError, "'z' is not regular")),
        ("COLLAPSE", {"vertex": "r"}, (MoveError, "'r' supports a loop")),
        ("COLLAPSE", {"vertex": "q"}, (MoveError, "'q' is a source")),
        ("BREAKSPLIT", {"vertex": "x"}, _UNKNOWN),
        ("BREAKSPLIT", {"vertex": "r"}, (MoveError, "'r' is not an infinite emitter")),
        ("BREAKSPLIT", {"vertex": "s"}, (MoveError, "'s' is not an infinite emitter")),
        ("S", {"vertex": "x"}, _UNKNOWN),
        ("S", {"vertex": "r"}, (MoveError, "'r' is not a regular source")),
        ("S", {"vertex": "f"}, (MoveError, "'f' is not a regular source")),
        ("S", {"vertex": "z"}, (MoveError, "'z' is not a regular source")),
        ("Z", {"vertex": "x"}, (ValidationError, "unknown move kind 'Z'")),
        (["S"], {"vertex": "x"}, (ValidationError, "unknown move kind ['S']")),
    ],
)
def test_move_preconditions_raise_in_order(kind, params, error):
    """Each failed precondition raises its own error, and the first one checked wins."""
    with pytest.raises(GraphCKError) as exc:
        apply_move(_precondition_graph(), kind, params)
    assert (type(exc.value), str(exc.value)) == error
