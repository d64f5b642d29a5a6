import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import graphs
from sample_graphs import (
    edge_to_sink,
    inf_to_loop,
    looped_pair,
    mixed_emitter,
    one_loop,
    two_loops,
)

import graphck.graph as graph_module
from graphck import (
    Graph,
    InternalError,
    MoveRecord,
    breaking_vertices,
    canonicalize,
    is_isomorphic,
    is_saturated,
    is_stably_complete,
    k_groups,
    make_graph,
    replay,
    saturated_hereditary_sets,
)
from graphck.canonical import _Pipeline, _repair, _short_cycle
from graphck.corpus import random_graph
from graphck.moves import MOVE_KINDS


class TestIsStablyComplete:
    def test_two_loops_satisfied(self):
        assert is_stably_complete(two_loops()).satisfied

    def test_one_loop_satisfied(self):
        # one simple cycle only, so the two-loop condition is vacuous
        assert is_stably_complete(one_loop()).satisfied

    def test_looped_pair_satisfied(self):
        assert is_stably_complete(looped_pair()).satisfied

    def test_loopless_regular_vertex_flagged(self):
        report = is_stably_complete(edge_to_sink())
        assert not report.satisfied
        assert (2, ("a",)) in report.violations

    def test_missing_infinite_edge_flagged(self):
        # v emits infinitely to w but only finitely to the x it dominates
        g = make_graph(
            ["v", "w", "x"], [[0, "inf", 1], [0, 1, 0], [0, 0, 1]]
        )
        report = is_stably_complete(g)
        assert (4, ("v", "x")) in report.violations

    def test_dominance_without_edge_flagged(self):
        g = make_graph(
            ["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        )
        report = is_stably_complete(g)
        assert (5, ("a", "c")) in report.violations

    def test_looped_emitter_without_companion_flagged(self):
        g = make_graph(["v"], [["inf"]])
        report = is_stably_complete(g)
        assert (6, ("v",)) in report.violations

    def test_two_cycles_one_loop_flagged(self):
        g = make_graph(["v", "b"], [[1, 1], [1, 0]])
        report = is_stably_complete(g)
        assert (3, ("v",)) in report.violations

    def test_report_is_kept_with_the_graph(self):
        g = edge_to_sink()
        assert is_stably_complete(g) is is_stably_complete(g)


class TestCanonicalize:
    def test_already_complete_is_fixed_point(self):
        out, trace = canonicalize(two_loops())
        assert out == two_loops()
        assert trace == []

    def test_source_feeding_two_loops(self):
        g = make_graph(["a", "b"], [[0, 1], [0, 2]])
        out, _ = canonicalize(g)
        assert out.to_json() == {"vertices": ["b"], "adjacency": [[2]]}

    def test_mixed_emitter_trace_shape(self):
        out, trace = canonicalize(mixed_emitter())
        kinds = [r.kind for r in trace]
        assert kinds[0] == "BREAKSPLIT"
        assert "T" in kinds
        assert is_stably_complete(out).satisfied

    def test_trace_replays_to_output(self):
        g = mixed_emitter()
        out, trace = canonicalize(g)
        cur = g
        for rec in trace:
            cur = replay(cur, rec)
        assert cur.canonical_json() == out.canonical_json()

    def test_looped_emitter_gets_companion(self):
        g = make_graph(["v"], [["inf"]])
        out, _ = canonicalize(g)
        assert is_stably_complete(out).satisfied
        assert any(out.is_regular(w) for w in out.vertices)

    def test_empty_graph(self):
        g = make_graph([], [])
        out, trace = canonicalize(g)
        assert out.n == 0 and trace == []

    @settings(max_examples=50, deadline=None)
    @given(graphs(max_vertices=5))
    def test_output_stably_complete_and_k_invariant(self, g):
        out, _ = canonicalize(g)
        assert is_stably_complete(out).satisfied
        assert k_groups(out) == k_groups(g)

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_vertices=4))
    def test_idempotent_up_to_isomorphism(self, g):
        once, _ = canonicalize(g)
        twice, trace = canonicalize(once)
        assert is_isomorphic(once, twice)

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_vertices=4))
    def test_outputs_have_all_subsets_saturated_and_no_breaking(self, g):
        out, _ = canonicalize(g)
        # in stably complete graphs every subset is saturated, which is
        # equivalent to every regular vertex supporting a loop
        from itertools import combinations

        for k in range(out.n + 1):
            for combo in combinations(out.vertices, k):
                assert is_saturated(out, set(combo))
        for h in saturated_hereditary_sets(out):
            assert breaking_vertices(out, h) == frozenset()

    def test_infinite_emitter_to_looped_vertex(self):
        out, _ = canonicalize(inf_to_loop())
        assert is_stably_complete(out).satisfied
        assert k_groups(out) == k_groups(inf_to_loop())


#: SHA-256 over 400 seeded draws of (canonical graph, trace, input report).
CANONICAL_GOLDEN = "f1180bad95c25cacee3829bf9280658e9bd984179bef24bd737720cd4fb282dc"


def test_canonical_outputs_match_golden_hash():
    digest = hashlib.sha256()
    for s in range(400):
        g = random_graph(random.Random(s), max_vertices=6)
        out, trace = canonicalize(g)
        data = [out.to_json(), [r.to_json() for r in trace], is_stably_complete(g).to_json()]
        digest.update(json.dumps(data, ensure_ascii=False).encode())
    assert digest.hexdigest() == CANONICAL_GOLDEN


#: SHA-256 over (canonical graph, trace) of draws 0-2 of 16 and of 24 vertices
#: (entries from [0, 0, 0, 1, 2, "inf"], seed 1000·n + s), whose repair
#: chains run 10-79 column adds each.
LARGE_CANONICAL_GOLDEN = "da8635c37caff86f06a7d57acf972d81145d3ff93ee3abf8705f24000ab6a419"


def test_large_canonical_outputs_match_golden_hash():
    entries = [0, 0, 0, 1, 2, "inf"]
    digest = hashlib.sha256()
    for n in (16, 24):
        names = [f"v{i}" for i in range(n)]
        for s in range(3):
            rng = random.Random(1000 * n + s)
            g = make_graph(names, [[rng.choice(entries) for _ in names] for _ in names])
            out, trace = canonicalize(g)
            data = [out.to_json(), [r.to_json() for r in trace]]
            digest.update(json.dumps(data, ensure_ascii=False).encode())
    assert digest.hexdigest() == LARGE_CANONICAL_GOLDEN


def test_golden_trace_records_round_trip_through_json():
    for s in range(400):
        _, trace = canonicalize(random_graph(random.Random(s), max_vertices=6))
        for rec in trace:
            assert MoveRecord.from_json(json.loads(json.dumps(rec.to_json()))) == rec


WORST_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "worst_inputs.json"


def test_traces_hash_no_graph_until_read(monkeypatch):
    """On the pinned slowest inputs, ``canonicalize`` hashes nothing; reading
    its trace serializes each graph of the chain once."""
    pinned = json.loads(WORST_INPUTS.read_text(encoding="utf-8"))["inputs"]
    serialized = []
    digests = []
    canonical_json, digest = Graph.canonical_json, Graph.digest

    def counted_json(g):
        serialized.append(g)
        return canonical_json(g)

    def counted_digest(g):
        digests.append(g)
        return digest(g)

    monkeypatch.setattr(Graph, "canonical_json", counted_json)
    monkeypatch.setattr(Graph, "digest", counted_digest)
    assert len(pinned) == 10
    for p in pinned:
        _, trace = canonicalize(Graph.from_json(p["graph"]))
        assert digests == []
        for rec in trace:
            rec.to_json()
        # a T move onto an entry that is ∞ already returns its input: one graph, two ends
        same = sum(rec.kind == "T" and rec.input_hash == rec.output_hash for rec in trace)
        assert len(serialized) == len(trace) + 1 - same
        assert len({id(g) for g in serialized}) == len(serialized)
        serialized.clear()
        digests.clear()


def test_pinned_inputs_build_few_reachability_closures(monkeypatch):
    """Paths for T moves are searched on the rows, so the T outputs of stage 2
    build no closure: the pinned slowest inputs build at most 103 in all."""
    pinned = json.loads(WORST_INPUTS.read_text(encoding="utf-8"))["inputs"]
    built = []
    reach_of = graph_module._reach_of

    def counted(rows):
        built.append(rows)
        return reach_of(rows)

    monkeypatch.setattr(graph_module, "_reach_of", counted)
    for p in pinned:
        canonicalize(Graph.from_json(p["graph"]))
    assert len(built) <= 103


def test_pinned_inputs_search_few_paths_past_the_first_layer(monkeypatch):
    """A path of length one or two is read off the rows; only a longer search
    builds a queue, 23 times on the pinned slowest inputs."""
    pinned = json.loads(WORST_INPUTS.read_text(encoding="utf-8"))["inputs"]
    queues = []
    deque = graph_module.deque

    def counted(*args):
        queues.append(args)
        return deque(*args)

    monkeypatch.setattr(graph_module, "deque", counted)
    for p in pinned:
        canonicalize(Graph.from_json(p["graph"]))
    assert len(queues) <= 23


def test_every_trace_record_replays():
    """Each record of the golden draws and the pinned inputs replays onto the
    graph before it and gives the graph after it."""
    pinned = json.loads(WORST_INPUTS.read_text(encoding="utf-8"))["inputs"]
    inputs = [random_graph(random.Random(s), max_vertices=6) for s in range(400)]
    inputs += [Graph.from_json(p["graph"]) for p in pinned]
    kinds = set()
    for g in inputs:
        out, trace = canonicalize(g)
        for rec in trace:
            g = replay(g, rec)
            kinds.add(rec.kind)
        assert g == out
    assert kinds == set(MOVE_KINDS)


def test_repair_stops_at_the_fuel_bound():
    attempts = []

    def no_path(g, defect):
        attempts.append(defect)
        return [defect]

    with pytest.raises(InternalError, match="did not repair 'a'"):
        _repair(_Pipeline(two_loops()), lambda g: iter(["a"]), no_path)
    assert attempts == ["a"]  # |V|² attempts: one for a single vertex


def test_short_cycle_without_long_cycle_raises():
    with pytest.raises(InternalError, match="no long cycle"):
        _short_cycle(two_loops(), "a")
