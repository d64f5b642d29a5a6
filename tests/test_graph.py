import json
import random
import types
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs
from sample_graphs import edge_to_sink, inf_to_loop, one_loop, two_loops

import graphck
from graphck import corpus
from graphck import (
    INF,
    EdgeRef,
    Graph,
    NotFoundError,
    ValidationError,
    breaking_vertices,
    canonicalize,
    condition_K,
    dominates,
    hereditary_closure,
    is_hereditary,
    is_isomorphic,
    is_saturated,
    is_stably_complete,
    k_groups,
    make_graph,
    normalize_multiplicities,
    reaches,
    restriction_graph,
    saturate,
    simple_cycle_count_at,
    vertex_class,
)
from graphck.canonical import companion
from graphck.graph import _cycle_mates, _names, _reached_by, shortest_nonzero_path
from graphck.ideals import AdmissiblePair
from graphck.projcalc import _dominator


class TestMakeGraph:
    def test_one_vertex_two_loops(self):
        g = make_graph(["a"], [[2]])
        assert g.a("a", "a") == 2

    def test_two_vertices(self):
        g = make_graph(["a", "b"], [[0, 1], [0, 0]])
        assert g.a("a", "b") == 1
        assert g.a("b", "a") == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            make_graph(["a"], [[2], [0]])

    def test_ragged_row(self):
        with pytest.raises(ValidationError):
            make_graph(["a", "b"], [[0, 1], [0]])

    def test_duplicate_vertex(self):
        with pytest.raises(ValidationError):
            make_graph(["a", "a"], [[0, 0], [0, 0]])

    def test_negative_entry(self):
        with pytest.raises(ValidationError):
            make_graph(["a"], [[-1]])

    @pytest.mark.parametrize("name", ["\ud800", "a\udfff"])
    def test_name_that_is_not_unicode_text(self, name):
        with pytest.raises(ValidationError, match="not valid Unicode text"):
            make_graph([name, "b"], [[0, 0], [0, 0]])
        with pytest.raises(ValidationError):
            two_loops().relabeled({"a": name})


class TestVertexClass:
    def test_sink(self):
        c = vertex_class(edge_to_sink(), "b")
        assert c.kind == "sink"
        assert not c.is_source
        assert not c.supports_loop

    def test_looped_regular(self):
        c = vertex_class(two_loops(), "a")
        assert c.kind == "regular"
        assert not c.is_source  # its own loops feed it
        assert c.supports_loop
        assert c.loop_count == 2

    def test_infinite_emitter_source(self):
        c = vertex_class(inf_to_loop(), "v")
        assert c.kind == "infinite-emitter"
        assert c.is_source
        assert not c.supports_loop

    def test_unknown_vertex(self):
        with pytest.raises(NotFoundError):
            vertex_class(two_loops(), "zzz")


class TestDominance:
    def test_single_edge(self):
        assert dominates(edge_to_sink(), "a", "b")

    def test_loop_dominates_itself(self):
        assert dominates(one_loop(), "a", "a")

    def test_sink_dominates_nothing(self):
        assert not dominates(edge_to_sink(), "b", "a")

    def test_reaches_is_reflexive(self):
        assert reaches(edge_to_sink(), "b", "b")
        assert not dominates(edge_to_sink(), "b", "b")

    @settings(max_examples=60)
    @given(graphs())
    def test_agrees_with_reaches_off_diagonal(self, g):
        for v in g.vertices:
            for w in g.vertices:
                if v != w:
                    assert dominates(g, v, w) == reaches(g, v, w)

    @settings(max_examples=40)
    @given(graphs())
    def test_matches_matrix_power_oracle(self, g):
        for v in g.vertices:
            for w in g.vertices:
                assert reaches(g, v, w) == oracles.oracle_reaches(g, v, w)
                assert dominates(g, v, w) == oracles.oracle_dominates(g, v, w)


class TestHereditaryClosure:
    def test_forward_reachability(self):
        assert hereditary_closure(edge_to_sink(), {"a"}) == {"a", "b"}

    def test_sink_is_closed(self):
        assert hereditary_closure(edge_to_sink(), {"b"}) == {"b"}

    def test_empty(self):
        assert hereditary_closure(edge_to_sink(), set()) == frozenset()

    @settings(max_examples=40)
    @given(graphs(), st.data())
    def test_idempotent_monotone_contains(self, g, data):
        s = set(data.draw(st.lists(st.sampled_from(list(g.vertices)), max_size=4)))
        bigger = set(data.draw(st.lists(st.sampled_from(list(g.vertices)), max_size=4)))
        closure = hereditary_closure(g, s)
        assert s <= closure
        assert hereditary_closure(g, closure) == closure
        assert closure <= hereditary_closure(g, s | bigger)
        assert is_hereditary(g, closure)
        assert oracles.oracle_hereditary(g, closure)


class TestUnknownNames:
    def test_closure_and_saturation_reject_unknown_names(self):
        g = edge_to_sink()
        for fn in (hereditary_closure, is_hereditary, saturate, is_saturated):
            with pytest.raises(NotFoundError):
                fn(g, {"b", "zz"})
            with pytest.raises(NotFoundError):
                fn(g, {"zz"})

    def test_the_least_unknown_name_is_named(self):
        class Reversed(frozenset):
            """A frozenset that iterates its names in reverse sorted order."""

            def __iter__(self):
                return iter(sorted(frozenset.__iter__(self), reverse=True))

        g = one_loop()
        unknown = Reversed({"x", "y", "z", "a"})
        calls = [lambda fn=fn: fn(g, unknown) for fn in (
            hereditary_closure, is_hereditary, saturate, is_saturated, breaking_vertices)]
        calls.append(lambda: restriction_graph(g, AdmissiblePair(unknown, frozenset())))
        calls.append(lambda: restriction_graph(g, AdmissiblePair(frozenset(), unknown)))
        for call in calls:
            with pytest.raises(NotFoundError, match="^no vertex named 'x'$"):
                call()

    def test_a_generator_is_read_once(self):
        g = one_loop()
        with pytest.raises(NotFoundError, match="'b'"):
            hereditary_closure(g, iter(["c", "a", "b"]))
        assert hereditary_closure(g, (v for v in ["a"])) == {"a"}


class TestSaturate:
    def test_pulls_in_regular_emitter(self):
        assert saturate(edge_to_sink(), {"b"}) == {"a", "b"}

    def test_empty_is_saturated(self):
        assert saturate(edge_to_sink(), set()) == frozenset()

    def test_rule_skips_infinite_emitters(self):
        assert saturate(inf_to_loop(), {"w"}) == {"w"}

    @settings(max_examples=40)
    @given(graphs(), st.data())
    def test_output_is_saturated(self, g, data):
        s = set(data.draw(st.lists(st.sampled_from(list(g.vertices)), max_size=4)))
        out = saturate(g, s)
        assert is_saturated(g, out)
        assert oracles.oracle_saturated(g, out)
        closed = hereditary_closure(g, s)
        sat = saturate(g, closed)
        assert is_hereditary(g, sat) or not is_hereditary(g, closed)

    @settings(max_examples=40)
    @given(graphs(), st.data())
    def test_saturation_of_hereditary_stays_hereditary(self, g, data):
        s = set(data.draw(st.lists(st.sampled_from(list(g.vertices)), max_size=4)))
        h = hereditary_closure(g, s)
        assert is_hereditary(g, saturate(g, h))


def _per_successor_shortest_path(g, v, w):
    """The former search: one BFS per successor of ``v``, keeping the first shortest."""
    best = None
    for u in g.successors(v):
        if u == w:
            return [v, w]
        prev = {u: None}
        queue = deque([u])
        found = None
        while queue:
            x = queue.popleft()
            for y in g.successors(x):
                if y not in prev:
                    prev[y] = x
                    if y == w:
                        found = y
                        queue.clear()
                        break
                    queue.append(y)
        if found is not None:
            path = [w]
            x = prev[w]
            while x is not None:
                path.append(x)
                x = prev[x]
            path.append(v)
            path.reverse()
            if best is None or len(path) < len(best):
                best = path
    return best


class TestShortestNonzeroPath:
    def test_direct_edge(self):
        assert shortest_nonzero_path(edge_to_sink(), "a", "b") == ["a", "b"]

    def test_cycle_back_to_start(self):
        g = make_graph(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert shortest_nonzero_path(g, "a", "a") == ["a", "b", "c", "a"]

    def test_not_dominated_raises(self):
        with pytest.raises(NotFoundError):
            shortest_nonzero_path(edge_to_sink(), "b", "b")
        with pytest.raises(NotFoundError):
            shortest_nonzero_path(edge_to_sink(), "a", "zz")

    def test_matches_per_successor_search(self):
        rng = random.Random(20261018)
        for _ in range(500):
            g = corpus.random_graph(random.Random(rng.getrandbits(64)), max_vertices=7)
            for v in g.vertices:
                for w in g.vertices:
                    want = _per_successor_shortest_path(g, v, w)
                    if want is None:
                        with pytest.raises(NotFoundError):
                            shortest_nonzero_path(g, v, w)
                    else:
                        assert shortest_nonzero_path(g, v, w) == want, (g.to_json(), v, w)


class TestSimpleCycles:
    def test_two_parallel_loops(self):
        assert simple_cycle_count_at(two_loops(), "a") == 2

    def test_single_loop(self):
        assert simple_cycle_count_at(one_loop(), "a") == 1

    def test_acyclic(self):
        assert simple_cycle_count_at(edge_to_sink(), "a") == 0

    def test_infinite_loop_counts_twice(self):
        g = make_graph(["a"], [["inf"]])
        assert simple_cycle_count_at(g, "a") == 2

    def test_detour_gives_two(self):
        # v -> a -> v with a branch a -> b -> a avoiding v
        g = make_graph(
            ["v", "a", "b"],
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        )
        assert simple_cycle_count_at(g, "v") == 2

    @pytest.mark.parametrize(
        "adjacency, counts",
        [
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [1, 1, 1]),  # bare 3-cycle
            ([[0, 2, 0], [0, 0, 1], [1, 0, 0]], [2, 2, 2]),  # one double edge
            ([[0, 1, 0], [0, 0, "inf"], [1, 0, 0]], [2, 2, 2]),  # one ∞ edge
            ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], [0, 1, 1]),  # first vertex only reaches a cycle
        ],
    )
    def test_three_vertex_cycles(self, adjacency, counts):
        g = make_graph(["a", "b", "c"], adjacency)
        assert [simple_cycle_count_at(g, v) for v in g.vertices] == counts

    @settings(max_examples=60)
    @given(graphs(max_vertices=4))
    def test_matches_enumeration_oracle(self, g):
        for v in g.vertices:
            assert simple_cycle_count_at(g, v) == oracles.oracle_simple_cycle_count(g, v)

    def test_seeded_corpus_matches_oracles(self):
        # five vertices at most: the enumeration oracle takes seconds at six
        rng = random.Random(20260418)
        for _ in range(500):
            g = corpus.random_graph(rng, max_vertices=5)
            for v in g.vertices:
                assert simple_cycle_count_at(g, v) == oracles.oracle_simple_cycle_count(g, v)
                for w in g.vertices:
                    assert dominates(g, v, w) == oracles.oracle_dominates(g, v, w)
            assert condition_K(g) == oracles.oracle_condition_K(g)


class TestConditionK:
    def test_two_loops_passes(self):
        assert condition_K(two_loops())

    def test_single_loop_fails(self):
        assert not condition_K(one_loop())

    def test_acyclic_passes(self):
        assert condition_K(edge_to_sink())

    @settings(max_examples=60)
    @given(graphs(max_vertices=4, entries=(0, 1, "inf")))
    def test_matches_oracle(self, g):
        assert condition_K(g) == oracles.oracle_condition_K(g)


def _compact_dump(g) -> str:
    return json.dumps(g.to_json(), separators=(",", ":"), ensure_ascii=False)


# Names the JSON text escapes, or that look like its own tokens.
TRICKY_NAMES = ['"', "\\", "\x00", "\n", "\x1f", "\u2028", "é", "\U0001d538", "inf", "", ",", "]"]


@st.composite
def named_graphs(draw):
    text = st.text(st.characters(exclude_categories=("Cs",)), max_size=3)
    names = draw(st.lists(st.sampled_from(TRICKY_NAMES) | text, max_size=5, unique=True))
    entries = st.sampled_from([0, 1, 2, 255, 256, 2**70, "inf"])
    return Graph(names, [[draw(entries) for _ in names] for _ in names])


class TestSerialization:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(named_graphs())
    @example(Graph([], []))
    @example(Graph(["inf", '"\\'], [["inf", 256], [0, 2**70]]))
    def test_canonical_json_is_the_compact_dump(self, g):
        assert g.canonical_json() == _compact_dump(g)

    def test_canonical_json_of_seeded_draws_and_their_canonical_forms(self):
        for s in range(150):
            g = corpus.random_graph(random.Random(s), 5)
            out, _ = canonicalize(g)
            assert g.canonical_json() == _compact_dump(g)
            assert out.canonical_json() == _compact_dump(out)

    def test_round_trip(self):
        g = inf_to_loop()
        again = Graph.from_json(json.loads(g.canonical_json()))
        assert again == g

    def test_inf_spelled_as_string(self):
        data = inf_to_loop().to_json()
        assert data["adjacency"][0][1] == "inf"

    def test_dot_labels(self):
        dot = inf_to_loop().to_dot()
        assert '"v" -> "w" [label="∞"]' in dot
        assert '"w" -> "w" [label="1"]' in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        g = Graph(['a"b', "c\\d"], [[0, 1], ["inf", 0]])
        assert g.to_dot() == "\n".join([
            "digraph G {",
            r'  "a\"b";',
            r'  "c\\d";',
            r'  "a\"b" -> "c\\d" [label="1"];',
            r'  "c\\d" -> "a\"b" [label="∞"];',
            "}",
        ])

    @pytest.mark.parametrize("name, head", [
        ("G", "digraph G {"),
        ("_x1", "digraph _x1 {"),
        ("my graph", 'digraph "my graph" {'),
        ("1x", 'digraph "1x" {'),
        ("Node", 'digraph "Node" {'),
        ("é", 'digraph "é" {'),
        ('a"b', r'digraph "a\"b" {'),
    ])
    def test_dot_name_is_quoted_unless_a_plain_id(self, name, head):
        assert two_loops().to_dot(name).splitlines()[0] == head

    @settings(max_examples=30)
    @given(graphs())
    def test_json_round_trip_any(self, g):
        assert Graph.from_json(g.to_json()) == g

    def test_cached_structure_is_invisible(self):
        g = make_graph(["a", "b", "c"], [[1, 1, 0], [0, 2, "inf"], [1, 0, 0]])
        is_stably_complete(g)
        assert dominates(g, "c", "b")
        k_groups(g)
        digest = g.digest()
        fresh = make_graph(["a", "b", "c"], [[1, 1, 0], [0, 2, "inf"], [1, 0, 0]])
        assert g == fresh
        assert hash(g) == hash(fresh)
        assert g.to_json() == fresh.to_json()
        assert g.canonical_json() == fresh.canonical_json()
        assert digest == fresh.digest()
        assert g.digest() is digest  # hashed once, then kept


class TestEdgeRefs:
    def test_validity_finite(self):
        g = two_loops()
        assert g.edge_valid(EdgeRef("a", "a", 1))
        assert not g.edge_valid(EdgeRef("a", "a", 2))

    def test_every_index_valid_at_infinite_entry(self):
        g = inf_to_loop()
        assert g.edge_valid(EdgeRef("v", "w", 10**9))

    def test_only_int_indices_are_valid(self):
        g = inf_to_loop()
        for index in (1.5, True, "0", -1):
            assert not g.edge_valid(EdgeRef("v", "w", index))


class TestIsomorphism:
    def test_relabeling(self):
        g = inf_to_loop()
        assert is_isomorphic(g, g.relabeled({"v": "x", "w": "y"}))

    def test_distinguishes_multiplicity(self):
        assert not is_isomorphic(two_loops(), one_loop())

    def test_permutation(self):
        g1 = make_graph(["a", "b"], [[1, 2], [0, 1]])
        g2 = make_graph(["x", "y"], [[1, 0], [2, 1]])
        assert is_isomorphic(g1, g2)


def _oracle_regular(g, v):
    """Emits finitely many edges, and at least one, read off the dense row."""
    row = g.adjacency[g.index(v)]
    return any(row) and all(m.is_finite for m in row)


def test_mask_answers_match_the_dominance_oracle():
    """The reachability helpers and the answers built on them, against ``oracle_dominates``."""
    rng = random.Random(20261019)
    for _ in range(300):
        g = corpus.random_graph(rng, max_vertices=6)
        vs = g.vertices
        dom = {(v, w): oracles.oracle_dominates(g, v, w) for v in vs for w in vs}
        regular = [v for v in vs if _oracle_regular(g, v)]
        for i, v in enumerate(vs):
            reached_by = {w for w in vs if dom[w, v]}
            mates = {w for w in vs if dom[v, w] and dom[w, v]}
            assert _names(g, _reached_by(g, i)) == reached_by
            assert _names(g, _cycle_mates(g, i)) == mates
            assert companion(g, v) == next((w for w in regular if w in mates), None)
            assert _dominator(g, v) == next((w for w in regular if w in reached_by), None)
        m = {v: rng.choice([1, 2, 5, INF]) for v in vs}
        shadowed = {v for v in vs if any(w != v and m[w] == INF and dom[w, v] for w in vs)}
        assert normalize_multiplicities(g, m) == {v: 1 if v in shadowed else m[v] for v in vs}


def test_all_names_every_public_name_but_the_modules():
    for name in graphck.__all__:  # the package binds a public name on its first use
        getattr(graphck, name)
    public = {
        name for name, value in vars(graphck).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(graphck.__all__) == sorted(public)
