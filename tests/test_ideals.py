import contextlib
import hashlib
import io
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs
from sample_graphs import block_graph, edge_to_sink, inf_to_loop, two_loops

from graphck import (
    DomainError,
    admissible_pairs,
    breaking_vertices,
    make_graph,
    restriction_graph,
    saturated_hereditary_sets,
)
from graphck import cli
from graphck.corpus import DEFAULT_ENTRIES, random_graph
from graphck.ideals import AdmissiblePair


class TestBreakingVertices:
    def test_no_edges_leave_complement(self):
        assert breaking_vertices(inf_to_loop(), {"w"}) == frozenset()

    def test_finitely_many_edges_leave(self):
        g = make_graph(["v", "w", "z"], [[0, "inf", 2], [0, 1, 0], [0, 0, 1]])
        assert breaking_vertices(g, {"w"}) == frozenset({"v"})

    def test_full_set_has_none(self):
        g = make_graph(["v", "w"], [[0, "inf"], [0, 1]])
        assert breaking_vertices(g, {"v", "w"}) == frozenset()

    def test_rejects_non_saturated(self):
        with pytest.raises(DomainError):
            breaking_vertices(edge_to_sink(), {"b"})  # a emits only into {b}

    def test_rejects_non_hereditary(self):
        with pytest.raises(DomainError):
            breaking_vertices(edge_to_sink(), {"a"})


class TestAdmissiblePairs:
    def test_edge_to_sink_has_two(self):
        lattice = admissible_pairs(edge_to_sink())
        assert len(lattice.nodes) == 2

    def test_inf_to_loop_has_three(self):
        lattice = admissible_pairs(inf_to_loop())
        hs = sorted(sorted(p.h) for p in lattice.nodes)
        assert hs == [[], ["v", "w"], ["w"]]

    def test_two_loops_has_two(self):
        assert len(admissible_pairs(two_loops()).nodes) == 2

    def test_breaking_vertex_doubles_nodes(self):
        g = make_graph(["v", "w", "z"], [[0, "inf", 2], [0, 1, 0], [0, 0, 1]])
        lattice = admissible_pairs(g)
        assert AdmissiblePair(frozenset({"w"}), frozenset({"v"})) in lattice.nodes
        assert AdmissiblePair(frozenset({"w"}), frozenset()) in lattice.nodes

    def test_bottom_and_top(self):
        lattice = admissible_pairs(inf_to_loop())
        assert lattice.bottom() in lattice.nodes
        top = lattice.top()
        assert top.h == {"v", "w"} and top.s == frozenset()

    def test_order_is_partial_order(self):
        g = make_graph(["v", "w", "z"], [[0, "inf", 2], [0, 1, 0], [0, 0, 1]])
        lattice = admissible_pairs(g)
        n = len(lattice.nodes)
        for i in range(n):
            assert (i, i) in lattice.order
        for i, j in lattice.order:
            if i != j:
                assert (j, i) not in lattice.order
        for i, j in lattice.order:
            for k in range(n):
                if (j, k) in lattice.order:
                    assert (i, k) in lattice.order

    @settings(max_examples=50, deadline=None)
    @given(graphs(max_vertices=4, entries=(0, 1, "inf")))
    def test_count_matches_oracle(self, g):
        lattice = admissible_pairs(g)
        assert len(lattice.nodes) == oracles.oracle_admissible_pair_count(g)

    def test_dot_output_mentions_nodes(self):
        dot = admissible_pairs(inf_to_loop()).to_dot()
        assert "digraph" in dot and "n0" in dot

    @pytest.mark.parametrize("names", [["a,b", "c", "a", "b"], ["∅", "", "(a)", "{b}"]])
    def test_dot_labels_are_distinct(self, names):
        g = make_graph(names, [[int(i == j) for j in range(4)] for i in range(4)])
        labels = [line for line in admissible_pairs(g).to_dot().splitlines() if "label=" in line]
        assert len({line.split("label=")[1] for line in labels}) == len(labels) == 16

    def test_dot_escapes_quotes_and_backslashes(self):
        dot = admissible_pairs(make_graph(['a"b\\c'], [[1]])).to_dot()
        assert dot == "\n".join([
            "digraph ideals {",
            "  rankdir=BT;",
            '  n0 [label="({∅},∅)"];',
            r'  n1 [label="({\"a\\\"b\\\\c\"},∅)"];',
            "  n0 -> n1;",
            "}",
        ])


class TestRestrictionGraph:
    def test_single_looped_vertex(self):
        out = restriction_graph(inf_to_loop(), AdmissiblePair(frozenset({"w"}), frozenset()))
        assert out.to_json() == {"vertices": ["w"], "adjacency": [[1]]}

    def test_full_pair_is_identity(self):
        g = inf_to_loop()
        pair = AdmissiblePair(frozenset(g.vertices), frozenset())
        assert restriction_graph(g, pair) == g

    def test_empty_pair(self):
        out = restriction_graph(inf_to_loop(), AdmissiblePair(frozenset(), frozenset()))
        assert out.n == 0

    def test_breaking_vertex_keeps_edges_into_h(self):
        g = make_graph(["v", "w", "z"], [[0, "inf", 2], [0, 1, 0], [0, 0, 1]])
        pair = AdmissiblePair(frozenset({"w"}), frozenset({"v"}))
        out = restriction_graph(g, pair)
        assert set(out.vertices) == {"v", "w"}
        assert out.a("v", "w").is_infinite
        assert out.a("v", "v") == 0

    def test_rejects_inadmissible(self):
        g = inf_to_loop()
        with pytest.raises(DomainError):
            restriction_graph(g, AdmissiblePair(frozenset({"w"}), frozenset({"v"})))


class TestStablyCompleteLattices:
    def test_pairs_equal_hereditary_subsets_after_canonicalization(self):
        # in a stably complete graph every subset is saturated and no
        # vertex breaks, so admissible pairs biject with hereditary sets
        import random
        from itertools import combinations

        from graphck import canonicalize, is_hereditary
        from graphck.corpus import random_graph

        rng = random.Random(42)
        for _ in range(15):
            g, _ = canonicalize(random_graph(random.Random(rng.getrandbits(64)), 4))
            hereditary = sum(
                1
                for k in range(g.n + 1)
                for combo in combinations(g.vertices, k)
                if is_hereditary(g, set(combo))
            )
            assert len(admissible_pairs(g).nodes) == hereditary


def _power_set_filter(g):
    """Saturated hereditary sets from the definitions, by size then in combinations order."""
    rows = dict(zip(g.vertices, g.adjacency))
    succ = {v: {w for w, x in zip(g.vertices, row) if x} for v, row in rows.items()}
    regular = {v for v, row in rows.items() if any(row) and not any(x.is_infinite for x in row)}
    out = []
    for k in range(g.n + 1):
        for combo in combinations(g.vertices, k):
            H = frozenset(combo)
            hereditary = all(succ[v] <= H for v in H)
            saturated = all(v in H for v in regular if succ[v] <= H)
            if hereditary and saturated:
                out.append(H)
    return out


def _brute_force_covers(lattice):
    strict = {(i, j) for (i, j) in lattice.order if i != j}
    n = len(lattice.nodes)
    return sorted(
        (i, j) for (i, j) in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(n))
    )


class TestLatticeRows:
    def test_rows_match_the_definition(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(random.Random(rng.getrandbits(64)), 6, (0, 0, 0, 0, 1, 2, "inf"))
            lattice = admissible_pairs(g)
            nodes = lattice.nodes
            pairwise = {
                (i, j)
                for i, a in enumerate(nodes)
                for j, b in enumerate(nodes)
                if lattice.leq(a, b)
            }
            assert lattice.order == pairwise, g.to_json()
            assert lattice.order is lattice.order
            assert lattice.to_json()["order"] == [list(p) for p in sorted(lattice.order)]
            assert lattice.hasse_edges() == _brute_force_covers(lattice), g.to_json()

    def test_block_graph_order_matches_the_definition(self):
        lattice = admissible_pairs(block_graph(1))
        nodes = lattice.nodes
        assert len(nodes) >= 400
        assert lattice.order == {
            (i, j) for i, a in enumerate(nodes) for j, b in enumerate(nodes) if lattice.leq(a, b)
        }
        assert lattice.to_json()["order"] == [list(p) for p in sorted(lattice.order)]


class TestEnumerationAgainstDefinitions:
    @pytest.mark.parametrize("entries", [DEFAULT_ENTRIES, (0, 0, 0, 0, 0, 1, 2, "inf")])
    def test_seeded_graphs(self, entries):
        # the sparse draws have many sets of one size, so they pin the order
        rng = random.Random(5)
        for _ in range(500):
            g = random_graph(random.Random(rng.getrandbits(64)), 6, entries)
            assert saturated_hereditary_sets(g) == _power_set_filter(g), g.to_json()
            lattice = admissible_pairs(g)
            assert len(lattice.nodes) == oracles.oracle_admissible_pair_count(g), g.to_json()
            assert lattice.hasse_edges() == _brute_force_covers(lattice), g.to_json()

    def test_long_infinite_path(self):
        # v0 → v1 → … → v23, every edge of multiplicity ∞: the hereditary
        # sets are the 25 tails, all saturated (no vertex is regular)
        n = 24
        names = [f"v{i}" for i in range(n)]
        g = make_graph(names, [["inf" if j == i + 1 else 0 for j in range(n)] for i in range(n)])
        sets = saturated_hereditary_sets(g, max_vertices=n)
        assert sets == [frozenset(names[n - k:]) for k in range(n + 1)]
        lattice = admissible_pairs(g, max_vertices=n)
        assert len(lattice.nodes) == n + 1
        assert len(lattice.hasse_edges()) == n

    def test_max_vertices_guard(self):
        g = make_graph([f"v{i}" for i in range(17)], [[0] * 17 for _ in range(17)])
        with pytest.raises(DomainError, match="refusing to enumerate 2\\^17 subsets"):
            saturated_hereditary_sets(g)
        with pytest.raises(DomainError):
            admissible_pairs(g, max_vertices=4)


def _emitted(data) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(data, None)
    return out.getvalue()


#: SHA-256 of the emitted ``ideals`` JSON and DOT text of the graphs below.
IDEALS_GOLDEN = "9468fe0648472ea4abb304b154ff76025561130544cc82f01f369fe015c7fc5e"


def _golden_graphs() -> list:
    """800 seeded seven-vertex draws from two entry pools, then the 400-pair block graph."""
    return [
        random_graph(random.Random(s), 7, entries)
        for entries in (DEFAULT_ENTRIES, (0, 0, 0, 0, 0, 1, 2, "inf"))
        for s in range(400)
    ] + [block_graph(1)]


def test_ideals_outputs_match_golden_hash():
    graphs = _golden_graphs()
    assert len(admissible_pairs(graphs[-1]).nodes) >= 400
    digest = hashlib.sha256()
    for g in graphs:
        lattice = admissible_pairs(g)
        digest.update(_emitted(lattice.to_json()).encode())
        digest.update(_emitted(lattice.to_dot()).encode())
    assert digest.hexdigest() == IDEALS_GOLDEN


def _loops(names):
    """One looped vertex per name: every subset is hereditary and saturated."""
    return make_graph(names, [[int(i == j) for j in range(len(names))] for i in range(len(names))])


def _escaped_names():
    """Names that JSON escapes, on a graph whose lattice has a breaking vertex."""
    names = ['v"\\', "w\n\t", "x\x00\u2028", "é😀"]
    return make_graph(names, [[0, "inf", 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])


def test_cli_lattice_text_is_the_emitted_json_on_the_golden_graphs():
    for g in _golden_graphs():
        lattice = admissible_pairs(g)
        assert _emitted(cli._lattice_text(lattice)) == _emitted(lattice.to_json()), g.to_json()


@pytest.mark.parametrize(
    "g",
    [make_graph([], []), _loops([f"v{i}" for i in range(7)]), _escaped_names()],
    ids=["no-vertices", "128-nodes", "escaped-names"],
)
def test_cli_lattice_text_is_the_emitted_json(g):
    lattice = admissible_pairs(g)
    assert _emitted(cli._lattice_text(lattice)) == _emitted(lattice.to_json())


def test_lattice_text_cases_are_what_they_claim():
    empty = admissible_pairs(make_graph([], [])).to_json()
    assert empty == {"nodes": [{"H": [], "S": []}], "order": [[0, 0]]}
    assert len(admissible_pairs(_loops([f"v{i}" for i in range(7)])).nodes) == 128
    escaped = admissible_pairs(_escaped_names())
    assert any(p.s for p in escaped.nodes)
    assert '\\"' in _emitted(escaped.to_json())  # the quote in v"\\ is escaped
