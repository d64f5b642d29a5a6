import inspect
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from oracles import oracle_k_pair
from sample_graphs import edge_to_sink, inf_to_loop, one_loop, two_loops

from graphck import (
    INF,
    CannotRealizeError,
    CornerGraph,
    DomainError,
    ExtNat,
    ValidationError,
    build_EH,
    corner_graph,
    k_groups,
    make_corner,
    make_graph,
    random_graph,
    realize,
    stabilize,
    unitize,
    vertex_class,
)
from graphck.graph import fresh_names


class TestStabilize:
    def test_all_heads_infinite(self):
        cg = stabilize(two_loops())
        assert cg.head("a") is INF

    def test_empty_graph(self):
        cg = stabilize(make_graph([], []))
        assert cg.heads == ()

    def test_multiple_vertices(self):
        cg = stabilize(edge_to_sink())
        assert all(h.is_infinite for _, h in cg.heads)


class TestCornerGraph:
    def test_multiplicity_one_means_no_head(self):
        cg = corner_graph(two_loops(), {"a": 1})
        assert cg.head("a") == 0
        assert realize(cg) == two_loops()

    def test_decrement(self):
        cg = corner_graph(inf_to_loop(), {"v": INF, "w": 1})
        assert cg.head("v") is INF
        assert cg.head("w") == 0

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(DomainError):
            corner_graph(two_loops(), {"a": 0})

    def test_missing_vertex_rejected(self):
        from graphck import ValidationError

        with pytest.raises(ValidationError):
            corner_graph(edge_to_sink(), {"a": 1})

    def test_unknown_vertex_rejected(self):
        from graphck import ValidationError

        with pytest.raises(ValidationError, match="unknown vertices \\['typo'\\]"):
            corner_graph(two_loops(), {"a": 1, "typo": 2})

    def test_json_round_trip(self):
        cg = corner_graph(inf_to_loop(), {"v": INF, "w": 3})
        assert CornerGraph.from_json(cg.to_json()) == cg

    def test_json_head_for_unknown_vertex_rejected(self):
        from graphck import ValidationError

        data = make_corner(two_loops(), {"a": 1}).to_json()
        data["heads"]["typo"] = 3
        with pytest.raises(ValidationError, match="unknown vertices \\['typo'\\]"):
            CornerGraph.from_json(data)


class TestCornerGraphHeads:
    """Heads are coerced through ``ExtNat.of`` at construction and in ``_replace``."""

    def test_int_head_becomes_extnat(self):
        cg = CornerGraph(make_graph(["a"], [[1]]), (("a", 2),))
        assert type(cg.head("a")) is ExtNat and cg.head("a") == 2
        assert realize(cg).n == 3
        assert cg.to_json()["heads"] == {"a": 2}
        assert unitize(cg).a("⋆", "a") == 2

    def test_inf_head_is_INF(self):
        cg = CornerGraph(make_graph(["a"], [[1]]), (("a", "inf"),))
        assert cg.head("a") is INF
        assert unitize(cg).a("⋆", "a") is INF

    @pytest.mark.parametrize("bad", [-3, 2.5, [1]], ids=repr)
    def test_bad_head_rejected(self, bad):
        g = make_graph(["a"], [[1]])
        with pytest.raises(DomainError):
            CornerGraph(g, (("a", bad),))
        with pytest.raises(DomainError):
            make_corner(g, {"a": bad})
        with pytest.raises(DomainError):
            stabilize(g)._replace(heads=(("a", bad),))

    @pytest.mark.parametrize(
        "heads",
        [5, {"a": 1}, (("a",),), (("a", 1, 2),), ("a1",), (5,), (("a", 1), 5)],
        ids=["int", "dict", "short-pair", "long-pair", "str-pair", "int-pair", "second-pair"],
    )
    def test_heads_not_pairs_rejected(self, heads):
        g = make_graph(["a"], [[1]])
        message = f"heads must be a list of (vertex, head) pairs, got {heads!r}"
        pattern = f"^{re.escape(message)}$"
        with pytest.raises(ValidationError, match=pattern):
            CornerGraph(g, heads)
        with pytest.raises(ValidationError, match=pattern):
            CornerGraph._make((g, heads))
        with pytest.raises(ValidationError, match=pattern):
            stabilize(g)._replace(heads=heads)

    def test_heads_as_lists_accepted(self):
        cg = CornerGraph(make_graph(["a"], [[1]]), [["a", 2]])
        assert cg.heads == (("a", ExtNat(2)),)

    def test_replace_coerces(self):
        cg = stabilize(make_graph(["a"], [[1]]))._replace(heads=(("a", 4),))
        assert type(cg.head("a")) is ExtNat and cg.head("a") == 4
        assert cg._replace(heads=(("a", "inf"),)).head("a") is INF


class TestRealize:
    def test_head_chain(self):
        cg = make_corner(two_loops(), {"a": 2})
        out = realize(cg)
        assert list(out.vertices) == ["a", "a^1", "a^2"]
        assert out.a("a", "a") == 2
        assert out.a("a^1", "a") == 1
        assert out.a("a^2", "a^1") == 1
        assert out.a("a^2", "a") == 0

    def test_chain_names_avoid_base_names_across_chains(self):
        base = make_graph(["a", "a^1"], [[1, 1], [0, 1]])
        out = realize(make_corner(base, {"a": 2, "a^1": 2}))
        assert out.vertices == ("a", "a^1", "a^1'", "a^2", "a^1^1", "a^1^2")
        assert out.to_json()["adjacency"] == [
            [1, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
        ]

    def test_zero_heads_is_base(self):
        cg = make_corner(edge_to_sink(), {"a": 0, "b": 0})
        assert realize(cg) == edge_to_sink()

    def test_infinite_head_rejected(self):
        with pytest.raises(CannotRealizeError):
            realize(stabilize(two_loops()))

    def test_head_vertices_are_regular_single_emitters(self):
        out = realize(make_corner(two_loops(), {"a": 3}))
        for v in out.vertices:
            if v != "a":
                assert out.is_regular(v)
                assert out.out_degree(v) == 1

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_vertices=4), st.data())
    def test_realization_preserves_k_theory(self, g, data):
        heads = {v: data.draw(st.integers(0, 2)) for v in g.vertices}
        out = realize(make_corner(g, heads))
        assert k_groups(out) == k_groups(g)


class TestBuildEH:
    def test_single_entering_edge(self):
        g = make_graph(["a", "b"], [[0, 1], [0, 1]])
        out = build_EH(g, {"b"})
        assert list(out.vertices) == ["b", "e(a→b,0)"]
        assert out.a("b", "b") == 1
        assert out.a("e(a→b,0)", "b") == 1

    def test_full_set_is_identity(self):
        g = one_loop()
        assert build_EH(g, {"a"}) == g

    def test_cycle_outside_h_rejected(self):
        g = make_graph(["a", "b"], [[1, 1], [0, 1]])
        with pytest.raises(DomainError):
            build_EH(g, {"b"})

    def test_non_regular_outside_rejected(self):
        g = make_graph(["a", "b"], [[0, "inf"], [0, 1]])
        with pytest.raises(DomainError):
            build_EH(g, {"b"})

    def test_vertex_not_dominating_h_rejected(self):
        # an isolated regular vertex outside H cannot dominate H
        g = make_graph(["a", "b"], [[0, 0], [0, 1]])
        with pytest.raises(DomainError):
            build_EH(g, {"b"})

    def test_spike_count_matches_heads(self):
        cg = make_corner(two_loops(), {"a": 3})
        spiked = build_EH(realize(cg), {"a"})
        spikes = [v for v in spiked.vertices if v != "a"]
        assert len(spikes) == 3
        for s in spikes:
            assert spiked.out_degree(s) == 1
            assert spiked.is_source(s)

    def test_longer_paths_enumerated(self):
        g = make_graph(
            ["x", "y", "h"], [[0, 1, 1], [0, 0, 1], [0, 0, 1]]
        )
        out = build_EH(g, {"h"})
        # entering paths: x→h, x→y→h, y→h
        assert out.n == 1 + 3

    def test_spike_names_and_targets(self):
        # x → y → h with two parallel y → h edges; spikes follow a depth-first walk
        rows = [[0, 0, 1, 1], [0, 1, 0, 1], [0, 2, 0, 1], [0, 0, 0, 1]]
        g = make_graph(["x", "h", "y", "k"], rows)
        out = build_EH(g, {"h", "k"})
        assert out.vertices == (
            "h",
            "k",
            "e(x→y,0)·e(y→h,0)",
            "e(x→y,0)·e(y→h,1)",
            "e(x→y,0)·e(y→k,0)",
            "e(x→k,0)",
            "e(y→h,0)",
            "e(y→h,1)",
            "e(y→k,0)",
        )
        h, k = [1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert out.to_json()["adjacency"] == [[1, 1] + [0] * 7, k, h, h, k, k, h, h, k]

    def test_long_complement_path_needs_no_recursion(self):
        # x0 → x1 → ... → x299 → h: one entering path from each x_i, the longest 300 edges
        n = 300
        path = [f"x{i}" for i in range(n)] + ["h"]
        rows = [[int(j == i + 1) for j in range(n + 1)] for i in range(n)] + [[0] * n + [1]]
        g = make_graph(path, rows)
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)  # far less than the path length
        try:
            out = build_EH(g, {"h"})
        finally:
            sys.setrecursionlimit(limit)
        assert out.n == 1 + n
        assert out.vertices[1] == "·".join(f"e({u}→{w},0)" for u, w in zip(path, path[1:]))
        assert out.vertices[-1] == f"e(x{n - 1}→h,0)"


class TestUnitize:
    def test_finite_heads(self):
        cg = make_corner(one_loop(), {"a": 2})
        out = unitize(cg)
        assert set(out.vertices) == {"a", "⋆"}
        assert out.a("a", "a") == 1
        assert out.a("⋆", "a") == 2
        assert out.is_regular("⋆")
        assert out.in_degree("⋆") == 0

    def test_infinite_head(self):
        cg = make_corner(one_loop(), {"a": INF})
        out = unitize(cg)
        assert out.a("⋆", "a") is INF
        assert out.is_infinite_emitter("⋆")

    def test_zero_heads_star_is_isolated(self):
        cg = make_corner(one_loop(), {"a": 0})
        out = unitize(cg)
        assert out.is_sink("⋆")
        assert out.is_source("⋆")

    def test_adds_exactly_one_vertex(self):
        cg = make_corner(edge_to_sink(), {"a": 1, "b": INF})
        assert unitize(cg).n == edge_to_sink().n + 1

    def test_star_emits_one_edge_per_entering_path(self):
        # the star graph's row equals the per-vertex entering-path counts
        # of the realized corner graph
        cg = make_corner(two_loops(), {"a": 3})
        star = unitize(cg)
        spiked = build_EH(realize(cg), {"a"})
        spikes = [v for v in spiked.vertices if v != "a"]
        assert star.a("⋆", "a") == len(spikes)

    def test_star_graph_k_theory_by_the_kind_of_star(self):
        # a singular ⋆ (an infinite emitter or a sink) adds a free ℤ to K₀;
        # a regular ⋆ is a regular source and leaves the K-theory pair alone
        kinds = {"infinite-emitter": 0, "sink": 0, "regular": 0}
        for seed in range(1000):
            rng = random.Random(seed)
            g = random_graph(rng, max_vertices=4)
            heads = [(v, INF if rng.random() < 0.3 else rng.randint(0, 3)) for v in g.vertices]
            star = unitize(CornerGraph(g, heads))
            kind = vertex_class(star, star.vertices[-1]).kind
            kinds[kind] += 1
            base, got = k_groups(g), k_groups(star)
            if kind == "regular":
                assert got == base
            else:
                assert got == base._replace(k0_free_rank=base.k0_free_rank + 1)
            if seed % 10 == 0:
                assert oracle_k_pair(star) == tuple(got)
        assert all(kinds.values()), kinds


class TestFreshNames:
    """Fresh names append ``'`` until free, in every place that makes one."""

    def test_chain_names(self):
        assert fresh_names("a", 2, {"a", "a^1"}) == ["a^1'", "a^2"]
        assert fresh_names("a", 1, {"a^1", "a^1'"}) == ["a^1''"]

    def test_star_avoids_base_names(self):
        out = unitize(make_corner(make_graph(["⋆"], [[1]]), {"⋆": 2}))
        assert out.vertices == ("⋆", "⋆'")
        assert out.a("⋆'", "⋆") == 2
        out = unitize(make_corner(make_graph(["⋆", "⋆'"], [[1, 0], [0, 1]]), {"⋆": 1, "⋆'": 0}))
        assert out.vertices == ("⋆", "⋆'", "⋆''")

    def test_spike_avoids_base_names(self):
        g = make_graph(["a", "b", "e(b→a,0)"], [[1, 0, 0], [1, 0, 0], [0, 0, 0]])
        out = build_EH(g, {"a", "e(b→a,0)"})
        assert out.vertices == ("a", "e(b→a,0)", "e(b→a,0)'")
        assert out.a("e(b→a,0)'", "a") == 1
