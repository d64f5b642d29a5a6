import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sample_graphs import inf_to_loop, mixed_emitter, two_loops

from graphck import ExtNat, Graph, MoveRecord, corner_graph, remove_regular_sources, replay
from graphck.cli import _emit, main


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(g.to_json()))
    return str(path)


def test_analyze(tmp_path, capsys):
    code = main(["analyze", write_graph(tmp_path, two_loops())])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["condition_K"] is True
    assert data["stably_complete"]["satisfied"] is True
    assert data["vertices"]["a"]["kind"] == "regular"


def test_canonicalize_with_trace(tmp_path, capsys):
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.json"
    code = main(
        [
            "canonicalize",
            write_graph(tmp_path, mixed_emitter()),
            "--out",
            str(out),
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    result = Graph.from_json(json.loads(out.read_text()))
    records = json.loads(trace.read_text())
    assert records[0]["kind"] == "BREAKSPLIT"
    assert result.n >= 1


def test_move_collapse(tmp_path, capsys):
    g = Graph(["x", "u", "y"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    code = main(["move", write_graph(tmp_path, g), "--op", "collapse", "--vertex", "u"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertices"] == ["x", "y"]


def test_move_remove_sources_cascade(tmp_path, capsys):
    # a is the only source; removing it exposes b, then c; e emits infinitely
    g = Graph(
        ["a", "b", "c", "d", "e"],
        [
            [0, 1, 1, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, "inf", 0],
        ],
    )
    trace = tmp_path / "trace.json"
    code = main(
        ["move", write_graph(tmp_path, g), "--op", "remove-sources", "--trace", str(trace)]
    )
    assert code == 0
    out = Graph.from_json(json.loads(capsys.readouterr().out))
    assert out == remove_regular_sources(g)
    assert list(out.vertices) == ["d", "e"]
    records = [MoveRecord.from_json(r) for r in json.loads(trace.read_text())]
    assert [r.params["vertex"] for r in records] == ["a", "b", "c"]
    cur = g
    for rec in records:
        cur = replay(cur, rec)
    assert cur == out


def test_move_error_exit_code(tmp_path, capsys):
    g = Graph(["u", "y"], [[0, 1], [0, 0]])  # u is a source
    code = main(["move", write_graph(tmp_path, g), "--op", "collapse", "--vertex", "u"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_ideals_json(tmp_path, capsys):
    code = main(["ideals", write_graph(tmp_path, inf_to_loop())])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 3


def test_ideals_dot(tmp_path, capsys):
    code = main(["ideals", write_graph(tmp_path, inf_to_loop()), "--format", "dot"])
    assert code == 0
    assert "digraph" in capsys.readouterr().out


def test_corner_and_unitize(tmp_path, capsys):
    gpath = write_graph(tmp_path, inf_to_loop())
    cpath = tmp_path / "corner.json"
    code = main(
        ["corner", gpath, "--multiplicities", '{"v": "inf", "w": 1}', "--out", str(cpath)]
    )
    assert code == 0
    code = main(["unitize", str(cpath)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert "⋆" in data["vertices"]


def test_corner_realize(tmp_path, capsys):
    gpath = write_graph(tmp_path, two_loops())
    code = main(["corner", gpath, "--multiplicities", '{"a": 3}', "--realize"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["vertices"]) == 3


def test_ktheory(tmp_path, capsys):
    code = main(["ktheory", write_graph(tmp_path, two_loops())])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"k0_invariant_factors": [], "k0_free_rank": 0, "k1_free_rank": 0}


def test_export_dot(tmp_path, capsys):
    code = main(["export-dot", write_graph(tmp_path, inf_to_loop())])
    assert code == 0
    assert 'label="∞"' in capsys.readouterr().out


def test_verify_reports_line(capsys):
    code = main(["verify", "--corpus", "20", "--max-vertices", "4", "--seed", "7"])
    assert code == 0
    assert "20/20 invariance checks passed" in capsys.readouterr().out


def test_verify_deterministic(capsys):
    main(["verify", "--corpus", "10", "--max-vertices", "4", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "--corpus", "10", "--max-vertices", "4", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_exit_code(capsys):
    code = main(["analyze", "/nonexistent/graph.json"])
    assert code == 1


def test_graph_json_round_trip(tmp_path, capsys):
    gpath = write_graph(tmp_path, inf_to_loop())
    code = main(["canonicalize", gpath])
    assert code == 0
    emitted = json.loads(capsys.readouterr().out)
    assert Graph.from_json(emitted) == Graph.from_json(json.loads(json.dumps(emitted)))


def test_verify_failure_exit_code(monkeypatch, capsys):
    import graphck.cli as cli

    monkeypatch.setattr(
        cli, "verify_corpus", lambda n, mv, seed: (n - 1, [(0, {}, "boom")])
    )
    code = main(["verify", "--corpus", "5"])
    assert code == 2
    assert "boom" in capsys.readouterr().err


def test_fuel_env_override(monkeypatch):
    import graphck.canonical as canonical

    monkeypatch.setenv(canonical.FUEL_ENV, "17")
    assert canonical._fuel(two_loops()) == 17
    monkeypatch.delenv(canonical.FUEL_ENV)
    assert canonical._fuel(two_loops()) == 1  # |V|^2 for a single vertex


def test_bad_fuel_env_is_one_error_line(tmp_path, monkeypatch, capsys):
    import graphck.canonical as canonical

    monkeypatch.setenv(canonical.FUEL_ENV, "abc")
    code = main(["canonicalize", write_graph(tmp_path, mixed_emitter())])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and canonical.FUEL_ENV in err
    assert "Traceback" not in err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.count("\n") == 1 and err.startswith("error:") and "Traceback" not in err


def test_adjacency_not_a_matrix_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["a"], "adjacency": 5}))
    assert main(["analyze", str(path)]) == 1
    assert _one_error_line(capsys)


def test_partition_not_a_list_is_one_error_line(tmp_path, capsys):
    gpath = write_graph(tmp_path, two_loops())
    argv = ["move", gpath, "--op", "out-split", "--vertex", "a", "--partition", "5"]
    assert main(argv) == 1
    assert _one_error_line(capsys)


def test_multiplicities_not_an_object_is_one_error_line(tmp_path, capsys):
    assert main(["corner", write_graph(tmp_path, two_loops()), "--multiplicities", "[1]"]) == 1
    assert _one_error_line(capsys)


def test_multiplicities_for_unknown_vertex_is_one_error_line(tmp_path, capsys):
    gpath = write_graph(tmp_path, inf_to_loop())
    argv = ["corner", gpath, "--multiplicities", '{"v": 1, "w": 1, "c": 2}']
    assert main(argv) == 1
    assert _one_error_line(capsys)


def test_unitize_on_plain_graph_is_one_error_line(tmp_path, capsys):
    assert main(["unitize", write_graph(tmp_path, two_loops())]) == 1
    assert _one_error_line(capsys)


def test_verify_without_vertices_is_one_error_line(capsys):
    assert main(["verify", "--max-vertices", "0"]) == 1
    assert _one_error_line(capsys)


def test_verify_negative_corpus_is_one_error_line(capsys):
    assert main(["verify", "--corpus", "-5"]) == 1
    assert _one_error_line(capsys)


def test_unitize_head_for_unknown_vertex_is_one_error_line(tmp_path, capsys):
    gpath = write_graph(tmp_path, two_loops())
    cpath = tmp_path / "corner.json"
    assert main(["corner", gpath, "--multiplicities", '{"a": 2}', "--out", str(cpath)]) == 0
    data = json.loads(cpath.read_text())
    data["heads"]["typo"] = 3
    cpath.write_text(json.dumps(data))
    assert main(["unitize", str(cpath)]) == 1
    assert _one_error_line(capsys)


def _stdlib_text(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


# Strings that look like the separators and brackets of the JSON text itself.
TRICKY = ["], [", ", ", "[", "]", '"', "\\", "\x00", "é", "[]", "{", "\n", "inf"]
_scalars = st.one_of(
    st.sampled_from(TRICKY),
    st.text(max_size=4),
    st.integers(),
    st.integers(min_value=2**64),
    st.floats(),
    st.booleans(),
    st.none(),
)
_cells = st.one_of(
    st.integers(-2, 2), st.floats(), st.booleans(), st.none(), st.sampled_from(TRICKY)
)
_rows = st.lists(st.lists(_cells, max_size=3), min_size=1, max_size=4)
_keys = st.one_of(st.sampled_from(TRICKY), st.text(max_size=3), st.integers(), st.booleans())
json_trees = st.recursive(
    st.one_of(_scalars, _rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=json_trees.filter(lambda d: not isinstance(d, str)))  # a str is emitted as is
@example(data=[[", "], [0]])
@example(data=[[1], []])
@example(data=[[{"k": 0}], [1]])
@example(data=[["a]", 1], [2, "inf"]])
def test_emit_writes_the_stdlib_indent_text(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("emit") / "out.json"
    _emit(data, str(path))
    assert path.read_bytes().decode("utf-8") == _stdlib_text(data)


def twelve_vertex_chains():
    """Three chains of four looped vertices, joined by 1, ∞, 1 edges: 216 admissible pairs."""
    rows = [[int(i == j) for j in range(12)] for i in range(12)]
    for c in range(0, 12, 4):
        rows[c][c + 1], rows[c + 1][c + 2], rows[c + 2][c + 3] = 1, "inf", 1
    return Graph([f"x{i}" for i in range(12)], rows)


def through_vertex():
    return Graph(["x", "u", "y"], [[0, 1, 0], [0, 0, 1], [0, 0, 0]])


@pytest.mark.parametrize(
    "argv, graph",
    [
        (["analyze", "{g}"], twelve_vertex_chains),
        (["canonicalize", "{g}", "--trace", "{trace}"], mixed_emitter),
        (["move", "{g}", "--op", "collapse", "--vertex", "u", "--trace", "{trace}"],
         through_vertex),
        (["ideals", "{g}"], twelve_vertex_chains),
        (["corner", "{g}", "--multiplicities", '{"v": "inf", "w": 2}'], inf_to_loop),
        (["corner", "{g}", "--multiplicities", '{"a": 3}', "--realize"], two_loops),
        (["unitize", "{corner}"], inf_to_loop),
        (["ktheory", "{g}"], twelve_vertex_chains),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_cli_json_is_the_stdlib_indent_text(tmp_path, argv, graph):
    g = graph()
    out, trace, corner = tmp_path / "out.json", tmp_path / "trace.json", tmp_path / "corner.json"
    if "{corner}" in argv:
        cg = corner_graph(g, {"v": ExtNat.of("inf"), "w": ExtNat.of(2)})
        corner.write_text(json.dumps(cg.to_json()))
    files = {"{g}": write_graph(tmp_path, g), "{corner}": str(corner), "{trace}": str(trace)}
    assert main([files.get(a, a) for a in argv] + ["-o", str(out)]) == 0
    for path in [out, trace] if "{trace}" in argv else [out]:
        text = path.read_bytes().decode("utf-8")
        # Parsing gives back the emitted value: only str, int, bool, list and dict occur.
        assert text == _stdlib_text(json.loads(text))
    if argv[0] == "ideals":
        assert len(json.loads(out.read_text())["nodes"]) >= 100


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "argv, content",
    [
        (["analyze", "{f}"], json.dumps(two_loops().to_json()).encode("utf-16")),
        (["analyze", "{f}"], _DEEP.encode()),
        (["unitize", "{f}"], b"\xff\xfe{}"),
        (["unitize", "{f}"], _DEEP.encode()),
        (["corner", "{g}", "--multiplicities", _DEEP], b""),
        (["move", "{g}", "--op", "out-split", "--vertex", "a", "--partition", _DEEP], b""),
    ],
    ids=["utf16-graph", "deep-graph", "utf16-corner", "deep-corner", "deep-multiplicities",
         "deep-partition"],
)
def test_undecodable_or_deep_json_is_one_error_line(tmp_path, capsys, argv, content):
    f = tmp_path / "in.json"
    f.write_bytes(content)
    files = {"{f}": str(f), "{g}": write_graph(tmp_path, two_loops())}
    assert main([files.get(a, a) for a in argv]) == 1
    assert _one_error_line(capsys)
