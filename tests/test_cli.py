import json

from sample_graphs import inf_to_loop, mixed_emitter, two_loops

from graphck import Graph, MoveRecord, remove_regular_sources, replay
from graphck.cli import main


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
