import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sample_graphs import block_graph, inf_to_loop, mixed_emitter, two_loops

import graphck
from graphck import (
    ExtNat, Graph, GraphCKError, MoveRecord, ValidationError, corner_graph,
    remove_regular_sources, replay,
)
from graphck.cli import VERIFY_MAX_VERTICES, _build_parser, _emit, main
from graphck.moves import MOVE_KINDS


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


def test_move_t_onto_an_infinite_entry_writes_its_input(tmp_path):
    out, trace = tmp_path / "out.json", tmp_path / "trace.json"
    argv = ["move", write_graph(tmp_path, inf_to_loop()), "--op", "move-t", "--path", "v,w"]
    assert main(argv + ["--out", str(out), "--trace", str(trace)]) == 0
    assert out.read_bytes() == (
        b'{\n  "vertices": [\n    "v",\n    "w"\n  ],\n  "adjacency": [\n'
        b'    [\n      0,\n      "inf"\n    ],\n    [\n      0,\n      1\n    ]\n  ]\n}\n'
    )
    digest = "16a0cc44337161c95677712d5b93a29aa4848faa5a577a5f715c44c30fb60b77"
    assert trace.read_bytes() == (
        b'[\n  {\n    "kind": "T",\n    "params": {\n      "path": [\n        "v",\n'
        b'        "w"\n      ]\n    },\n    "input-hash": "' + digest.encode() + b'",\n'
        b'    "output-hash": "' + digest.encode() + b'"\n  }\n]\n'
    )


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


def test_ktheory_of_a_large_realized_corner_is_the_base_pair(tmp_path, capsys):
    # heads of 500 on both vertices: 1,002 vertices, out of reach of a dense n³ Smith form
    base = write_graph(tmp_path, Graph(["a", "b"], [[2, 1], [1, 2]]))
    real = tmp_path / "real.json"
    mult = '{"a": 501, "b": 501}'
    assert main(["corner", base, "--multiplicities", mult, "--realize", "--out", str(real)]) == 0
    assert len(json.loads(real.read_text())["vertices"]) == 1002
    assert main(["ktheory", base]) == 0
    want = json.loads(capsys.readouterr().out)
    assert main(["ktheory", str(real)]) == 0
    assert json.loads(capsys.readouterr().out) == want
    assert want == {"k0_invariant_factors": [], "k0_free_rank": 1, "k1_free_rank": 1}


def test_export_dot(tmp_path, capsys):
    code = main(["export-dot", write_graph(tmp_path, inf_to_loop())])
    assert code == 0
    assert 'label="∞"' in capsys.readouterr().out


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    path = write_graph(tmp_path, two_loops())
    assert main(["analyze", path]) == 0
    before = capsys.readouterr().out
    for argv in (["no-such-command"], ["move", path]):
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: graphck")
    assert _exit_code(["--version"]) == 0
    assert capsys.readouterr().out == "graphck 0.1.0\n"
    helps = []
    for _ in range(2):
        assert _exit_code(["--help"]) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: graphck")
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == before
    assert _build_parser() is _build_parser()


def test_option_value_spelling_decides_usage_error_or_error_line(tmp_path, capsys):
    path = write_graph(tmp_path, two_loops())
    # a separate value that looks like an option is a usage error, exit 2
    assert _exit_code(["corner", path, "--multiplicities", "-1e+16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: graphck")
    # the "=" spelling reaches the command, which rejects the value itself
    assert main(["corner", path, "--multiplicities=-1e+16"]) == 1
    assert _one_error_line(capsys, "--multiplicities must be a JSON object")


def _run_module(*argv):
    path = [str(Path(graphck.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *argv], capture_output=True, encoding="utf-8", env=env)


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    path = write_graph(tmp_path, inf_to_loop())
    assert main(["export-dot", path]) == 0
    done = _run_module("-m", "graphck", "export-dot", path)
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    done = _run_module("-m", "graphck", "analyze", str(tmp_path / "missing.json"))
    assert done.returncode == 1 and done.stderr.startswith("error:")


def test_import_builds_no_parser():
    done = _run_module("-c", "import graphck.cli as c; print(c._build_parser.cache_info().currsize)")
    assert done.stdout == "0\n"


_STARTUP = """
import json, sys
import graphck
package = sorted(m for m in sys.modules if m.startswith("graphck."))
import graphck.cli
cli = sorted({"graphck.projcalc", "dataclasses", "inspect"} & set(sys.modules))
names = {}
exec("from graphck import *", names)
unbound = sorted(set(graphck.__all__) - (set(names) & set(dir(graphck))))
foreign = sorted(
    name for name in graphck.__all__
    if names[name] is not getattr(sys.modules[names[name].__module__], name)
)
try:
    graphck.no_such_name
except AttributeError as exc:
    error = str(exc)
print(json.dumps([package, cli, unbound, foreign, error]))
"""


def test_import_loads_only_what_is_used():
    """The package loads no module on import and the CLI only the modules it calls.

    Every public name is then bound by a star import, listed by ``dir`` and
    resolved to the object in its home module; an unknown name raises.
    """
    done = _run_module("-c", _STARTUP)
    assert done.stderr == ""
    package, cli, unbound, foreign, error = json.loads(done.stdout)
    assert (package, cli, unbound, foreign) == ([], [], [], [])
    assert "no_such_name" in error


# Imports graphck.cli, prints the graphck modules and whether hashlib is
# loaded, then runs each command line of argv[1] in a forked copy of that
# state and prints its exit code and the same two facts.  A fork costs a few
# milliseconds where a new interpreter costs a hundred or more.
_FOOTPRINT = """
import contextlib, io, json, os, sys
import graphck.cli

def footprint():
    package = sorted(m for m in sys.modules if m.partition(".")[0] == "graphck")
    return package, "hashlib" in sys.modules

print(json.dumps(footprint()), flush=True)
for argv in json.loads(sys.argv[1]):
    if os.fork() == 0:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = graphck.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        print(json.dumps([code, *footprint()]), flush=True)
        os._exit(0)
    os.wait()
"""

_GRAPH = ["errors", "extnat", "graph"]
_CANONICAL = [*_GRAPH, "canonical", "moves"]
_MOVE = ["move", "{g}", "--op", "collapse", "--vertex", "u"]
#: Per command line: its exit code, the graphck modules besides the package and
#: ``cli`` that it loads, and whether it loads ``hashlib``.  A command loads the
#: same modules whether it succeeds or fails.
_FOOTPRINTS = [
    (["--version"], 0, ["errors"], False),
    (["no-such-command"], 2, ["errors"], False),
    (["analyze", "{g}"], 0, _CANONICAL, False),
    (["analyze", "{missing}"], 1, _CANONICAL, False),
    (["canonicalize", "{g}"], 0, _CANONICAL, False),
    (["canonicalize", "{g}", "--trace", "{trace}"], 0, _CANONICAL, True),
    (_MOVE, 0, [*_GRAPH, "moves"], False),
    ([*_MOVE, "--trace", "{trace}"], 0, [*_GRAPH, "moves"], True),
    (["ideals", "{g}"], 0, [*_GRAPH, "ideals"], False),
    (["ideals", "{g}", "--format", "dot"], 0, [*_GRAPH, "ideals"], False),
    (["corner", "{loops}", "--multiplicities", '{"a": 3}', "--realize"], 0,
     [*_GRAPH, "corners"], False),
    (["unitize", "{corner}"], 0, [*_GRAPH, "corners"], False),
    (["ktheory", "{g}"], 0, [*_GRAPH, "ktheory"], False),
    (["export-dot", "{g}"], 0, _GRAPH, False),
    (["verify", "--corpus", "2", "--max-vertices", "3"], 0,
     [*_CANONICAL, "corpus", "ktheory"], False),
    (["verify", "--max-vertices", "0"], 1, [*_CANONICAL, "corpus", "ktheory"], False),
]


def test_each_command_loads_only_its_modules(tmp_path):
    """``import graphck.cli`` loads only ``errors``; each command then loads its own table.

    Only a trace written by ``canonicalize`` or ``move`` takes a digest, and so
    loads ``hashlib``.
    """
    corner = tmp_path / "corner.json"
    cg = corner_graph(inf_to_loop(), {"v": ExtNat.of(1), "w": ExtNat.of(2)})
    corner.write_text(json.dumps(cg.to_json()))
    files = {
        "{g}": write_graph(tmp_path, through_vertex()),
        "{loops}": write_graph(tmp_path, two_loops(), "loops.json"),
        "{corner}": str(corner),
        "{missing}": str(tmp_path / "missing.json"),
        "{trace}": str(tmp_path / "trace.json"),
    }
    argvs = [[files.get(a, a) for a in argv] for argv, *_ in _FOOTPRINTS]
    done = _run_module("-c", _FOOTPRINT, json.dumps(argvs))
    assert done.stderr == ""
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert lines[0] == [["graphck", "graphck.cli", "graphck.errors"], False]
    expected = [
        [code, sorted(["graphck", "graphck.cli", *(f"graphck.{m}" for m in loads)]), digest]
        for _, code, loads, digest in _FOOTPRINTS
    ]
    assert dict(zip(map(" ".join, argvs), lines[1:])) == dict(zip(map(" ".join, argvs), expected))


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
    import graphck.corpus as corpus

    monkeypatch.setattr(
        corpus, "verify_corpus", lambda n, mv, seed: (n - 1, [(0, {}, "boom")])
    )
    code = main(["verify", "--corpus", "5"])
    assert code == 2
    assert "boom" in capsys.readouterr().err


def _one_error_line(capsys, text=""):
    err = capsys.readouterr().err
    one_line = err.count("\n") == 1 and err.startswith("error:") and "Traceback" not in err
    return one_line and text in err


def test_adjacency_not_a_matrix_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["a"], "adjacency": 5}))
    assert main(["analyze", str(path)]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("command", ["canonicalize", "analyze", "export-dot", "ideals"])
def test_lone_surrogate_vertex_name_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": ["\\ud800", "b"], "adjacency": [[1, 0], [0, 1]]}')
    assert main([command, str(path)]) == 1
    assert _one_error_line(capsys)


def test_partition_not_a_list_is_one_error_line(tmp_path, capsys):
    gpath = write_graph(tmp_path, two_loops())
    argv = ["move", gpath, "--op", "out-split", "--vertex", "a", "--partition", "5"]
    assert main(argv) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("name", ["null", "true", "1", '{"a": 1}'])
def test_vertex_name_not_a_string_is_one_error_line(tmp_path, capsys, name):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [%s, "b"], "adjacency": [[0, 1], [0, 1]]}' % name)
    assert main(["analyze", str(path)]) == 1
    assert _one_error_line(capsys, "vertex name must be a string, got ")


def test_partition_edge_name_not_a_string_is_one_error_line(tmp_path, capsys):
    gpath = write_graph(tmp_path, Graph(["a", "b"], [[0, "inf"], [0, 1]]))
    argv = ["move", gpath, "--op", "out-split", "--vertex", "a"]
    assert main(argv + ["--partition", '[[[null, "b", 0]], "rest"]']) == 1
    assert _one_error_line(capsys, "vertex name must be a string, got None")


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


def test_verify_above_the_vertex_bound_is_one_error_line(monkeypatch, capsys):
    """The bound is checked before any graph is drawn."""
    monkeypatch.setattr("graphck.corpus.verify_corpus", None)
    too_many = VERIFY_MAX_VERTICES + 1
    assert main(["verify", "--max-vertices", str(too_many)]) == 1
    assert capsys.readouterr() == ("", f"error: --max-vertices must be <= 64, got {too_many}\n")


def test_verify_negative_corpus_is_one_error_line(capsys):
    assert main(["verify", "--corpus", "-5"]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("graph", [two_loops, lambda: Graph([], [])], ids=["one-vertex", "empty"])
def test_ideals_negative_max_vertices_is_one_error_line(tmp_path, capsys, graph):
    assert main(["ideals", write_graph(tmp_path, graph()), "--max-vertices", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: --max-vertices must be >= 0, got -1\n")


def test_ideals_zero_max_vertices_takes_the_empty_graph(tmp_path, capsys):
    assert main(["ideals", write_graph(tmp_path, Graph([], [])), "--max-vertices", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"nodes": [{"H": [], "S": []}], "order": [[0, 0]]}


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


def four_hundred_pairs():
    """A 12-vertex block graph whose lattice has 400 nodes and 21,624 order pairs."""
    return block_graph(1)


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
        (["ideals", "{g}"], four_hundred_pairs),
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


# Arbitrary JSON for the corner layer's inputs: values that may or may not be
# heads and multiplicities, keyed by the graph's vertices or by anything else.
_CORNER_BASES = [two_loops().to_json(), inf_to_loop().to_json(), Graph([], []).to_json()]
_values = st.one_of(
    st.integers(-2, 4), st.sampled_from(["inf", "∞", "1", ""]), _scalars, json_trees
)
_vertex_keyed = st.one_of(
    st.fixed_dictionaries({"a": _values}),
    st.fixed_dictionaries({"v": _values, "w": _values}),
    st.dictionaries(st.one_of(st.sampled_from(["a", "v", "w"]), _keys), _values),
)
_corner_files = st.one_of(
    json_trees,
    st.fixed_dictionaries(
        {"base": st.one_of(st.sampled_from(_CORNER_BASES), json_trees)},
        optional={"heads": st.one_of(_vertex_keyed, json_trees)},
    ),
)


def _run_cli(argv) -> tuple:
    """The exit code and standard error of ``main(argv)``; an escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _clean_exit(code, err) -> bool:
    if code == 0:
        return err == ""
    return code == 1 and err.startswith("error:") and err.count("\n") == 1


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mult=st.one_of(_vertex_keyed, json_trees), graph=st.sampled_from([two_loops, inf_to_loop]))
@example(mult={"a": True}, graph=two_loops)
@example(mult={"a": 2**70}, graph=two_loops)
@example(mult={"v": "inf", "w": 0}, graph=inf_to_loop)
def test_corner_multiplicities_exit_cleanly(tmp_path_factory, mult, graph):
    gpath = write_graph(tmp_path_factory.mktemp("corner"), graph())
    # one argument with "=": a separate value such as -1e+16 would read as an option
    assert _clean_exit(*_run_cli(["corner", gpath, f"--multiplicities={json.dumps(mult)}"]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=_corner_files)
@example(data={"base": _CORNER_BASES[0], "heads": {"a": 2**70}})
@example(data={"base": _CORNER_BASES[1], "heads": {"v": "inf", "w": -1}})
@example(data={"base": _CORNER_BASES[0], "heads": ["a", 1]})
def test_unitize_corner_file_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("unitize") / "corner.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert _clean_exit(*_run_cli(["unitize", str(path)]))


# Arbitrary graph files for the read-only commands: any JSON at all, a
# graph-shaped object whose fields may hold anything, or a square graph whose
# names JSON escapes or reads as label syntax and whose entries are all
# valid, or only mostly so.
_names = st.one_of(st.sampled_from(['"', "\\", ",", "{", "(", "", "∅", "\x00", "é😀"]),
                   st.text(max_size=3))
_entries = st.sampled_from([0, 0, 0, 1, 2, "inf"])


@st.composite
def _square_graphs(draw, entries, min_size=0, max_size=6):
    names = draw(st.lists(_names, min_size=min_size, max_size=max_size, unique=True))
    return {"vertices": names, "adjacency": [[draw(entries) for _ in names] for _ in names]}


_graph_files = st.one_of(
    json_trees,
    st.fixed_dictionaries(
        {
            "vertices": st.one_of(st.lists(st.one_of(_names, _keys), max_size=5), json_trees),
            "adjacency": st.one_of(st.lists(st.lists(_cells, max_size=5), max_size=5), json_trees),
        },
        optional={"extra": json_trees},
    ),
    _square_graphs(_entries),
    _square_graphs(st.one_of(_entries, _entries, _entries, _cells)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=_graph_files, max_vertices=st.integers(-2, 8))
@example(data={"vertices": ["a", "b"], "adjacency": [[0, "inf"], [0, 1]]}, max_vertices=1)
@example(data={"vertices": ["a", "a"], "adjacency": [[0, 1], [0, 1]]}, max_vertices=2)
@example(data={"vertices": ['"', ""], "adjacency": [[1, "inf"], [0, 2]]}, max_vertices=-1)
def test_read_only_commands_exit_cleanly(tmp_path_factory, data, max_vertices):
    path = tmp_path_factory.mktemp("graph") / "g.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    g = str(path)
    for argv in (
        ["analyze", g],
        ["ideals", g, f"--max-vertices={max_vertices}"],
        ["ideals", g, "--format", "dot", f"--max-vertices={max_vertices}"],
        ["ktheory", g],
        ["export-dot", g],
    ):
        assert _clean_exit(*_run_cli(argv)), argv


#: Each ``move`` op with the options it needs.
_MOVE_OPS = {
    "out-split": ("vertex", "partition"),
    "collapse": ("vertex",),
    "remove-sources": (),
    "move-t": ("path",),
    "column-add": ("source", "target"),
    "split-breaking": ("vertex",),
}


@st.composite
def _move_calls(draw):
    """A square graph with awkward names, and ``move`` options drawn mostly from those names.

    An op gets the options it needs, and each other one half the time.
    """
    graph = draw(_square_graphs(_entries, min_size=2))
    name = st.one_of(st.sampled_from(graph["vertices"]), _names)
    vertex = draw(name)
    edge = st.tuples(st.one_of(st.just(vertex), name), name, st.integers(-1, 3)).map(list)
    classes = st.lists(st.one_of(st.just("rest"), st.lists(edge, max_size=3)), max_size=3)
    values = {
        "vertex": st.just(vertex),
        "path": st.lists(name, max_size=4).map(",".join),
        "source": name,
        "target": name,
        "partition": st.one_of(st.just(["rest"]), classes, json_trees).map(json.dumps),
    }
    op = draw(st.sampled_from(sorted(_MOVE_OPS)))
    # each option as one argument with "=", so that a value such as "-" is not read as an option
    options = [
        f"--{k}={draw(v)}" for k, v in values.items() if k in _MOVE_OPS[op] or draw(st.booleans())
    ]
    return graph, [f"--op={op}", *options]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(call=_move_calls())
@example(call=({"vertices": ["a,b", "c"], "adjacency": [["inf", 1], [0, 1]]},
               ["--op=move-t", "--path=a,b,c"]))
@example(call=({"vertices": ["-", "é"], "adjacency": [[0, "inf"], [1, 0]]},
               ["--op=column-add", "--source=é", "--target=-"]))
@example(call=({"vertices": ['"', ""], "adjacency": [[1, 1], [0, 2]]},
               ["--op=remove-sources"]))
@example(call=({"vertices": ["a"], "adjacency": [[1]]}, ["--op=out-split", "--vertex=a"]))
@example(call=({"vertices": ["v", "w", "x"], "adjacency": [[0, "inf", 0], [0, 0, 1], [0, 0, 0]]},
               ["--op=move-t", "--path=v,w,x"]))
def test_move_exits_cleanly_and_its_trace_replays(tmp_path_factory, call):
    graph, options = call
    tmp = tmp_path_factory.mktemp("move")
    gpath, out, trace = tmp / "g.json", tmp / "out.json", tmp / "trace.json"
    gpath.write_text(json.dumps(graph), encoding="utf-8")
    argv = ["move", str(gpath), *options, f"--out={out}", f"--trace={trace}"]
    code, err = _run_cli(argv)
    assert _clean_exit(code, err), argv
    if code == 0:
        _assert_trace_replays(graph, trace, out)


def _assert_trace_replays(graph, trace, out):
    """The records in file ``trace`` replay the ``graph`` JSON to the graph in file ``out``."""
    cur = Graph.from_json(graph)
    for data in json.loads(trace.read_text(encoding="utf-8")):
        cur = replay(cur, MoveRecord.from_json(data))
    assert cur.to_json() == json.loads(out.read_text(encoding="utf-8"))


_valid_graphs = _square_graphs(_entries, min_size=1, max_size=5)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(graph=st.one_of(_valid_graphs, _valid_graphs, _valid_graphs,
                       _square_graphs(st.one_of(_entries, _entries, _cells), max_size=5),
                       json_trees))
@example(graph=mixed_emitter().to_json())
@example(graph={"vertices": ['"', "v^1", ""],
                "adjacency": [["inf", 1, 0], [0, 0, 2], [1, "inf", 0]]})
@example(graph={"vertices": ["a"], "adjacency": [["inf"]]})
def test_canonicalize_exits_cleanly_and_its_trace_replays(tmp_path_factory, graph):
    """A clean run's trace replays from the input to the written output.

    Its hashes are the run's first digests, so writing them imports ``hashlib``.
    ``canonicalize`` is total, so only a file that is not a graph exits 1.
    """
    tmp = tmp_path_factory.mktemp("canonicalize")
    gpath, out, trace = tmp / "g.json", tmp / "out.json", tmp / "trace.json"
    gpath.write_text(json.dumps(graph), encoding="utf-8")
    code, err = _run_cli(["canonicalize", str(gpath), f"--out={out}", f"--trace={trace}"])
    assert _clean_exit(code, err), graph
    if code == 0:
        _assert_trace_replays(graph, trace, out)
    else:
        with pytest.raises(GraphCKError):
            Graph.from_json(graph)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(corpus=st.integers(0, 3), max_vertices=st.integers(1, 4), seed=st.integers())
@example(corpus=3, max_vertices=4, seed=-1)
@example(corpus=0, max_vertices=1, seed=2**70)
def test_verify_exits_cleanly(corpus, max_vertices, seed):
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", f"--corpus={corpus}", f"--max-vertices={max_vertices}", f"--seed={seed}"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (
        0, f"{corpus}/{corpus} invariance checks passed\n", ""
    )


# Move-record JSON: any JSON at all; an object with all or some of a
# record's keys, whose kind is mostly a real one and whose params mostly
# carry fields that some kind needs, holding names or lists of names; or a
# well-formed record, which has every field that any kind needs.
_param_fields = st.sampled_from(["vertex", "classes", "path", "source", "target"])
_all_params = st.fixed_dictionaries(
    {"vertex": _names, "classes": st.lists(st.just("rest"), max_size=2),
     "path": st.lists(_names, max_size=3), "source": _names, "target": _names}
)
_record_fields = {
    "kind": st.one_of(st.sampled_from(MOVE_KINDS), _scalars),
    "params": st.one_of(
        st.dictionaries(_param_fields, st.one_of(_names, st.lists(_names, max_size=3), json_trees)),
        json_trees,
    ),
    "input-hash": st.one_of(st.just("0" * 64), _scalars),
    "output-hash": st.one_of(st.just("0" * 64), _scalars),
}
_records = st.one_of(
    json_trees,
    st.fixed_dictionaries(_record_fields),
    st.fixed_dictionaries({}, optional=_record_fields),
    st.fixed_dictionaries({"kind": st.sampled_from(MOVE_KINDS), "params": _all_params,
                           "input-hash": st.text(max_size=3), "output-hash": st.text(max_size=3)}),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=_records)
@example(data=["S"])
@example(data={"kind": "T", "params": {"path": ["a", 1]}, "input-hash": "", "output-hash": ""})
def test_move_record_from_json_raises_only_its_validation_error(data):
    try:
        rec = MoveRecord.from_json(data)
    except ValidationError as exc:
        assert str(exc).startswith("bad move record: "), data
    else:
        assert rec.to_json() == data
