"""Command-line front end.

Subcommands: analyze, canonicalize, move, ideals, corner, unitize,
ktheory, export-dot, verify.  Graphs travel as JSON files with ∞
spelled "inf"; exit status is 1 for validation and domain errors and 2
when the verification harness finds an invariant violation.  Exit status 2
also means a usage error, with ``usage: graphck`` on stderr; argparse reads a
separate value such as ``-1e+16`` as an option, so write ``--multiplicities=-1e+16``.

Importing this module loads ``graphck.errors`` and no other graphck module.
Each command imports the library modules it runs in its own body, so a call
loads only those (the README's "Command line" section lists them per
command); a usage error or ``--version`` loads none.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import compress
from json.encoder import encode_basestring

from . import __version__
from .errors import GraphCKError, ValidationError

#: The largest ``verify --max-vertices``.  Each item draws an n × n matrix for
#: some n up to it, so a large value would exhaust memory before any check ran.
VERIFY_MAX_VERTICES = 64


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    return _parse_json(text, path)


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValidationError(f"{source} nests JSON too deeply to read") from None


def _load_graph(path: str):
    from .graph import Graph

    return Graph.from_json(_read_json(path))


def _indented(data, pad: str = "\n") -> str:
    """``json.dumps(data, indent=2, ensure_ascii=False)``, each newline spelled ``pad``.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is
    set; this joins the same text from C-encoded pieces.  Exact ``str``,
    ``int``, ``list`` and ``dict`` with ``str`` keys are written here,
    anything else by ``json.dumps`` itself, so the bytes stay the same.
    """
    kind = type(data)
    if kind is str:
        return encode_basestring(data)
    if kind is int:
        return int.__repr__(data)
    if kind is bool or kind is float or data is None:
        return json.dumps(data)  # no container: the compact encoder writes the same text
    inner = pad + "  "
    if kind is list:
        if not data:
            return "[]"
        items = [_indented(x, inner) for x in data]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict and all(type(key) is str for key in data):
        if not data:
            return "{}"
        items = [encode_basestring(k) + ": " + _indented(v, inner) for k, v in data.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(data, indent=2, ensure_ascii=False).replace("\n", pad)


def _lattice_text(lattice) -> str:
    """``_indented(lattice.to_json())``, written from name texts and ``lattice.up``.

    A node is its H's text, made once for each run of nodes sharing one H,
    then its S's.  Pair (i, j) is row i's head ``[\\n      i,`` and column
    j's cell.  No node lies below an earlier one, so row i's cells are picked
    from column i on by the bit flags of ``row >> i``; no pair list is built.
    """
    from .ideals import _flags

    parts, h = ['{\n  "nodes": [\n    '], None
    for p in lattice.nodes:
        if p.h is not h:
            h = p.h
            head = '{\n      "H": ' + _names_text(h) + ',\n      "S": '
        parts += head, _names_text(p.s), "\n    },\n    "
    parts[-1] = '\n    }\n  ],\n  "order": [\n    '
    cells = [f"\n      {j}\n    ]" for j in range(len(lattice.nodes))]
    for i, row in enumerate(lattice.up):
        head = f"[\n      {i},"
        parts += head, (",\n    " + head).join(compress(cells[i:], _flags(row >> i))), ",\n    "
    parts[-1] = "\n  ]\n}"
    return "".join(parts)


def _names_text(names) -> str:
    """The sorted ``names`` as the indented JSON list of a lattice node's field."""
    if not names:
        return "[]"
    return "[\n        " + ",\n        ".join(map(encode_basestring, sorted(names))) + "\n      ]"


def _emit(data, out: str | None) -> None:
    text = data if isinstance(data, str) else _indented(data)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")  # not ``text + "\n"``: a lattice's text is large
    else:
        print(text)


@functools.cache  # built on the first call, not at import; parsing keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphck",
        description="moves, canonical forms, ideals, corners and K-theory "
        "for graphs with multiplicities in ℕ ∪ {∞}",
    )
    parser.add_argument("--version", action="version", version=f"graphck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="vertex classes, Condition (K), structural report")
    p.add_argument("graph")
    p.add_argument("--out", "-o")

    p = sub.add_parser("canonicalize", help="rewrite into stably complete form")
    p.add_argument("graph")
    p.add_argument("--out", "-o")
    p.add_argument("--trace", help="write the move trace JSON here")

    p = sub.add_parser("move", help="apply one named move")
    p.add_argument("graph")
    p.add_argument("--op", required=True,
                   choices=["out-split", "collapse", "remove-sources", "move-t",
                            "column-add", "split-breaking"])
    p.add_argument("--vertex", help="vertex parameter")
    p.add_argument("--path", help="comma-separated vertex path for move-t")
    p.add_argument("--source", help="source vertex for column-add")
    p.add_argument("--target", help="target vertex for column-add")
    p.add_argument("--partition", help="JSON partition classes for out-split")
    p.add_argument("--out", "-o")
    p.add_argument("--trace", help="write the move trace JSON here")

    p = sub.add_parser("ideals", help="admissible pairs and their lattice")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=int, default=16)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", "-o")

    p = sub.add_parser("corner", help="corner graph of a multiplicity vector")
    p.add_argument("graph")
    p.add_argument("--multiplicities", required=True,
                   help='JSON map vertex -> n, e.g. {"a": 2, "b": "inf"}')
    p.add_argument("--realize", action="store_true",
                   help="expand finite heads into an explicit graph")
    p.add_argument("--out", "-o")

    p = sub.add_parser("unitize", help="star graph of a corner graph JSON")
    p.add_argument("corner")
    p.add_argument("--out", "-o")

    p = sub.add_parser("ktheory", help="K-theory pair of a graph")
    p.add_argument("graph")
    p.add_argument("--out", "-o")

    p = sub.add_parser("export-dot", help="DOT rendering of a graph")
    p.add_argument("graph")
    p.add_argument("--out", "-o")

    p = sub.add_parser("verify", help="random-corpus invariance harness")
    p.add_argument("--corpus", type=int, default=100)
    p.add_argument("--max-vertices", type=int, default=6,
                   help=f"largest graph drawn, 1 to {VERIFY_MAX_VERTICES} (default 6)")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_analyze(args) -> int:
    from .canonical import is_stably_complete
    from .graph import condition_K, vertex_class

    g = _load_graph(args.graph)
    report = is_stably_complete(g)
    data = {
        "vertices": {v: vertex_class(g, v).to_json() for v in g.vertices},
        "condition_K": condition_K(g),
        "stably_complete": report.to_json(),
    }
    _emit(data, args.out)
    return 0


def _cmd_canonicalize(args) -> int:
    from .canonical import canonicalize

    g = _load_graph(args.graph)
    out, trace = canonicalize(g)
    _emit(out.to_json(), args.out)
    if args.trace:
        _emit([r.to_json() for r in trace], args.trace)
    return 0


def _cmd_move(args) -> int:
    from .moves import _remove_sources, apply_move

    g = _load_graph(args.graph)
    if args.op == "remove-sources":
        out, trace = _remove_sources(g)
    else:
        kind, params = _move_params(args)
        out, rec = apply_move(g, kind, params)
        trace = [rec]
    _emit(out.to_json(), args.out)
    if args.trace:
        _emit([r.to_json() for r in trace], args.trace)
    return 0


def _move_params(args):
    def need(name):
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise GraphCKError(f"--{name} is required for --op {args.op}")
        return value

    if args.op == "collapse":
        return "COLLAPSE", {"vertex": need("vertex")}
    if args.op == "split-breaking":
        return "BREAKSPLIT", {"vertex": need("vertex")}
    if args.op == "move-t":
        return "T", {"path": need("path").split(",")}
    if args.op == "column-add":
        return "COLADD", {"source": need("source"), "target": need("target")}
    if args.op == "out-split":
        return "O", {
            "vertex": need("vertex"),
            "classes": _parse_json(need("partition"), "--partition"),
        }
    raise GraphCKError(f"unknown op {args.op!r}")


def _cmd_ideals(args) -> int:
    from .ideals import admissible_pairs

    if args.max_vertices < 0:
        raise ValidationError(f"--max-vertices must be >= 0, got {args.max_vertices}")
    g = _load_graph(args.graph)
    lattice = admissible_pairs(g, max_vertices=args.max_vertices)
    if args.format == "dot":
        _emit(lattice.to_dot(), args.out)
    else:
        _emit(_lattice_text(lattice), args.out)
    return 0


def _cmd_corner(args) -> int:
    from .corners import corner_graph, realize
    from .extnat import ExtNat

    g = _load_graph(args.graph)
    data = _parse_json(args.multiplicities, "--multiplicities")
    if not isinstance(data, dict):
        raise ValidationError("--multiplicities must be a JSON object of vertex -> n")
    mult = {v: ExtNat.of(x) for v, x in data.items()}
    cg = corner_graph(g, mult)
    if args.realize:
        _emit(realize(cg).to_json(), args.out)
    else:
        _emit(cg.to_json(), args.out)
    return 0


def _cmd_unitize(args) -> int:
    from .corners import CornerGraph, unitize

    cg = CornerGraph.from_json(_read_json(args.corner))
    _emit(unitize(cg).to_json(), args.out)
    return 0


def _cmd_ktheory(args) -> int:
    from .ktheory import k_groups

    g = _load_graph(args.graph)
    _emit(k_groups(g).to_json(), args.out)
    return 0


def _cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    _emit(g.to_dot(), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .corpus import verify_corpus

    if args.max_vertices < 1:
        raise ValidationError(f"--max-vertices must be >= 1, got {args.max_vertices}")
    if args.max_vertices > VERIFY_MAX_VERTICES:
        raise ValidationError(
            f"--max-vertices must be <= {VERIFY_MAX_VERTICES}, got {args.max_vertices}"
        )
    if args.corpus < 0:
        raise ValidationError(f"--corpus must be >= 0, got {args.corpus}")
    passed, failures = verify_corpus(args.corpus, args.max_vertices, args.seed)
    print(f"{passed}/{args.corpus} invariance checks passed")
    for index, graph_json, message in failures:
        print(f"item {index}: {message}", file=sys.stderr)
        print(f"  graph: {json.dumps(graph_json)}", file=sys.stderr)
    return 0 if not failures else 2


_COMMANDS = {
    "analyze": _cmd_analyze,
    "canonicalize": _cmd_canonicalize,
    "move": _cmd_move,
    "ideals": _cmd_ideals,
    "corner": _cmd_corner,
    "unitize": _cmd_unitize,
    "ktheory": _cmd_ktheory,
    "export-dot": _cmd_export_dot,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphCKError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
