"""The four workloads: their inputs, their operations and their checks.

``WORKLOADS[name](seed, seconds, workdir)`` builds a workload's inputs
and returns ``(ops, check, may_fail)``.  ``ops`` is the run's fixed
list of zero-argument callables, one per operation, each looking the
library function up on its module at call time so a traced run sees
its wrappers.  ``check(i, result)`` gets operation ``i``'s return
value, outside the timed region, and returns the problems it finds; it
also sums ``check.bytes_out`` where the workload writes CLI output.
``may_fail`` holds the indices of the operations that are expected to
raise; any other operation that raises makes the run incorrect.

The list is fixed by ``seconds`` alone: ``seconds`` sizes the run at a
rate tuned for a run of ``NOMINAL_SECONDS``, never by a clock.  Every
input is used once per process, so caches keyed by graph content (such
as ``ktheory._snf_of``) never turn an operation into a lookup.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import partial
from pathlib import Path

from graphck import canonical, cli, corners, corpus, ktheory, moves, projcalc
from graphck.graph import EdgeRef, Graph
from graphck.projcalc import CoefficientSystem, ProjectionSequence

import oracle

BENCH = Path(__file__).resolve().parent
NOMINAL_SECONDS = 10
WORST_INPUTS = BENCH / "worst_inputs.json"


def _scaled(per_nominal_run: int, seconds: int) -> int:
    return max(1, per_nominal_run * seconds // NOMINAL_SECONDS)


def _check_canonical(g: Graph, out: Graph, trace: list, want: dict) -> list:
    """The canonical output of ``g``: replayable, stably complete, same K-theory."""
    problems = []
    cur = g
    for rec in trace:
        cur = moves.replay(cur, rec)
    if cur != out:
        problems.append("the trace does not replay to the output")
    bad = oracle.stable_completeness_violations(out)
    if bad:
        problems.append(f"output violates stable completeness: {bad[:3]}")
    if oracle.k_pair(out) != want:
        problems.append(f"output K-theory {oracle.k_pair(out)} != input {want}")
    return problems


def _check_k_groups(g: Graph, want: dict) -> list:
    got = ktheory.k_groups(g).to_json()
    return [] if got == want else [f"k_groups {got} != independent {want}"]


# -- verify --------------------------------------------------------------------

#: Items of the invariance harness per nominal run.  The item seeds are
#: 0, 1, 2, ... whatever the workload seed: seeded draws of <= 6 vertices
#: have a tail reaching tens of seconds, so a list drawn per seed could
#: not repeat its throughput or slowest item (see README).
VERIFY_ITEMS = 2000


def verify(seed: int, seconds: int, workdir: Path):
    item_seeds = range(_scaled(VERIFY_ITEMS, seconds))
    ops = [partial(_verify_item, s) for s in item_seeds]

    def check(i, result):
        passed, failures = result
        problems = [] if passed == 1 else [f"the harness reports {failures}"]
        return [f"item {i}: {p}" for p in problems + _replay_verify_item(i)]

    return ops, check, frozenset()


def _verify_item(s: int):
    return corpus.verify_corpus(1, 6, s)


def _replay_verify_item(s: int) -> list:
    """Redraw item ``s`` as ``verify_corpus`` draws it and check every graph of it."""
    item = random.Random(random.Random(s).getrandbits(64))
    g = corpus.random_graph(item, max_vertices=6)
    want = oracle.k_pair(g)
    problems = _check_k_groups(g, want)
    cur = g
    for _ in range(item.randint(1, 3)):
        mv = corpus.random_move(cur, item)
        if mv is None:
            break
        nxt, rec = moves.apply_move(cur, mv[0], mv[1])
        if moves.replay(cur, rec) != nxt:
            problems.append(f"move {mv[0]} does not replay")
        if oracle.k_pair(nxt) != want:
            problems.append(f"move {mv[0]} changed K-theory to {oracle.k_pair(nxt)}")
        cur = nxt
    out, trace = canonical.canonicalize(g)
    return problems + _check_canonical(g, out, trace, want)


# -- worst ---------------------------------------------------------------------


def worst(seed: int, seconds: int, workdir: Path):
    """Pinned inputs, cheapest first; ``seed`` is not used."""
    pinned = json.loads(WORST_INPUTS.read_text(encoding="utf-8"))["inputs"]
    graphs = [Graph.from_json(p["graph"]) for p in pinned[: _scaled(len(pinned), seconds)]]
    ops = [partial(_worst_op, g) for g in graphs]

    def check(i, result):
        g = graphs[i]
        out, trace, report = result
        want = oracle.k_pair(g)
        found = _check_k_groups(g, want) + _check_canonical(g, out, trace, want)
        if not report.satisfied:
            found.append(f"is_stably_complete reports {report.violations}")
        return [f"pinned input {i}: {p}" for p in found]

    return ops, check, frozenset()


def _worst_op(g: Graph):
    out, trace = canonical.canonicalize(g)
    return out, trace, canonical.is_stably_complete(out)


# -- queries -------------------------------------------------------------------

#: Block shapes: sizes of the strongly connected blocks in upper-triangular
#: order, the seed of the fixed edge pattern between blocks, the number of
#: infinite emitters and the density of edges between blocks.  The shape
#: fixes the lattice; the workload seed only draws the finite multiplicities.
QUERY_SHAPES = [
    ([2, 1, 2, 1, 2], 1, 2, 0.3),  # 8 vertices, 10 admissible pairs
    ([1, 2, 1, 2, 1, 2], 2, 3, 0.25),  # 9 vertices, 19 pairs
    ([2, 2, 1, 2, 2, 1], 3, 3, 0.2),  # 10 vertices, 63 pairs
    ([2, 1, 2, 1, 2, 1, 2, 1], 2, 3, 0.08),  # 12 vertices, 104 pairs
    ([2, 1, 1, 1, 2, 1, 1, 1, 2], 1, 5, 0.08),  # 12 vertices, 187 pairs
    ([2, 1, 1, 1, 2, 1, 1, 1, 2], 6, 4, 0.08),  # 12 vertices, 400 pairs
]
QUERY_ROUNDS = 6
QUERY_COMMANDS = ("analyze", "ideals", "ideals-dot", "ktheory", "export-dot")


def _block_graph(shape, rng: random.Random, prefix: str) -> Graph:
    """Strongly connected cycles in upper-triangular order, with infinite emitters."""
    blocks, pattern_seed, emitters, density = shape
    pattern = random.Random(pattern_seed)
    n = sum(blocks)
    owner = [b for b, size in enumerate(blocks) for _ in range(size)]
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in blocks:
        for k in range(size):
            rows[start + k][start + (k + 1) % size] = rng.randint(1, 2)
        start += size
    for i in range(n):
        for j in range(n):
            if owner[j] > owner[i] and pattern.random() < density:
                rows[i][j] = rng.randint(1, 2)
    for i in pattern.sample(range(n - blocks[-1]), emitters):
        rows[i][pattern.choice([j for j in range(n) if owner[j] > owner[i]])] = "inf"
    return Graph([f"{prefix}{i}" for i in range(n)], rows)


#: Malformed invocations kept in every round.  Each fails for as long as
#: ``main`` raises instead of returning 1 with one ``error:`` line.
MALFORMED = [
    ["analyze", "{bad}"],  # TypeError
    ["move", "{plain}", "--op", "out-split", "--vertex", "a", "--partition", "5"],  # TypeError
    ["corner", "{plain}", "--multiplicities", "[1]"],  # AttributeError
    ["unitize", "{plain}"],  # KeyError
    ["verify", "--max-vertices", "0"],  # ValueError
]


def _cli(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def queries(seed: int, seconds: int, workdir: Path):
    rng = random.Random(seed)
    bad, plain = workdir / "bad.json", workdir / "plain.json"
    bad.write_text(json.dumps({"vertices": ["a"], "adjacency": 5}), encoding="utf-8")
    plain.write_text(json.dumps({"vertices": ["a", "b"], "adjacency": [[1, 1], [0, 1]]}),
                     encoding="utf-8")
    malformed = [[a.format(bad=bad, plain=plain) for a in argv] for argv in MALFORMED]
    ops, plan = [], []
    for r in range(_scaled(QUERY_ROUNDS, seconds)):
        for k, shape in enumerate(QUERY_SHAPES):
            g = _block_graph(shape, rng, f"r{r}s{k}q")
            path = workdir / f"g{r}_{k}.json"
            path.write_text(json.dumps(g.to_json()), encoding="utf-8")
            for command in QUERY_COMMANDS:
                out = workdir / f"g{r}_{k}.{command}.out"
                argv = {
                    "ideals": ["ideals", str(path)],
                    "ideals-dot": ["ideals", str(path), "--format", "dot"],
                }.get(command, [command, str(path)])
                ops.append(partial(_cli, argv + ["-o", str(out)]))
                plan.append((command, g, out))
        for argv in malformed:
            ops.append(partial(_cli, argv))
            plan.append(("malformed", argv, None))

    lattices = {}  # graph -> its admissible pairs, counted by the test suite's oracle too

    def check(i, result):
        command, g, out = plan[i]
        code, stdout, stderr = result
        if command == "malformed":
            lines = stderr.splitlines()
            if code != 1 or len(lines) != 1 or not lines[0].startswith("error:"):
                return [f"{g}: exit {code}, stderr {stderr!r}"]
            return []
        if code != 0 or stderr or stdout:
            return [f"{command} on {g.vertices[0]}...: exit {code}, stderr {stderr!r}"]
        text = out.read_text(encoding="utf-8")
        check.bytes_out += len(text.encode("utf-8"))
        if command in ("ideals", "ideals-dot") and g not in lattices:
            lattices[g] = oracle.admissible_pairs(g)
            if len(lattices[g]) != oracle.admissible_pair_count(g):
                return [f"{command} on {g.vertices[0]}...: the two pair oracles disagree"]
        try:
            _check_query(command, g, text, lattices.get(g))
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{command} on {g.n}-vertex {g.vertices[0]}...: {exc}"]
        return []

    check.bytes_out = 0
    may_fail = frozenset(i for i, (command, _, _) in enumerate(plan) if command == "malformed")
    return ops, check, may_fail


def _vertex_kind(row) -> str:
    if oracle.INF in row:
        return "infinite-emitter"
    return "regular" if sum(row) else "sink"


def _check_query(command: str, g: Graph, text: str, pairs) -> None:
    """Raise ValueError when one query's output is wrong."""
    if command == "analyze":
        data = json.loads(text)
        kinds = {v: _vertex_kind([x.to_json() for x in row]) for v, row in zip(g.vertices, g.adjacency)}
        if {v: c["kind"] for v, c in data["vertices"].items()} != kinds:
            raise ValueError("vertex kinds differ from the adjacency")
        if data["condition_K"] != oracle.condition_K(g):
            raise ValueError("condition_K differs from the oracle")
        complete = not oracle.stable_completeness_violations(g)
        if data["stably_complete"]["satisfied"] != complete:
            raise ValueError("stable completeness differs from the oracle")
    elif command == "ideals":
        oracle.check_lattice_json(text, pairs)
    elif command == "ideals-dot":
        oracle.check_dot_lattice(text, pairs)
    elif command == "ktheory":
        if json.loads(text) != oracle.k_pair(g):
            raise ValueError("K-theory pair differs from the oracle")
    else:
        oracle.check_dot_graph(text, g)


# -- corner --------------------------------------------------------------------

#: Operations per nominal run; they cycle through the graph kinds, and each
#: kind alternates between a head-only sequence and one with a tail.
CORNER_OPS = 1200
CORNER_KINDS = ("looped", "dominated", "undominated", "canonical")
#: Size parameter per kind, cycled so every run holds the same sizes.
CORNER_SIZES = {"looped": (0, 1, 2), "dominated": (1, 2, 3), "undominated": (2, 3, 4)}


def _looped(rng: random.Random, k: int) -> Graph:
    """v: an infinite emitter with a loop; w: its regular companion; k satellites."""
    n = k + 2
    rows = [[0] * n for _ in range(n)]
    rows[0] = ["inf"] * n
    rows[1][0] = rng.randint(1, 2)
    rows[1][1] = 2
    for i in range(2, n):
        rows[1][i] = rng.randint(1, 2)
        rows[i][i] = 1
    return Graph(["v", "w"] + [f"s{i}" for i in range(k)], rows)


def _dominated(rng: random.Random, k: int) -> Graph:
    """A looped regular w above a loopless infinite emitter v feeding k looped targets."""
    n = k + 2
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    rows[0][1] = rng.randint(1, 2)
    for i in range(2, n):
        rows[0][i] = rng.randint(1, 2)
        rows[1][i] = "inf"
        rows[i][i] = 1
    return Graph(["w", "v"] + [f"x{i}" for i in range(k)], rows)


def _undominated(rng: random.Random, k: int) -> Graph:
    """A transitively closed acyclic pattern of k infinite emitters and sinks."""
    above = [[j > i and rng.random() < 0.6 for j in range(k)] for i in range(k)]
    above[0][k - 1] = True
    for m in range(k):
        for i in range(k):
            for j in range(k):
                above[i][j] = above[i][j] or (above[i][m] and above[m][j])
    rows = [["inf" if above[i][j] else 0 for j in range(k)] for i in range(k)]
    return Graph([f"u{i}" for i in range(k)], rows)


def _canonical_graph(item: int) -> Graph:
    """Item ``item`` of the <= 6-vertex corpus draw, canonicalized.

    These graphs, and their sequences drawn from ``Random(item)``, are the
    same whatever the workload seed: canonical outputs carry multiplicities
    up to ~30, so the head totals of their corners span ~100 to ~1200
    between draws, and ``realize`` grows with the square of that.
    """
    rng = random.Random(random.Random(item).getrandbits(64))
    return canonical.canonicalize(corpus.random_graph(rng, max_vertices=6))[0]


def _random_T(rng: random.Random, g: Graph, v: str, max_size: int) -> list:
    pool = [EdgeRef(v, w, i) for w in g.vertices if g.a(v, w).is_infinite for i in range(4)]
    return rng.sample(pool, rng.randint(1, min(max_size, len(pool))))


def _closure(a: list, support: set) -> set:
    """The saturation of the hereditary closure of ``support``."""
    n = len(a)
    d = oracle.dominance(a)
    closed = {w for v in support for w in range(n) if w == v or d[v][w]}
    grew = True
    while grew:
        grew = False
        for v in range(n):
            row = a[v]
            if v not in closed and oracle.is_regular(row) and all(
                w in closed for w in range(n) if row[w]
            ):
                closed.add(v)
                grew = True
    return closed


def _full_sequence(rng: random.Random, g: Graph, with_tail: bool) -> ProjectionSequence:
    """A random full projection sequence: systems of (v, T) terms, then a tail."""
    inf_emitters = [v for v in g.vertices if g.is_infinite_emitter(v)]
    systems = []
    for _ in range(rng.randint(1, 3)):
        items = []
        for v in g.vertices:
            if rng.random() < 0.5:
                items.append((v, [], rng.randint(1, 3)))
            if v in inf_emitters and rng.random() < 0.4:
                items.append((v, _random_T(rng, g, v, 3), rng.randint(1, 2)))
        if items:
            systems.append(CoefficientSystem.make(items))
    if not systems:
        systems.append(CoefficientSystem.make([(g.vertices[0], [], 1)]))
    tail = None
    if with_tail:
        items = [(rng.choice(g.vertices), [], 1)]
        if inf_emitters and rng.random() < 0.7:
            u = rng.choice(inf_emitters)
            items.append((u, _random_T(rng, g, u, 2), 1))
        tail = CoefficientSystem.make(items)
    seq = ProjectionSequence(tuple(systems), tail)
    a = oracle.entries(g)
    while True:
        closed = _closure(a, {g.index(v) for v in seq.support()})
        missing = [v for i, v in enumerate(g.vertices) if i not in closed]
        if not missing:
            break
        extra = CoefficientSystem.make([(missing[0], [], 1)])
        seq = ProjectionSequence(seq.head + (extra,), seq.tail)
    return seq


def corner(seed: int, seconds: int, workdir: Path):
    seeded = random.Random(seed)
    inputs = []
    for i in range(_scaled(CORNER_OPS, seconds)):
        kind = CORNER_KINDS[i % len(CORNER_KINDS)]
        turn = i // len(CORNER_KINDS)
        if kind == "canonical":
            rng = random.Random(turn)
            base = _canonical_graph(turn)
        else:
            rng = seeded
            sizes = CORNER_SIZES[kind]
            base = {"looped": _looped, "dominated": _dominated, "undominated": _undominated}[
                kind](rng, sizes[turn % len(sizes)])
        # fresh names per operation: no two operations share an input
        g = base.relabeled({v: f"{v}#{i}" for v in base.vertices})
        if oracle.stable_completeness_violations(g):
            raise RuntimeError(f"generated {kind} graph is not stably complete")
        inputs.append((g, _full_sequence(rng, g, with_tail=turn % 2 == 1)))
    ops = [partial(_corner_op, g, seq) for g, seq in inputs]

    def check(i, result):
        g = inputs[i][0]
        return [f"{g.n}-vertex {g.vertices[0]}: {p}" for p in _check_corner(g, *result)]

    return ops, check, frozenset()


def _corner_op(g: Graph, seq: ProjectionSequence):
    mult = projcalc.corner_pipeline(g, seq)
    cg = corners.corner_graph(g, mult)
    star = corners.unitize(cg)
    real = spiked = None
    if all(h.is_finite for _, h in cg.heads):
        real = corners.realize(cg)
        if any(h for _, h in cg.heads):
            # the star vertex is then regular: one spike per path it sends into the base
            spiked = corners.build_EH(star, g.vertices)
    return mult, cg, star, real, spiked


def _check_corner(g, mult, cg, star, real, spiked) -> list:
    """The contracts of acceptance tests c4 and c6."""
    problems = []
    if set(mult) != set(g.vertices) or not all(m >= 1 for m in mult.values()):
        problems.append(f"multiplicities {mult} are not all >= 1")
        return problems
    heads = [(v, mult[v].dec()) for v in g.vertices]
    if list(cg.heads) != heads:
        problems.append("corner heads are not the multiplicities less one")
    new = [v for v in star.vertices if not g.has_vertex(v)]
    if star.n != g.n + 1 or len(new) != 1:
        problems.append("the star graph does not add exactly one vertex")
    else:
        a = oracle.entries(star)
        s = star.index(new[0])
        row, col = a[s], [r[s] for r in a]
        kind = _vertex_kind(row)
        want = ("infinite-emitter" if any(h.is_infinite for _, h in heads)
                else "regular" if any(heads_v for _, heads_v in heads) else "sink")
        if any(col) or kind != want or row[:-1] != [h.to_json() for _, h in heads]:
            problems.append(f"star vertex is a {kind} with row {row}, expected a {want}")
    if real is not None:
        total = sum(int(h) for _, h in heads)
        if real.n != g.n + total:
            problems.append("realize does not add one vertex per head step")
        if oracle.k_pair(real) != oracle.k_pair(g):
            problems.append("realize changed the K-theory pair")
    if spiked is not None and spiked.n - g.n != sum(int(h) for _, h in heads):
        problems.append("build_EH does not add one spike per head step")
    return problems


WORKLOADS = {"verify": verify, "worst": worst, "queries": queries, "corner": corner}
