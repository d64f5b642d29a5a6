"""Smoke test of the benchmark: tiny runs of every workload, plus its oracles.

    python3 -m pytest bench/test_smoke.py -q

A tiny run (``--seconds 1``) of each workload must print every metric
that BENCHMARK.json names, with its unit, and the attempted and failed
counts, with every output check passing; two traced runs of one seed
must give the same per-layer counts.  The oracles the checks rely on
must agree with the test suite's brute-force oracles on small graphs.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from oracles import (  # noqa: E402
    oracle_admissible_pair_count,
    oracle_dominates,
    oracle_invariant_factors,
    oracle_simple_cycle_count,
)

import run  # noqa: E402
import workloads  # noqa: E402
from graphck import admissible_pairs, random_graph, reg_matrix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Malformed CLI invocations per ``queries`` round, which fail until ``main`` handles them.
QUERIES_FAILED_PER_ROUND = 5


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expect_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    _expect_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # one round at --seconds 1; only the malformed CLI invocations fail
    assert result["failed"] == (QUERIES_FAILED_PER_ROUND if workload == "queries" else 0)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_repeat_their_counts(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    _expect_metrics(first, SPEC["per_layer"])
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] != "ms"}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def _small_graphs(count: int, max_vertices: int):
    rng = random.Random(11)
    return [random_graph(random.Random(rng.getrandbits(64)), max_vertices) for _ in range(count)]


def test_cycle_counts_and_dominance_agree_with_brute_force():
    for g in _small_graphs(300, 4):
        a = oracle.entries(g)
        d = oracle.dominance(a)
        for i, v in enumerate(g.vertices):
            assert oracle.cycle_count(a, d, i) == oracle_simple_cycle_count(g, v), g.to_json()
            for j, w in enumerate(g.vertices):
                assert d[i][j] == oracle_dominates(g, v, w), g.to_json()


def test_invariant_factors_agree_with_minors():
    for g in _small_graphs(300, 5):
        m = oracle.relation_matrix(g)
        assert m == reg_matrix(g)
        if m and m[0]:
            want = oracle_invariant_factors(m)
            assert oracle._dense_factors(m) == want, m
            assert oracle.invariant_factors(oracle.relation_columns(oracle.entries(g))) == want, m


def test_admissible_pairs_agree_with_the_pair_count():
    for g in _small_graphs(200, 5):
        assert len(oracle.admissible_pairs(g)) == oracle_admissible_pair_count(g), g.to_json()


def test_lattice_checks_reject_a_wrong_order_or_wrong_covers():
    g = workloads._block_graph(workloads.QUERY_SHAPES[1], random.Random(5), "v")
    pairs = oracle.admissible_pairs(g)
    lattice = admissible_pairs(g)
    data = lattice.to_json()
    oracle.check_lattice_json(json.dumps(data), pairs)
    oracle.check_dot_lattice(lattice.to_dot(), pairs)
    strict = sorted(p for p in data["order"] if p[0] != p[1])
    with pytest.raises(ValueError):
        oracle.check_lattice_json(json.dumps({**data, "order": data["order"][:-1]}), pairs)
    with pytest.raises(ValueError):
        oracle.check_lattice_json(json.dumps({**data, "nodes": data["nodes"][:-1]}), pairs)
    nodes_only = "\n".join(line for line in lattice.to_dot().split("\n") if "->" not in line)
    every_pair = nodes_only[:-1] + "".join(f"  n{i} -> n{j};\n" for i, j in strict) + "}"
    for dot in (nodes_only, every_pair):
        with pytest.raises(ValueError):
            oracle.check_dot_lattice(dot, pairs)


def test_an_operation_that_raises_unexpectedly_makes_the_run_incorrect(monkeypatch, tmp_path):
    def broken(seed, seconds, workdir):
        return [lambda: 1, lambda: 1 // 0], lambda i, result: [], frozenset()

    monkeypatch.setitem(workloads.WORKLOADS, "worst", broken)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "setup_seconds", lambda: 1.0)
    record = run.run_workload("worst", 1, 1, trace=False)
    assert record["correct"] is False and (record["attempted"], record["failed"]) == (2, 1)
