"""Small graphs over {0, 1, 2, ∞} against the independent oracles of ``oracles.py``.

Every graph of one and two vertices, plus seeded draws of three and four
vertices.  Condition (K), dominance, stable completeness and the
K-theory pair are compared with their brute-force definitions, and each
``canonicalize`` trace is written to JSON, read back with
``MoveRecord.from_json`` and replayed onto the input.  New evidence next
to the {0, 1, ∞} sweeps of the acceptance tests, which check condition
(K) and admissible pairs.
"""

import json
import random
from itertools import product

import oracles

from graphck import (
    Graph,
    MoveRecord,
    canonicalize,
    condition_K,
    dominates,
    is_stably_complete,
    k_groups,
    replay,
)

ENTRIES = (0, 1, 2, "inf")
#: Seeded draws of three and four vertices, next to all 260 graphs of one and two.
DRAWS = 400


def _graphs() -> list:
    out = []
    for n in (1, 2):
        for flat in product(ENTRIES, repeat=n * n):
            out.append(Graph([f"v{i}" for i in range(n)], [flat[i * n : (i + 1) * n] for i in range(n)]))
    rng = random.Random(20261022)
    for _ in range(DRAWS):
        n = rng.choice((3, 4))
        rows = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)]
        out.append(Graph([f"v{i}" for i in range(n)], rows))
    return out


GRAPHS = _graphs()


def test_condition_K_matches_the_oracle():
    for g in GRAPHS:
        assert condition_K(g) == oracles.oracle_condition_K(g), g.to_json()


def test_dominance_matches_the_oracle():
    for g in GRAPHS:
        for v, w in product(g.vertices, repeat=2):
            assert dominates(g, v, w) == oracles.oracle_dominates(g, v, w), (g.to_json(), v, w)


def test_stable_completeness_matches_the_oracle():
    for g in GRAPHS:
        assert is_stably_complete(g).satisfied == oracles.oracle_stably_complete(g), g.to_json()


def test_k_groups_match_the_minor_gcd_oracle():
    for g in GRAPHS:
        pair = k_groups(g)
        got = (pair.k0_invariant_factors, pair.k0_free_rank, pair.k1_free_rank)
        assert got == oracles.oracle_k_pair(g), g.to_json()


def test_canonicalize_trace_round_trips_through_json_and_replays():
    for g in GRAPHS:
        out, trace = canonicalize(g)
        cur = g
        for rec in trace:
            again = MoveRecord.from_json(json.loads(json.dumps(rec.to_json())))
            assert again == rec
            cur = replay(cur, again)
        assert cur == out, g.to_json()
