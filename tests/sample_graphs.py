"""Small named graphs shared across the test suite."""

import random

from graphck import make_graph


def two_loops():
    # one vertex carrying two loops
    return make_graph(["a"], [[2]])


def one_loop():
    return make_graph(["a"], [[1]])


def edge_to_sink():
    return make_graph(["a", "b"], [[0, 1], [0, 0]])


def inf_to_loop():
    # infinite emitter v feeding a looped regular vertex
    return make_graph(["v", "w"], [[0, "inf"], [0, 1]])


def looped_pair():
    # infinite emitter with a loop, plus a regular companion on a shared cycle
    return make_graph(["v", "w"], [["inf", "inf"], [1, 2]])


def chain_dominated():
    # regular w dominating a loopless infinite emitter v
    return make_graph(["w", "v", "x"], [[1, 1, 1], [0, 0, "inf"], [0, 0, 1]])


def inf_dag():
    # loopless infinite emitters with no regular vertex anywhere
    return make_graph(["u", "v", "x"], [[0, "inf", "inf"], [0, 0, "inf"], [0, 0, 0]])


def mixed_emitter():
    # u emits infinitely to w and twice to z; w and z carry two loops
    return make_graph(["u", "w", "z"], [[0, "inf", 2], [0, 2, 0], [0, 0, 2]])


def block_graph(seed):
    """Twelve vertices in nine cyclic blocks, upper-triangular, with four ∞ edges.

    Seed 1 gives a lattice of 400 admissible pairs.
    """
    blocks = [2, 1, 1, 1, 2, 1, 1, 1, 2]
    rng, pattern = random.Random(seed), random.Random(6)
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
            if owner[j] > owner[i] and pattern.random() < 0.08:
                rows[i][j] = rng.randint(1, 2)
    for i in pattern.sample(range(n - blocks[-1]), 4):
        rows[i][pattern.choice([j for j in range(n) if owner[j] > owner[i]])] = "inf"
    return make_graph([f"b{i}" for i in range(n)], rows)
