"""Independent brute-force oracles.

Everything in this module recomputes library answers from first
principles along a different code path: boolean matrix powers instead
of searches, explicit bounded path enumeration instead of capped DFS,
and minor-gcd invariant factors instead of Smith reduction.  The tests
compare library output against these, never the library against itself.
``is_isomorphic`` has no library counterpart: tests use it to compare
graphs up to a renaming of their vertices.
"""

from itertools import combinations
from math import gcd


def _bool_adj(g):
    return [[bool(m) for m in row] for row in g.adjacency]


def oracle_reaches(g, v, w):
    """Reflexive-transitive reachability by boolean matrix powers."""
    n = g.n
    reach = [[i == j for j in range(n)] for i in range(n)]
    adj = _bool_adj(g)
    for _ in range(n):
        new = [
            [reach[i][j] or any(reach[i][k] and adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if new == reach:
            break
        reach = new
    return reach[g.index(v)][g.index(w)]


def oracle_dominates(g, v, w):
    n = g.n
    adj = _bool_adj(g)
    return any(
        adj[g.index(v)][k] and oracle_reaches(g, g.vertices[k], w) for k in range(n)
    )


def oracle_hereditary(g, H):
    H = set(H)
    return all(
        (v not in H) or (w in H)
        for v in g.vertices
        for w in g.vertices
        if g.a(v, w)
    )


def oracle_saturated(g, H):
    H = set(H)
    for v in g.vertices:
        if not g.is_regular(v):
            continue
        targets = {w for w in g.vertices if g.a(v, w)}
        if targets <= H and v not in H:
            return False
    return True


def oracle_simple_cycles_at_least_two(g, v):
    """Explicit enumeration of simple cycles based at v, stopping at 2.

    A simple cycle may revisit interior vertices; two visits per
    interior vertex and two parallel-edge indices per step are enough to
    witness a count of two, so enumeration over that finite space is
    exhaustive for the 0/1/2+ answer.
    """
    found = set()
    limit = 2

    def walk(at, edges, visits):
        if len(found) >= limit:
            return
        for w in g.vertices:
            m = g.a(at, w)
            top = 2 if m.is_infinite else min(int(m), 2)
            for i in range(top):
                step = (at, w, i)
                if w == v:
                    found.add(tuple(edges + [step]))
                    if len(found) >= limit:
                        return
                elif visits.get(w, 0) < 2 and len(edges) < 2 * g.n + 2:
                    nv = dict(visits)
                    nv[w] = nv.get(w, 0) + 1
                    walk(w, edges + [step], nv)

    walk(v, [], {})
    return len(found) >= limit


def oracle_simple_cycle_count(g, v):
    """0, 1 or 2-meaning-at-least-two, by explicit enumeration."""
    if oracle_simple_cycles_at_least_two(g, v):
        return 2
    # at most one: count interior-vertex-simple cycles exactly
    count = 0

    def walk(at, seen, mult):
        nonlocal count
        for w in g.vertices:
            m = g.a(at, w)
            k = 2 if m.is_infinite else int(m)
            if k == 0:
                continue
            if w == v:
                count += min(mult * k, 2)
            elif w not in seen:
                walk(w, seen | {w}, min(mult * k, 2))

    walk(v, frozenset(), 1)
    return min(count, 2)


def oracle_condition_K(g):
    return all(oracle_simple_cycle_count(g, v) != 1 for v in g.vertices)


def oracle_admissible_pair_count(g):
    """Count admissible pairs straight from the definitions."""
    total = 0
    vs = list(g.vertices)
    for k in range(g.n + 1):
        for combo in combinations(vs, k):
            H = set(combo)
            if not (oracle_hereditary(g, H) and oracle_saturated(g, H)):
                continue
            breaking = 0
            for v in vs:
                if not g.is_infinite_emitter(v):
                    continue
                out = [g.a(v, w) for w in vs if w not in H]
                if any(x.is_infinite for x in out):
                    continue
                s = sum(int(x) for x in out)
                if s >= 1:
                    breaking += 1
            total += 2**breaking
    return total


def _minor_dets(m, k):
    rows = range(len(m))
    cols = range(len(m[0]) if m else 0)
    for rsel in combinations(rows, k):
        for csel in combinations(cols, k):
            yield _det([[m[i][j] for j in csel] for i in rsel])


def _det(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(minor)
    return total


def oracle_invariant_factors(m):
    """All invariant factors (including 1s) via gcds of k × k minors."""
    if not m or not m[0]:
        return []
    out = []
    prev = 1
    k = 1
    while k <= min(len(m), len(m[0])):
        d = 0
        for det in _minor_dets(m, k):
            d = gcd(d, det)
            if d == 1:
                break
        if d == 0:
            break
        out.append(d // prev)
        prev = d
        k += 1
    return out


def oracle_same_k0_class(m, x, y):
    """Whether x − y lies in the column lattice of m.

    Appending a column v to m keeps its invariant factors exactly when v
    already lies in the lattice: otherwise the lattice either gains rank
    or, at equal rank, has a smaller index in its saturation, so the
    product of the factors drops.
    """
    diff = [a - b for a, b in zip(x, y)]
    return oracle_invariant_factors(m) == oracle_invariant_factors(
        [row + [d] for row, d in zip(m, diff)]
    )


def oracle_k_pair(g):
    """(K₀ torsion factors, K₀ free rank, K₁ free rank) by minor gcds.

    The relation matrix has one column per regular vertex, one with
    finitely many edges out and at least one: its row of A, minus 1 on
    the diagonal.  K₀ is the cokernel and K₁ the kernel of that matrix.
    """
    a = g.adjacency
    regular = [
        j for j, row in enumerate(a)
        if not any(x.is_infinite for x in row) and sum(int(x) for x in row) > 0
    ]
    m = [[int(a[j][i]) - (i == j) for j in regular] for i in range(g.n)]
    factors = oracle_invariant_factors(m)
    rank = len(factors)
    return tuple(d for d in factors if d > 1), g.n - rank, len(regular) - rank


def oracle_stably_complete(g):
    """The five structural conditions of a stably complete graph, from the definitions.

    A regular vertex has a loop; a vertex on two simple cycles has two
    loops; a vertex that dominates w has an edge to w, infinitely many
    when it is an infinite emitter; and a looped infinite emitter shares
    a cycle with a regular vertex.
    """
    a, vs = g.adjacency, g.vertices
    emitter = [any(x.is_infinite for x in row) for row in a]
    regular = [not e and sum(int(x) for x in row) > 0 for e, row in zip(emitter, a)]
    dom = [[oracle_dominates(g, v, w) for w in vs] for v in vs]
    for i, v in enumerate(vs):
        loops = a[i][i]
        if regular[i] and not loops:
            return False
        if oracle_simple_cycle_count(g, v) == 2 and not (loops.is_infinite or int(loops) >= 2):
            return False
        for j in range(g.n):
            if dom[i][j] and not (a[i][j].is_infinite if emitter[i] else a[i][j]):
                return False
        if emitter[i] and loops and not any(regular[j] and dom[i][j] and dom[j][i] for j in range(g.n)):
            return False
    return True


def _signatures(g):
    """Per vertex: its sorted nonzero out-entries and in-entries, and its loop count.

    Between graphs with equal vertex counts these determine the sorted
    dense row and column.
    """
    cols = [{} for _ in range(g.n)]
    for i, row in enumerate(g._rows):
        for j, m in row.items():
            cols[j][i] = m
    return [
        (sorted(row.values()), sorted(col.values()), row.get(i, 0))
        for i, (row, col) in enumerate(zip(g._rows, cols))
    ]


def is_isomorphic(g1, g2):
    """Graph isomorphism on adjacency matrices (edge indices are ignored).

    A backtracking search pruned by degree signatures only: exponential in
    the worst case and one recursion level per vertex, so meant for the
    small graphs of the tests.
    """
    if g1.n != g2.n:
        return False
    rows1, rows2 = g1._rows, g2._rows
    sig1, sig2 = _signatures(g1), _signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return False
    candidates = [
        [j for j in range(g2.n) if sig2[j] == sig1[i]] for i in range(g1.n)
    ]
    order = sorted(range(g1.n), key=lambda i: len(candidates[i]))
    assign: dict[int, int] = {}
    used: set[int] = set()

    def ok(i: int, j: int) -> bool:
        for i2, j2 in assign.items():
            if rows1[i].get(i2, 0) != rows2[j].get(j2, 0):
                return False
            if rows1[i2].get(i, 0) != rows2[j2].get(j, 0):
                return False
        return rows1[i].get(i, 0) == rows2[j].get(j, 0)

    def backtrack(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in candidates[i]:
            if j not in used and ok(i, j):
                assign[i] = j
                used.add(j)
                if backtrack(k + 1):
                    return True
                del assign[i]
                used.remove(j)
        return False

    return backtrack(0)
