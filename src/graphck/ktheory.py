"""Integer-matrix invariants used to certify every graph transformation.

For a graph with adjacency matrix A, take the matrix whose columns are
indexed by the regular vertices and whose column for regular v is
(A(v,·))ᵗ − χ_v over all-vertex rows.  Its cokernel is the K₀ group of
the associated algebra and its kernel rank the K₁ free rank.  Both are
read off a Smith normal form over ℤ with exact big-integer arithmetic,
independently of the rest of the package, so the pair can serve as an
oracle: every implemented move must leave it unchanged.

The matrix is built as sparse columns, and unit pivots (entries ±1,
each giving an invariant factor 1) are eliminated first, least fill
first, so the cost follows the edges rather than n³.  Only the remainder
goes to the dense ``smith_normal_form``.  Replaying the recorded
elementary operations on a fresh copy of the matrix proves the reduction
exactly, as ``_assert_snf`` proves the dense one.  ``k_groups`` reads
the diagonal; ``k0_reduce`` replays the recorded row operations and the
remainder's row transform on a vector, which fixes the residues;
``k0_add`` needs only the diagonal.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import InternalError, ValidationError
from .graph import Graph


Matrix = list  # list of list of int


class KTheoryPair(NamedTuple):
    """Isomorphism class of the (K₀, K₁) pair.

    K₀ = ℤ^k0_free_rank ⊕ ℤ/d₁ ⊕ ... with the dᵢ > 1 in divisibility
    order; K₁ is free of rank k1_free_rank.
    """

    k0_invariant_factors: tuple
    k0_free_rank: int
    k1_free_rank: int

    def to_json(self) -> dict:
        return {
            "k0_invariant_factors": list(self.k0_invariant_factors),
            "k0_free_rank": self.k0_free_rank,
            "k1_free_rank": self.k1_free_rank,
        }


class K0Class(NamedTuple):
    """Canonical residue of an integer vertex-vector in the K₀ cokernel."""

    residues: tuple

    def to_json(self) -> list:
        return list(self.residues)


def reg_matrix(g: Graph) -> Matrix:
    """The relation matrix: one column per regular vertex, rows over all vertices."""
    cols = _relation_columns(g)
    return [[col.get(i, 0) for col in cols] for i in range(g.n)]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def det_int(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, tail = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(x * pivot - lead * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * a[-1][-1]


def _rows_of(m) -> list:
    """``m`` as a list of row lists; ValidationError naming the part that is no sequence."""
    try:
        m = list(m)
    except TypeError:
        raise ValidationError(f"matrix must be a list of rows, got {type(m).__name__}") from None
    for i, row in enumerate(m):
        try:
            m[i] = list(row)
        except TypeError:
            raise ValidationError(
                f"matrix row {i} must be a list of integers, got {type(row).__name__}"
            ) from None
    return m


def smith_normal_form(m: Matrix) -> tuple:
    """Diagonalize an integer matrix: returns (S, U, V) with S = U·M·V.

    U and V are unimodular, S is diagonal with nonnegative entries in
    divisibility order d₁ | d₂ | ...  The factorization identities are
    asserted on every call.
    """
    s = _rows_of(m)
    rows = len(s)
    cols = len(s[0]) if rows else 0
    for i, row in enumerate(s):
        if len(row) != cols:
            raise ValidationError("ragged matrix")
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ValidationError(f"matrix entry ({i}, {j}) is not an integer: {x!r}")
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # move the entry of least nonzero magnitude into the pivot slot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    add_row(i, t, -(s[i][t] // s[t][t]))
            if any(s[i][t] != 0 for i in range(t + 1, rows)):
                # a remainder became the new, smaller pivot candidate
                for i in range(t + 1, rows):
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        break
                continue
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    add_col(j, t, -(s[t][j] // s[t][t]))
            if any(s[t][j] != 0 for j in range(t + 1, cols)):
                for j in range(t + 1, cols):
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        break
                continue
            break
        t += 1

    rank = t
    for i in range(rank):
        if s[i][i] < 0:
            negate_row(i)

    # enforce the divisibility chain with 2x2 unimodular blocks
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = s[i][i], s[i + 1][i + 1]
            if b % a == 0:
                continue
            changed = True
            g = gcd(a, b)
            x, y = _bezout(a, b)
            # U2 = [[x, y], [-b/g, a/g]], V2 = [[1, -y*b/g], [1, x*a/g]]
            ui, uj = u[i], u[i + 1]
            u[i] = [x * p + y * q for p, q in zip(ui, uj)]
            u[i + 1] = [(-b // g) * p + (a // g) * q for p, q in zip(ui, uj)]
            for row in v:
                p, q = row[i], row[i + 1]
                row[i] = p + q
                row[i + 1] = (-y * b // g) * p + (x * a // g) * q
            s[i][i], s[i + 1][i + 1] = g, a * b // g

    _assert_snf(m, s, u, v, rank)
    return s, u, v


def _bezout(a: int, b: int) -> tuple:
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_x, old_y


def _assert_snf(m, s, u, v, rank):
    if _mat_mul(_mat_mul(u, m), v) != s:
        raise InternalError("Smith form factorization does not multiply back")
    if abs(det_int(u)) != 1 or abs(det_int(v)) != 1:
        raise InternalError("Smith form transforms are not unimodular")
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    for i in range(len(diag)):
        for j in range(len(s[i]) if s else 0):
            if i != j and s[i][j] != 0:
                raise InternalError("Smith form is not diagonal")
    for i in range(rank - 1):
        if diag[i] <= 0 or diag[i + 1] % diag[i] != 0:
            raise InternalError("Smith form divisibility chain broken")


def _relation_columns(g: Graph) -> list:
    """The relation matrix as sparse columns ``{row: entry}``, one per regular vertex.

    The column of regular position i is row i of the graph minus 1 at i.
    """
    regular = g._degs().regular
    cols = []
    for i, row in enumerate(g._rows):
        if regular >> i & 1:
            col = dict(row)
            col[i] = col.get(i, 0) - 1
            if not col[i]:
                del col[i]
            cols.append(col)
    return cols


def _peel(n: int, columns: list) -> tuple:
    """Eliminate unit pivots from sparse columns over ``n`` rows.

    While some entry is ±1, the one of least Markowitz cost
    (entries in its column − 1)·(entries in its row − 1) is taken, ties
    to the lowest (column, row); a cost is rechecked when popped and
    pushed back if it grew.  Column operations clear the pivot's row,
    which updates the Schur complement; row operations then clear its
    column.  Returns ``(ops, pivots, rest)``: the operations as
    ``(axis, a, b, f)``, meaning "line a += f · line b", in the order
    applied; the pivots as ``(row, column, ±1)``; and the remainder as
    ``(rows, columns, block)``, a dense block over its nonzero lines.
    """
    cols = [dict(col) for col in columns]
    hits = [set() for _ in range(n)]  # hits[r]: the live columns with an entry in row r
    for c, col in enumerate(cols):
        for r in col:
            hits[r].add(c)
    heap = [
        ((len(col) - 1) * (len(hits[r]) - 1), c, r)
        for c, col in enumerate(cols)
        for r, x in col.items()
        if x == 1 or x == -1
    ]
    heapify(heap)
    ops, pivots = [], []
    while heap:
        cost, c, r = heappop(heap)
        col = cols[c]
        if col is None or col.get(r) not in (1, -1):
            continue
        now = (len(col) - 1) * (len(hits[r]) - 1)
        if now > cost:
            heappush(heap, (now, c, r))
            continue
        p = col[r]
        for c2 in [x for x in hits[r] if x != c]:
            col2 = cols[c2]
            f = -p * col2[r]
            ops.append(("col", c2, c, f))
            for r2, x in col.items():
                y = col2.get(r2, 0) + f * x
                if not y:
                    del col2[r2]
                    hits[r2].discard(c2)
                    continue
                if r2 not in col2:
                    hits[r2].add(c2)
                col2[r2] = y
                if y == 1 or y == -1:
                    heappush(heap, ((len(col2) - 1) * (len(hits[r2]) - 1), c2, r2))
        for r2, x in col.items():
            if r2 != r:
                ops.append(("row", r2, r, -p * x))
                hits[r2].discard(c)
        hits[r].clear()
        cols[c] = None
        pivots.append((r, c, p))
    live = [c for c, col in enumerate(cols) if col]
    rows = sorted({r for c in live for r in cols[c]})
    return ops, pivots, (rows, live, [[cols[c].get(r, 0) for c in live] for r in rows])


def _assert_peeled(n: int, columns: list, ops: list, pivots: list, rest: tuple) -> None:
    """Prove exactly that the recorded operations take M to the pivots plus the remainder.

    ``columns`` are M's sparse columns over ``n`` rows and the rest are
    :func:`_peel`'s results.  Each operation must be elementary: two
    different lines of one axis and an integer factor, so of determinant
    1.  Replayed in order on a fresh copy of M they give U·M·V with U and
    V unimodular, which must be exactly the ±1 pivots and the remainder
    block, each on rows and columns of its own.  The Smith form of M is
    then one 1 per pivot followed by the block's.
    """
    by_col = [dict(col) for col in columns]
    by_row = [{} for _ in range(n)]
    for c, col in enumerate(by_col):
        for r, x in col.items():
            by_row[r][c] = x
    axes = {"row": (by_row, by_col), "col": (by_col, by_row)}
    for op in ops:
        axis, a, b, f = op
        lines, cross = axes.get(axis, ((), ()))
        if not (type(a) is type(b) is type(f) is int and a != b
                and 0 <= a < len(lines) and 0 <= b < len(lines)):
            raise InternalError(f"recorded operation {op} is not elementary")
        dst = lines[a]
        for k, x in lines[b].items():
            y = dst.get(k, 0) + f * x
            if y:
                dst[k] = cross[k][a] = y
            elif k in dst:
                del dst[k], cross[k][a]
    rows, cols, block = rest
    if len(block) != len(rows) or any(len(line) != len(cols) for line in block):
        raise InternalError("remainder block does not match its lines")
    if any(x != 1 and x != -1 for _, _, x in pivots):
        raise InternalError("a recorded pivot is not a unit")
    used_rows = [r for r, _, _ in pivots] + rows
    used_cols = [c for _, c, _ in pivots] + cols
    if len(set(used_rows)) != len(used_rows) or len(set(used_cols)) != len(used_cols):
        raise InternalError("pivots and remainder share a line")
    if any(not 0 <= c < len(by_col) for c in used_cols):
        raise InternalError("a pivot or remainder column is out of range")
    want = [{} for _ in by_col]
    for r, c, x in pivots:
        want[c][r] = x
    for r, line in zip(rows, block):
        for c, x in zip(cols, line):
            if x:
                want[c][r] = x
    if want != by_col:
        raise InternalError("recorded operations do not reach the pivots and remainder")


def _snf_of(g: Graph) -> tuple:
    """The relation matrix's column count, nonzero Smith diagonal and reduction.

    Kept in the graph's one K-theory slot, so each is computed once and
    lives exactly as long as the graph.  The unit pivots are peeled and
    proved by :func:`_assert_peeled`; only a nonzero remainder block goes
    to the dense ``smith_normal_form``.  The diagonal is one 1 per pivot,
    then the remainder's.  The reduction, which :func:`k0_reduce` replays,
    is the peeling's recorded operations and pivots, the remainder rows
    and the remainder's row transform U.
    """
    if g._snf is None:
        cols = _relation_columns(g)
        ops, pivots, (rows, live, block) = _peel(g.n, cols)
        _assert_peeled(g.n, cols, ops, pivots, (rows, live, block))
        s, u, _ = smith_normal_form(block) if block else ([], [], [])
        diag = [1] * len(pivots) + [s[i][i] for i in range(min(len(rows), len(live))) if s[i][i]]
        g._snf = (len(cols), diag, (ops, pivots, rows, u))
    return g._snf


def k_groups(g: Graph) -> KTheoryPair:
    """K₀ as cokernel data and the K₁ free rank, via Smith normal form.

    Computed once per graph, by peeling unit pivots from the sparse
    relation matrix and reducing only the remainder densely.
    """
    cols, diag, _ = _snf_of(g)
    rank = len(diag)
    return KTheoryPair(
        k0_invariant_factors=tuple(d for d in diag if d > 1),
        k0_free_rank=g.n - rank,
        k1_free_rank=cols - rank,
    )


def _integers(vec, what: str) -> None:
    for i, x in enumerate(vec):
        if type(x) is not int:
            raise ValidationError(f"{what} entry {i} is not an integer: {x!r}")


def k0_reduce(g: Graph, vector) -> K0Class:
    """Canonical residue of an integer vertex-vector modulo the column lattice.

    The vector goes through the peeling's row operations.  The residues
    are then 0 on each pivot row, the remainder's U applied to the
    remainder rows, and the other rows in position order; the residue at
    the position of each Smith diagonal entry d is reduced modulo d.
    """
    try:
        vec = list(vector)
    except TypeError:
        raise ValidationError(
            f"vector must be a list of integers, got {type(vector).__name__}"
        ) from None
    if len(vec) != g.n:
        raise ValidationError(f"vector length {len(vec)} for {g.n} vertices")
    _integers(vec, "vector")
    _, diag, (ops, pivots, rows, u) = _snf_of(g)
    for axis, a, b, f in ops:
        if axis == "row":
            vec[a] += f * vec[b]
    rest = [vec[r] for r in rows]
    done = {r for r, _, _ in pivots}.union(rows)
    y = [0] * len(pivots) + [sum(map(mul, line, rest)) for line in u]
    y += [x for i, x in enumerate(vec) if i not in done]
    return K0Class(tuple(_mod_residues(y, diag)))


def _mod_residues(y, diag):
    y = list(y)
    for i, d in enumerate(diag):
        y[i] %= d
    return y


def k0_add(g: Graph, a: K0Class, b: K0Class) -> K0Class:
    """Group addition of canonical residues (componentwise, re-reduced)."""
    if len(a.residues) != g.n or len(b.residues) != g.n:
        raise ValidationError("class residues do not match the graph")
    _integers(a.residues, "class residue")
    _integers(b.residues, "class residue")
    _, diag, _ = _snf_of(g)
    total = [x + y for x, y in zip(a.residues, b.residues)]
    return K0Class(tuple(_mod_residues(total, diag)))
