"""Integer-matrix invariants used to certify every graph transformation.

For a graph with adjacency matrix A, take the matrix whose columns are
indexed by the regular vertices and whose column for regular v is
(A(v,·))ᵗ − χ_v over all-vertex rows.  Its cokernel is the K₀ group of
the associated algebra and its kernel rank the K₁ free rank.  Both are
computed by a Smith normal form over ℤ with exact big-integer
arithmetic, independently of the rest of the package, so the pair can
serve as an oracle: every implemented move must leave it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import InternalError, ValidationError
from .graph import Graph


Matrix = list  # list of list of int


@dataclass(frozen=True)
class KTheoryPair:
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


@dataclass(frozen=True)
class K0Class:
    """Canonical residue of an integer vertex-vector in the K₀ cokernel."""

    residues: tuple

    def to_json(self) -> list:
        return list(self.residues)


def reg_matrix(g: Graph) -> Matrix:
    """The relation matrix: one column per regular vertex, rows over all vertices."""
    cols = []
    for i, v in enumerate(g.vertices):
        if g.is_regular(v):
            col = [0] * g.n
            for j, m in g._rows[i].items():
                col[j] = m
            col[i] -= 1
            cols.append(col)
    return [[col[i] for col in cols] for i in range(g.n)]


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


def smith_normal_form(m: Matrix) -> tuple:
    """Diagonalize an integer matrix: returns (S, U, V) with S = U·M·V.

    U and V are unimodular, S is diagonal with nonnegative entries in
    divisibility order d₁ | d₂ | ...  The factorization identities are
    asserted on every call.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = [[int(x) for x in row] for row in m]
    for row in s:
        if len(row) != cols:
            raise ValidationError("ragged matrix")
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


def _snf_of(g: Graph):
    """The relation matrix's column count, row transform and nonzero diagonal.

    Computed on first use and kept with the graph, so it lives exactly as
    long as the graph does; the matrix and its Smith form are not kept.
    """
    if g._snf is None:
        m = reg_matrix(g)
        s, u, _ = smith_normal_form(m)
        diag = []
        for i in range(min(len(s), len(s[0]) if s else 0)):
            if s[i][i] != 0:
                diag.append(s[i][i])
        g._snf = (len(m[0]) if m else 0, u, diag)
    return g._snf


def k_groups(g: Graph) -> KTheoryPair:
    """K₀ as cokernel data and the K₁ free rank, via Smith normal form."""
    cols, _, diag = _snf_of(g)
    rank = len(diag)
    return KTheoryPair(
        k0_invariant_factors=tuple(d for d in diag if d > 1),
        k0_free_rank=g.n - rank,
        k1_free_rank=cols - rank,
    )


def k0_reduce(g: Graph, vector) -> K0Class:
    """Canonical residue of an integer vertex-vector modulo the column lattice."""
    vec = list(vector)
    if len(vec) != g.n:
        raise ValidationError(f"vector length {len(vec)} for {g.n} vertices")
    _, u, diag = _snf_of(g)
    y = [sum(u[i][j] * vec[j] for j in range(g.n)) for i in range(g.n)]
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
    _, _, diag = _snf_of(g)
    total = [x + y for x, y in zip(a.residues, b.residues)]
    return K0Class(tuple(_mod_residues(total, diag)))
