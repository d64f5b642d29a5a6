import random
import re
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs
from sample_graphs import edge_to_sink, inf_dag, inf_to_loop, looped_pair, one_loop, two_loops

import graphck.ktheory
from graphck import (
    Graph,
    InternalError,
    KTheoryPair,
    ValidationError,
    corner_graph,
    k0_reduce,
    k_groups,
    make_graph,
    random_graph,
    realize,
    reg_matrix,
    smith_normal_form,
)
from graphck.corpus import DEFAULT_ENTRIES
from graphck.ktheory import (
    K0Class,
    _assert_peeled,
    _assert_snf,
    _mat_mul,
    _peel,
    _relation_columns,
    _snf_of,
    det_int,
    k0_add,
)

matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda m: len({len(r) for r in m}) == 1)

#: Entry pools for seeded draws: sinks, ∞ emitters, torsion and dense remainders.
POOLS = [DEFAULT_ENTRIES, (0, 1, "inf", "inf"), (0, 0, 1, 1, 2, 3, 5), (0, 1, 1, 1, 2)]

#: Bases and heads of realized corners of 12 to 150 vertices.
CORNERS = [
    ([[2, 1], [1, 2]], [5, 5]),
    ([[2, 1], [1, 2]], [74, 74]),
    ([[3, 1, 0], [0, 2, 1], [1, 0, 4]], [10, 30, 8]),
    ([[1, 1, 0], [0, 2, "inf"], [1, 0, 3]], [20, 15, 30]),
]


def _columns(m):
    """A dense matrix as the sparse columns the peeled path reads."""
    return [{r: row[c] for r, row in enumerate(m) if row[c]} for c in range(len(m[0]))]


def _dense_reference(g):
    """The pair and a residue map read from ``smith_normal_form(reg_matrix(g))``.

    The map sends a vector to U·vector reduced modulo the diagonal, so two
    vectors share a K₀ class exactly when their images are equal.
    """
    m = reg_matrix(g)
    s, u, _ = smith_normal_form(m)
    cols = len(m[0]) if m else 0
    diag = [s[i][i] for i in range(min(g.n, cols)) if s[i][i]]
    pair = KTheoryPair(tuple(d for d in diag if d > 1), g.n - len(diag), cols - len(diag))

    def residues(vec):
        y = [sum(map(mul, row, vec)) for row in u]
        return tuple([x % d for x, d in zip(y, diag)] + y[len(diag):])

    return pair, residues


def _relation_cols(g):
    """The relation columns from the definition: row v of A minus χ_v, each regular v."""
    adj = g.adjacency
    return [
        [int(m) - (i == j) for i, m in enumerate(adj[j])]
        for j, v in enumerate(g.vertices)
        if g.is_regular(v)
    ]


def _draws(seed, count):
    """Seeded draws of 1 to 8 vertices over ``POOLS``."""
    rng = random.Random(seed)
    return [
        random_graph(random.Random(rng.getrandbits(64)), rng.randint(1, 8), rng.choice(POOLS))
        for _ in range(count)
    ]


def _realized(base, heads):
    names = [f"v{i}" for i in range(len(base))]
    return realize(corner_graph(make_graph(names, base), dict(zip(names, [h + 1 for h in heads]))))


def _check_against_dense(g, rng):
    """``k_groups`` and ``k0_reduce``'s class equality agree with the dense reference.

    Classes are compared on random vectors, each also shifted by random
    multiples of the relation columns and then by χ of the first vertex.
    """
    pair, residues = _dense_reference(g)
    assert k_groups(g) == pair, g.to_json()
    cols = _relation_cols(g)
    vecs = [[rng.randint(-4, 4) for _ in range(g.n)] for _ in range(4)]
    for x in vecs[:2]:
        for col in cols:
            f = rng.randint(-3, 3)
            x = [a + f * b for a, b in zip(x, col)]
        vecs += [x, [a + (i == 0) for i, a in enumerate(x)]]
    got = [k0_reduce(g, v) for v in vecs]
    want = [residues(v) for v in vecs]
    for i, j in combinations(range(len(vecs)), 2):
        assert (got[i] == got[j]) == (want[i] == want[j]), (g.to_json(), vecs[i], vecs[j])


class TestRegMatrix:
    def test_two_loops(self):
        assert reg_matrix(two_loops()) == [[1]]

    def test_one_loop(self):
        assert reg_matrix(one_loop()) == [[0]]

    def test_no_regular_vertices(self):
        m = reg_matrix(inf_dag())
        assert len(m) == 3 and all(len(r) == 0 for r in m)

    def test_edge_to_sink(self):
        assert reg_matrix(edge_to_sink()) == [[-1], [1]]


class TestSmithNormalForm:
    def test_identity_case(self):
        s, _, _ = smith_normal_form([[1]])
        assert s == [[1]]

    def test_zero_case(self):
        s, _, _ = smith_normal_form([[0]])
        assert s == [[0]]

    def test_divisibility_merge(self):
        s, _, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [s[0][0], s[1][1]] == [1, 6]

    @settings(max_examples=100)
    @given(matrices)
    def test_matches_minor_gcd_oracle(self, m):
        s, _, _ = smith_normal_form(m)
        diag = [s[i][i] for i in range(min(len(m), len(m[0]))) if s[i][i] != 0]
        assert diag == oracles.oracle_invariant_factors(m)

    @pytest.mark.parametrize(
        "m, where",
        [
            ([[1.5]], r"\(0, 0\)"),
            ([["x"]], r"\(0, 0\)"),
            ([[True]], r"\(0, 0\)"),
            ([[1, 2], [3, 2.0]], r"\(1, 1\)"),
            ([[1, None], [3, "4"]], r"\(0, 1\)"),
        ],
    )
    def test_entries_must_be_ints(self, m, where):
        with pytest.raises(ValidationError, match=f"entry {where} is not an integer"):
            smith_normal_form(m)

    @pytest.mark.parametrize(
        "m, message",
        [
            ([1, 2], "matrix row 0 must be a list of integers, got int"),
            ([[1], None], "matrix row 1 must be a list of integers, got NoneType"),
            (None, "matrix must be a list of rows, got NoneType"),
            (5, "matrix must be a list of rows, got int"),
        ],
    )
    def test_shape_must_be_rows(self, m, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            smith_normal_form(m)

    @settings(max_examples=60)
    @given(matrices)
    def test_factorization_checked_in_call(self, m):
        # the identities S = U·M·V, unimodularity and divisibility are
        # asserted inside smith_normal_form; reaching here means they held
        smith_normal_form(m)


class TestKGroups:
    def test_two_loops(self):
        k = k_groups(two_loops())
        assert (k.k0_invariant_factors, k.k0_free_rank, k.k1_free_rank) == ((), 0, 0)

    def test_one_loop(self):
        k = k_groups(one_loop())
        assert (k.k0_invariant_factors, k.k0_free_rank, k.k1_free_rank) == ((), 1, 1)

    def test_edge_to_sink(self):
        k = k_groups(edge_to_sink())
        assert (k.k0_invariant_factors, k.k0_free_rank, k.k1_free_rank) == ((), 1, 0)

    def test_torsion(self):
        # three loops at one vertex: cokernel of [2]
        from graphck import make_graph

        k = k_groups(make_graph(["a"], [[3]]))
        assert k.k0_invariant_factors == (2,)
        assert k.k0_free_rank == 0


class TestK0Reduce:
    def test_relation_at_looped_pair(self):
        g = looped_pair()
        assert k0_reduce(g, [1, -1]) == k0_reduce(g, [2, 0])

    def test_trivial_cokernel(self):
        g = two_loops()
        assert k0_reduce(g, [1]) == k0_reduce(g, [0])

    def test_zero_vector(self):
        g = looped_pair()
        assert k0_reduce(g, [0, 0]).residues == k0_reduce(g, [1, 1]).residues

    def test_adding_zero_class_is_identity(self):
        g = looped_pair()
        cls = k0_reduce(g, [5, -7])
        zero = k0_reduce(g, [0, 0])
        assert k0_add(g, cls, zero) == cls

    @settings(max_examples=40)
    @given(graphs(max_vertices=4), st.data())
    def test_homomorphism(self, g, data):
        x = [data.draw(st.integers(-5, 5)) for _ in range(g.n)]
        y = [data.draw(st.integers(-5, 5)) for _ in range(g.n)]
        lhs = k0_reduce(g, [a + b for a, b in zip(x, y)])
        rhs = k0_add(g, k0_reduce(g, x), k0_reduce(g, y))
        assert lhs == rhs

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            k0_reduce(two_loops(), [1, 2])

    @pytest.mark.parametrize("bad, name", [(5, "int"), (None, "NoneType")])
    def test_vector_must_be_a_sequence(self, bad, name):
        message = f"^vector must be a list of integers, got {name}$"
        with pytest.raises(ValidationError, match=message):
            k0_reduce(two_loops(), bad)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(graphs(max_vertices=4), st.data())
    def test_class_equality_matches_the_lattice_oracle(self, g, data):
        m = reg_matrix(g)
        small = st.integers(-4, 4)
        x = [data.draw(small) for _ in range(g.n)]
        y = list(x)
        for col in _relation_cols(g):
            f = data.draw(small)
            y = [a + f * b for a, b in zip(y, col)]
        y = [a + data.draw(st.sampled_from([0, 0, 0, 1, -1, 2])) for a in y]
        same = k0_reduce(g, x) == k0_reduce(g, y)
        assert same == oracles.oracle_same_k0_class(m, x, y)

    def test_adding_a_relation_column_keeps_the_class(self):
        rng = random.Random(30)
        for g in _draws(30, 300) + [_realized(base, heads) for base, heads in CORNERS]:
            x = [rng.randint(-5, 5) for _ in range(g.n)]
            cls, total = k0_reduce(g, x), list(x)
            for col in _relation_cols(g):
                f = rng.choice([-1, 1]) * rng.randint(1, 9)
                assert k0_reduce(g, [a + f * b for a, b in zip(x, col)]) == cls
                total = [a + f * b for a, b in zip(total, col)]
            assert k0_reduce(g, total) == cls

    def test_large_corner_heads_share_their_base_class(self):
        g = realize(corner_graph(make_graph(["a", "b"], [[2, 1], [1, 2]]), {"a": 501, "b": 501}))
        assert g.n == 1002
        classes = [k0_reduce(g, [int(i == j) for j in range(g.n)]) for i in range(g.n)]
        for v, cls in zip(g.vertices[2:], classes[2:]):
            assert cls == classes[g.index(v.split("^")[0])], v
        a, b = classes[:2]
        assert a != b and k0_add(g, a, b) == k0_reduce(g, [0] * g.n) != a

    @pytest.mark.parametrize("bad", [[1.5, 0], ["1", 0], [0, True], [0, None]])
    def test_entries_must_be_ints(self, bad):
        g = make_graph(["a", "b"], [[2, 1], [1, 2]])
        with pytest.raises(ValidationError, match="vector entry [01] is not an integer"):
            k0_reduce(g, bad)
        good = k0_reduce(g, [1, 0])
        for cls in (K0Class(tuple(bad)), K0Class((0.5, -1.5))):
            with pytest.raises(ValidationError, match="residue entry [01] is not an integer"):
                k0_add(g, good, cls)
            with pytest.raises(ValidationError, match="residue entry [01] is not an integer"):
                k0_add(g, cls, good)


class TestPeeledPath:
    def test_equals_dense_on_random_graphs(self):
        rng = random.Random(20261019)
        drawn = [Graph([], []), inf_dag(), edge_to_sink()]
        for _ in range(600):
            entries = rng.choice(POOLS)
            drawn.append(random_graph(random.Random(rng.getrandbits(64)), 8, entries))
        seen = {"inf": 0, "sink": 0, "no regular": 0, "torsion": 0, "remainder": 0}
        for g in drawn:
            _check_against_dense(g, rng)
            seen["inf"] += any(m == float("inf") for row in g._rows for m in row.values())
            seen["sink"] += any(not row for row in g._rows)
            seen["no regular"] += not g._degs().regular
            seen["torsion"] += bool(k_groups(g).k0_invariant_factors)
            seen["remainder"] += bool(_peel(g.n, _relation_columns(g))[2][0])
        assert all(seen.values()), seen

    @pytest.mark.parametrize("base, heads", CORNERS)
    def test_equals_dense_on_realized_corners(self, base, heads):
        g = _realized(base, heads)
        assert g.n == len(base) + sum(heads) <= 150
        _check_against_dense(g, random.Random(g.n))

    @pytest.mark.parametrize("graph", [two_loops, looped_pair, inf_to_loop, edge_to_sink])
    def test_residues_still_come_from_the_dense_transform(self, graph):
        """Residues read after ``k_groups`` fills the slot split vectors into
        classes as U of ``smith_normal_form(reg_matrix(g))`` does, and equal
        those of a fresh copy whose slot ``k0_reduce`` fills itself."""
        g = graph()
        k_groups(g)
        assert g._snf is not None
        vec = list(range(1, g.n + 1))
        assert k0_reduce(g, vec) == k0_reduce(Graph._trusted(g.vertices, g._rows), vec)
        _check_against_dense(g, random.Random(g.n))

    def test_smith_normal_form_sees_only_remainders(self, monkeypatch):
        seen = []

        def spy(m):
            seen.append([list(row) for row in m])
            return smith_normal_form(m)

        monkeypatch.setattr(graphck.ktheory, "smith_normal_form", spy)
        drawn = [two_loops(), looped_pair(), inf_to_loop(), edge_to_sink(), make_graph(["a"], [[3]])]
        calls = []
        for g in drawn + _draws(20261020, 300):
            block = _peel(g.n, _relation_columns(g))[2][2]
            seen.clear()
            k_groups(g)
            k0_reduce(g, [1] * g.n)
            assert seen == ([block] if block else []), g.to_json()
            assert not block or any(map(any, block))
            calls.append(len(seen))
        assert calls[:5] == [0, 0, 0, 0, 1] and 0 < sum(calls) < len(calls)

    @settings(max_examples=100)
    @given(graphs(max_vertices=5, entries=(0, 0, 1, 1, 2, 3, "inf")))
    def test_matches_minor_gcd_oracle(self, g):
        assert _snf_of(g)[1] == oracles.oracle_invariant_factors(reg_matrix(g))

    def test_operations_grow_with_the_edges(self):
        base = make_graph(["a", "b"], [[2, 1], [1, 2]])
        g = realize(corner_graph(base, {"a": 1001, "b": 1001}))
        ops, pivots, rest = _peel(g.n, _relation_columns(g))
        edges = sum(len(row) for row in g._rows)
        assert g.n == 2002 and edges == 2004
        assert len(ops) <= 2 * edges
        assert len(pivots) == 2001 and rest == ([], [], [])


def _naive_product(a, b):
    inner, cols = len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(len(a))
    ]


def _random_matrix(rng, rows, cols, span=9):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


class TestSelfCheckHelpers:
    def test_mat_mul_is_the_naive_product(self):
        rng = random.Random(2024)
        shapes = [(1, 1, 1), (1, 5, 1), (1, 1, 5), (3, 1, 4), (2, 3, 5), (5, 4, 2), (6, 6, 6)]
        shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(40)]
        for rows, inner, cols in shapes:
            a, b = _random_matrix(rng, rows, inner), _random_matrix(rng, inner, cols)
            assert _mat_mul(a, b) == _naive_product(a, b), (a, b)
        big = [[2**70, -1], [3, 2**65]]
        assert _mat_mul(big, big) == _naive_product(big, big)

    @pytest.mark.parametrize(
        "a, b, product",
        [
            ([], [], []),
            ([], [[1, 2]], []),
            ([[1], [2]], [], [[], []]),
            ([[], []], [], [[], []]),
            ([[1, 2]], [[3], [4]], [[11]]),
            ([[1], [2]], [[3, 4]], [[3, 4], [6, 8]]),
            ([[1, 2], [3, 4]], [[], []], [[], []]),
        ],
    )
    def test_mat_mul_on_thin_and_empty_shapes(self, a, b, product):
        assert _mat_mul(a, b) == product

    def test_det_int_is_the_cofactor_expansion(self):
        rng = random.Random(7)
        for n in range(7):
            for _ in range(30):
                m = _random_matrix(rng, n, n, span=rng.choice([1, 3, 9]))
                assert det_int(m) == oracles._det(m), m

    @pytest.mark.parametrize(
        "m",
        [
            [[0, 1], [1, 0]],
            [[0, 2, 1], [0, 1, 3], [4, 0, 5]],
            [[1, 1, 1], [1, 1, 2], [2, 3, 1]],  # the second pivot becomes 0
            [[0, 0, 1, 2], [0, 3, 0, 1], [5, 0, 0, 0], [1, 2, 3, 4]],
            [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # no nonzero pivot: singular
            [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
        ],
    )
    def test_det_int_swaps_past_zero_pivots(self, m):
        assert det_int(m) == oracles._det(m)

    def test_det_int_leaves_its_argument(self):
        m = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
        copy = [row[:] for row in m]
        det_int(m)
        assert m == copy

    def test_det_int_with_zero_pivots_over_seeds(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for _ in range(30):
                m = _random_matrix(rng, n, n, span=2)
                for row in rng.sample(m, rng.randint(1, n)):
                    row[0] = 0  # a zero in the first pivot column, often at the pivot
                assert det_int(m) == oracles._det(m), m

    @pytest.mark.parametrize("part", ["s", "u", "v"])
    def test_assert_snf_rejects_a_corrupted_factor(self, part):
        m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        s, u, v = smith_normal_form(m)
        rank = sum(1 for i in range(3) if s[i][i])
        _assert_snf(m, s, u, v, rank)
        factors = {"s": s, "u": u, "v": v}
        for i in range(3):
            for j in range(3):
                for delta in (1, -1):
                    bad = {k: [row[:] for row in x] for k, x in factors.items()}
                    bad[part][i][j] += delta
                    with pytest.raises(InternalError):
                        _assert_snf(m, bad["s"], bad["u"], bad["v"], rank)

    #: Peeled in two pivots, with row and column operations and a 3 × 2
    #: remainder holding a zero.
    PEELED = [[2, 6, -1, 0], [2, 0, 0, 0], [6, 0, -1, 4], [2, 2, 1, 0], [3, 3, 3, 1]]

    def _peeled(self):
        cols = _columns(self.PEELED)
        ops, pivots, rest = _peel(len(self.PEELED), cols)
        assert len(pivots) == 2 and {op[0] for op in ops} == {"row", "col"}
        assert 0 in sum(rest[2], [])
        _assert_peeled(len(self.PEELED), cols, ops, pivots, rest)
        return cols, ops, pivots, rest

    def test_assert_peeled_rejects_a_changed_coefficient(self):
        cols, ops, pivots, rest = self._peeled()
        for k, (axis, a, b, f) in enumerate(ops):
            for delta in (1, -1):
                bad = ops[:k] + [(axis, a, b, f + delta)] + ops[k + 1:]
                with pytest.raises(InternalError, match="do not reach"):
                    _assert_peeled(5, cols, bad, pivots, rest)

    def test_assert_peeled_rejects_a_changed_pivot(self):
        cols, ops, pivots, rest = self._peeled()
        for k, (r, c, x) in enumerate(pivots):
            for delta in (1, -1):
                bad = pivots[:k] + [(r, c, x + delta)] + pivots[k + 1:]
                with pytest.raises(InternalError, match="not a unit"):
                    _assert_peeled(5, cols, ops, bad, rest)
            bad = pivots[:k] + [(r, c, -x)] + pivots[k + 1:]
            with pytest.raises(InternalError, match="do not reach"):
                _assert_peeled(5, cols, ops, bad, rest)

    def test_assert_peeled_rejects_a_changed_remainder_entry(self):
        cols, ops, pivots, (rows, live, block) = self._peeled()
        for i, line in enumerate(block):
            for j in range(len(line)):
                for delta in (1, -1):
                    bad = [row[:] for row in block]
                    bad[i][j] += delta
                    with pytest.raises(InternalError, match="do not reach"):
                        _assert_peeled(5, cols, ops, pivots, (rows, live, bad))

    def test_assert_peeled_rejects_operations_that_are_not_elementary(self):
        cols, ops, pivots, rest = self._peeled()
        axis, a, b, f = ops[0]
        for bad in [(axis, a, a, f), (axis, b, b, f), (axis, a, b, 0.5), (axis, a, b, True),
                    ("diag", a, b, f), (axis, a, 99, f), (axis, -1, b, f)]:
            with pytest.raises(InternalError, match="not elementary"):
                _assert_peeled(5, cols, [bad] + ops[1:], pivots, rest)

    def test_assert_peeled_rejects_shared_lines(self):
        cols, ops, pivots, (rows, live, block) = self._peeled()
        (r, c, x), second = pivots
        for bad in ([(r, c, x), (r, second[1], second[2])], [(r, c, x), (second[0], c, second[2])]):
            with pytest.raises(InternalError, match="share a line"):
                _assert_peeled(5, cols, ops, bad, (rows, live, block))
        with pytest.raises(InternalError, match="share a line"):
            _assert_peeled(5, cols, ops, pivots, ([r] + rows[1:], live, block))
        with pytest.raises(InternalError, match="does not match"):
            _assert_peeled(5, cols, ops, pivots, (rows, live, block[1:]))

    def test_assert_snf_rejects_unimodularity_and_chain_breaks(self):
        # S = U·M·V holds, but U or V has determinant 2
        with pytest.raises(InternalError, match="unimodular"):
            _assert_snf([[1]], [[2]], [[2]], [[1]], 1)
        with pytest.raises(InternalError, match="unimodular"):
            _assert_snf([[1]], [[2]], [[1]], [[2]], 1)
        # diagonal and unimodular, but 2 does not divide 3
        with pytest.raises(InternalError, match="divisibility"):
            _assert_snf([[2, 0], [0, 3]], [[2, 0], [0, 3]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], 2)
        with pytest.raises(InternalError, match="diagonal"):
            _assert_snf([[1, 1], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], 2)
