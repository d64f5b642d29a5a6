import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs
from sample_graphs import edge_to_sink, inf_dag, looped_pair, one_loop, two_loops

from graphck import InternalError, k0_reduce, k_groups, reg_matrix, smith_normal_form
from graphck.ktheory import _assert_snf, _mat_mul, det_int, k0_add

matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda m: len({len(r) for r in m}) == 1)


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
        from graphck import ValidationError

        with pytest.raises(ValidationError):
            k0_reduce(two_loops(), [1, 2])


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
