import copy
import math
import operator
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphck import INF, DomainError, ExtNat, make_graph

finite = st.integers(min_value=0, max_value=10**6)
extnats = st.one_of(finite.map(ExtNat), st.just(INF))


def test_decrement_of_infinity_is_infinity():
    assert INF.dec() is INF


def test_zero_times_infinity_is_zero():
    assert ExtNat(0) * INF == 0
    assert INF * ExtNat(0) == 0


def test_addition_absorbs_infinity():
    assert ExtNat(3) + INF == INF
    assert INF + 7 == INF


def test_positive_times_infinity():
    assert 2 * INF == INF
    assert INF * INF == INF


def test_decrement_of_zero_rejected():
    with pytest.raises(DomainError):
        ExtNat(0).dec()


def test_decrement_finite():
    assert ExtNat(5).dec() == 4


def test_negative_rejected():
    with pytest.raises(DomainError):
        ExtNat(-1)


def test_int_equality_and_hash():
    assert ExtNat(3) == 3
    assert hash(ExtNat(3)) == hash(3)
    assert ExtNat(3) != 4
    assert INF != 3


def test_ordering():
    assert ExtNat(2) < INF
    assert not INF < INF
    assert INF <= INF
    assert INF > 10**9
    assert ExtNat(1) < ExtNat(2) < ExtNat(3)


def test_json_round_trip():
    assert ExtNat.of("inf") is INF
    assert INF.to_json() == "inf"
    assert ExtNat.of(4).to_json() == 4


def test_int_of_infinity_rejected():
    with pytest.raises(DomainError):
        int(INF)


@given(extnats, extnats)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(extnats, extnats)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(extnats, extnats, extnats)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(extnats, extnats, extnats)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


# -- ExtNat against a model ---------------------------------------------
#
# The model of a value is a nonnegative int, or the marker OMEGA for ∞;
# its rules are written out case by case, with no float in them.

OMEGA = object()


def m_lt(a, b):
    if a is OMEGA:
        return False
    return b is OMEGA or a < b


def m_add(a, b):
    return OMEGA if a is OMEGA or b is OMEGA else a + b


def m_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return OMEGA if a is OMEGA or b is OMEGA else a * b


def m_ext(a):
    """The ExtNat a model value stands for."""
    return INF if a is OMEGA else ExtNat(a)


# Finite values cross the 256-entry table of shared small values.
model_finite = st.one_of(
    st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=10**6)
)
model_values = st.one_of(model_finite, st.just(OMEGA))


def operands(a):
    """Each way ``a`` may stand as an operand: an ExtNat, and a plain int when finite."""
    return [m_ext(a)] if a is OMEGA else [ExtNat(a), a]


@given(model_values, model_values)
def test_comparisons_match_the_model(a, b):
    x = m_ext(a)
    for y in operands(b):
        assert (x == y) == (a == b) and (y == x) == (a == b)
        assert (x != y) == (a != b) and (y != x) == (a != b)
        assert (x < y) == m_lt(a, b) and (y > x) == m_lt(a, b)
        assert (x > y) == m_lt(b, a) and (y < x) == m_lt(b, a)
        assert (x <= y) == (not m_lt(b, a)) and (y >= x) == (not m_lt(b, a))
        assert (x >= y) == (not m_lt(a, b)) and (y <= x) == (not m_lt(a, b))


@given(model_values, model_values)
def test_arithmetic_matches_the_model(a, b):
    x = m_ext(a)
    for y in operands(b):
        for got, want in ((x + y, m_add(a, b)), (y + x, m_add(a, b)),
                          (x * y, m_mul(a, b)), (y * x, m_mul(a, b))):
            assert type(got) is ExtNat
            if want is OMEGA:
                assert got.is_infinite
            else:
                assert got.is_finite and int(got) == want


@given(model_values)
def test_unary_operations_match_the_model(a):
    x = m_ext(a)
    assert bool(x) == (a != 0)
    assert x.is_infinite == (a is OMEGA) and x.is_finite == (a is not OMEGA)
    assert x.to_json() == ("inf" if a is OMEGA else a)
    assert repr(x) == ("∞" if a is OMEGA else str(a))
    assert hash(x) == (hash(float("inf")) if a is OMEGA else hash(a))
    assert ExtNat.of(x.to_json()) == x
    if a is OMEGA:
        with pytest.raises(DomainError):
            int(x)
        assert x.dec().is_infinite
    else:
        assert int(x) == a and type(int(x)) is int
        if a == 0:
            with pytest.raises(DomainError):
                x.dec()
        else:
            assert x.dec() == a - 1 and type(x.dec()) is ExtNat


@given(model_values, model_values)
def test_equal_values_share_a_hash_and_a_dict_slot(a, b):
    x, y = m_ext(a), m_ext(b)
    if a == b:
        assert hash(x) == hash(y)
    assert len({x, y}) == (1 if a == b else 2)
    if b is not OMEGA:
        assert ({x: 1}.get(b) is not None) == (a == b)


@pytest.mark.parametrize("bad", [math.inf, 1.0, True, -1, "INF", None], ids=repr)
def test_non_extended_naturals_rejected(bad):
    with pytest.raises(DomainError):
        ExtNat(bad)
    with pytest.raises(DomainError):
        ExtNat.of(bad)


@pytest.mark.parametrize("x", [ExtNat(0), ExtNat(3), INF], ids=repr)
def test_floats_and_negative_ints_are_not_operands(x):
    for other in (float(int(x)) if x.is_finite else math.inf, 2.5, -1):
        assert x != other and not x == other
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


@pytest.mark.parametrize("x", [ExtNat(0), ExtNat(7), ExtNat(300), ExtNat(10**6), INF], ids=repr)
def test_copies_read_back_equal(x):
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(copied) is ExtNat and copied == x and hash(copied) == hash(x)
        assert copied.is_infinite == x.is_infinite and copied.to_json() == x.to_json()


# -- ∞ is one object, stored as the value a graph row holds ---------------


def test_infinity_is_stored_as_the_row_value():
    from graphck.graph import _INF

    assert INF._v is _INF and ExtNat.of("inf")._v is _INF
    assert make_graph(["a"], [["inf"]])._rows[0][0] is _INF
    assert hash(INF) == hash(float("inf"))


@pytest.mark.parametrize("x", [0, 3, 300, ExtNat(0), ExtNat(3), ExtNat(300), INF], ids=repr)
def test_infinite_results_are_INF(x):
    assert INF + x is INF and x + INF is INF
    if x:
        assert INF * x is INF and x * INF is INF


@pytest.mark.parametrize("x", [ExtNat(0), ExtNat(3), ExtNat(300), ExtNat(10**6), INF], ids=repr)
def test_constructor_returns_an_extnat_itself(x):
    assert ExtNat(x) is x and ExtNat.of(x) is x
    assert ExtNat(INF) is INF and ExtNat(ExtNat(INF)) is INF


def test_constructor_messages_are_unchanged():
    with pytest.raises(DomainError, match=r"^not an extended natural: 2\.5$"):
        ExtNat(2.5)
    with pytest.raises(DomainError, match=r"^extended naturals are nonnegative, got -3$"):
        ExtNat(-3)


def test_decrement_and_json_give_INF():
    assert ExtNat.of("inf") is INF and INF.dec() is INF and INF.dec().dec() is INF


def test_copied_infinity_is_INF():
    assert pickle.loads(pickle.dumps(INF)) is INF
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INF, protocol)) is INF
    assert copy.deepcopy(INF) is INF and copy.copy(INF) is INF
    assert copy.deepcopy([INF, ExtNat(2)]) == [INF, 2]


def test_graph_reads_infinity_as_INF():
    g = make_graph(["a", "b"], [[0, "inf"], [INF, 2]])
    assert g.a("a", "b") is INF and g.a("b", "a") is INF
    assert g.row("a")[1] is INF and g.adjacency[1][0] is INF
    assert g.out_degree("a") is INF and g.out_degree("b") is INF
    assert g.in_degree("a") is INF and g.in_degree("b") is INF
    assert g.a("a", "a") == 0 and g.a("b", "b") == 2
