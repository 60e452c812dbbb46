import numpy as np
import pytest

from qborel import (
    MonomialIdeal,
    ParseError,
    alpha,
    degree,
    format_monomial,
    intersection,
    is_squarefree,
    localize_contract,
    monomial,
    parse_monomial,
    power,
    product,
    restrict,
    support,
    variable_prime,
)
from qborel._kernels import NARROW_SORT_ROWS
from qborel.monomials import (
    _CODED_FORMAT_ROWS, _LIST_SORT_ROWS, _check_range, canonical_order, format_rows)

rng = np.random.default_rng(20261019)


def exponents(*rows):
    return np.array(rows, dtype=np.int64)


def _format_monomial_loop(m):
    # the per-monomial formatter that format_rows replaced, kept as the
    # reference: one f-string per factor of every row
    parts = [
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
        for i, e in enumerate(np.asarray(m).tolist()) if e > 0
    ]
    return "*".join(parts) if parts else "1"


def test_parse_and_format_round_trip():
    m = parse_monomial("x4*x9^2", 11)
    assert degree(m) == 3
    assert support(m) == {4, 9}
    assert format_monomial(m) == "x4*x9^2"
    assert format_monomial(parse_monomial("1", 5)) == "1"
    # repeated factors accumulate
    assert format_monomial(parse_monomial("x2*x2^2", 3)) == "x2^3"


@pytest.mark.parametrize("bad", [
    "", "x0", "x12", "y3", "x4^", "x4**x5", "x-1",
    # digits of other scripts and '_' between digits, which int() reads
    "x\u0662", "x2^\u0663", "x\uff12", "x1_0", "x2^1_0",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_monomial(bad, 11)


def test_monomial_validation():
    with pytest.raises(ValueError):
        monomial([[1, 2]])
    with pytest.raises(ValueError):
        monomial([1, -1])
    with pytest.raises(OverflowError):
        monomial([1 << 40])
    with pytest.raises(OverflowError):
        monomial([1 << 70])


@pytest.mark.parametrize("bad", [[1.9, 0], [0.5, 1, 0], [1, 2.0], np.array([1.0, 2.0]),
                                 ["1", "2"], [1, None]])
def test_monomial_entries_must_be_integers(bad):
    # np.array(bad, dtype=np.int64) would truncate 1.9 to 1
    with pytest.raises(ValueError, match="exponents must be integers"):
        monomial(bad)


def test_monomial_takes_numpy_and_python_ints():
    for good in ([1, 2, 0], np.array([1, 2, 0], np.uint8), [np.int32(1), np.int64(2), 0],
                 np.array([1, 2, 0], dtype=object), (True, 2, False)):
        m = monomial(good)
        assert m.dtype == np.int64 and m.tolist() == [1, 2, 0]
    assert monomial([]).shape == (0,)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_range_check_names_a_negative_exponent_first(dtype):
    # one bitwise-or reduction decides both messages: a row holding both
    # a negative and an overflowing exponent is refused as negative, on
    # int64 rows and on an object array of python ints
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        _check_range(np.array([[3, -1], [1 << 40, 0]], dtype=dtype))
    _check_range(np.array([[(1 << 31) - 1, 0]], dtype=dtype))
    with pytest.raises(OverflowError, match="exponent exceeds the supported range"):
        _check_range(np.array([[1 << 31, 0]], dtype=dtype))
    with pytest.raises(OverflowError, match="exponent exceeds the supported range"):
        parse_monomial("x1^2147483648*x2", 2)


def test_pointwise_helpers():
    a = monomial([1, 2, 0])
    b = monomial([0, 1, 1])
    assert is_squarefree(b) and not is_squarefree(a)
    assert list(restrict(a, {2})) == [0, 2, 0]
    with pytest.raises(ValueError):
        restrict(a, {0})


def test_minimalize_drops_multiples():
    I = MonomialIdeal(exponents([1, 0], [1, 1], [2, 0], [0, 3]), 2)
    assert I.generator_strings() == ["x1", "x2^3"]


def test_canonical_order_is_degree_then_reverse_lex():
    I = MonomialIdeal.from_strings(["x2^2", "x1*x2", "x1^2", "x3^2"], 3)
    assert I.generator_strings() == ["x1^2", "x1*x2", "x2^2", "x3^2"]


@pytest.mark.parametrize("k", [3, _LIST_SORT_ROWS, _LIST_SORT_ROWS + 1, NARROW_SORT_ROWS - 1,
                               NARROW_SORT_ROWS, 3 * NARROW_SORT_ROWS])
@pytest.mark.parametrize("top", [1, 255, 256, 65535, 65536, 2**31 - 1])
def test_canonical_order_matches_the_int64_sort(k, top):
    # a few rows are sorted as lists, and the sort keys of many may be
    # cast narrower; the order, ties included, is that of the int64 rows
    rows = rng.integers(0, top, size=(k, 6), endpoint=True)
    rows[rng.integers(0, k, size=k // 4)] = rows[0]
    rows[1, 2] = top
    want = np.lexsort(rows[:, ::-1].T)[::-1]
    assert np.array_equal(canonical_order(rows), want)
    degs = rows.sum(axis=1)
    want = np.lexsort((*rows[:, ::-1].T, -degs))[::-1]
    assert np.array_equal(canonical_order(rows, degs), want)


def test_ideal_identity_and_hash():
    I = MonomialIdeal.from_strings(["x1", "x1*x2"], 2)
    J = MonomialIdeal.from_strings(["x1"], 2)
    assert I == J
    assert hash(I) == hash(J)
    assert len(I) == 1
    assert I != MonomialIdeal.from_strings(["x2"], 2)
    assert I != MonomialIdeal.from_strings(["x1"], 3)


@pytest.mark.parametrize("k", [0, 1, 2, _CODED_FORMAT_ROWS - 1, _CODED_FORMAT_ROWS, 200])
def test_format_rows_matches_the_loop(k):
    # twelve variables, so x1 and x10 both occur; exponents 1, 2-9 and
    # past 9, zero rows among them; row counts on both sides of the
    # switch to the coded pass
    rows = rng.choice([0, 0, 0, 1, 2, 9, 10, 11, 2**31 - 1], size=(k, 12))
    rows[::5] = 0
    want = [_format_monomial_loop(r) for r in rows]
    assert format_rows(rows) == want
    assert format_rows(rows.astype(np.int32)) == want
    assert [format_monomial(r) for r in rows] == want
    assert [format_monomial(r) for r in rows.tolist()] == want
    # the monomial 1 in no variables
    assert format_rows(np.zeros((k, 0), np.int64)) == ["1"] * k


def test_zero_and_unit():
    Z = MonomialIdeal.zero(3)
    U = MonomialIdeal.unit(3)
    assert Z.is_zero() and not Z.is_unit()
    assert U.is_unit() and not U.is_zero()
    assert len(Z) == 0 and len(U) == 1
    assert U.contains(monomial([5, 0, 0]))
    assert not Z.contains(monomial([5, 0, 0]))
    assert "0" in repr(Z)
    assert Z.generator_strings() == [] and U.generator_strings() == ["1"]


def test_membership():
    I = MonomialIdeal.from_strings(["x1*x2", "x2*x3"], 3)
    assert I.contains(parse_monomial("x1*x2^2", 3))
    assert not I.contains(parse_monomial("x1*x3", 3))
    mask = I.contains_each(exponents([1, 1, 0], [1, 0, 1], [0, 1, 1]))
    assert list(mask) == [True, False, True]
    assert I.contains_ideal(product(I, I))
    assert not product(I, I).contains_ideal(I)


def test_product_and_power():
    I = MonomialIdeal.from_strings(["x1", "x2"], 2)
    sq = power(I, 2)
    assert sq == product(I, I)
    assert sq.generator_strings() == ["x1^2", "x1*x2", "x2^2"]
    assert power(I, 1) is I
    with pytest.raises(ValueError):
        power(I, 0)
    Z = MonomialIdeal.zero(2)
    assert product(I, Z).is_zero()
    with pytest.raises(ValueError):
        product(I, MonomialIdeal.unit(3))


def test_product_past_the_range_overflows():
    # every generator is below 2^31, so only the sum can pass it, and
    # the constructor of the product checks that sum
    I = MonomialIdeal.from_strings(["x1^1073741825"], 1)
    with pytest.raises(OverflowError):
        product(I, I)


def test_intersection():
    A = MonomialIdeal.from_strings(["x2"], 3)
    B = MonomialIdeal.from_strings(["x1", "x3"], 3)
    assert intersection(A, B).generator_strings() == ["x1*x2", "x2*x3"]
    assert intersection(A, MonomialIdeal.zero(3)).is_zero()
    assert intersection(A, MonomialIdeal.unit(3)) == A


def test_localize_contract():
    I = MonomialIdeal.from_strings(["x1*x2", "x2*x3"], 3)
    assert localize_contract(I, {2}).generator_strings() == ["x2"]
    assert localize_contract(I, {1, 3}).generator_strings() == ["x1", "x3"]
    with pytest.raises(ValueError):
        localize_contract(I, {4})
    # nothing to zero: the contraction is the ideal itself
    assert localize_contract(I, {1, 2, 3}) is I
    for J in (MonomialIdeal.zero(3), MonomialIdeal.unit(3)):
        assert localize_contract(J, {2}) is J


def test_variable_prime():
    P = variable_prime({3, 1}, 4)
    assert P.generator_strings() == ["x1", "x3"]
    with pytest.raises(ValueError):
        variable_prime({5}, 4)


def test_alpha():
    I = MonomialIdeal.from_strings(["x1*x2", "x2^3"], 2)
    assert alpha(I) == 2
    with pytest.raises(ValueError):
        alpha(MonomialIdeal.zero(2))


def test_equigenerated_flag():
    assert MonomialIdeal.from_strings(["x1*x2", "x2*x3"], 3).is_equigenerated()
    assert not MonomialIdeal.from_strings(["x1", "x2*x3"], 3).is_equigenerated()
    assert MonomialIdeal.zero(3).is_equigenerated()


def test_generators_are_frozen():
    I = MonomialIdeal.from_strings(["x1"], 2)
    with pytest.raises(ValueError):
        I.gens[0, 0] = 7
