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


def exponents(*rows):
    return np.array(rows, dtype=np.int64)


def test_parse_and_format_round_trip():
    m = parse_monomial("x4*x9^2", 11)
    assert degree(m) == 3
    assert support(m) == {4, 9}
    assert format_monomial(m) == "x4*x9^2"
    assert format_monomial(parse_monomial("1", 5)) == "1"
    # repeated factors accumulate
    assert format_monomial(parse_monomial("x2*x2^2", 3)) == "x2^3"


@pytest.mark.parametrize("bad", ["", "x0", "x12", "y3", "x4^", "x4**x5", "x-1"])
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


def test_ideal_identity_and_hash():
    I = MonomialIdeal.from_strings(["x1", "x1*x2"], 2)
    J = MonomialIdeal.from_strings(["x1"], 2)
    assert I == J
    assert hash(I) == hash(J)
    assert len(I) == 1
    assert I != MonomialIdeal.from_strings(["x2"], 2)
    assert I != MonomialIdeal.from_strings(["x1"], 3)


def test_zero_and_unit():
    Z = MonomialIdeal.zero(3)
    U = MonomialIdeal.unit(3)
    assert Z.is_zero() and not Z.is_unit()
    assert U.is_unit() and not U.is_zero()
    assert len(Z) == 0 and len(U) == 1
    assert U.contains(monomial([5, 0, 0]))
    assert not Z.contains(monomial([5, 0, 0]))
    assert "0" in repr(Z)


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
