import numpy as np
import pytest

from qborel import (
    BorelMove,
    MonomialIdeal,
    Poset,
    apply_move,
    expand_factorization,
    format_monomial,
    generate_from_set,
    generate_principal,
    generate_sf_principal,
    move_certificate,
    parse_monomial,
    transversal_factorization,
)
from qborel import engine, monomials

# the twelve generators of the closure of x4*x9^2 on the 11-element poset
Q11_GENS = {
    "x1*x6^2", "x1*x6*x7", "x1*x7^2", "x1*x6*x9", "x1*x7*x9", "x1*x9^2",
    "x4*x6^2", "x4*x6*x7", "x4*x7^2", "x4*x6*x9", "x4*x7*x9", "x4*x9^2",
}


def test_move_validation(q11):
    mv = BorelMove(4, 1, q11)
    assert repr(mv) == "x4 -> x1"
    with pytest.raises(ValueError):
        BorelMove(4, 3, q11)  # x3 not below x4
    with pytest.raises(ValueError):
        BorelMove(4, 4, q11)


def test_apply_move(q11, m49):
    out = apply_move(m49, BorelMove(4, 1, q11))
    assert format_monomial(out) == "x1*x9^2"
    with pytest.raises(ValueError):
        apply_move(out, BorelMove(4, 1, q11))


def test_apply_move_small(q3, m23):
    assert format_monomial(apply_move(m23, BorelMove(3, 1, q3))) == "x1*x2"


def test_generate_worked_example(q11, m49):
    I = generate_principal(q11, m49)
    assert set(I.generator_strings()) == Q11_GENS
    assert len(I) == 12
    assert I.generator_strings()[0] == "x1*x6^2"
    assert I.is_equigenerated()


def test_generate_small(q3, m23):
    I = generate_principal(q3, m23)
    assert I.generator_strings() == ["x1*x2", "x2*x3"]


def test_generate_antichain():
    from qborel import Poset
    anti = Poset(4, [])
    m = parse_monomial("x2^2*x3", 4)
    I = generate_principal(anti, m)
    assert I == MonomialIdeal(m[None, :], 4)


def test_generate_rejects_unit(q3):
    with pytest.raises(ValueError):
        generate_principal(q3, parse_monomial("1", 3))
    with pytest.raises(ValueError):
        generate_principal(q3, parse_monomial("x1*x2", 2))


def test_generate_from_set(q11):
    # the degree-1 closure of x5 swallows the whole closure of x1*x2
    swallowed = generate_from_set(
        q11, [parse_monomial("x5", 11), parse_monomial("x1*x2", 11)])
    assert swallowed == generate_principal(q11, parse_monomial("x5", 11))
    assert swallowed.is_equigenerated()
    ms = [parse_monomial("x3", 11), parse_monomial("x6*x7", 11)]
    I = generate_from_set(q11, ms)
    pieces = [generate_principal(q11, m) for m in ms]
    rows = np.concatenate([p.gens for p in pieces])
    assert I == MonomialIdeal(rows, 11)
    assert not I.is_equigenerated()
    with pytest.raises(ValueError):
        generate_from_set(q11, [])
    with pytest.raises(ValueError):
        generate_from_set(q11, [parse_monomial("1", 11)])


def test_sf_generate_worked_example(q6, m1236):
    I = generate_sf_principal(q6, m1236)
    assert set(I.generator_strings()) == {
        "x1*x2*x3*x6", "x1*x2*x3*x5", "x1*x2*x3*x4"}


def test_sf_generate_is_the_squarefree_part(q11):
    m = parse_monomial("x4*x9", 11)
    full = generate_principal(q11, m)
    sf = generate_sf_principal(q11, m)
    expect = full.gens[(full.gens <= 1).all(axis=1)]
    assert sf == MonomialIdeal(expect, 11)


def test_sf_generate_rejects_squares(q11, m49):
    with pytest.raises(ValueError):
        generate_sf_principal(q11, m49)


def test_chain_closures():
    from qborel import Poset
    chain = Poset(3, [(1, 2), (2, 3)])
    m = parse_monomial("x2*x3", 3)
    I = generate_principal(chain, m)
    assert I.generator_strings() == [
        "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3"]
    sf = generate_sf_principal(chain, parse_monomial("x2*x3", 3))
    assert sf.generator_strings() == ["x1*x2", "x1*x3", "x2*x3"]


def _spy_sorts(monkeypatch):
    # record the dtype of every canonical sort and whether it sorts on
    # the columns alone, as for rows of one degree
    seen = []
    real = monomials.canonical_order

    def spy(rows, degs=None):
        seen.append((rows.dtype, degs is None))
        return real(rows, degs)

    monkeypatch.setattr(monomials, "canonical_order", spy)
    return seen


def test_orbit_sorts_one_layer_per_unit_moved(monkeypatch):
    # the walk dedups one layer per unit of transport distance from m,
    # so at most deg m times, on the columns alone, and hands back its
    # distinct rows in the narrow type it holds them in
    seen = _spy_sorts(monkeypatch)
    chain = Poset(8, [(i, i + 1) for i in range(1, 8)])
    rows = engine._orbit_rows(chain, parse_monomial("x8^4", 8))
    assert rows.shape == (330, 8) and rows.dtype == np.int8
    assert np.unique(rows, axis=0).shape == rows.shape
    assert seen == [(np.int8, True)] * 4


def test_closure_is_sorted_once_and_not_minimalized(monkeypatch):
    # the walk's rows are distinct and of one degree, so the ideal sorts
    # them once more in their narrow type and keeps them all: equal to
    # what the full constructor makes of them, int64 and read-only
    seen = _spy_sorts(monkeypatch)
    chain = Poset(8, [(i, i + 1) for i in range(1, 8)])
    m = parse_monomial("x8^4", 8)
    rows = engine._orbit_rows(chain, m)
    seen.clear()

    def minimal_rows(rows):
        raise AssertionError("an orbit was minimalized")

    with monkeypatch.context() as patch:
        patch.setattr(monomials, "_minimal_rows", minimal_rows)
        I = generate_principal(chain, m)
        assert seen == [(np.int8, True)] * 5
        sf = generate_sf_principal(chain, parse_monomial("x2*x5*x8", 8))
    assert I == MonomialIdeal(rows, 8) == MonomialIdeal(rows[::-1], 8)
    assert I.gens.dtype == np.int64 and not I.gens.flags.writeable
    assert sf.generator_strings()[0] == "x1*x2*x3" and len(sf) == 30


def test_closure_past_the_range_overflows(monkeypatch):
    # every exponent stays at most deg m, so only a degree at the limit
    # is checked; a closure that gathers the degree on one variable
    # must still be refused with the constructor's message
    monkeypatch.setattr(monomials, "_EXPONENT_LIMIT", 4)
    chain = Poset(2, [(1, 2)])
    assert len(generate_principal(chain, parse_monomial("x1*x2^2", 2))) == 3
    with pytest.raises(OverflowError, match="exponent exceeds the supported range"):
        generate_principal(chain, parse_monomial("x1^2*x2^2", 2))
    # square-free rows never leave the range, whatever their degree
    sf = generate_sf_principal(Poset(4, [(1, 2), (1, 3), (1, 4)]),
                               parse_monomial("x1*x2*x3*x4", 4))
    assert sf.generator_strings() == ["x1*x2*x3*x4"]


@pytest.mark.parametrize("d", [127, 128, 255, 256])
def test_orbit_holds_exponents_past_a_narrow_type(d):
    # deg m picks the type the walk holds its rows in; the exponents at
    # either side of a type's limit must come back intact
    rows = engine._orbit_rows(Poset(2, [(1, 2)]), np.array([0, d], np.int64))
    assert sorted(rows[:, 0].tolist()) == list(range(d + 1))
    assert (rows.sum(axis=1) == d).all()


def test_transversal_factorization(q11, m49, q3, m23):
    assert transversal_factorization(q11, m49) == [
        (frozenset({1, 4}), 1), (frozenset({6, 7, 9}), 2)]
    assert transversal_factorization(q3, m23) == [
        (frozenset({2}), 1), (frozenset({1, 3}), 1)]


def test_expand_factorization_recovers_closure(q11, m49):
    factors = transversal_factorization(q11, m49)
    assert expand_factorization(factors, 11) == generate_principal(q11, m49)


def test_certificate_worked_example(q11, m49):
    target = parse_monomial("x1*x6*x7", 11)
    moves = move_certificate(q11, m49, target)
    assert [repr(mv) for mv in moves] == ["x4 -> x1", "x9 -> x6", "x9 -> x7"]


def test_certificate_small(q3, m23):
    moves = move_certificate(q3, m23, parse_monomial("x1*x2", 3))
    assert [(mv.i, mv.j) for mv in moves] == [(3, 1)]
    assert move_certificate(q3, m23, m23) == []


def test_certificate_divides_only_supp(q11, m49):
    # only supported variables are divided, and the moves replay in
    # order to the target through nonnegative intermediates
    I = generate_principal(q11, m49)
    supp = {4, 9}
    for g in I.gens:
        moves = move_certificate(q11, m49, g)
        assert {mv.i for mv in moves} <= supp
        total = np.asarray(m49).copy()
        for mv in moves:
            total = apply_move(total, mv)
            assert (total >= 0).all()
        assert np.array_equal(total, g)


def test_certificate_reroutes_a_unit():
    # x3 reaches x1 and x2, x4 reaches only x1: shipping x3 -> x1 first
    # would strand x4, so the plan must send x3's unit to x2 instead
    q = Poset(4, [(1, 3), (2, 3), (1, 4)])
    moves = move_certificate(q, parse_monomial("x3*x4", 4),
                             parse_monomial("x1*x2", 4))
    assert [repr(mv) for mv in moves] == ["x3 -> x2", "x4 -> x1"]


def test_certificate_needs_no_closure(monkeypatch):
    # the closure of x14^12 on a 14-chain has 5.2M generators; the plan
    # ships the twelve units without generating any of them
    chain = Poset(14, [(k, k + 1) for k in range(1, 14)])

    def no_orbit(*args, **kwargs):
        raise AssertionError("the certificate generated the closure")

    monkeypatch.setattr(engine, "_orbit_rows", no_orbit)
    moves = move_certificate(chain, parse_monomial("x14^12", 14),
                             parse_monomial("x1^12", 14))
    assert [repr(mv) for mv in moves] == ["x14 -> x1"] * 12
    with pytest.raises(ValueError):
        move_certificate(chain, parse_monomial("x1^12", 14),
                         parse_monomial("x14^12", 14))


def test_certificate_builds_one_move_per_pair(count_calls):
    # the certificate repeats one checked move per pair of the plan, so
    # its cost does not grow with the exponents
    calls, count = count_calls
    count(engine, "BorelMove")
    chain = Poset(3, [(1, 2), (2, 3)])
    moves = move_certificate(chain, parse_monomial("x2^500*x3^700", 3),
                             parse_monomial("x1^1200", 3))
    assert [repr(mv) for mv in moves] == ["x2 -> x1"] * 500 + ["x3 -> x1"] * 700
    assert calls == {"BorelMove": 2}


def test_certificate_rejects_outsider(q3, m23):
    with pytest.raises(ValueError):
        move_certificate(q3, m23, parse_monomial("x1*x3", 3))
