import math
import pathlib
import re

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
import qborel
from qborel import engine, monomials
from test_poset import _peak_bytes

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


def test_generate_rejects_non_integral_exponents(q3):
    # truncated, [0.5, 1, 0] would be x2 and [1.7, 1, 0] x1*x2
    for m in ([0.5, 1, 0], [1.7, 1, 0], np.array([0.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="exponents must be integers"):
            generate_principal(q3, m)
    assert generate_principal(q3, np.array([0, 1, 1], np.uint8)).generator_strings() == [
        "x1*x2", "x2*x3"]


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


def _spy_dedups(monkeypatch):
    # record the dtype of every layer the walk dedups
    seen = []
    real = engine._distinct_words

    def spy(rows):
        seen.append(rows.dtype)
        return real(rows)

    monkeypatch.setattr(engine, "_distinct_words", spy)
    return seen


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
    # past the bound, the walk dedups one layer per unit of transport
    # distance from m, so at most deg m times, each by a sort over the
    # words of its narrow rows, and then sorts its rows once into
    # canonical order.  Within the bound the sums come out in that order
    # on python ints: no dedup and no sort of an array.  Both hand back
    # the same distinct rows, in the narrow type that holds deg m
    dedups = _spy_dedups(monkeypatch)
    sorts = _spy_sorts(monkeypatch)
    chain = Poset(8, [(i, i + 1) for i in range(1, 8)])
    m = parse_monomial("x8^4", 8)
    assert engine.closure_bound(chain, m) == 330 <= engine._SUM_BOUND
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_SUM_BOUND", 0)
        rows = engine._closure_rows(chain, m)
    assert dedups == [np.int8] * 4 and sorts == [(np.int8, True)]
    assert rows.shape == (330, 8) and rows.dtype == np.int8
    assert np.array_equal(rows, np.unique(rows, axis=0)[::-1])
    dedups.clear()
    sorts.clear()
    sums = engine._closure_rows(chain, m)
    assert dedups == [] and sorts == []
    assert sums.dtype == np.int8 and np.array_equal(sums, rows)


def test_closure_is_sorted_once_and_not_minimalized(monkeypatch):
    # a closure's rows are distinct, of one degree and in canonical
    # order, so the ideal neither sorts nor minimalizes them: the sums
    # sort no array, and the walk sorts its rows once.  The ideal equals
    # what the full constructor makes of the rows, int64 and read-only
    seen = _spy_sorts(monkeypatch)
    chain = Poset(8, [(i, i + 1) for i in range(1, 8)])
    m = parse_monomial("x8^4", 8)
    rows = engine._closure_rows(chain, m)
    seen.clear()

    def minimal_rows(rows):
        raise AssertionError("an orbit was minimalized")

    with monkeypatch.context() as patch:
        patch.setattr(monomials, "_minimal_rows", minimal_rows)
        I = generate_principal(chain, m)
        sf = generate_sf_principal(chain, parse_monomial("x2*x5*x8", 8))
        assert seen == []
        patch.setattr(engine, "_SUM_BOUND", 0)
        assert generate_principal(chain, m) == I
        assert seen == [(np.int8, True)]
        assert generate_sf_principal(chain, parse_monomial("x2*x5*x8", 8)) == sf
    assert I == MonomialIdeal(rows, 8) == MonomialIdeal(rows[::-1], 8)
    assert I.gens.dtype == np.int64 and not I.gens.flags.writeable
    assert I.gens.flags.c_contiguous
    assert sf.generator_strings()[0] == "x1*x2*x3" and len(sf) == 30


def test_orbit_on_minimal_elements_is_the_monomial(monkeypatch, q11):
    # x1, x3, x6 and x7 have nothing below them, so the closure bound is
    # 1 and no move applies: the route hands back m itself and dedups
    # nothing
    def no_dedup(rows):
        raise AssertionError("a move-free orbit was deduped")

    monkeypatch.setattr(engine, "_distinct_words", no_dedup)
    m = parse_monomial("x1^2*x3*x6", 11)
    assert engine.closure_bound(q11, m) == 1
    rows = engine._closure_rows(q11, m)
    assert rows.shape == (1, 11) and np.array_equal(rows[0], m)
    assert generate_principal(q11, m).generator_strings() == ["x1^2*x3*x6"]
    sf = generate_sf_principal(q11, parse_monomial("x1*x3*x7", 11))
    assert sf.generator_strings() == ["x1*x3*x7"]
    both = generate_from_set(q11, [m, parse_monomial("x7^4", 11)])
    assert both.generator_strings() == ["x1^2*x3*x6", "x7^4"]


def test_orbit_walk_memory_is_bounded():
    # x8^10 on an 8-chain has 19,448 rows, 156 kB at one byte a cell, and
    # its bound sends it to the walk; the walk's peak, layers, children
    # and the final sort included, was measured at 1.65 MB
    chain = Poset(8, [(i, i + 1) for i in range(1, 8)])
    m = parse_monomial("x8^10", 8)
    assert engine.closure_bound(chain, m) == 19448 > engine._SUM_BOUND
    assert _peak_bytes(lambda: engine._closure_rows(chain, m)) < 2.5e6


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
def test_orbit_holds_exponents_past_a_narrow_type(monkeypatch, d):
    # deg m picks the type the sums and the walk hold their rows in; the
    # exponents at either side of a type's limit must come back intact
    chain = Poset(2, [(1, 2)])
    m = np.array([0, d], np.int64)
    assert engine.closure_bound(chain, m) == d + 1 <= engine._SUM_BOUND
    for bound in (0, engine._SUM_BOUND):
        monkeypatch.setattr(engine, "_SUM_BOUND", bound)
        rows = engine._closure_rows(chain, m)
        assert rows[:, 0].tolist() == list(range(d, -1, -1))
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

    monkeypatch.setattr(engine, "_closure_rows", no_orbit)
    moves = move_certificate(chain, parse_monomial("x14^12", 14),
                             parse_monomial("x1^12", 14))
    assert [repr(mv) for mv in moves] == ["x14 -> x1"] * 12
    with pytest.raises(ValueError):
        move_certificate(chain, parse_monomial("x1^12", 14),
                         parse_monomial("x14^12", 14))


def test_closure_bound_generates_nothing(monkeypatch, q11):
    # the bound multiplies the counts of degree-a_i monomials on each
    # down-set A_i: C(25, 12) for x14^12 on a 14-chain, where it is
    # exact, read off the factorization without building any row
    chain = Poset(14, [(k, k + 1) for k in range(1, 14)])

    def no_orbit(*args, **kwargs):
        raise AssertionError("the bound generated the closure")

    monkeypatch.setattr(engine, "_closure_rows", no_orbit)
    monkeypatch.setattr(engine, "_walk_rows", no_orbit)
    assert engine.closure_bound(chain, parse_monomial("x14^12", 14)) == math.comb(25, 12) == 5200300
    # on q11 the down-sets of x2, x5 and x11 have 2, 5 and 6 elements:
    # C(4, 3) * C(7, 3) * C(8, 3), against 5,320 generators
    m = parse_monomial("x2^3*x5^3*x11^3", 11)
    assert [(len(A), a) for A, a in transversal_factorization(q11, m)] == [(2, 3), (5, 3), (6, 3)]
    assert engine.closure_bound(q11, m) == 4 * 35 * 56 == 7840
    with pytest.raises(ValueError):
        engine.closure_bound(q11, np.zeros(11, np.int64))


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


def test_only_engine_validates_a_monomial_against_a_poset():
    # every entry point goes through engine.ambient_monomial or
    # engine.closure_monomial instead of a copy of the check
    src = pathlib.Path(qborel.__file__).parent
    check = re.compile(r"(?:\bmonomials\.|(?<![\w.]))monomial\(|_check_ambient\(")
    callers = sorted(path.name for path in src.glob("*.py")
                     if path.name not in ("engine.py", "monomials.py")
                     and check.search(path.read_text()))
    assert callers == []
