from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from qborel import (
    MonomialIdeal,
    Poset,
    TheoremViolation,
    analytic_spread_principal,
    analytic_spread_sf,
    associated_primes,
    check_transitive_closure_theorem,
    containment_invariants,
    format_monomial,
    generate_principal,
    intersect_contractions,
    intersection,
    max_associated_primes,
    maximal_components,
    move_certificate,
    order_ideal,
    parse_monomial,
    power,
    powers,
    symbolic_power_contractions,
)
from qborel import engine, monomials, oracle, verify


def primes(*sets):
    return frozenset(frozenset(s) for s in sets)


def hasse_components(poset, members):
    # search over the covers between members, listed by smallest member;
    # independent of the down-set merge in Poset
    members = set(members)
    comps = []
    while members:
        comp, todo = set(), [min(members)]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp.add(v)
                todo += [w for e in poset.covers if v in e for w in e if w in members]
        members -= comp
        comps.append(frozenset(comp))
    return comps


def associated_primes_all_divisors(poset, m):
    # the associated primes read off every divisor of m instead of every
    # support set; the slower reference associated_primes is checked on
    m = monomials.monomial(m)
    supp = sorted(monomials.support(m))
    out = set()
    for exps in iproduct(*[range(int(m[i - 1]) + 1) for i in supp]):
        if not any(exps):
            continue
        sub = [i for i, e in zip(supp, exps) if e > 0]
        ideal = poset.down_closure(sub)
        if len(hasse_components(poset, ideal)) == 1:
            out.add(ideal)
    return frozenset(out)


def test_order_ideal(q11, m49):
    assert order_ideal(q11, m49) == {1, 4, 6, 7, 9}
    assert order_ideal(q11, parse_monomial("x9", 11)) == {6, 7, 9}
    assert order_ideal(q11, parse_monomial("x9^2", 11)) == {6, 7, 9}
    assert order_ideal(q11, parse_monomial("1", 11)) == frozenset()


@pytest.mark.parametrize("call", [
    maximal_components,
    associated_primes,
    max_associated_primes,
    analytic_spread_principal,
    analytic_spread_sf,
    pytest.param(lambda poset, m: containment_invariants(poset, m, 2),
                 id="containment_invariants"),
    pytest.param(lambda poset, m: move_certificate(poset, m, m), id="move_certificate"),
    pytest.param(lambda poset, m: check_transitive_closure_theorem(
        poset, m, MonomialIdeal.unit(poset.n)), id="check_transitive_closure_theorem"),
])
def test_entry_points_refuse_one_and_a_wrong_length(q3, call):
    # one prologue in engine validates m for every entry point
    with pytest.raises(ValueError, match="^the closure of the monomial 1 is not defined$"):
        call(q3, parse_monomial("1", 3))
    with pytest.raises(ValueError, match="^monomial has 2 variables, poset has 3$"):
        call(q3, [1, 1])


def test_order_ideal_and_target_refuse_a_wrong_length(q3, m23):
    with pytest.raises(ValueError, match="^monomial has 4 variables, poset has 3$"):
        order_ideal(q3, [0, 1, 1, 0])
    with pytest.raises(ValueError, match="^monomial has 2 variables, poset has 3$"):
        move_certificate(q3, m23, [1, 1])


def test_maximal_components(q11, m49, q3, m23):
    assert [format_monomial(p) for p in maximal_components(q11, m49)] == ["x4", "x9^2"]
    assert [format_monomial(p) for p in maximal_components(q3, m23)] == ["x2", "x3"]
    m = parse_monomial("x5", 11)
    assert [format_monomial(p) for p in maximal_components(q11, m)] == ["x5"]
    with pytest.raises(ValueError):
        maximal_components(q3, parse_monomial("1", 3))


def test_associated_primes_worked(q11, m49):
    assert associated_primes(q11, m49) == primes({1, 4}, {6, 7, 9})


def test_associated_primes_small(q3, m23):
    assert associated_primes(q3, m23) == primes({2}, {1, 3})


def test_associated_primes_antichain():
    anti = Poset(2, [])
    assert associated_primes(anti, parse_monomial("x1*x2", 2)) == primes({1}, {2})


def test_associated_primes_chain():
    chain = Poset(3, [(1, 2), (2, 3)])
    m = parse_monomial("x1*x3", 3)
    assert associated_primes(chain, m) == primes({1}, {1, 2, 3})
    assert max_associated_primes(chain, m) == primes({1, 2, 3})


def test_all_divisor_scan_matches(q11, m49, q3, m23):
    assert associated_primes_all_divisors(q11, m49) == associated_primes(q11, m49)
    assert associated_primes_all_divisors(q3, m23) == associated_primes(q3, m23)


def test_overlapping_down_sets_match_the_divisor_scan():
    # the overlap chaining against Hasse components of every divisor's
    # order ideal, on verify's sampler
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(2000):
        poset, m = verify._poset_monomial(rng, 8, 5)
        got = associated_primes(poset, m)
        assert got == associated_primes_all_divisors(poset, m)
        seen.add(len(got))
    assert len(seen) >= 6


def test_merged_down_sets_match_the_hasse_components():
    # components, maximal primes and component restrictions, merged from
    # overlapping down-sets, against a search of the Hasse diagram of the
    # order ideal
    rng = np.random.default_rng(12)
    for _ in range(2000):
        poset, m = verify._poset_monomial(rng, 8, 5)
        ideal = order_ideal(poset, m)
        comps = hasse_components(poset, ideal)
        assert poset.connected_components(ideal) == comps
        assert max_associated_primes(poset, m) == frozenset(comps)
        want = [monomials.restrict(m, c) for c in comps]
        want.sort(key=lambda part: min(monomials.support(part)))
        got = maximal_components(poset, m)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_max_associated_primes(q11, m49):
    assert max_associated_primes(q11, m49) == primes({1, 4}, {6, 7, 9})
    # every associated prime sits inside exactly one maximal one
    maxes = max_associated_primes(q11, m49)
    for p in associated_primes(q11, m49):
        assert sum(p <= q for q in maxes) == 1


def _component_closures(poset, m):
    return [generate_principal(poset, mk) for mk in maximal_components(poset, m)]


def test_component_decomposition(q11, m49, q3, m23):
    parts = _component_closures(q11, m49)
    assert len(parts) == 2
    meet = intersection(parts[0], parts[1])
    assert meet == generate_principal(q11, m49)

    small = _component_closures(q3, m23)
    assert [p.generator_strings() for p in small] == [["x2"], ["x1", "x3"]]
    assert intersection(small[0], small[1]) == generate_principal(q3, m23)


def test_component_decomposition_connected(q3):
    m = parse_monomial("x3", 3)
    assert _component_closures(q3, m) == [generate_principal(q3, m)]


def test_decomposition_trial_merges_once(q11, m49, count_calls):
    calls, count = count_calls
    count(Poset, "connected_components")
    assert verify.check_decomposition(q11, m49) == []
    assert calls == {"connected_components": 1}


def test_symbolic_power_routes(q3, m23):
    want = MonomialIdeal.from_strings(
        ["x1^2*x2^2", "x1*x2^2*x3", "x2^2*x3^2"], 3)
    I = generate_principal(q3, m23)
    assert power(I, 2) == want
    assert symbolic_power_contractions(q3, m23, powers(I, 2))[1] == want
    every = associated_primes(q3, m23)
    assert intersect_contractions(power(I, 2), every) == want


def test_symbolic_power_is_closure_of_power(q11, m49):
    d = 2
    chain = powers(generate_principal(q11, m49), d)
    assert chain[-1] == generate_principal(q11, np.asarray(m49) * d)
    assert symbolic_power_contractions(q11, m49, chain) == chain


def test_symbolic_power_d1(q3, m23):
    I = generate_principal(q3, m23)
    assert power(I, 1) == I
    assert symbolic_power_contractions(q3, m23, (I,)) == (I,)


def test_containment_invariants(q11, m49, q3, m23):
    data = containment_invariants(q11, m49, 2)
    assert data.waldschmidt == Fraction(3)
    assert data.sdefect == (0, 0)
    assert data.resurgence_bound == Fraction(1)
    assert data.alpha_over_s == (Fraction(3), Fraction(3))

    small = containment_invariants(q3, m23, 3)
    assert small.alpha_over_s == (Fraction(2), Fraction(2), Fraction(2))
    assert small.waldschmidt == 2


def test_containment_invariants_principal():
    anti = Poset(3, [])
    data = containment_invariants(anti, parse_monomial("x1^2*x2", 3), 3)
    assert data.sdefect == (0, 0, 0)
    assert data.waldschmidt == 3


def test_containment_catches_a_power_escaping_the_last(monkeypatch):
    # <x1*x2^5> in place of I^3 for I = <x1*x2>: it equals its own
    # contraction at <x1> and <x2> and has degree 3*deg(m), so only the
    # containment test sees that it escapes I^2
    real = monomials.powers

    def escaping(I, d):
        return real(I, d)[:2] + (MonomialIdeal.from_strings(["x1*x2^5"], 2),)

    monkeypatch.setattr(monomials, "powers", escaping)
    with pytest.raises(TheoremViolation, match="power 3 escapes power 2"):
        containment_invariants(Poset(2, []), parse_monomial("x1*x2", 2), 3)


def test_power_chain_is_built_once(q11, m49, count_calls):
    # one closure per exponent, one product per step of the chain and
    # one witness search on I, however many powers are compared
    calls, count = count_calls
    count(engine, "generate_principal")
    count(monomials, "product")
    count(oracle, "associated_primes_bruteforce")
    assert verify.check_symbolic_powers(q11, m49, 3) == []
    assert calls == {"generate_principal": 3, "product": 2,
                     "associated_primes_bruteforce": 1}
    calls.clear()
    containment_invariants(q11, m49, 3)
    assert calls == {"generate_principal": 1, "product": 2}
