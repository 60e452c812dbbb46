import math
from itertools import product

import numpy as np
import pytest

from qborel import (
    MonomialIdeal,
    format_monomial,
    generate_principal,
    intersect_contractions,
    load_poset,
    parse_monomial,
    power,
    powers,
    symbolic_power_bruteforce,
    variable_prime,
)
from qborel import _kernels, oracle
from qborel.oracle import associated_primes_bruteforce
from test_poset import _peak_bytes
from test_properties import _staircase_at_each_split, _top_witnesses_by_colons


def primes(*sets):
    return frozenset(frozenset(s) for s in sets)


def test_ass_bruteforce_principal_squarefree():
    I = MonomialIdeal.from_strings(["x1*x2"], 2)
    assert associated_primes_bruteforce(I) == primes({1}, {2})


def test_ass_bruteforce_with_embedded_prime():
    I = MonomialIdeal.from_strings(["x1^2", "x1*x2"], 2)
    assert associated_primes_bruteforce(I) == primes({1}, {1, 2})


def test_ass_bruteforce_worked_example(q11, m49):
    I = generate_principal(q11, m49)
    assert associated_primes_bruteforce(I) == primes({1, 4}, {6, 7, 9})


def test_ass_bruteforce_rejects_degenerate():
    with pytest.raises(ValueError):
        associated_primes_bruteforce(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        associated_primes_bruteforce(MonomialIdeal.unit(2))


def check_q11_witnesses(q11, m49):
    I = generate_principal(q11, m49)
    found, witnesses = associated_primes_bruteforce(I, return_witnesses=True)
    assert frozenset(witnesses) == found
    for prime, f in witnesses.items():
        # I : f, from the quotients of the generators by f
        quotients = np.clip(I.gens - f[None, :], 0, None)
        assert MonomialIdeal(quotients, I.nvars) == variable_prime(prime, I.nvars)
    # the lex-least top witness of each prime: at the lcm x1*x4*x6^2*x7^2*x9^2
    # outside the prime, outside I, and in I after one more step on any
    # axis of the prime.  I = <x1,x4>*<x6,x7,x9>^2, so <x1,x4> has only
    # x6^2*x7^2*x9^2, and <x6,x7,x9> has x1*x4 times one of x6, x7, x9,
    # of which x9 is lex-least
    assert {p: format_monomial(f) for p, f in witnesses.items()} == {
        frozenset({1, 4}): "x6^2*x7^2*x9^2",
        frozenset({6, 7, 9}): "x1*x4*x9",
    }


def test_witnesses_are_sound(q11, m49):
    check_q11_witnesses(q11, m49)


def test_witnesses_are_sound_on_the_walk(monkeypatch, q11, m49):
    # a zero cell budget sends every ideal to the walk
    monkeypatch.setattr(oracle, "_GRID_CELLS", 0)
    check_q11_witnesses(q11, m49)


def test_wide_maximal_ideal_takes_the_walk(monkeypatch):
    # 2^70 cells: the count must not wrap, and 70 grid axes would pass
    # numpy's dimension limit, so only the walk can take this box
    def no_grid(gens, bound):
        raise AssertionError("the staircase route took a 2^70-cell box")

    real = _kernels.colon_class
    calls = []

    def counted(gens, f, vbuf):
        calls.append(1)
        return real(gens, f, vbuf)

    monkeypatch.setattr(oracle, "_staircase_witnesses", no_grid)
    monkeypatch.setattr(_kernels, "colon_class", counted)
    I = MonomialIdeal(np.eye(70, dtype=np.int64), 70)
    found, witnesses = associated_primes_bruteforce(I, return_witnesses=True)
    assert found == primes(range(1, 71))
    assert not witnesses[frozenset(range(1, 71))].any()
    # the origin and its 70 neighbours, all of which lie in I
    assert len(calls) == 71


def test_walk_steps_over_unused_exponents(monkeypatch, count_calls):
    # x1^65536 has 65,537 divisors, but the walk visits only 1, x1^65535
    # (one below the generator, the prime witness) and the lcm
    calls, count = count_calls
    count(_kernels, "colon_class")
    monkeypatch.setattr(oracle, "_GRID_CELLS", 0)
    I = MonomialIdeal.from_strings(["x1^65536"], 1)
    found, witnesses = associated_primes_bruteforce(I, return_witnesses=True)
    assert found == primes({1})
    assert witnesses[frozenset({1})].tolist() == [65535]
    assert calls["colon_class"] <= 3


def _by_route(route, I):
    gens = np.ascontiguousarray(I.gens)
    found = route(gens, gens.max(axis=0).tolist())
    return frozenset(found), sorted(found.items(), key=lambda item: item[1])


def _grid_witnesses(gens, bound):
    # the staircase test on a numpy boolean grid with one axis per used
    # variable, a reference for the bit layout of the staircase route
    bound = np.array(bound)
    axes = np.flatnonzero(bound).tolist()
    inside = np.zeros(tuple(bound[axes] + 1), np.bool_)
    inside[tuple(gens[:, axes].T)] = True
    for a in range(len(axes)):
        np.logical_or.accumulate(inside, axis=a, out=inside)
    ok = ~inside
    for a in range(len(axes)):
        lead = (slice(None),) * a
        ok[lead + (slice(None, -1),)] &= inside[lead + (slice(1, None),)]
    found = {}
    for cell in np.argwhere(ok).tolist():
        f = np.zeros(bound.size, np.int64)
        f[axes] = cell
        found.setdefault(frozenset(c + 1 for c in axes if f[c] < bound[c]), f.tolist())
    return found


TOPS = (1, 2, 3, 4, 7, 8)
EDGE_CASES = {
    **{f"one axis, top {t}": ([f"x1^{t}"], 1) for t in TOPS},
    # the doubling fill on x3 ends on and off a power of two, and only
    # the fill from x1 reaches x1*x3^t
    **{f"three axes, top {t}": (["x1", f"x2*x3^{t}", f"x2^2*x3^{t // 2}"], 3)
       for t in TOPS},
    "unused variables between used ones": (["x2*x4^2", "x4*x6^3", "x2^2*x6"], 7),
    # a minimal generator at the lcm is the only one
    "a generator at the lcm corner": (["x1^2*x2^3*x4"], 4),
    "embedded primes": (["x1^3", "x1^2*x2", "x1*x2^2*x3"], 3),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_bitset_edge_cases_match_the_walk_and_every_colon(case):
    gens, n = EDGE_CASES[case]
    I = MonomialIdeal.from_strings(gens, n)
    want = _top_witnesses_by_colons(I)
    assert _staircase_at_each_split(I) == want
    assert _by_route(oracle._walk_witnesses, I) == want
    assert _by_route(_grid_witnesses, I) == want


def test_bitset_matches_the_grid_on_142_primes():
    # 1,679,616 cells on 8 axes; the walk takes tens of seconds here, so the
    # boolean grid is the reference, and each witness is checked by its colon
    I = MonomialIdeal(np.random.default_rng(5).integers(0, 6, (500, 8)), 8)
    found = _staircase_at_each_split(I)
    assert found == _by_route(_grid_witnesses, I)
    assert len(found[0]) == 142
    lcm = I.gens.max(axis=0)
    for prime, f in found[1]:
        quotients = np.clip(I.gens - np.array(f), 0, None)
        assert MonomialIdeal(quotients, 8) == variable_prime(prime, 8)
        assert all(f[c] == lcm[c] for c in range(8) if c + 1 not in prime)


def _bits(cells):
    return int.from_bytes(np.packbits(cells.ravel(), bitorder="little"), "little")


@pytest.mark.parametrize("axes", [1, 2, 3, 4])
def test_axis_masks_match_the_coordinates(axes):
    # every box of up to 4 axes with tops 0..8, unused axes (top 0)
    # between used ones included: each used axis's bottom, top and fill
    # masks against its coordinate in np.indices
    for bound in product(range(9), repeat=axes):
        cells = math.prod(t + 1 for t in bound)
        coords = np.indices([t + 1 for t in bound])
        for c, t in enumerate(bound):
            if not t:
                continue
            s = math.prod(u + 1 for u in bound[c + 1:])
            top = oracle._axis_top(s, t, cells)
            assert top == _bits(coords[c] == t)
            assert top >> t * s == _bits(coords[c] == 0)
            fills = list(oracle._fill_masks(top, s, t, (1 << cells) - 1))
            steps = [1 << k for k in range(t.bit_length())]
            assert fills == [(d * s, _bits(coords[c] >= d)) for d in steps]


def test_one_top_mask_per_axis(m49, data_dir, count_calls):
    # a small box builds one top mask per used axis and derives its
    # other masks from it
    calls, count = count_calls
    count(oracle, "_staircase_witnesses")
    count(oracle, "_axis_top")
    I = power(generate_principal(load_poset(data_dir / "q11.json"), m49), 2)
    bound = I.gens.max(axis=0)
    assert math.prod(int(t) + 1 for t in bound) <= oracle._INT_CELLS
    associated_primes_bruteforce(I)
    assert calls == {"_staircase_witnesses": 1, "_axis_top": np.count_nonzero(bound)}


def _no_walk(gens, bound):
    raise AssertionError("the walk took a box within the cell budget")


def test_cube_closure_on_q11_takes_the_staircase(monkeypatch, q11):
    monkeypatch.setattr(oracle, "_walk_witnesses", _no_walk)
    I = generate_principal(q11, parse_monomial("x2^3*x5^3*x11^3", q11.n))
    assert math.prod(int(b) + 1 for b in I.gens.max(axis=0)) == 12_845_056
    assert associated_primes_bruteforce(I) == primes({1, 2}, range(1, 6), range(6, 12))


def test_staircase_peaks_near_a_byte_per_cell(monkeypatch):
    # the byte grid that marks the generators is the largest buffer: one
    # byte per cell, so 4.2 MB at 2^22 cells and 16.8 MB at 2^24
    monkeypatch.setattr(oracle, "_walk_witnesses", _no_walk)
    for n, limit in ((22, 8.4e6), (24, 32e6)):
        I = MonomialIdeal(np.eye(n, dtype=np.int64), n)
        assert _peak_bytes(lambda: associated_primes_bruteforce(I)) < limit


def test_symbolic_bruteforce_principal():
    I = MonomialIdeal.from_strings(["x1^2*x2"], 2)
    assert symbolic_power_bruteforce(I, powers(I, 3)) == powers(I, 3)


def test_symbolic_bruteforce_small(q3, m23):
    I = generate_principal(q3, m23)
    want = MonomialIdeal.from_strings(
        ["x1^2*x2^2", "x1*x2^2*x3", "x2^2*x3^2"], 3)
    assert symbolic_power_bruteforce(I, (power(I, 2),)) == (want,)
    every = associated_primes_bruteforce(I)
    assert intersect_contractions(power(I, 2), every) == want


def test_symbolic_bruteforce_contains_power_generally():
    # on a non-closure ideal the symbolic power may be strictly larger
    I = MonomialIdeal.from_strings(["x1*x2", "x2*x3", "x1*x3"], 3)
    _, sym = symbolic_power_bruteforce(I, powers(I, 2))
    assert sym.contains_ideal(power(I, 2))
    assert not power(I, 2).contains_ideal(sym)
    # x1*x2*x3 is the classical witness of the gap
    assert sym.contains([1, 1, 1])
    assert not power(I, 2).contains([1, 1, 1])
