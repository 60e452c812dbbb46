"""Brute-force verifiers that bypass every structural shortcut.

These work from generator arrays alone, never from the poset, so they
can sit on the other side of an equality check from the closed forms.

Associated primes come from colon witnesses in the box of divisors of
the lcm of the generators.  Every associated prime has a top witness:
one that sits at the lcm on every axis outside the prime.  A box of at
most _GRID_CELLS cells is read as a staircase: the membership bitset
of the ideal, on which one test per axis finds every top witness at
once.  A larger box falls back to a depth-first walk that classifies
the colon of each divisor outside the ideal whose exponents are 0, one
below some generator's or the lcm's, so its cost follows the distinct
exponents of the generators, not their size.  Both routes return the
same primes and, for each prime, the same witness: its lex-least top
witness.
"""

import math

import numpy as np

from . import _kernels, monomials
from .monomials import MonomialIdeal

# Largest lcm box, in cells, that the staircase route builds: 16.8M.
# Its peak is the byte per cell that marks the generators, and later the
# one that lists the witnesses; the bitsets take a few bits per cell.
_GRID_CELLS = 1 << 24


def _maximal_sets(sets):
    return frozenset(S for S in sets if not any(S < T for T in sets))


def associated_primes_bruteforce(I, return_witnesses=False):
    """Associated primes of a monomial ideal by colon witness search.

    A divisor f of the lcm of G(I) witnesses the prime on the variable
    set P when I : x^f = <x_c : c in P>.  Every associated prime has
    such a witness in the divisor box: truncating an arbitrary witness
    at the lcm leaves the colon unchanged.  It also has a top witness,
    one at the lcm on every axis outside P: raising a witness there
    leaves the colon unchanged.  With return_witnesses the second value
    maps each prime to its lex-least top witness, in ascending order of
    the witnesses.
    """
    if I.is_zero() or I.is_unit():
        raise ValueError("associated primes need a proper nonzero ideal")
    gens = np.ascontiguousarray(I.gens)
    bound = gens.max(axis=0)
    # python ints: the product of 70 factors of two wraps in int64
    cells = math.prod(int(b) + 1 for b in bound.tolist())
    if cells <= _GRID_CELLS:
        found = _staircase_witnesses(gens, bound)
    else:
        found = _walk_witnesses(gens, bound)
    if return_witnesses:
        return frozenset(found), {
            prime: np.array(f, np.int64)
            for prime, f in sorted(found.items(), key=lambda item: item[1])
        }
    return frozenset(found)


def _staircase_witnesses(gens, bound):
    """Every prime and its lex-least top witness from the membership bitset.

    A cell f outside I whose every axis below the top steps into I is a
    top witness of the prime on those axes: x_c lies in I : x^f for each
    such c, and a monomial in none of them raises f only on axes already
    at the lcm, so its product with x^f stays outside I.  The all-top
    cell is the lcm, which lies in I, so that prime is never empty.
    Each mask is one python int whose bit i is cell i of the box in C
    order, which is lex order.
    """
    # C-order strides; a variable no generator uses scales only zeros
    bound = bound.tolist()
    stride, cells = [], 1
    for t in reversed(bound):
        stride.append(cells)
        cells *= t + 1
    stride.reverse()
    plan = [(c, stride[c], t) for c, t in enumerate(bound) if t]
    grid = np.zeros(cells, np.uint8)
    grid[gens @ np.array(stride)] = 1
    inside = int.from_bytes(np.packbits(grid, bitorder="little"), "little")
    del grid
    # fill upward along each axis by shifts of 1, 2, 4, ...: keep limits
    # the shift by d to the cells at least d up the axis, and after it
    # each cell holds every cell less than 2d below it
    for _, s, t in plan:
        period = s * (t + 1)
        d = 1
        while d <= t:
            keep = _tile((1 << period) - (1 << d * s), period, cells // period)
            inside |= (inside << d * s) & keep
            d *= 2
    # cells outside I from which each step up that stays in the box enters I
    ok = ((1 << cells) - 1) ^ inside
    for _, s, t in plan:
        period = s * (t + 1)
        ok &= (inside >> s) | _tile(((1 << s) - 1) << t * s, period, cells // period)
    del inside
    bits = np.unpackbits(np.frombuffer(ok.to_bytes(-(-cells // 8), "little"), np.uint8),
                         bitorder="little")
    # ascending cells are in lex order, so each prime's first is its least;
    # a cell's prime is keyed by the int whose bit c marks axis c in it
    found = {}
    for i in bits.nonzero()[0].tolist():
        f = [0] * len(bound)
        code = 0
        for c, s, t in plan:
            f[c], i = divmod(i, s)
            if f[c] < t:
                code |= 1 << c
        if code not in found:
            found[code] = f
    return {frozenset(c + 1 for c, _, _ in plan if code >> c & 1): f
            for code, f in found.items()}


def _tile(pattern, period, count):
    """count copies of a period-bit pattern side by side, by doubling shifts."""
    out = done = 0
    # the bits of count, highest first: double the copies, then add one
    for bit in bin(count)[2:]:
        out |= out << done * period
        done *= 2
        if bit == "1":
            out = out << period | pattern
            done += 1
    return out


def _walk_witnesses(gens, bound):
    """Every prime and its lex-least top witness by a depth-first walk.

    On each axis c the walk visits only 0, u_c - 1 for each generator u
    with u_c > 0, and the lcm exponent.  Every top witness lies on that
    grid: on an axis of its prime one more step enters I, so some
    generator sits one above it there.  A step raises one axis no
    smaller than the last one raised, so each cell is reached once, and
    every cell on the way to a witness divides it and lies outside I.
    Members of I are pruned with their multiples, whose colons are the
    unit ideal.  Each prime witness met is raised to the lcm outside its
    prime, which leaves its colon unchanged.
    """
    step = []
    for col, top in zip(gens.T, bound.tolist()):
        vals = np.unique(np.append(col[col > 0] - 1, [0, top])).tolist()
        step.append(dict(zip(vals, vals[1:])))
    vbuf = np.zeros(bound.size, dtype=np.bool_)
    found = {}
    stack = [(np.zeros(bound.size, dtype=np.int64), 0)]
    while stack:
        f, first = stack.pop()
        code = _kernels.colon_class(gens, f, vbuf)
        if code == 0:
            continue
        if code == 1:
            prime = frozenset(int(i) + 1 for i in np.flatnonzero(vbuf))
            raised = np.where(vbuf, f, bound).tolist()
            if prime not in found or raised < found[prime]:
                found[prime] = raised
        for c in range(first, bound.size):
            nxt = step[c].get(int(f[c]))
            if nxt is not None:
                g = f.copy()
                g[c] = nxt
                stack.append((g, c))
    return found


def intersect_contractions(I, primes):
    """Intersect the contractions of I localized at the given primes.

    Reads generators and variable sets only.  For I = J^d and the
    associated primes of J this is the d-th symbolic power of J.
    Contraction at a smaller prime only grows the ideal, so the
    inclusion-maximal primes give the same intersection.  No primes
    give the unit ideal.
    """
    out = None
    for P in sorted(primes, key=sorted):
        piece = monomials.localize_contract(I, P)
        out = piece if out is None else monomials.intersection(out, piece)
    return MonomialIdeal.unit(I.nvars) if out is None else out


def symbolic_power_bruteforce(I, powers):
    """Symbolic powers from the definition: intersect localized contractions.

    Contracts each ordinary power of I in powers, such as
    monomials.powers(I, d), at the inclusion-maximal associated primes
    of one witness search on I and intersects; one ideal per power.
    """
    primes = _maximal_sets(associated_primes_bruteforce(I))
    return tuple(intersect_contractions(J, primes) for J in powers)
