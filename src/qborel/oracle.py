"""Brute-force verifiers that bypass every structural shortcut.

These work from generator arrays alone, never from the poset, so they
can sit on the other side of an equality check from the closed forms.

Associated primes come from colon witnesses in the box of divisors of
the lcm of the generators.  Every associated prime has a top witness:
one that sits at the lcm on every axis outside the prime.  A box of at
most _GRID_CELLS cells is read as a staircase: the membership bitset
of the ideal, on which one test per axis finds every top witness at
once.  Each axis builds one mask, its cells at the top, and derives
its fill masks from it.  A box of at most _INT_CELLS cells is marked
and decoded on python ints, once per prime, not once per witness cell.
A box over _GRID_CELLS falls back to a depth-first walk that classifies
the colon of each divisor outside the ideal whose exponents are 0, one
below some generator's or the lcm's, so its cost follows the distinct
exponents of the generators, not their size.  Both routes return the
same primes and, for each prime, the same witness: its lex-least top
witness.

Symbolic powers intersect the contractions of an ideal at its maximal
associated primes.  When there are two or more, no two share a
variable and the generators project to one degree on each, both read
off the arrays and the prime sets, the intersection is built in one
join: the sums of one distinct projection per prime, as packed python
ints.  The maximal primes of a closure ideal, the components of its
order ideal, always meet both conditions for its powers.  Any other
primes are contracted one at a time and intersected pairwise by lcms.
"""

import math

import numpy as np

from . import _kernels, monomials
from .monomials import MonomialIdeal

# Largest lcm box, in cells, that the staircase route builds: 16.8M.
# Its peak is the byte per cell that marks the generators, and later the
# one that lists the witnesses; the bitsets take a few bits per cell.
_GRID_CELLS = 1 << 24

# Largest box, in cells, that the staircase marks and decodes on python
# ints alone: it sets one bit per generator and clears each prime's
# witness cells with one AND per axis.  A larger box marks a byte grid
# and packs it, and lists its witness cells with numpy.  Measured on 2
# vCPUs, ints take 0.46-0.62 of numpy's time on the 1,000 calls of a
# seed-0 oracle-trials cycle (up to 5,184 cells) and 0.67-0.88 on
# maximal ideals up to 2^18 cells, where one prime leaves one cell;
# random boxes with 14-20 primes break even from 3,125 cells (1.01) to
# 9,375 (1.03) and lose from 12,500 (1.12); 46,656 cells with 32 primes
# take 1.8 times as long.
_INT_CELLS = 1 << 13


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
    # python ints: the product of 70 factors of two wraps in int64
    bound = gens.max(axis=0).tolist()
    if math.prod(t + 1 for t in bound) <= _GRID_CELLS:
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
    order, which is lex order.  bound holds the lcm's exponents as
    python ints.
    """
    # C-order strides; a variable no generator uses scales only zeros
    stride, cells = [], 1
    for t in reversed(bound):
        stride.append(cells)
        cells *= t + 1
    stride.reverse()
    plan = [(c, stride[c], t) for c, t in enumerate(bound) if t]
    small = cells <= _INT_CELLS
    index = gens.dot(np.array(stride))
    if small:
        inside = 0
        for i in index.tolist():
            inside |= 1 << i
    else:
        grid = np.zeros(cells, np.uint8)
        grid[index] = 1
        inside = int.from_bytes(np.packbits(grid, bitorder="little"), "little")
        del grid
    full = (1 << cells) - 1
    tops = []
    for _, s, t in plan:
        top = _axis_top(s, t, cells)
        for shift, keep in _fill_masks(top, s, t, full):
            inside |= (inside << shift) & keep
        # a top mask per axis takes a bit per cell, 48 MB over 24 axes of
        # 2^24 cells, so a large box builds each one again for its test
        tops.append(top if small else None)
    # cells outside I from which each step up that stays in the box enters I
    ok = full ^ inside
    for (_, s, t), top in zip(plan, tops):
        ok &= (inside >> s) | (_axis_top(s, t, cells) if top is None else top)
    del inside
    if small:
        return _witnesses_per_prime(ok, plan, tops, len(bound))
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


def _witnesses_per_prime(ok, plan, tops, n):
    """Decode the witness bitset once per prime, lowest cell first.

    Each pass takes the lowest cell left, its prime's lex-least witness,
    and clears the rest of that prime's cells at once: one AND per axis
    with the axis's top mask or its complement picks them out.
    """
    found = {}
    while ok:
        low = ok & -ok
        ok ^= low
        i = low.bit_length() - 1
        f = [0] * n
        prime = []
        same = ok
        for (c, s, t), top in zip(plan, tops):
            f[c], i = divmod(i, s)
            if f[c] < t:
                prime.append(c + 1)
                same &= ~top
            else:
                same &= top
        found[frozenset(prime)] = f
        ok ^= same
    return found


def _axis_top(s, t, cells):
    """The cells at the top t of an axis of stride s: one bit per cell.

    That is the top run of s cells in each period of s * (t + 1) cells,
    tiled over the box by doubling shifts: the bits of the period count,
    highest first, each double the copies so far and a one adds a copy.
    """
    period = s * (t + 1)
    run = ((1 << s) - 1) << t * s
    out = done = 0
    for bit in bin(cells // period)[2:]:
        out |= out << done * period
        done *= 2
        if bit == "1":
            out = out << period | run
            done += 1
    return out


def _fill_masks(top, s, t, full):
    """The shifts and masks that fill a bitset upward along one axis.

    Shifts of d steps for d = 1, 2, 4, ... up to t, each with the mask
    of the cells at least d up the axis: after it each cell holds every
    cell less than 2d below it.  A cell is at least 2d up iff it and the
    cell d below it are at least d up, so each mask comes from the last.
    """
    keep = top if t == 1 else full ^ (top >> t * s)
    d = 1
    while True:
        yield d * s, keep
        if 2 * d > t:
            return
        keep &= keep << d * s
        d *= 2


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
    n = len(bound)
    step = []
    for col, top in zip(gens.T, bound):
        vals = np.unique(np.append(col[col > 0] - 1, [0, top])).tolist()
        step.append(dict(zip(vals, vals[1:])))
    vbuf = np.zeros(n, dtype=np.bool_)
    found = {}
    stack = [(np.zeros(n, dtype=np.int64), 0)]
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
        for c in range(first, n):
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
    give the unit ideal.  Two or more pairwise disjoint primes, on each
    of which the generators project to one degree, are joined by their
    projections in one pass; any other primes are contracted one at a
    time and intersected pairwise by lcms.
    """
    return _intersect(I, _plan(primes, I.nvars))


def _intersect_each(powers, primes):
    """intersect_contractions of each ideal in powers, one plan for all."""
    plan = None
    out = []
    for J in powers:
        if plan is None or plan[0] != J.nvars:
            plan = _plan(primes, J.nvars)
        out.append(_intersect(J, plan))
    return tuple(out)


def _plan(primes, nvars):
    """(nvars, the primes in the order they are intersected, columns).

    The columns, one ascending list of 0-based positions per prime, are
    read only for two or more primes, and kept only when no two of them
    share a variable; otherwise they are None.
    """
    order = sorted(primes, key=sorted)
    cols = None
    if len(order) > 1:
        cols = [monomials._positions(sorted(P), nvars) for P in order]
        if sum(map(len, cols)) != len(set().union(*cols)):
            cols = None
    return nvars, order, cols


def _intersect(I, plan):
    _, order, cols = plan
    if cols is not None and not I.is_zero():
        out = _join(I, cols)
        if out is not None:
            return out
    out = None
    for P in order:
        piece = monomials.localize_contract(I, P)
        out = piece if out is None else monomials.intersection(out, piece)
    return MonomialIdeal.unit(I.nvars) if out is None else out


def _join(I, cols):
    """The intersection at disjoint primes as sums of their projections.

    The contraction at P_j is generated by the projections of G(I) onto
    the columns of P_j.  When those all have one degree, the distinct
    ones are its minimal generators, and the contractions, on disjoint
    variables, intersect to their product: its minimal generators are
    the sums of one distinct projection per prime, all distinct and of
    one degree.  A row is one python int packed as
    monomials._row_fields lays it out for the largest exponent; the
    primes share no field, so sums carry nothing, and descending sums
    are the canonical order.  Returns None when some prime's
    projections have more than one degree.  I is nonzero.
    """
    rows = I.gens.tolist()
    n = I.nvars
    dtype, shifts = monomials._row_fields(n, max(map(max, rows)))
    sums = [0]
    for c in cols:
        fields = [(j, shifts[j]) for j in c]
        degs, keys = set(), set()
        for r in rows:
            d = k = 0
            for j, s in fields:
                d += r[j]
                k |= r[j] << s
            degs.add(d)
            keys.add(k)
        if len(degs) > 1:
            return None
        sums = [x + y for x in sums for y in keys]
    sums.sort(reverse=True)
    return MonomialIdeal(monomials._unpack_rows(sums, n, dtype), n, _one_degree=True)


def symbolic_power_bruteforce(I, powers):
    """Symbolic powers from the definition: intersect localized contractions.

    Contracts each ordinary power of I in powers, such as
    monomials.powers(I, d), at the inclusion-maximal associated primes
    of one witness search on I and intersects; one ideal per power.
    The primes are sorted and their columns read once for all the
    powers.  The maximal primes of a closure ideal are the components
    of its order ideal: pairwise disjoint, with the generators of each
    power projecting to one degree on each, so those powers take the
    join of intersect_contractions.
    """
    primes = _maximal_sets(associated_primes_bruteforce(I))
    return _intersect_each(powers, primes)
