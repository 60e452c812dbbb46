"""Brute-force verifiers that bypass every structural shortcut.

These work from generator arrays alone, never from the poset, so they
can sit on the other side of an equality check from the closed forms.

Associated primes come from colon witnesses in the box of divisors of
the lcm of the generators.  A box of at most _GRID_CELLS cells is read
as a staircase: the boolean membership grid of the ideal, on which one
vectorized pass finds every witness at once.  A larger box falls back
to a depth-first walk that classifies the colon of each divisor outside
the ideal, so its cost follows the complement of the staircase and not
the box.  Both routes return the same primes and, for each prime, the
same witness: the first one the walk meets.
"""

import math

import numpy as np

from . import _kernels, monomials
from .monomials import MonomialIdeal

# Largest lcm box, in cells, that the staircase route builds.  It holds
# about five bytes per cell: the membership grid, the witness mask, the
# raise mask, a uint8 count of each cell's prime and one comparison.
_GRID_CELLS = 1 << 22


def _maximal_sets(sets):
    return frozenset(S for S in sets if not any(S < T for T in sets))


def associated_primes_bruteforce(I, return_witnesses=False):
    """Associated primes of a monomial ideal by colon witness search.

    A divisor f of the lcm of G(I) witnesses the prime on the variable
    set P when I : x^f = <x_c : c in P>.  Every associated prime has
    such a witness in the divisor box: truncating an arbitrary witness
    at the lcm leaves the colon unchanged.  With return_witnesses the
    second value maps each prime to its first witness in the preorder
    of the depth-first walk that raises coordinates in ascending order
    (f is reached by raising x1 f_1 times, then x2 f_2 times, ...);
    primes are inserted in the order of their witnesses.
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
        return frozenset(found), found
    return frozenset(found)


def _staircase_witnesses(gens, bound):
    """Every prime and its first walk witness from the membership grid.

    For f outside I let P(f) = {c : f + e_c in I}; f on the top face of
    axis c never has c in P(f).  Then I : x^f is the prime on P(f)
    exactly when P(f) is nonempty and f raised to the lcm on every axis
    outside P(f) is still outside I.  The raise is checked one axis at
    a time, last axis first: raising an axis outside P(f) must leave
    the point outside I and must not grow P, and since P can only grow
    under a raise, comparing the sizes of P suffices.
    """
    axes = np.flatnonzero(bound)
    top = bound[axes]
    d = axes.size
    # variables no generator uses never join a prime and are left out,
    # which keeps the grid within numpy's dimension limit
    inside = np.zeros(tuple((top + 1).tolist()), np.bool_)
    inside[tuple(gens[:, axes].T)] = True
    for a in range(d):
        np.logical_or.accumulate(inside, axis=a, out=inside)
    # index tuples per axis: cells below the top face, the cells one
    # step up from those, and the top face itself (kept as an axis)
    lead = [(slice(None),) * a for a in range(d)]
    below = [h + (slice(None, -1),) for h in lead]
    above = [h + (slice(1, None),) for h in lead]
    face = [h + (slice(-1, None),) for h in lead]
    size = np.zeros(inside.shape, np.uint8)
    for a in range(d):
        size[below[a]] += inside[above[a]]
    # after axis a, ok[f] says that f raised to the top on the axes from
    # a on outside P(f) is outside I and has the same P
    ok = ~inside
    lift = np.zeros(inside.shape, np.bool_)
    for a in reversed(range(d)):
        lift[face[a]] = False
        np.logical_not(inside[above[a]], out=lift[below[a]])
        stays = size == size[face[a]]
        stays &= ok[face[a]]
        np.copyto(ok, stays, where=lift)
    ok &= size > 0

    # Two witnesses that agree before axis a meet in the walk's preorder
    # as follows: one with no nonzero coordinate after a comes first,
    # lowest f_a first; among the rest the highest f_a comes first.
    # rank encodes that order in mixed radix 2 * top_a + 3.  Each radix
    # is at most 3 * (top_a + 1), so rank stays below 3^d times the cell
    # count, under 2^57 within the budget.  Witnesses are flat C-order
    # indices, so the coordinates after axis a are the index modulo
    # that axis' stride.
    shape = inside.shape
    cell_inside = inside.reshape(-1)
    flat = np.flatnonzero(ok)
    code = np.zeros(flat.size, np.int64)
    rank = np.zeros(flat.size, np.int64)
    for a in range(d):
        stride = math.prod(shape[a + 1:])
        fa = flat // stride % shape[a]
        inner = fa < top[a]
        # bit a of code: axis a is in P(f)
        up = cell_inside[np.where(inner, flat + stride, flat)] & inner
        code |= up.astype(np.int64) << a
        tail = flat % stride > 0
        rank = rank * (2 * top[a] + 3) + np.where(tail, 2 * top[a] + 2 - fa, fa)
    order = np.argsort(rank)
    _, first = np.unique(code[order], return_index=True)
    found = {}
    for i in order[np.sort(first)].tolist():
        f = np.zeros(bound.size, np.int64)
        f[axes] = np.unravel_index(flat[i], shape)
        prime = frozenset(int(axes[a]) + 1 for a in range(d) if code[i] >> a & 1)
        found[prime] = f
    return found


def _walk_witnesses(gens, bound):
    """Every prime and its first witness by a depth-first divisor walk.

    Members of I are pruned with their whole multiple subtree, since
    their colons are the unit ideal.
    """
    n = bound.size
    f = np.zeros(n, dtype=np.int64)
    vbuf = np.zeros(n, dtype=np.bool_)
    found = {}

    def visit():
        # classify I : f, record a prime colon; False when f lies in I
        code = _kernels.colon_class(gens, f, vbuf)
        if code == 1:
            prime = frozenset(int(i) + 1 for i in np.flatnonzero(vbuf))
            if prime not in found:
                found[prime] = f.copy()
        return code != 0

    # Preorder walk with an explicit stack, since a chain can be as long
    # as the degree of the lcm.  Each step raises one coordinate no
    # smaller than the last one raised, so every divisor is reached once.
    # A frame holds the next coordinate to try and the one raised to
    # enter the frame (-1 at the root).
    stack = [[0, -1]] if visit() else []
    while stack:
        frame = stack[-1]
        c = frame[0]
        while c < n and f[c] >= bound[c]:
            c += 1
        if c == n:
            stack.pop()
            if frame[1] >= 0:
                f[frame[1]] -= 1
            continue
        frame[0] = c + 1
        f[c] += 1
        if visit():
            stack.append([c, c])
        else:
            f[c] -= 1
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
