"""Brute-force verifiers that bypass every structural shortcut.

These work from generator arrays alone, never from the poset, so they
can sit on the other side of an equality check from the closed forms.
"""

import numpy as np

from . import _kernels, monomials
from .monomials import MonomialIdeal


def _maximal_sets(sets):
    return frozenset(S for S in sets if not any(S < T for T in sets))


def associated_primes_bruteforce(I, return_witnesses=False):
    """Associated primes of a monomial ideal by colon witness search.

    Walks the divisors f of lcm(G(I)) depth first and keeps the variable
    sets P with I : f = <P>.  Every associated prime has such a witness
    inside the divisor lattice: truncating an arbitrary witness at the
    lcm leaves the colon unchanged.  Members of I are pruned with their
    whole multiple subtree, since their colons are the unit ideal.
    """
    if I.is_zero() or I.is_unit():
        raise ValueError("associated primes need a proper nonzero ideal")
    gens = np.ascontiguousarray(I.gens)
    bound = gens.max(axis=0)
    n = I.nvars
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

    if return_witnesses:
        return frozenset(found), found
    return frozenset(found)


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


def symbolic_power_bruteforce(I, d):
    """Symbolic power from the definition: intersect localized contractions.

    Contracts the d-th ordinary power at the inclusion-maximal
    associated primes found by witness search and intersects.
    """
    primes = _maximal_sets(associated_primes_bruteforce(I))
    return intersect_contractions(monomials.power(I, d), primes)
