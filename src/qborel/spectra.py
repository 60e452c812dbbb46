"""Associated primes, decompositions and symbolic powers of closure ideals.

Everything here rides on one fact: the order ideal generated by the
support of a monomial controls the prime structure of its closure ideal,
component by component of its Hasse diagram.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import engine, monomials, oracle
from .errors import TheoremViolation


def order_ideal(poset, m):
    """Down closure of the support of m; empty for m = 1."""
    m = monomials.monomial(m)
    engine._check_ambient(poset, m)
    return poset.down_closure(monomials.support(m))


def _members(mask):
    """The variable indices, 1-based, of the set bits of a bitmask."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _components(poset, m):
    """Bitmasks of the components of the order ideal of a monomial m != 1.

    They are merged from the down-sets of supp(m) by overlap (see
    associated_primes) and listed by smallest member, as
    Poset.connected_components lists them.
    """
    comps = []
    for i in np.flatnonzero(m).tolist():
        union = poset._down[i]
        apart = []
        for c in comps:
            if c & union:
                union |= c
            else:
                apart.append(c)
        comps = [*apart, union]
    return sorted(comps, key=lambda c: c & -c)


def maximal_components(poset, m):
    """Restrictions of m to the components of its order ideal.

    The restrictions multiply back to m and their order ideals are the
    components, listed by smallest supported variable.
    """
    m = monomials.monomial(m)
    engine._check_ambient(poset, m)
    if monomials.degree(m) == 0:
        raise ValueError("the monomial 1 has no component decomposition")
    parts = [monomials.restrict(m, _members(c)) for c in _components(poset, m)]
    parts.sort(key=lambda part: min(monomials.support(part)))
    return parts


def associated_primes(poset, m):
    """Variable sets of the associated primes of the closure ideal of m.

    A variable prime is associated iff it is generated by the connected
    order ideal of a divisor of m; since the order ideal of a divisor
    only depends on its support, subsets of supp(m) cover all cases.

    The order ideal of a subset S is the union of the down-sets down(i),
    i in S, and it is connected iff those down-sets chain by overlaps:
    - down(i) is connected, since saturated chains join each of its
      members to i inside it, so overlapping down-sets have a connected
      union;
    - a Hasse edge, a cover a < b, with a in down(i) and b in down(j)
      puts a in down(j), so unions of down-sets that do not overlap
      share no Hasse edge.
    So the primes are the unions reached from single down-sets by adding
    one that meets the union so far, each held as an int bitmask.
    """
    m = monomials.monomial(m)
    engine._check_ambient(poset, m)
    if monomials.degree(m) == 0:
        raise ValueError("the monomial 1 has no associated primes")
    down = [poset._down[i] for i in np.flatnonzero(m).tolist()]
    found = set(down)
    todo = list(found)
    while todo:
        union = todo.pop()
        for d in down:
            if union & d and union | d not in found:
                found.add(union | d)
                todo.append(union | d)
    return frozenset(_members(union) for union in found)


def max_associated_primes(poset, m):
    """The inclusion-maximal associated primes.

    These are exactly the components of the order ideal of m, each being
    connected, down closed, and not contained in any other candidate.
    """
    m = monomials.monomial(m)
    engine._check_ambient(poset, m)
    if monomials.degree(m) == 0:
        raise ValueError("the monomial 1 has no associated primes")
    return frozenset(_members(c) for c in _components(poset, m))


def component_decomposition(poset, m):
    """Closure ideals of the component restrictions of m.

    Their intersection is the closure ideal of m; the pieces have
    pairwise disjoint order ideals.
    """
    return [engine.generate_principal(poset, mk) for mk in maximal_components(poset, m)]


def symbolic_power_contractions(poset, m, powers):
    """Symbolic powers by intersecting localized contractions.

    Contracts each ordinary power of the closure ideal of m in powers,
    such as monomials.powers(I, d), at the maximal associated primes and
    intersects (see oracle.intersect_contractions); one ideal per power.
    Symbolic and ordinary powers of these ideals coincide.
    """
    primes = max_associated_primes(poset, m)
    return tuple(oracle.intersect_contractions(J, primes) for J in powers)


@dataclass(frozen=True)
class ContainmentInvariants:
    """Asymptotic containment data of a closure ideal."""

    waldschmidt: Fraction
    alpha_over_s: tuple
    sdefect: tuple
    resurgence_bound: Fraction


def containment_invariants(poset, m, d_max):
    """Waldschmidt constant, symbolic defects and a resurgence bound.

    Symbolic powers are recomputed by contracting one chain of ordinary
    powers and compared with that chain generator by generator, so the
    closed forms deg(m), 0 and 1 are certified up to d_max rather than
    assumed.  A mismatch raises TheoremViolation.
    """
    if int(d_max) != d_max or d_max < 1:
        raise ValueError("containment data wants an integer bound d_max >= 1")
    m = monomials.monomial(m)
    powers = monomials.powers(engine.generate_principal(poset, m), d_max)
    symbolic = symbolic_power_contractions(poset, m, powers)
    sdefect = []
    alpha_over_s = []
    for d, (sym, ordinary) in enumerate(zip(symbolic, powers), 1):
        if sym != ordinary:
            raise TheoremViolation(
                f"symbolic power {d} of {monomials.format_monomial(m)} "
                f"differs from the ordinary power")
        sdefect.append(0)
        alpha_over_s.append(Fraction(monomials.alpha(sym), d))
    waldschmidt = Fraction(monomials.degree(m))
    if any(a != waldschmidt for a in alpha_over_s):
        raise TheoremViolation(
            f"alpha sequence of {monomials.format_monomial(m)} leaves deg(m)")
    # I^s in I^(s-1) for each s gives every I^s in I^r, r <= s
    for s in range(2, int(d_max) + 1):
        if not powers[s - 2].contains_ideal(powers[s - 1]):
            raise TheoremViolation(
                f"power {s} escapes power {s - 1} for "
                f"{monomials.format_monomial(m)}")
    return ContainmentInvariants(
        waldschmidt=waldschmidt,
        alpha_over_s=tuple(alpha_over_s),
        sdefect=tuple(sdefect),
        resurgence_bound=Fraction(1),
    )
