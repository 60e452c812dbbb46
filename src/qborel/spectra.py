"""Associated primes, decompositions and symbolic powers of closure ideals.

Everything here rides on one fact: the order ideal generated by the
support of a monomial controls the prime structure of its closure ideal,
component by component of its Hasse diagram.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import engine, monomials, oracle
from .errors import TheoremViolation


def order_ideal(poset, m):
    """Down closure of the support of m; empty for m = 1."""
    m = engine.ambient_monomial(poset, m)
    return poset.down_closure(monomials.support(m))


def _ideal_components(poset, m):
    """m, validated, and the components of its order ideal A(m)."""
    m = engine.closure_monomial(poset, m)
    return m, poset.connected_components(poset.down_closure(monomials.support(m)))


def maximal_components(poset, m):
    """Restrictions of m to the components of its order ideal.

    The restrictions multiply back to m and their order ideals are the
    components, listed by smallest supported variable.
    """
    m, comps = _ideal_components(poset, m)
    parts = [monomials.restrict(m, c) for c in comps]
    parts.sort(key=lambda part: min(monomials.support(part)))
    return parts


def associated_primes(poset, m):
    """Variable sets of the associated primes of the closure ideal of m.

    A variable prime is associated iff it is generated by the connected
    order ideal of a divisor of m; since the order ideal of a divisor
    only depends on its support, subsets of supp(m) cover all cases
    (see Poset.connected_ideals).
    """
    m = engine.closure_monomial(poset, m)
    return poset.connected_ideals(monomials.support(m))


def max_associated_primes(poset, m):
    """The inclusion-maximal associated primes.

    These are exactly the components of the order ideal of m, each being
    connected, down closed, and not contained in any other candidate.
    """
    return frozenset(_ideal_components(poset, m)[1])


def symbolic_power_contractions(poset, m, powers):
    """Symbolic powers by intersecting localized contractions.

    Contracts each ordinary power of the closure ideal of m in powers,
    such as monomials.powers(I, d), at the maximal associated primes and
    intersects (see oracle.intersect_contractions); one ideal per power.
    The primes, the components of the order ideal of m, are sorted and
    their columns read once for all the powers.  They share no variable
    and each power's generators project to one degree on each, so the
    powers are joined by their projections, not intersected pairwise.
    Symbolic and ordinary powers of these ideals coincide.
    """
    primes = max_associated_primes(poset, m)
    return oracle._intersect_each(powers, primes)


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
    m = engine.closure_monomial(poset, m)
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
