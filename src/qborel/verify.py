"""Randomized verification of the structural identities.

Each property draws seeded random instances and compares an independent
computation against the closed form; a trial passes when every check on
the instance holds.  Each trial is reproducible from (seed, property,
index) alone.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from . import engine, monomials, oracle, spectra, spread
from .errors import TheoremViolation
from .poset import Poset

_EDGE_PROBABILITY = 0.3


def _relations(rng, labels):
    """Each pair labels[j] < labels[i], j < i, kept with probability 0.3."""
    return [
        (labels[j], labels[i])
        for j in range(len(labels))
        for i in range(j + 1, len(labels))
        if rng.random() < _EDGE_PROBABILITY
    ]


def random_poset(rng, max_n):
    """Random order: a DAG with edge probability 0.3, relabeled."""
    n = int(rng.integers(1, max_n + 1))
    return Poset(n, _relations(rng, (rng.permutation(n) + 1).tolist()))


def random_monomial(rng, n, max_deg):
    """Random exponent vector with total degree in 1..max_deg."""
    d = int(rng.integers(1, max_deg + 1))
    return np.bincount(rng.integers(0, n, size=d), minlength=n).astype(np.int64)


def random_squarefree(rng, n, max_deg):
    """Random 0/1 exponent vector with 1..min(n, max_deg) entries."""
    k = int(rng.integers(1, min(n, max_deg) + 1))
    m = np.zeros(n, dtype=np.int64)
    m[rng.choice(n, size=k, replace=False)] = 1
    return m


def random_disjoint_pair(rng, max_n, max_deg):
    """A two-block poset with one monomial supported in each block.

    The blocks share no relations, so the two order ideals are disjoint
    by construction.
    """
    top = max(2, max_n)
    n1 = int(rng.integers(1, top))
    n2 = int(rng.integers(1, top - n1 + 1))
    n = n1 + n2
    rels = _relations(rng, range(1, n1 + 1)) + _relations(rng, range(n1 + 1, n + 1))
    poset = Poset(n, rels)
    m1 = np.zeros(n, dtype=np.int64)
    m1[:n1] = random_monomial(rng, n1, max_deg)
    m2 = np.zeros(n, dtype=np.int64)
    m2[n1:] = random_monomial(rng, n2, max_deg)
    return poset, m1, m2


def check_symbolic_powers(poset, m, d_max=3):
    """Oracle symbolic power = ordinary power = closure of m^d."""
    fails = []
    I = engine.generate_principal(poset, m)
    powers = monomials.powers(I, d_max)
    symbolic = oracle.symbolic_power_bruteforce(I, powers)
    for d, (via_oracle, via_power) in enumerate(zip(symbolic, powers), 1):
        # at d = 1 the closure of m^d is I itself
        via_closure = I if d == 1 else engine.generate_principal(
            poset, np.asarray(m) * d)
        if not (via_oracle == via_power == via_closure):
            fails.append(
                f"symbolic power {d} of {monomials.format_monomial(m)} on "
                f"{poset!r}: oracle/power/closure disagree")
    return fails


def check_ass_powers(poset, m, s_max=3):
    """Witness-search primes of every power match the characterization."""
    fails = []
    I = engine.generate_principal(poset, m)
    want = spectra.associated_primes(poset, m)
    for s, Is in enumerate(monomials.powers(I, s_max), 1):
        got = oracle.associated_primes_bruteforce(Is)
        if got != want:
            fails.append(
                f"associated primes of power {s} of "
                f"{monomials.format_monomial(m)} on {poset!r}: "
                f"oracle {sorted(map(sorted, got))} vs "
                f"characterization {sorted(map(sorted, want))}")
    return fails


def check_spread(poset, m):
    """Formula, rank and relation-graph spread agree; graph shape matches."""
    fails = []
    I = engine.generate_principal(poset, m)
    by_formula = spread.analytic_spread_principal(poset, m)
    by_rank = spread.analytic_spread_rank(I)
    # the theorem check builds the relation graph of I; read it off there
    report = spread.check_transitive_closure_theorem(poset, m, I)
    by_graph = spread.spread_via_relation_graph(report.graph)
    if not by_formula == by_rank == by_graph:
        fails.append(
            f"spread of {monomials.format_monomial(m)} on {poset!r}: "
            f"formula={by_formula} rank={by_rank} graph={by_graph}")
    if not report.ok:
        fails.append(
            f"relation graph of {monomials.format_monomial(m)} on {poset!r}: "
            f"missing {sorted(map(sorted, report.missing_edges))}, "
            f"extra {sorted(map(sorted, report.extra_edges))}")
    return fails


def check_sf_spread(poset, m):
    """Square-free search and reduction formula agree with the full closure.

    The restricted search must find exactly the square-free generators
    of the closure, and the reduction formula must match the rank.
    """
    fails = []
    I = engine.generate_sf_principal(poset, m)
    full = engine.generate_principal(poset, m).gens
    if I != monomials.MonomialIdeal(full[(full <= 1).all(axis=1)], poset.n):
        fails.append(
            f"square-free search from {monomials.format_monomial(m)} on "
            f"{poset!r} differs from the square-free part of the closure")
    result = spread.analytic_spread_sf(poset, m)
    by_rank = spread.analytic_spread_rank(I)
    if result.spread != by_rank:
        fails.append(
            f"square-free spread of {monomials.format_monomial(m)} on "
            f"{poset!r}: reduction={result.spread} rank={by_rank}")
    shared = monomials.support(result.gcd)
    if not poset.is_order_ideal(shared):
        fails.append(
            f"gcd support of {monomials.format_monomial(m)} on {poset!r} "
            f"is not an order ideal")
    if not (monomials.support(m) & poset.minimal_elements()) and shared:
        fails.append(
            f"gcd of {monomials.format_monomial(m)} on {poset!r} should be 1: "
            f"support avoids the minimal elements")
    return fails


def check_product_identity(poset, m1, m2):
    """Closure of a product = product of closures; transversal expansion."""
    fails = []
    I1 = engine.generate_principal(poset, m1)
    I2 = engine.generate_principal(poset, m2)
    both = engine.generate_principal(poset, np.asarray(m1) + np.asarray(m2))
    if monomials.product(I1, I2) != both:
        fails.append(
            f"product of closures of {monomials.format_monomial(m1)} and "
            f"{monomials.format_monomial(m2)} on {poset!r} is off")
    return fails


def _closure_by_moves(poset, m):
    """The monomials reached from m by moves, as a set of tuples.

    Breadth first, every move x_i -> x_j with x_j < x_i from every
    monomial reached: the closure by its definition, with no engine code.
    """
    moves = [(i - 1, j - 1) for i in range(1, poset.n + 1)
             for j in poset.down_set(i) if j != i]
    reached = {tuple(m.tolist())}
    frontier = list(reached)
    while frontier:
        found = []
        for u in frontier:
            for i, j in moves:
                if u[i]:
                    v = list(u)
                    v[i] -= 1
                    v[j] += 1
                    v = tuple(v)
                    if v not in reached:
                        reached.add(v)
                        found.append(v)
        frontier = found
    return reached


def check_transversal(poset, m):
    """Expanding the variable-prime factorization recovers the closure.

    The closure itself is built as sums over the same factorization, so
    its generators are also compared with the monomials reached from m
    by moves.
    """
    fails = []
    I = engine.generate_principal(poset, m)
    factors = engine.transversal_factorization(poset, m)
    if engine.expand_factorization(factors, poset.n) != I:
        fails.append(
            f"transversal factorization of {monomials.format_monomial(m)} "
            f"on {poset!r} does not expand to the closure")
    if set(map(tuple, I.gens.tolist())) != _closure_by_moves(poset, m):
        fails.append(
            f"closure of {monomials.format_monomial(m)} on {poset!r} "
            f"differs from the monomials reached by moves")
    return fails


def check_disjoint_intersection(poset, m1, m2):
    """Disjoint order ideals: intersection of closures is their product."""
    shared = spectra.order_ideal(poset, m1) & spectra.order_ideal(poset, m2)
    if shared:
        # the identity holds only for disjoint ideals, so the sampler is off
        return [f"order ideals of {monomials.format_monomial(m1)} and "
                f"{monomials.format_monomial(m2)} on {poset!r} meet in "
                f"{sorted(shared)}"]
    fails = []
    I1 = engine.generate_principal(poset, m1)
    I2 = engine.generate_principal(poset, m2)
    meet = monomials.intersection(I1, I2)
    join = monomials.product(I1, I2)
    if meet != join:
        fails.append(
            f"disjoint intersection of {monomials.format_monomial(m1)} and "
            f"{monomials.format_monomial(m2)} on {poset!r} is not the product")
    return fails


def check_decomposition(poset, m):
    """Component closures intersect back to the closure ideal."""
    fails = []
    restrictions = spectra.maximal_components(poset, m)
    parts = [engine.generate_principal(poset, mk) for mk in restrictions]
    meet = parts[0]
    for piece in parts[1:]:
        meet = monomials.intersection(meet, piece)
    if meet != engine.generate_principal(poset, m):
        fails.append(
            f"component decomposition of {monomials.format_monomial(m)} "
            f"on {poset!r} does not intersect back")
    if not np.array_equal(np.sum(restrictions, axis=0), np.asarray(m)):
        fails.append(
            f"component restrictions of {monomials.format_monomial(m)} "
            f"on {poset!r} do not multiply back")
    return fails


def check_containment(poset, m, d_max=3):
    """Containment invariants exist and take their closed-form values."""
    try:
        data = spectra.containment_invariants(poset, m, d_max)
    except TheoremViolation as exc:
        return [str(exc)]
    fails = []
    if data.waldschmidt != monomials.degree(m):
        fails.append(f"waldschmidt of {monomials.format_monomial(m)} is off")
    if any(data.sdefect) or data.resurgence_bound != 1:
        fails.append(f"containment data of {monomials.format_monomial(m)} is off")
    return fails


def _poset_monomial(rng, max_n, max_deg):
    poset = random_poset(rng, max_n)
    return poset, random_monomial(rng, poset.n, max_deg)


def _poset_squarefree(rng, max_n, max_deg):
    poset = random_poset(rng, max_n)
    return poset, random_squarefree(rng, poset.n, max_deg)


def _poset_two_monomials(rng, max_n, max_deg):
    poset = random_poset(rng, max_n)
    return (poset,
            random_monomial(rng, poset.n, max_deg),
            random_monomial(rng, poset.n, max_deg))


# name -> (sampler drawing the instance from an rng, check run on it)
PROPERTIES = {
    "symbolic-powers": (_poset_monomial, check_symbolic_powers),
    "ass-persistence": (_poset_monomial, check_ass_powers),
    "spread-agreement": (_poset_monomial, check_spread),
    "squarefree-spread": (_poset_squarefree, check_sf_spread),
    "product-identity": (_poset_two_monomials, check_product_identity),
    "transversal-expansion": (_poset_monomial, check_transversal),
    "disjoint-intersection": (random_disjoint_pair, check_disjoint_intersection),
    "component-decomposition": (_poset_monomial, check_decomposition),
    "containment-invariants": (_poset_monomial, check_containment),
}


@dataclass
class PropertyReport:
    """Outcome of one property over all its trials."""

    name: str
    passed: int
    total: int
    failures: list


def draw_instance(name, seed, index, max_n, max_deg):
    """The instance of one trial, drawn from (seed, name, index) alone."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode()), index])
    return PROPERTIES[name][0](rng, max_n, max_deg)


def run_trial(name, seed, index, max_n, max_deg):
    """One reproducible trial; returns failure strings, empty on pass."""
    return PROPERTIES[name][1](*draw_instance(name, seed, index, max_n, max_deg))


def run_suite(seed, trials, max_n, max_deg, properties=None):
    """Run every property for the given trial count and aggregate."""
    names = list(PROPERTIES) if properties is None else list(properties)
    for i, name in enumerate(names):
        if name not in PROPERTIES:
            raise ValueError(f"unknown property {name!r}")
        if name in names[:i]:
            raise ValueError(f"property {name!r} named twice")
    reports = []
    for name in names:
        chunk = [run_trial(name, seed, index, max_n, max_deg)
                 for index in range(trials)]
        failures = [msg for fails in chunk for msg in fails]
        passed = sum(1 for fails in chunk if not fails)
        reports.append(PropertyReport(name, passed, trials, failures))
    return reports
