"""Closure ideals of monomials under downward exchange moves along a poset.

The package generates these ideals, certifies membership by explicit
move sequences, and computes their associated primes, symbolic powers
and analytic spread both by closed forms and by independent brute-force
oracles that keep the closed forms honest.
"""

from ._kernels import BACKEND
from .engine import (
    BorelMove,
    apply_move,
    expand_factorization,
    generate_from_set,
    generate_principal,
    generate_sf_principal,
    move_certificate,
    transversal_factorization,
)
from .errors import ParseError, TheoremViolation
from .monomials import (
    MonomialIdeal,
    alpha,
    degree,
    format_monomial,
    intersection,
    is_squarefree,
    localize_contract,
    monomial,
    parse_monomial,
    power,
    powers,
    product,
    restrict,
    support,
    variable_prime,
)
from .oracle import (
    associated_primes_bruteforce,
    intersect_contractions,
    symbolic_power_bruteforce,
)
from .poset import Graph, InducedPoset, Poset, load_poset, parse_poset
from .spectra import (
    ContainmentInvariants,
    associated_primes,
    containment_invariants,
    max_associated_primes,
    maximal_components,
    order_ideal,
    symbolic_power_contractions,
)
from .spread import (
    ClosureComparison,
    SquarefreeSpread,
    analytic_spread_principal,
    analytic_spread_rank,
    analytic_spread_sf,
    check_transitive_closure_theorem,
    integer_rank,
    linear_relation_graph,
    spread_via_relation_graph,
)

__version__ = "0.1.0"
