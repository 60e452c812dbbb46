"""Closure of monomials under downward variable exchanges along a poset.

The closure of m is the product over supp m of P_{A_i}^{a_i}, where A_i
is the down-set of x_i and a_i = m_i (transversal_factorization).  So
its generators are the distinct products of one degree-a_i monomial on
each A_i, sums of exponent vectors: all have degree deg m, and none
divides another.  The sums are taken on python ints, one packed row
each, and a descending sort of the ints is the canonical order, so the
ideal takes the rows as they come, with no re-sort and no
minimalization.  verify checks them against the closure under moves
by definition.  A membership certificate is a transport plan from m
and needs no closure.
"""

import math
from collections import deque
from dataclasses import InitVar, dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import monomials
from .monomials import MonomialIdeal


@dataclass(frozen=True)
class BorelMove:
    """One exchange step: divide by x_i, multiply by x_j, x_j below x_i."""

    i: int
    j: int
    poset: InitVar[object]

    def __post_init__(self, poset):
        if self.i == self.j:
            raise ValueError("an exchange move needs two distinct variables")
        if not poset.leq(self.j, self.i):
            raise ValueError(f"x{self.j} is not below x{self.i} in the order")

    def __repr__(self):
        return f"x{self.i} -> x{self.j}"


def apply_move(m, move):
    """Apply one exchange to a monomial divisible by x_i."""
    m = np.asarray(m, dtype=np.int64)
    if m[move.i - 1] <= 0:
        raise ValueError(f"x{move.i} does not divide the monomial")
    out = m.copy()
    out[move.i - 1] -= 1
    out[move.j - 1] += 1
    return out


def ambient_monomial(poset, m):
    """Validate a monomial in the variables of the poset."""
    m = monomials.monomial(m)
    if m.shape[0] != poset.n:
        raise ValueError(f"monomial has {m.shape[0]} variables, poset has {poset.n}")
    return m


def closure_monomial(poset, m):
    """Validate a monomial whose closure on the poset is asked for."""
    m = ambient_monomial(poset, m)
    if not np.count_nonzero(m):
        raise ValueError("the closure of the monomial 1 is not defined")
    return m


def _factors(poset, mm):
    """(A_i, a_i) over the support of the exponent list mm, ascending.

    Each A_i is an ascending list of indices.
    """
    return [(poset.down_set(i), e) for i, e in enumerate(mm, 1) if e]


def _bound(factors):
    return math.prod(math.comb(len(members) + a - 1, a) for members, a in factors)


def closure_bound(poset, m):
    """The bound prod C(|A_i| + a_i - 1, a_i) on the closure's generators.

    Each generator is a sum of one degree-a_i monomial on each A_i of
    transversal_factorization, and there are C(|A_i| + a_i - 1, a_i) of
    those; the bound is exact for a power of one variable on a chain.
    Nothing is generated.
    """
    return _bound(_factors(poset, closure_monomial(poset, m).tolist()))


def _degree_sums(units, a):
    # the sums of a units, repeats allowed: each once, and in descending
    # order when the units are.  A lone unit is multiplied, not summed a
    # times: its factor adds nothing to the bound, so a is unbounded
    if a == 1:
        return units
    if len(units) == 1:
        return [a * units[0]]
    return [sum(picks) for picks in combinations_with_replacement(units, a)]


def _closure_rows(poset, m, squarefree_only=False):
    # the distinct rows of the closure of m, in canonical order, in the
    # narrowest signed type that holds -1 - deg m, and so deg m.  Every
    # sum of one degree-a_i monomial on each A_i has degree deg m, so
    # the distinct sums are the minimal generators.  A row is one python
    # int packed as monomials._row_fields lays it out: no field exceeds
    # deg m, so sums carry nothing across fields, and descending ints
    # are descending lex rows.  Square-free rows are the sums of one
    # variable of each A_i with no variable twice, which is what a move
    # may reach from a square-free m keeping it so; their fields hold 0
    # or 1, so two share a variable iff x & y != 0
    mm = m.tolist()
    factors = _factors(poset, mm)
    if _bound(factors) == 1:
        # m's support sits on minimal elements: the closure is m alone
        return m[None, :]
    n = poset.n
    dtype, shifts = monomials._row_fields(n, sum(mm))
    tables = [_degree_sums([1 << shifts[j - 1] for j in members], a)
              for members, a in factors]
    acc = tables[0]
    for table in tables[1:]:
        if squarefree_only:
            acc = {x + y for x in acc for y in table if not x & y}
        else:
            acc = {x + y for x in acc for y in table}
    # rebound, so that the set is freed before the rows are unpacked
    acc = sorted(acc, reverse=True)
    return monomials._unpack_rows(acc, n, dtype)


def generate_principal(poset, m):
    """Smallest ideal containing m and closed under the exchange moves."""
    m = closure_monomial(poset, m)
    return MonomialIdeal(_closure_rows(poset, m), poset.n, _one_degree=True)


def generate_from_set(poset, ms):
    """Smallest ideal containing every listed monomial and closed under moves."""
    ms = [closure_monomial(poset, m) for m in ms]
    if not ms:
        raise ValueError("need at least one monomial")
    return MonomialIdeal(np.concatenate([_closure_rows(poset, m) for m in ms]), poset.n)


def generate_sf_principal(poset, m):
    """Ideal generated by the square-free members of the closure of m."""
    m = closure_monomial(poset, m)
    if not monomials.is_squarefree(m):
        raise ValueError("square-free closure needs a square-free monomial")
    rows = _closure_rows(poset, m, squarefree_only=True)
    return MonomialIdeal(rows, poset.n, _one_degree=True)


def transversal_factorization(poset, m):
    """Factor the closure ideal of m into powers of variable primes.

    Returns [(A_i, a_i)] over the support of m in ascending order, where
    A_i is the down closure of {i}; the closure ideal is the product of
    the primes on A_i raised to a_i.
    """
    return [(frozenset(members), a)
            for members, a in _factors(poset, closure_monomial(poset, m).tolist())]


def expand_factorization(factors, nvars):
    """Multiply out [(variable set, multiplicity)] into an ideal."""
    out = MonomialIdeal.unit(nvars)
    for members, mult in factors:
        prime = monomials.variable_prime(members, nvars)
        out = monomials.product(out, monomials.power(prime, mult))
    return out


def move_certificate(poset, m, target):
    """Moves from m to target dividing only variables in supp(m).

    One move x_i -> x_j per unit of m that must move, in ascending
    (i, j) order.  No variable both sends and receives, so replaying the
    moves in order keeps every exponent nonnegative and ends at target.
    The moves are a transport plan: the units of m shipped down the
    order onto target, which exists iff target is in the closure of m.
    """
    m = closure_monomial(poset, m)
    target = ambient_monomial(poset, target)
    if monomials.degree(target) != monomials.degree(m):
        raise ValueError("target is not in the closure of the monomial")
    flow = _transport_plan(poset, m, target)
    return [move for (i, j), units in sorted(flow.items()) if units
            for move in [BorelMove(i, j, poset)] * units]


def _transport_plan(poset, m, target):
    # units at variables dividing both stay put; the rest of m ships to
    # the rest of target over edges i -> j with x_j < x_i, along shortest
    # augmenting paths that carry their bottleneck, so the number of
    # rounds does not grow with the exponents
    stay = np.minimum(m, target)
    supply = {i + 1: int(v) for i, v in enumerate(m - stay) if v}
    demand = {j + 1: int(v) for j, v in enumerate(target - stay) if v}
    below = {i: [j for j in demand if poset.lt(j, i)] for i in supply}
    flow = {(i, j): 0 for i in supply for j in below[i]}
    while any(supply.values()):
        parent = {i: None for i in supply if supply[i]}
        queue = deque(parent)
        # stop when a receiver with unmet demand reaches the front
        while queue and not demand.get(queue[0]):
            v = queue.popleft()
            if v in supply:
                step = below[v]
            else:
                step = [i for i in supply if flow.get((i, v))]
            for w in step:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        if not queue:
            raise ValueError("target is not in the closure of the monomial")
        path = [queue[0]]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        # the path alternates sender, receiver, sender, ...; it ships
        # along (sender, next receiver) and undoes (next sender, receiver)
        sends, gets = path[::-1][0::2], path[::-1][1::2]
        undone = list(zip(sends[1:], gets))
        units = min([supply[sends[0]], demand[gets[-1]]] + [flow[e] for e in undone])
        for e in zip(sends, gets):
            flow[e] += units
        for e in undone:
            flow[e] -= units
        supply[sends[0]] -= units
        demand[gets[-1]] -= units
    return flow
