"""Closure of monomials under downward variable exchanges along a poset.

Generators come from a walk over the orbit of m by transport distance
r(u) = |u - m|_1 / 2, one sorted layer per unit moved.  Layer r + 1 is
made from layer r by the moves that raise r by one.  That reaches the
whole orbit: a transport plan from m to u that keeps min(m, u) in place
has no variable that both sends and receives, so each of its moves
raises r, and so every orbit member but m has a parent one layer up.
A membership certificate is such a plan and needs no orbit.

Every row has degree deg m, so the layers are deduped on their columns
alone, and the ideal sorts the walk's narrow rows once the same way,
with no int64 re-sort and no minimalization.
"""

from collections import deque
from dataclasses import InitVar, dataclass

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
    if monomials.degree(m) == 0:
        raise ValueError("the closure of the monomial 1 is not defined")
    return m


def _orbit_rows(poset, m, squarefree_only=False):
    # every reachable monomial has deg(m), so the orbit is finite and
    # already a minimal generating set.  The walk goes by transport
    # distance r(u) = |u - m|_1 / 2.  A move x_s -> x_t raises r by one
    # iff 0 < u_s <= m_s and u_t >= m_t, and the walk makes only those.
    # That misses nothing: a transport plan from m to an orbit member u
    # that keeps min(m, u) in place has no variable that both sends and
    # receives, so replaying it raises r at every step, and in
    # square-free mode every step stays square-free.  So each row at
    # distance r + 1 has a parent at distance r, no row reappears in a
    # later layer, and one dedup per nonempty layer past m suffices: at
    # most deg m.  Rows all have degree deg m, so they sort on their
    # columns alone.  Rows, and m with them so that comparisons need no
    # upcast, are held in the narrowest signed type that holds
    # -1 - deg m, and so deg m; numpy sorts it by radix, and it shrinks
    # the children of a layer.  Move k, step row +1 at dst[k] and -1 at
    # src[k], sends a unit down from x_src dividing m to x_dst below it
    moves = np.array([(j - 1, i - 1) for i in monomials.support(m)
                      for j in poset.down_closure({i}) if j != i],
                     dtype=np.intp).reshape(-1, 2)
    dst, src = moves.T
    m = m.astype(np.min_scalar_type(-1 - int(m.sum())))
    step = np.zeros((len(moves), poset.n), dtype=m.dtype)
    step[np.arange(len(moves))[:, None], moves] = 1, -1
    layer = m[None, :]
    layers = []
    while True:
        layers.append(layer)
        take = layer >= m
        if squarefree_only:
            take &= layer == 0
        r, c = (((layer > 0) & (layer <= m))[:, src] & take[:, dst]).nonzero()
        if not r.size:
            return np.concatenate(layers)
        layer = monomials.canonical_rows(layer[r] + step[c])


def generate_principal(poset, m):
    """Smallest ideal containing m and closed under the exchange moves."""
    m = closure_monomial(poset, m)
    return MonomialIdeal(_orbit_rows(poset, m), poset.n, _one_degree=True)


def generate_from_set(poset, ms):
    """Smallest ideal containing every listed monomial and closed under moves."""
    ms = [closure_monomial(poset, m) for m in ms]
    if not ms:
        raise ValueError("need at least one monomial")
    return MonomialIdeal(np.concatenate([_orbit_rows(poset, m) for m in ms]), poset.n)


def generate_sf_principal(poset, m):
    """Ideal generated by the square-free members of the closure of m."""
    m = closure_monomial(poset, m)
    if not monomials.is_squarefree(m):
        raise ValueError("square-free closure needs a square-free monomial")
    rows = _orbit_rows(poset, m, squarefree_only=True)
    return MonomialIdeal(rows, poset.n, _one_degree=True)


def transversal_factorization(poset, m):
    """Factor the closure ideal of m into powers of variable primes.

    Returns [(A_i, a_i)] over the support of m in ascending order, where
    A_i is the down closure of {i}; the closure ideal is the product of
    the primes on A_i raised to a_i.
    """
    m = closure_monomial(poset, m)
    return [
        (poset.down_closure({i}), int(m[i - 1]))
        for i in sorted(monomials.support(m))
    ]


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
