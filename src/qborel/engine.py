"""Closure of monomials under downward variable exchanges along a poset.

The closure of m is the product over supp m of P_{A_i}^{a_i}, where A_i
is the down-set of x_i and a_i = m_i (transversal_factorization).  So
its generators are the distinct products of one degree-a_i monomial on
each A_i, sums of exponent vectors: all have degree deg m, and none
divides another.  Up to a
closure_bound of _SUM_BOUND, the sums are taken on python ints, one
packed row each, and a descending sort of the ints is the canonical
order.  Past it, generators come from a walk over the orbit of m by
transport distance r(u) = |u - m|_1 / 2, one layer per unit moved, on
numpy rows deduped by one sort over their words and sorted once at the
end.  That reaches the whole orbit: a transport plan from m to u that
keeps min(m, u) in place has no variable that both sends and receives,
so each of its moves raises r, and so every orbit member but m has a
parent one layer up.  Either way the ideal takes the rows as they come,
with no re-sort and no minimalization; verify checks the sums against
the walk.  A membership certificate is such a plan and needs no orbit.
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


def _distinct_words(rows):
    """The distinct rows of an array padded to whole 8-byte words.

    One sort over the words puts each repeat right after the row it
    repeats; the rows come back in no particular order.
    """
    words = rows.view(np.uint64)
    order = np.lexsort(words.T)
    fresh = monomials._firsts(words.take(order, axis=0))
    return rows.take(order.compress(fresh), axis=0)


def _factors(poset, mm):
    """(A_i, a_i) over the support of the exponent list mm, ascending.

    Each A_i is an ascending list of indices.
    """
    return [(poset.down_set(i), e) for i, e in enumerate(mm, 1) if e]


def _narrow_type(degree):
    """The narrowest signed type that holds -1 - degree, and so degree."""
    if degree < 1 << 7:
        return np.dtype(np.int8)
    if degree < 1 << 15:
        return np.dtype(np.int16)
    if degree < 1 << 31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


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


# Up to this closure_bound a closure is built as sums on python ints;
# past it, by the array walk.  The ints skip numpy's per-call cost,
# which dominates small closures, but dedup and sort slower per row.
# Timed against the walk (2 vCPUs, best of 5) on chain powers, q11
# monomials and random orders, the sums were faster on 63 of 64
# closures with bounds up to 1,024 and slower on 5 of 19 from 1,025 to
# 10,000, by up to half again (x6^12 on a 6-chain: 1.8 against 1.2 ms).
_SUM_BOUND = 1024


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
    # int, column c in the field of b bits at b * (n - 1 - c): no field
    # exceeds deg m < 2^(b - 1), so sums carry nothing across fields,
    # and descending ints are descending lex rows.  Square-free rows are
    # the sums of one variable of each A_i with no variable twice, which
    # is what a move may reach from a square-free m keeping it so; their
    # fields hold 0 or 1, so two share a variable iff x & y != 0
    mm = m.tolist()
    factors = _factors(poset, mm)
    bound = _bound(factors)
    if bound == 1:
        # m's support sits on minimal elements: the closure is m alone
        return m[None, :]
    if bound > _SUM_BOUND:
        return _walk_rows(poset, m, squarefree_only)
    n = poset.n
    dtype = _narrow_type(sum(mm))
    b = 8 * dtype.itemsize
    tables = [_degree_sums([1 << b * (n - j) for j in members], a)
              for members, a in factors]
    acc = tables[0]
    for table in tables[1:]:
        if squarefree_only:
            acc = {x + y for x in acc for y in table if not x & y}
        else:
            acc = {x + y for x in acc for y in table}
    nbytes = n * dtype.itemsize
    data = b"".join([u.to_bytes(nbytes, "little") for u in sorted(acc, reverse=True)])
    return np.frombuffer(data, dtype).reshape(-1, n)[:, ::-1]


def _walk_rows(poset, m, squarefree_only=False):
    # the closure as a walk over the orbit of m by transport distance
    # r(u) = |u - m|_1 / 2.  A move x_s -> x_t raises r by one iff
    # 0 < u_s <= m_s and u_t >= m_t, and the walk makes only those.
    # That misses nothing: a transport plan from m to an orbit member u
    # that keeps min(m, u) in place has no variable that both sends and
    # receives, so replaying it raises r at every step, and in
    # square-free mode every step stays square-free.  So each row at
    # distance r + 1 has a parent at distance r, no row reappears in a
    # later layer, and one dedup per nonempty layer past m suffices: at
    # most deg m.  Rows, and m with them so that comparisons need no
    # upcast, are held in the narrowest signed type that holds
    # -1 - deg m, padded with zero columns, which no move touches, to
    # whole 8-byte words, and sorted once at the end.  Move k, step row
    # +1 at dst[k] and -1 at src[k], sends a unit down from x_src
    # dividing m to x_dst below it
    mm = m.tolist()
    moves = np.array([(j - 1, i - 1) for i, e in enumerate(mm, 1) if e
                      for j in poset.down_set(i) if j != i],
                     dtype=np.intp).reshape(-1, 2)
    n = poset.n
    dtype = _narrow_type(sum(mm))
    width = -(-n * dtype.itemsize // 8) * 8 // dtype.itemsize
    layer = np.zeros((1, width), dtype)
    layer[0, :n] = mm
    m = layer[0]
    dst, src = moves.T
    step = np.zeros((len(moves), width), dtype=dtype)
    step[np.arange(len(moves))[:, None], moves] = 1, -1
    layers = [layer]
    while True:
        take = layer >= m
        if squarefree_only:
            take &= layer == 0
        sends = (layer > 0) & (layer <= m)
        r, c = (sends.take(src, axis=1) & take.take(dst, axis=1)).nonzero()
        if not r.size:
            rows = np.concatenate(layers)[:, :n]
            return rows.take(monomials.canonical_order(rows), axis=0)
        layer = _distinct_words(layer.take(r, axis=0) + step.take(c, axis=0))
        layers.append(layer)


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
