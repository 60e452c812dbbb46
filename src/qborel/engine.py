"""Closure of monomials under downward variable exchanges along a poset.

Generators come from a walk over the orbit of m by transport distance
r(u) = |u - m|_1 / 2, one sorted layer per unit moved.  Layer r + 1 is
made from layer r by the moves that raise r by one.  That reaches the
whole orbit: a transport plan from m to u that keeps min(m, u) in place
has no variable that both sends and receives, so each of its moves
raises r, and so every orbit member but m has a parent one layer up.
A membership certificate is such a plan and needs no orbit.

The walk holds its narrow rows padded with zero columns to whole 8-byte
words.  A small layer holds each row as the python int of those bytes:
a move adds one constant, and a set dedups the layer.  From the first
layer with _INT_LAYER_CANDIDATES candidate children on, the rows turn
into one numpy array, and each further layer is deduped by one sort
over its words: equal words mean equal rows, so a layer's order does
not matter.  Every row has degree deg m, so the ideal sorts the union
once on its columns alone into canonical order, with no int64 re-sort
and no minimalization.
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


# Below this many candidate children in a layer (rows times moves) the
# walk steps each row as one python int; from it on, as padded numpy
# rows.  The ints skip numpy's per-call cost, which dominates small
# layers, and lose to the arrays per child.  Over the 1,300 walks of a
# seed-0 oracle-trials cycle (2 vCPUs, in-process, best of 15) all on
# arrays take 51.6 ms, with the hand-over at 96 to 128 candidates 30-32
# ms and at 192 28 ms.  All on ints, x8^4 on an 8-chain slows from 0.22
# to 0.45 ms and x8^10 from 5.6 to 41 ms; from 256 on, x8^3 and x8^4
# slow by a fifth.  96 keeps clear of that, and 271 of those walks
# still reach the arrays.
_INT_LAYER_CANDIDATES = 96


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
    # most deg m.  Rows, and m with them so that comparisons need no
    # upcast, are held in the narrowest signed type that holds
    # -1 - deg m, and so deg m, which shrinks the children of a layer.
    # They are padded with zero columns, which no move touches, to whole
    # 8-byte words.  Move k, step row +1 at dst[k] and -1 at src[k],
    # sends a unit down from x_src dividing m to x_dst below it
    mm = m.tolist()
    moves = [(j - 1, i - 1) for i, e in enumerate(mm, 1) if e
             for j in poset.down_closure({i}) if j != i]
    if not moves:
        # m's support sits on minimal elements: the orbit is m alone
        return m[None, :]
    n = poset.n
    dtype = np.min_scalar_type(-1 - sum(mm))
    width = -(-n * dtype.itemsize // 8) * 8 // dtype.itemsize
    nbytes = width * dtype.itemsize
    # small layers: a row is the int of its padded little-endian bytes,
    # column c the field of b bits at b * c.  Every exponent is at most
    # deg m < 2^(b - 1) and u_s >= 1, so a move adds one constant with
    # no carry or borrow across fields, and a set dedups the layer
    b = 8 * dtype.itemsize
    field = (1 << b) - 1
    cap = 0 if squarefree_only else field
    senders = {}
    for t, s in moves:
        senders.setdefault(s, []).append((b * t, mm[t], (1 << b * t) - (1 << b * s)))
    senders = [(b * s, mm[s], targets) for s, targets in senders.items()]
    u = sum(e << b * c for c, e in enumerate(mm))
    walked, layer = [u], [u]
    while layer and len(layer) * len(moves) < _INT_LAYER_CANDIDATES:
        children = set()
        for u in layer:
            for bs, top, targets in senders:
                if 0 < (u >> bs & field) <= top:
                    for bt, low, step in targets:
                        if low <= (u >> bt & field) <= cap:
                            children.add(u + step)
        walked += children
        layer = children
    rows = np.frombuffer(b"".join([u.to_bytes(nbytes, "little") for u in walked]),
                         dtype).reshape(-1, width)
    if not layer:
        return rows[:, :n]
    # larger layers: the rows walked so far, m first and the last layer
    # at their end, continue as padded arrays, each deduped on its words
    m = rows[0]
    moves = np.array(moves, dtype=np.intp)
    dst, src = moves.T
    step = np.zeros((len(moves), width), dtype=dtype)
    step[np.arange(len(moves))[:, None], moves] = 1, -1
    layers = [rows]
    layer = rows[len(rows) - len(layer):]
    while True:
        take = layer >= m
        if squarefree_only:
            take &= layer == 0
        sends = (layer > 0) & (layer <= m)
        r, c = (sends.take(src, axis=1) & take.take(dst, axis=1)).nonzero()
        if not r.size:
            return np.concatenate(layers)[:, :n]
        layer = _distinct_words(layer.take(r, axis=0) + step.take(c, axis=0))
        layers.append(layer)


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
