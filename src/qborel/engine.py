"""Closure of monomials under downward variable exchanges along a poset."""

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


def _check_ambient(poset, m):
    if m.shape[0] != poset.n:
        raise ValueError(f"monomial has {m.shape[0]} variables, poset has {poset.n}")


def _legal_moves(poset):
    # strict pairs (i, j): dividing x_i may introduce x_j
    return [
        (i, j)
        for i in range(1, poset.n + 1)
        for j in range(1, poset.n + 1)
        if i != j and poset.leq(j, i)
    ]


def _orbit_rows(poset, m, squarefree_only=False):
    # breadth-first closure; every reachable monomial has deg(m), so the
    # orbit is finite and already a minimal generating set up to dedup
    moves = _legal_moves(poset)
    seen = {m.tobytes()}
    layers = [m[None, :]]
    frontier = m[None, :]
    while frontier.shape[0]:
        batches = []
        for i, j in moves:
            mask = frontier[:, i - 1] > 0
            if squarefree_only:
                mask &= frontier[:, j - 1] == 0
            if mask.any():
                nxt = frontier[mask].copy()
                nxt[:, i - 1] -= 1
                nxt[:, j - 1] += 1
                batches.append(nxt)
        if not batches:
            break
        cand = np.unique(np.concatenate(batches), axis=0)
        fresh_mask = np.fromiter(
            (row.tobytes() not in seen for row in cand), bool, cand.shape[0])
        frontier = cand[fresh_mask]
        seen.update(row.tobytes() for row in frontier)
        if frontier.shape[0]:
            layers.append(frontier)
    return np.concatenate(layers)


def generate_principal(poset, m):
    """Smallest ideal containing m and closed under the exchange moves."""
    m = monomials.monomial(m)
    _check_ambient(poset, m)
    if monomials.degree(m) == 0:
        raise ValueError("the closure of the monomial 1 is not defined")
    return MonomialIdeal(_orbit_rows(poset, m), poset.n)


def generate_from_set(poset, ms):
    """Smallest ideal containing every listed monomial and closed under moves."""
    ms = [monomials.monomial(m) for m in ms]
    if not ms:
        raise ValueError("need at least one monomial")
    rows = []
    for m in ms:
        _check_ambient(poset, m)
        if monomials.degree(m) == 0:
            raise ValueError("the closure of the monomial 1 is not defined")
        rows.append(_orbit_rows(poset, m))
    return MonomialIdeal(np.concatenate(rows), poset.n)


def generate_sf_principal(poset, m):
    """Ideal generated by the square-free members of the closure of m."""
    m = monomials.monomial(m)
    _check_ambient(poset, m)
    if monomials.degree(m) == 0:
        raise ValueError("the closure of the monomial 1 is not defined")
    if not monomials.is_squarefree(m):
        raise ValueError("square-free closure needs a square-free monomial")
    return MonomialIdeal(_orbit_rows(poset, m, squarefree_only=True), poset.n)


def transversal_factorization(poset, m):
    """Factor the closure ideal of m into powers of variable primes.

    Returns [(A_i, a_i)] over the support of m in ascending order, where
    A_i is the down closure of {i}; the closure ideal is the product of
    the primes on A_i raised to a_i.
    """
    m = monomials.monomial(m)
    _check_ambient(poset, m)
    if monomials.degree(m) == 0:
        raise ValueError("the closure of the monomial 1 is not defined")
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

    The returned list replays to target as a vector identity; individual
    intermediate steps are allowed to go negative.
    """
    m = monomials.monomial(m)
    target = monomials.monomial(target)
    _check_ambient(poset, m)
    _check_ambient(poset, target)
    if monomials.degree(m) == 0:
        raise ValueError("the closure of the monomial 1 is not defined")

    moves = _path_moves(poset, m, target)
    supp = monomials.support(m)
    while True:
        t = next((k for k, mv in enumerate(moves) if mv[0] not in supp), None)
        if t is None:
            break
        v = moves[t][0]
        # v gained its exponent from some other move, so a partner exists
        k = next((k for k, mv in enumerate(moves) if k != t and mv[1] == v), None)
        assert k is not None
        a_k, b_k = moves[k]
        a_t, b_t = moves[t]
        assert b_k == a_t
        if a_k == b_t:
            for idx in sorted((t, k), reverse=True):
                del moves[idx]
        else:
            moves[k] = (a_k, b_t)
            del moves[t]

    replay = m.copy()
    for i, j in moves:
        replay[i - 1] -= 1
        replay[j - 1] += 1
    assert np.array_equal(replay, target)
    return [BorelMove(i, j, poset) for i, j in moves]


def _path_moves(poset, m, target):
    # parent-link BFS over the closure, deterministic first-seen order
    if np.array_equal(m, target):
        return []
    moves = _legal_moves(poset)
    start = m.tobytes()
    goal = target.tobytes()
    parent = {start: None}
    queue = deque([m])
    while queue:
        cur = queue.popleft()
        for i, j in moves:
            if cur[i - 1] > 0:
                nxt = cur.copy()
                nxt[i - 1] -= 1
                nxt[j - 1] += 1
                key = nxt.tobytes()
                if key not in parent:
                    parent[key] = (cur.tobytes(), (i, j))
                    if key == goal:
                        queue.clear()
                        break
                    queue.append(nxt)
        else:
            continue
        break
    if goal not in parent:
        raise ValueError("target is not in the closure of the monomial")
    path = []
    key = goal
    while parent[key] is not None:
        key, mv = parent[key]
        path.append(mv)
    path.reverse()
    return path
