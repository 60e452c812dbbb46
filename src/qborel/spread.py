"""Analytic spread of equigenerated monomial ideals, three ways.

The rank of the exponent matrix, the closed form on the order ideal and
the linear relation graph all compute the same number for closure
ideals; keeping the routes separate is what makes the agreement checks
meaningful.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _kernels, engine, monomials
from .poset import Graph
from .spectra import max_associated_primes


def integer_rank(mat):
    """Exact rank of an integer matrix over the rationals.

    With M the matrix turned to have no more rows than columns and rid
    of its zero rows, this is the rank of the Gram matrix M M^T: over Q,
    M M^T x = 0 gives |M^T x|^2 = 0, so both have the same kernel.  The
    Gram matrix is formed in float64, through BLAS, while columns *
    max|M|^2 < 2^53: every product and partial sum is then an integer
    below 2^53, which float64 holds exactly.  Past that bound it is
    formed over python ints.  Its rank is taken by fraction-free
    elimination.
    """
    mat = np.asarray(mat, dtype=np.int64)
    if mat.ndim != 2:
        raise ValueError("rank wants a 2-dimensional matrix")
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    mat = mat[mat.any(axis=1)]
    # as python ints, since np.abs of the least int64 overflows
    top = max(int(mat.max(initial=0)), -int(mat.min(initial=0)))
    if mat.shape[1] * top * top < 1 << 53:
        mat = mat.astype(np.float64)
        gram = (mat @ mat.T).astype(np.int64)
    else:
        mat = mat.astype(object)
        gram = mat @ mat.T
    return _kernels.integer_rank_kernel(gram)


def analytic_spread_rank(I):
    """Analytic spread of an equigenerated ideal via its exponent matrix."""
    if I.is_zero():
        raise ValueError("the zero ideal has no analytic spread")
    if not I.is_equigenerated():
        raise ValueError("the rank formula needs an equigenerated ideal")
    return integer_rank(I.gens.T)


def analytic_spread_principal(poset, m):
    """Closed form for closure ideals: |A(m)| - K(A(m)) + 1."""
    comps = max_associated_primes(poset, m)
    return sum(map(len, comps)) - len(comps) + 1


def linear_relation_graph(I):
    """Edges {i, j} with x_i u = x_j v for generators u, v of I.

    Vertices are the endpoints of edges, so the graph never carries
    isolated vertices.  Works for any monomial ideal; generators of
    different degrees simply never produce an edge.
    """
    adj = np.zeros((I.nvars, I.nvars), dtype=np.bool_)
    _kernels.relation_adjacency(np.ascontiguousarray(I.gens), adj)
    edges = frozenset(
        frozenset((int(i) + 1, int(j) + 1))
        for i, j in zip(*np.nonzero(np.triu(adj)))
    )
    verts = frozenset().union(*edges) if edges else frozenset()
    return Graph(verts, edges)


def spread_via_relation_graph(graph):
    """Vertex count minus component count plus one.

    Reads the spread off a linear relation graph.  The count is only
    meaningful for graphs of polymatroidal ideals, which closure ideals
    are; the caller vouches for that.
    """
    return len(graph.vertices) - len(graph.components()) + 1


@dataclass(frozen=True)
class ClosureComparison:
    """Relation graph of a closure ideal versus its predicted shape."""

    ok: bool
    graph: Graph
    expected: Graph
    missing_edges: frozenset
    extra_edges: frozenset


def check_transitive_closure_theorem(poset, m, I):
    """Compare the relation graph with the closed Hasse diagram.

    The relation graph of I, the closure ideal of m, must equal the
    transitive closure of the Hasse diagram of A(m) with isolated
    vertices dropped: a clique on each component of A(m) with at least
    two members.  The monomial 1 has no closure ideal and is refused.
    """
    graph = linear_relation_graph(I)
    comps = [c for c in max_associated_primes(poset, m) if len(c) > 1]
    expected = Graph(frozenset().union(*comps),
                     [e for c in comps for e in combinations(c, 2)])
    missing = expected.edges - graph.edges
    extra = graph.edges - expected.edges
    ok = (not missing and not extra and graph.vertices == expected.vertices)
    return ClosureComparison(ok, graph, expected,
                             frozenset(missing), frozenset(extra))


@dataclass(frozen=True, eq=False)
class SquarefreeSpread:
    """Spread of a square-free closure ideal with its reduction data."""

    spread: int
    gcd: np.ndarray
    induced_ground: frozenset


def analytic_spread_sf(poset, m):
    """Spread of the square-free closure ideal via its gcd reduction.

    Dividing out m' = gcd of the generators leaves a closure ideal over
    the subposet induced on the complement of supp(m'); its closed form
    gives the spread.  Its order ideal S is the down closure of supp(m)
    cut to that ground set, and S's components in the subposet are
    those Poset.connected_components finds on the members of S.
    """
    m = engine.closure_monomial(poset, m)
    shared = engine.generate_sf_principal(poset, m).gens.min(axis=0)
    ground = frozenset(range(1, poset.n + 1)) - monomials.support(shared)
    ideal = poset.down_closure(monomials.support(m) & ground) & ground
    return SquarefreeSpread(
        spread=len(ideal) - len(poset.connected_components(ideal)) + 1,
        gcd=shared,
        induced_ground=ground,
    )
