import math

import numpy as np
import pytest

from qborel import (
    Graph,
    MonomialIdeal,
    Poset,
    analytic_spread_principal,
    analytic_spread_rank,
    analytic_spread_sf,
    check_transitive_closure_theorem,
    format_monomial,
    generate_principal,
    generate_sf_principal,
    integer_rank,
    linear_relation_graph,
    parse_monomial,
    spread_via_relation_graph,
)
from qborel import engine, monomials, spread, verify
from qborel._kernels import integer_rank_kernel

rng = np.random.default_rng(20261019)


def test_integer_rank_basics():
    assert integer_rank(np.eye(3, dtype=np.int64)) == 3
    assert integer_rank(np.zeros((2, 5), dtype=np.int64)) == 0
    assert integer_rank(np.array([[1, 1, 0], [0, 1, 1]]).T) == 2
    assert integer_rank(np.array([[2, 4], [1, 2]])) == 1
    with pytest.raises(ValueError):
        integer_rank(np.array([1, 2, 3]))


def _spy_gram(monkeypatch):
    # the dtype of every matrix handed to the elimination kernel
    seen = []
    real = spread._kernels.integer_rank_kernel

    def spy(mat):
        seen.append(mat.dtype)
        return real(mat)

    monkeypatch.setattr(spread._kernels, "integer_rank_kernel", spy)
    return seen


def test_integer_rank_needs_exact_arithmetic(monkeypatch):
    # a float path would lose this rank to rounding; Hilbert-like matrix
    # scaled to integers keeps full rank only under exact elimination
    seen = _spy_gram(monkeypatch)
    n = 7
    M = np.array([[1 << (abs(i - j) * 8) for j in range(n)] for i in range(n)],
                 dtype=object)
    assert integer_rank(np.array(M, dtype=np.int64)) == n
    assert seen == [np.dtype(object)]


@pytest.mark.parametrize("shape", [(5, 30), (30, 5)])
@pytest.mark.parametrize("past", [False, True])
def test_integer_rank_matches_full_elimination(monkeypatch, shape, past):
    # the Gram matrix of the longer side's 30 columns: in float64 while
    # 30 * top^2 < 2^53, over python ints from there on
    seen = _spy_gram(monkeypatch)
    top = math.isqrt(((1 << 53) - 1) // 30) + past
    assert (30 * top * top < 1 << 53) is not past
    for copies in range(4):
        M = rng.integers(-top, top, size=(5, 30), endpoint=True)
        M[0, 0] = -top
        # the last rows negate the first ones, which lowers the rank
        M[5 - copies:] = -M[:copies]
        M = M if shape == (5, 30) else M.T
        assert integer_rank(M) == integer_rank_kernel(M)
    assert set(seen) == {np.dtype(object) if past else np.dtype(np.int64)}


def test_spread_rank(q11, m49, q3, m23):
    assert analytic_spread_rank(generate_principal(q3, m23)) == 2
    assert analytic_spread_rank(generate_principal(q11, m49)) == 4
    assert analytic_spread_rank(MonomialIdeal.from_strings(["x1*x2"], 3)) == 1
    with pytest.raises(ValueError):
        analytic_spread_rank(MonomialIdeal.zero(3))
    with pytest.raises(ValueError):
        analytic_spread_rank(MonomialIdeal.from_strings(["x1", "x2*x3"], 3))


def test_spread_formula(q11, m49, q3, m23):
    assert analytic_spread_principal(q3, m23) == 2
    assert analytic_spread_principal(q11, m49) == 4
    anti = Poset(4, [])
    assert analytic_spread_principal(anti, parse_monomial("x1*x3^2", 4)) == 1
    with pytest.raises(ValueError):
        analytic_spread_principal(q3, parse_monomial("1", 3))


def test_relation_graph_examples(q11, m49, q3, m23):
    small = linear_relation_graph(generate_principal(q3, m23))
    assert small.edges == {frozenset({1, 3})}
    assert small.vertices == {1, 3}

    single = linear_relation_graph(MonomialIdeal.from_strings(["x1*x2^2"], 3))
    assert single.edges == frozenset() and single.vertices == frozenset()

    big = linear_relation_graph(generate_principal(q11, m49))
    cliques = {frozenset((a, b)) for comp in ({1, 4}, {6, 7, 9})
               for a in comp for b in comp if a < b}
    assert big.edges == cliques


def test_relation_graph_degenerate_inputs():
    # no preconditions: zero, unit and mixed-degree ideals all give graphs
    assert linear_relation_graph(MonomialIdeal.zero(3)).edges == frozenset()
    assert linear_relation_graph(MonomialIdeal.unit(3)).edges == frozenset()
    mixed = MonomialIdeal.from_strings(["x1", "x2*x3"], 3)
    assert linear_relation_graph(mixed).edges == frozenset()


def test_spread_via_graph():
    assert spread_via_relation_graph(Graph({1, 3}, [(1, 3)])) == 2
    assert spread_via_relation_graph(Graph(frozenset())) == 1
    two_cliques = Graph(
        {1, 2, 3, 4, 5},
        [(1, 2), (3, 4), (3, 5), (4, 5)])
    assert spread_via_relation_graph(two_cliques) == 4


def test_closure_theorem_check(q11, m49, q3, m23):
    for poset, m in ((q3, m23), (q11, m49)):
        I = generate_principal(poset, m)
        assert check_transitive_closure_theorem(poset, m, I).ok
    anti = Poset(3, [])
    m = parse_monomial("x1*x2", 3)
    report = check_transitive_closure_theorem(anti, m, generate_principal(anti, m))
    assert report.ok and report.graph.edges == frozenset()


def test_spread_trial_generates_once(q11, m49, count_calls):
    # the theorem check reads the closure the spread trial already holds
    calls, count = count_calls
    count(engine, "generate_principal")
    count(spread, "linear_relation_graph")
    count(Poset, "connected_components")
    assert verify.check_spread(q11, m49) == []
    # one merge for the formula, one for the cliques the graph must have
    assert calls == {"generate_principal": 1, "linear_relation_graph": 1,
                     "connected_components": 2}


def test_spread_trial_fails_on_a_missing_component(q11, m49, monkeypatch):
    # a relation graph without the clique on {1, 4}: the comparison with
    # the closed Hasse diagram alone must name it
    real = spread.linear_relation_graph

    def without_x1_x4(I):
        graph = real(I)
        edges = graph.edges - {frozenset({1, 4})}
        return Graph(frozenset().union(*edges), edges)

    monkeypatch.setattr(spread, "linear_relation_graph", without_x1_x4)
    fails = verify.check_spread(q11, m49)
    assert any(f.startswith("relation graph of x4*x9^2") and "missing [[1, 4]]" in f
               for f in fails)


def test_sf_spread_worked_example(q6, m1236):
    result = analytic_spread_sf(q6, m1236)
    assert result.spread == 3
    assert format_monomial(result.gcd) == "x1*x2*x3"
    assert result.induced_ground == {4, 5, 6}
    assert analytic_spread_rank(generate_sf_principal(q6, m1236)) == 3
    induced = q6.induced(result.induced_ground)
    assert induced.poset.covers == {(1, 2), (2, 3)}


def _sf_spread_on_the_induced_poset(poset, m):
    # the reduction read literally: a second poset induced on the ground
    # set left by the gcd, the reduced monomial relabelled onto it, and
    # the components of its order ideal searched over its covers
    shared = generate_sf_principal(poset, m).gens.min(axis=0)
    ground = frozenset(range(1, poset.n + 1)) - monomials.support(shared)
    induced = poset.induced(ground)
    sub = np.array([m[i - 1] - shared[i - 1] for i in induced.labels], dtype=np.int64)
    ideal = induced.poset.down_closure(monomials.support(sub))
    graph = Graph(ideal, [e for e in induced.poset.covers if set(e) <= ideal])
    return len(ideal) - len(graph.components()) + 1, shared, ground


def test_sf_spread_matches_the_induced_poset():
    rng = np.random.default_rng(14)
    seen = set()
    for _ in range(500):
        poset, m = verify._poset_squarefree(rng, 8, 5)
        result = analytic_spread_sf(poset, m)
        want, shared, ground = _sf_spread_on_the_induced_poset(poset, m)
        assert result.spread == want
        assert np.array_equal(result.gcd, shared)
        assert result.induced_ground == ground
        seen.add(want)
    assert len(seen) >= 4


def test_sf_spread_builds_no_second_poset(q6, m1236, monkeypatch):
    # the components come from the merge on the poset already held
    def refuse(*args):
        raise AssertionError("a second poset was built")

    monkeypatch.setattr(Poset, "induced", refuse)
    monkeypatch.setattr(Poset, "__init__", refuse)
    result = analytic_spread_sf(q6, m1236)
    assert result.spread == 3
    assert format_monomial(result.gcd) == "x1*x2*x3"
    assert result.induced_ground == {4, 5, 6}


def test_sf_spread_antichain():
    anti = Poset(3, [])
    m = parse_monomial("x1*x3", 3)
    result = analytic_spread_sf(anti, m)
    assert result.spread == 1
    assert format_monomial(result.gcd) == "x1*x3"


def test_sf_spread_no_minimal_support():
    # support misses every minimal element, so the gcd must be 1
    chain = Poset(3, [(1, 2), (2, 3)])
    m = parse_monomial("x2*x3", 3)
    result = analytic_spread_sf(chain, m)
    assert format_monomial(result.gcd) == "1"
    assert result.spread == analytic_spread_principal(chain, m)


def test_sf_spread_rejects_squares(q11, m49):
    with pytest.raises(ValueError):
        analytic_spread_sf(q11, m49)
