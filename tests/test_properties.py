import hashlib
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qborel import engine, monomials, oracle, spectra, verify
from qborel.poset import Poset
from test_spectra import associated_primes_all_divisors


@st.composite
def instances(draw, max_n=5, max_deg=3, min_n=1):
    """A poset labeled along a linear extension plus a monomial on it."""
    n = draw(st.integers(min_n, max_n))
    rels = [
        (j, i)
        for j in range(1, n + 1)
        for i in range(j + 1, n + 1)
        if draw(st.booleans())
    ]
    d = draw(st.integers(1, max_deg))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
    m = np.bincount(picks, minlength=n).astype(np.int64)
    return Poset(n, rels), m


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_product_laws(inst, data):
    poset, m1 = inst
    m2 = np.bincount(
        data.draw(st.lists(st.integers(0, poset.n - 1), min_size=1, max_size=3)),
        minlength=poset.n).astype(np.int64)
    I = engine.generate_principal(poset, m1)
    J = engine.generate_principal(poset, m2)
    assert monomials.product(I, J) == monomials.product(J, I)
    meet = monomials.intersection(I, J)
    assert I.contains_ideal(meet)
    assert J.contains_ideal(meet)
    assert meet.contains_ideal(monomials.product(I, J))
    assert monomials.power(I, 2) == monomials.product(I, I)
    chain = monomials.powers(I, 3)
    assert all(chain[k - 1] == monomials.power(I, k) for k in (1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_closure_is_stable_under_moves(inst):
    # completeness: one further move from any generator lands inside
    poset, m = inst
    I = engine.generate_principal(poset, m)
    for g in I.gens:
        for i in monomials.support(g):
            for j in range(1, poset.n + 1):
                if j != i and poset.leq(j, i):
                    step = engine.apply_move(g, engine.BorelMove(i, j, poset))
                    assert I.contains(step)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_generators_are_certified(inst):
    # soundness: every generator is reachable, and the moves replay in
    # order through nonnegative intermediates
    poset, m = inst
    I = engine.generate_principal(poset, m)
    for g in I.gens:
        moves = engine.move_certificate(poset, m, g)
        total = np.asarray(m, dtype=np.int64).copy()
        for mv in moves:
            assert m[mv.i - 1] > 0
            total = engine.apply_move(total, mv)
            assert (total >= 0).all()
        assert np.array_equal(total, g)


def _certified(poset, m, u):
    try:
        engine.move_certificate(poset, m, u)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from([-1, 1]))
def test_transport_plan_matches_the_orbit(inst, shift):
    # the plan decides membership without the closure: it must succeed
    # on exactly the monomials of degree deg m that the orbit reaches,
    # and on nothing of another degree
    poset, m = inst
    I = engine.generate_principal(poset, m)
    deg = int(m.sum())
    for picks in combinations_with_replacement(range(poset.n), deg):
        u = np.bincount(picks, minlength=poset.n).astype(np.int64)
        assert _certified(poset, m, u) == I.contains(u)
    if deg + shift > 0:
        u = m.copy()
        u[int(np.argmax(u))] += shift
        assert not _certified(poset, m, u)


def orbit_rows_bfs(poset, m, squarefree_only=False):
    # plain breadth-first reference for engine._closure_rows: every legal
    # move from every new monomial, a set of seen rows, one layer a round
    moves = [(i, j) for i in range(1, poset.n + 1)
             for j in range(1, poset.n + 1) if i != j and poset.leq(j, i)]
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
        fresh = []
        for row in np.concatenate(batches):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(row)
        frontier = np.array(fresh, dtype=m.dtype).reshape(-1, poset.n)
        if fresh:
            layers.append(frontier)
    return np.concatenate(layers)


@settings(max_examples=200, deadline=None)
@given(instances(max_n=7, max_deg=4), st.booleans(), st.data())
def test_level_walk_matches_the_bfs(inst, squarefree_only, data):
    # the sums take one degree-a_i monomial on each down-set A_i and
    # must give the breadth-first orbit under every move.  The labels
    # are shuffled so that they need not follow the order
    poset, m = inst
    perm = data.draw(st.permutations(range(poset.n)))
    poset = Poset(poset.n, [(perm[j - 1] + 1, perm[i - 1] + 1)
                            for j, i in poset.covers])
    m = m[np.argsort(perm)]
    _closure_matches_the_bfs(poset, m, squarefree_only)


def _closure_matches_the_bfs(poset, m, squarefree_only):
    # the distinct rows of the orbit, already in canonical order.  A
    # square-free closure is asked of a square-free m, as
    # generate_sf_principal asks
    if squarefree_only:
        m = np.minimum(m, 1)
    want = monomials.canonical_rows(orbit_rows_bfs(poset, m, squarefree_only))
    rows = engine._closure_rows(poset, m, squarefree_only)
    assert rows.shape == want.shape
    assert np.array_equal(rows, want)
    return rows


@settings(max_examples=200, deadline=None)
@given(instances(max_n=7, max_deg=4), st.booleans())
def test_closure_bound_covers_the_closure(inst, squarefree_only):
    # every generator is a sum of one degree-a_i monomial on each A_i,
    # so no closure, full or square-free, outgrows the bound
    poset, m = inst
    bound = engine.closure_bound(poset, m)
    assert bound >= len(engine.generate_principal(poset, m))
    if squarefree_only:
        m = np.minimum(m, 1)
        assert engine.closure_bound(poset, m) >= len(engine.generate_sf_principal(poset, m))


def _chain(n):
    return Poset(n, [(i, i + 1) for i in range(1, n)])


@pytest.mark.parametrize("poset, m, squarefree_only, bound, size", [
    pytest.param(_chain(14), "x14^6", False, 27132, 27132, id="x14^6 on a 14-chain"),
    pytest.param("q11", "x2^3*x5^3*x11^3", False, 7840, 5320, id="q11 x2^3*x5^3*x11^3"),
    pytest.param(_chain(16), "x9*x10*x11*x12*x13*x14*x15*x16", True, 518918400, 12870,
                 id="x9*...*x16 square-free on a 16-chain"),
    pytest.param(_chain(7), "x1*x2*x7^4", False, 420, 336, id="x1*x2*x7^4 on a 7-chain"),
    pytest.param(_chain(9), "x2*x4*x6*x8*x9", True, 3456, 90,
                 id="x2*x4*x6*x8*x9 square-free on a 9-chain"),
])
def test_large_closure_matches_the_bfs(request, poset, m, squarefree_only, bound, size):
    # larger closures, full and square-free, row for row against the
    # breadth-first orbit, with their bounds and sizes pinned
    if poset == "q11":
        poset = request.getfixturevalue("q11")
    m = monomials.parse_monomial(m, poset.n)
    assert engine.closure_bound(poset, m) == bound
    assert len(_closure_matches_the_bfs(poset, m, squarefree_only)) == size


@pytest.mark.parametrize("n", [8, 9, 16, 17])
@settings(max_examples=15, deadline=None)
@given(st.data(), st.booleans())
def test_walk_on_several_words_matches_the_bfs(n, data, squarefree_only):
    # the sums pack each row into one python int of n one-byte fields,
    # 64 to 136 bits here, wider than a machine word
    poset, m = data.draw(instances(min_n=n, max_n=n, max_deg=4))
    _closure_matches_the_bfs(poset, m, squarefree_only)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("d", [128, 256])
def test_int16_walk_matches_the_bfs(n, d):
    # deg m of 128 or more holds rows in int16, so each packed field is
    # two bytes wide and the unpacked rows come back in int16
    poset = Poset(n, [(1, 2), (1, 3)] if n == 3 else [(1, 2), (3, 4), (4, 5)])
    m = np.zeros(n, np.int64)
    m[[1, n - 1]] = d - 2, 2
    assert _closure_matches_the_bfs(poset, m, False).dtype == np.int16


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=30).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), n))))
def test_canonical_rows_is_unique_then_sorted(rows):
    # a slack column puts every row in one degree, as an orbit's rows are;
    # there the canonical order is descending lex
    rows = np.hstack([rows, 3 * rows.shape[1] - rows.sum(axis=1, keepdims=True)])
    assert np.array_equal(monomials.canonical_rows(rows), np.unique(rows, axis=0)[::-1])


@settings(max_examples=60, deadline=None)
@given(instances())
def test_closure_is_idempotent(inst):
    poset, m = inst
    I = engine.generate_principal(poset, m)
    assert engine.generate_from_set(poset, I.gens) == I


@st.composite
def ideals(draw, max_n=5, max_gens=4, max_exp=3):
    """Any monomial ideal: a few random generator rows."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_gens))
    rows = draw(st.lists(st.lists(st.integers(0, max_exp), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return monomials.MonomialIdeal(np.array(rows, dtype=np.int64), n)


@settings(max_examples=60, deadline=None)
@given(instances(max_deg=4))
def test_support_scan_sees_every_divisor(inst):
    # the order ideal of a divisor depends on its support alone, so
    # chaining the down-sets of supp(m) must find what scanning all
    # divisors finds
    poset, m = inst
    assert spectra.associated_primes(poset, m) == \
        associated_primes_all_divisors(poset, m)


@settings(max_examples=60, deadline=None)
@given(ideals(), st.data())
def test_contraction_shrinks_as_the_prime_grows(I, data):
    # P <= P' gives I_P ∩ S >= I_P' ∩ S, so primes inside another
    # associated prime never tighten an intersection of contractions
    everything = list(range(1, I.nvars + 1))
    big = data.draw(st.sets(st.sampled_from(everything)))
    small = data.draw(st.sets(st.sampled_from(everything))) & big
    assert monomials.localize_contract(I, small).contains_ideal(
        monomials.localize_contract(I, big))


def _primes_and_witnesses(I):
    found, witnesses = oracle.associated_primes_bruteforce(I, return_witnesses=True)
    return found, [(p, f.tolist()) for p, f in witnesses.items()]


def _staircase_at_each_split(I):
    # the staircase with every box on numpy, with the default split and
    # with every box on python ints: the same dict each time, in the same
    # order, which is ascending order of the witnesses
    gens = np.ascontiguousarray(I.gens)
    bound = gens.max(axis=0).tolist()
    runs = []
    for cells in (0, oracle._INT_CELLS, 1 << 24):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_INT_CELLS", cells)
            runs.append(list(oracle._staircase_witnesses(gens, bound).items()))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0] == sorted(runs[0], key=lambda item: item[1])
    return frozenset(dict(runs[0])), runs[0]


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_staircase_matches_the_walk(I):
    # any ideal, embedded primes included: the grid route must give the
    # walk's primes and, for each, the same lex-least top witness, in
    # the same order
    assume(not I.is_unit())
    by_grid = _primes_and_witnesses(I)
    assert _staircase_at_each_split(I) == by_grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_GRID_CELLS", 0)
        by_walk = _primes_and_witnesses(I)
    assert by_grid == by_walk


def _top_witnesses_by_colons(I):
    # every cell f of the lcm box in lex order, with I : x^f read off
    # the clipped quotients of the generators; a prime colon counts when
    # f sits at the lcm outside the prime, and the first such f is kept
    bound = I.gens.max(axis=0).tolist()
    found = {}
    for f in product(*(range(b + 1) for b in bound)):
        colon = monomials.MonomialIdeal(np.clip(I.gens - np.array(f), 0, None), I.nvars)
        if (colon.degrees() != 1).any():
            continue
        prime = monomials.support(colon.gens.sum(axis=0))
        if all(f[c] == bound[c] for c in range(I.nvars) if c + 1 not in prime):
            found.setdefault(prime, list(f))
    return frozenset(found), sorted(found.items(), key=lambda item: item[1])


@settings(max_examples=100, deadline=None)
@given(ideals(max_gens=5))
def test_witnesses_match_every_colon_of_the_box(I):
    # boxes of at most 4^5 = 1,024 cells: both routes give exactly the
    # prime colons, each with its lex-least top witness, in that order
    assume(not I.is_unit())
    want = _top_witnesses_by_colons(I)
    assert _primes_and_witnesses(I) == want
    assert _staircase_at_each_split(I) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_GRID_CELLS", 0)
        assert _primes_and_witnesses(I) == want


@settings(max_examples=60, deadline=None)
@given(ideals(max_n=3, max_exp=8))
def test_deep_axes_match_every_colon_of_the_box(I):
    # tops up to 8, where the staircase's doubling fill takes up to four
    # shifts per axis, in boxes of at most 9^3 = 729 cells
    assume(not I.is_unit())
    want = _top_witnesses_by_colons(I)
    assert _primes_and_witnesses(I) == want
    assert _staircase_at_each_split(I) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_GRID_CELLS", 0)
        assert _primes_and_witnesses(I) == want


@settings(max_examples=100, deadline=None)
@given(ideals(), st.data())
def test_contraction_is_the_ideal_iff_nothing_is_zeroed(I, data):
    # the contraction returns I itself exactly when no generator uses a
    # variable outside the set; otherwise it zeroes them and minimalizes
    members = data.draw(st.sets(st.integers(1, I.nvars)))
    outside = [i for i in range(I.nvars) if i + 1 not in members]
    rows = I.gens.copy()
    rows[:, outside] = 0
    out = monomials.localize_contract(I, members)
    assert out == monomials.MonomialIdeal(rows, I.nvars)
    assert (out is I) == (not I.gens[:, outside].any())


def test_moved_properties_catch_wrong_stubs(monkeypatch):
    real_contract = monomials.localize_contract
    with monkeypatch.context() as patch:
        patch.setattr(monomials, "localize_contract", lambda I, members: real_contract(
            I, set(range(1, I.nvars + 1)) - set(members)))
        with pytest.raises(AssertionError):
            test_contraction_shrinks_as_the_prime_grows()
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "associated_primes", spectra.max_associated_primes)
        with pytest.raises(AssertionError):
            test_support_scan_sees_every_divisor()


def test_route_property_catches_a_dropped_witness(monkeypatch):
    real = oracle._staircase_witnesses

    def drop_one(gens, bound):
        found = real(gens, bound)
        found.popitem()
        return found

    monkeypatch.setattr(oracle, "_staircase_witnesses", drop_one)
    with pytest.raises(AssertionError):
        test_staircase_matches_the_walk()


def test_sf_spread_check_catches_a_short_search(monkeypatch, q6, m1236):
    assert verify.check_sf_spread(q6, m1236) == []
    real = engine._closure_rows

    def drop_one_row(poset, m, squarefree_only=False):
        rows = real(poset, m, squarefree_only)
        return rows[:-1] if squarefree_only else rows

    monkeypatch.setattr(engine, "_closure_rows", drop_one_row)
    fails = verify.check_sf_spread(q6, m1236)
    assert any("square-free search" in msg for msg in fails)


def test_transversal_check_catches_a_short_sum(monkeypatch, q11):
    # generate_principal takes the sums over the factorization that the
    # check expands, so the check also compares the closure with the
    # monomials reached by moves, which reads no engine closure code; a
    # sum that drops a row must fail there, at a bound of 12 and of 7,840
    ms = [monomials.parse_monomial(m, 11) for m in ("x4*x9^2", "x2^3*x5^3*x11^3")]
    for m in ms:
        assert verify.check_transversal(q11, m) == []
    assert verify.run_suite(0, 5, 7, 4, ["transversal-expansion"])[0].passed == 5
    real = engine._closure_rows

    def drop_one_row(poset, m, squarefree_only=False):
        rows = real(poset, m, squarefree_only)
        return rows[:-1] if len(rows) > 1 else rows

    monkeypatch.setattr(engine, "_closure_rows", drop_one_row)
    for m in ms:
        fails = verify.check_transversal(q11, m)
        assert any("reached by moves" in msg for msg in fails)
    report = verify.run_suite(0, 5, 7, 4, ["transversal-expansion"])[0]
    assert report.passed < 5 and any("reached by moves" in msg for msg in report.failures)


def test_draw_instance_pinned():
    # (property, index) -> (n, covers, monomials) drawn at seed 0 with the
    # acceptance sizes; run_trial replays exactly these instances
    pinned = {
        ("symbolic-powers", 382):
            (6, [(2, 6), (4, 3), (4, 5), (5, 1), (6, 4)], ["x1^2*x3*x5"]),
        ("ass-persistence", 488):
            (7, [(1, 2), (2, 3), (5, 3), (6, 2), (7, 6)], ["x2*x3^2*x7"]),
        ("squarefree-spread", 5): (7, [(1, 7), (3, 5), (4, 3), (4, 6)], ["x5*x6"]),
        ("product-identity", 3):
            (7, [(1, 4), (5, 1), (5, 6), (6, 2), (6, 4)], ["x1^2*x6^2", "x2*x3*x6"]),
        ("disjoint-intersection", 7): (7, [(2, 3), (3, 4), (6, 7)], ["x2", "x5^2*x7"]),
    }
    for (name, index), (n, covers, ms) in pinned.items():
        poset, *drawn = verify.draw_instance(name, 0, index, 7, 4)
        assert (poset.n, sorted(poset.covers)) == (n, covers), (name, index)
        assert [monomials.format_monomial(m) for m in drawn] == ms, (name, index)


def test_draw_instance_digest():
    # every instance the nine samplers draw at seeds 0 and 1, indices
    # 0-499 and the acceptance sizes, hashed: any sampler change that
    # moves one instance of criteria 4-9 changes the digest
    digest = hashlib.sha256()
    for name in verify.PROPERTIES:
        for seed in (0, 1):
            for index in range(500):
                poset, *drawn = verify.draw_instance(name, seed, index, 7, 4)
                digest.update(repr((name, seed, index, poset.n, sorted(poset.covers),
                                    [m.tolist() for m in drawn])).encode())
    assert digest.hexdigest() == (
        "868c6a94590cf3b97c7698618f29c76da9a8d72e99acd81c37426958b2b7dee8")


def test_disjoint_intersection_names_an_overlap():
    # x1 lies below both x2 and x3, so the sampler's promise is broken
    poset = Poset(3, [(1, 2), (1, 3)])
    fails = verify.check_disjoint_intersection(poset, [0, 1, 0], [0, 0, 2])
    assert fails == [
        "order ideals of x2 and x3^2 on Poset(3, [(1, 2), (1, 3)]) meet in [1]"]


def test_run_trial_reproducible():
    first = verify.run_trial("spread-agreement", 7, 3, 5, 3)
    second = verify.run_trial("spread-agreement", 7, 3, 5, 3)
    assert first == second == []


def test_all_properties_pass_small_run():
    reports = verify.run_suite(0, 5, 5, 3)
    assert [r.name for r in reports] == list(verify.PROPERTIES)
    for report in reports:
        assert report.failures == []
        assert report.passed == report.total == 5


def test_selected_property_subset():
    reports = verify.run_suite(1, 2, 4, 2, properties=["product-identity"])
    assert len(reports) == 1 and reports[0].name == "product-identity"


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        verify.run_suite(0, 1, 4, 2, properties=["nope"])
