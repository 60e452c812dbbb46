"""The numpy kernels must agree with their plain-loop references.

The loop functions below are the direct transcriptions of each kernel's
definition; the kernels are checked against them on random input.
"""

import numpy as np
import pytest

from qborel import _kernels
from qborel._kernels import integer_rank_kernel

# Fraction-free elimination stays exact in int64 as long as every operand
# of a cross-multiplication fits in 31 bits; past that the int64 loop
# reference gives up (ok False), while the kernel stays exact.
BAREISS_LIMIT = 1 << 30


def _minimalize_keep_loops(rows, degs):
    # rows deduplicated and sorted by ascending total degree; a row is
    # dropped iff some kept row of strictly smaller degree divides it
    k, n = rows.shape
    keep = np.ones(k, np.bool_)
    for a in range(k):
        for b in range(a):
            if keep[b] and degs[b] < degs[a]:
                dominated = True
                for c in range(n):
                    if rows[b, c] > rows[a, c]:
                        dominated = False
                        break
                if dominated:
                    keep[a] = False
                    break
    return keep


def _divides_any_loops(gens, queries):
    k, n = gens.shape
    q = queries.shape[0]
    out = np.zeros(q, np.bool_)
    for a in range(q):
        for b in range(k):
            hit = True
            for c in range(n):
                if gens[b, c] > queries[a, c]:
                    hit = False
                    break
            if hit:
                out[a] = True
                break
    return out


def _colon_class_loops(gens, f, vbuf):
    # Classify colon(I, x^f) without building it.  Quotient of a generator
    # u is max(u - f, 0).  Returns 0 when f lies in I (some quotient is 1),
    # 1 when the colon equals the prime on the variables flagged in vbuf,
    # 2 otherwise.  The colon is that prime iff its degree-one quotients
    # divide every other quotient's support.
    k, n = gens.shape
    for c in range(n):
        vbuf[c] = False
    for b in range(k):
        deg = 0
        var = -1
        for c in range(n):
            d = gens[b, c] - f[c]
            if d > 0:
                deg += d
                var = c
                if deg > 1:
                    break
        if deg == 0:
            return 0
        if deg == 1:
            vbuf[var] = True
    for b in range(k):
        covered = False
        for c in range(n):
            if vbuf[c] and gens[b, c] > f[c]:
                covered = True
                break
        if not covered:
            return 2
    return 1


def _bareiss_rank_loops(M, limit):
    # In-place fraction-free elimination with column pivoting.  Returns
    # (rank, ok); ok False means an operand outgrew `limit` and the result
    # must be recomputed exactly.
    rows, cols = M.shape
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = -1
        for rr in range(r, rows):
            if M[rr, c] != 0:
                p = rr
                break
        if p < 0:
            continue
        if p != r:
            for cc in range(cols):
                t = M[r, cc]
                M[r, cc] = M[p, cc]
                M[p, cc] = t
        for rr in range(r, rows):
            for cc in range(c, cols):
                if M[rr, cc] > limit or M[rr, cc] < -limit:
                    return rank, False
        piv = M[r, c]
        for rr in range(r + 1, rows):
            mrc = M[rr, c]
            for cc in range(c + 1, cols):
                M[rr, cc] = (piv * M[rr, cc] - mrc * M[r, cc]) // prev
            M[rr, c] = 0
        prev = piv
        r += 1
        rank += 1
    return rank, True


def _relation_adjacency_loops(gens, adj):
    # Edge {i, j} iff two generators differ by e_i - e_j exactly.
    r, n = gens.shape
    for k in range(r):
        for l in range(k + 1, r):
            pos = -1
            neg = -1
            ok = True
            for c in range(n):
                d = gens[l, c] - gens[k, c]
                if d == 1:
                    if pos >= 0:
                        ok = False
                        break
                    pos = c
                elif d == -1:
                    if neg >= 0:
                        ok = False
                        break
                    neg = c
                elif d != 0:
                    ok = False
                    break
            if ok and pos >= 0 and neg >= 0:
                adj[pos, neg] = True
                adj[neg, pos] = True
    return adj


rng = np.random.default_rng(20240817)


def random_rows(k, n, high=4):
    return rng.integers(0, high, size=(k, n)).astype(np.int64)


def sorted_unique(rows):
    rows = np.unique(rows, axis=0)
    order = np.argsort(rows.sum(1), kind="stable")
    return np.ascontiguousarray(rows[order])


@pytest.mark.parametrize("k,n", [(1, 1), (8, 3), (60, 5), (200, 7), (0, 3)])
def test_minimalize_keep_backends_agree(k, n):
    rows = sorted_unique(random_rows(k, n))
    degs = rows.sum(1)
    ref = _minimalize_keep_loops(rows, degs)
    assert np.array_equal(_kernels.minimalize_keep(rows, degs), ref)
    # the rows of the top degree alone: one degree, nothing is dropped
    top = degs == degs.max(initial=0)
    keep = _kernels.minimalize_keep(rows[top], degs[top])
    assert keep.all() and np.array_equal(keep, _minimalize_keep_loops(rows[top], degs[top]))


def test_minimalize_keep_semantics():
    rows = sorted_unique(np.array(
        [[1, 0], [0, 2], [1, 1], [2, 1], [0, 3]], dtype=np.int64))
    keep = _minimalize_keep_loops(rows, rows.sum(1))
    kept = rows[keep]
    # kept rows are pairwise incomparable, dropped rows are dominated
    for a in range(kept.shape[0]):
        for b in range(kept.shape[0]):
            if a != b:
                assert not (kept[a] <= kept[b]).all()
    for row in rows[~keep]:
        assert any((g <= row).all() and (g.sum() < row.sum()) for g in kept)


@pytest.mark.parametrize("k,q,n", [(1, 1, 2), (10, 25, 4), (80, 300, 6)])
def test_divides_any_backends_agree(k, q, n):
    gens = random_rows(k, n)
    queries = random_rows(q, n, high=6)
    ref = _divides_any_loops(gens, queries)
    assert np.array_equal(_kernels.divides_any(gens, queries), ref)


def test_colon_class_backends_agree():
    for _ in range(300):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 6))
        gens = random_rows(k, n, high=3)
        f = rng.integers(0, 3, size=n).astype(np.int64)
        buf_a = np.zeros(n, np.bool_)
        buf_b = np.zeros(n, np.bool_)
        a = _colon_class_loops(gens, f, buf_a)
        b = _kernels.colon_class(gens, f, buf_b)
        assert a == b
        if a == 1:
            assert np.array_equal(buf_a, buf_b)


def test_colon_class_codes():
    gens = np.array([[2, 0], [1, 1]], dtype=np.int64)
    buf = np.zeros(2, np.bool_)
    # f is a member: code 0
    assert _colon_class_loops(gens, np.array([2, 1]), buf) == 0
    # colon by x1 is <x1, x2>: code 1 on both variables
    assert _colon_class_loops(gens, np.array([1, 0]), buf) == 1
    assert buf.tolist() == [True, True]
    # colon by 1 is the ideal itself, not a variable prime
    assert _colon_class_loops(gens, np.array([0, 0]), buf) == 2


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 9), (9, 6), (8, 8)])
def test_rank_backends_agree(shape):
    # entry range keeps every minor inside the int64 guard, so the
    # bounded pass must succeed and match the exact one
    for _ in range(20):
        M = rng.integers(-3, 4, size=shape).astype(np.int64)
        rank, ok = _bareiss_rank_loops(M.copy(), BAREISS_LIMIT)
        assert ok
        assert integer_rank_kernel(M) == rank


def test_rank_overflow_falls_back_exactly():
    # entries big enough that one cross-multiplication trips the guard
    M = np.array([[1 << 40, 1], [1, 1 << 40]], dtype=np.int64)
    rank, ok = _bareiss_rank_loops(M.copy(), BAREISS_LIMIT)
    assert not ok
    assert integer_rank_kernel(M) == 2


def test_rank_known_values():
    assert integer_rank_kernel(np.zeros((3, 3), dtype=np.int64)) == 0
    assert integer_rank_kernel(np.eye(4, dtype=np.int64)) == 4
    M = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
    assert integer_rank_kernel(M) == 2


@pytest.mark.parametrize("r,n,shift", [
    (2, 3, 0), (12, 5, 0), (40, 8, 0),
    # every row has a child per column, so at least NARROW_SORT_ROWS
    # children, and entries past 255 and 65535 for their sort keys
    (_kernels.NARROW_SORT_ROWS, 6, (256, 65536, 0, 0, 0, 0)),
], ids=["2-3", "12-5", "40-8", "narrow-keys"])
def test_relation_adjacency_backends_agree(r, n, shift):
    # random rows mix degrees; repeated rows must add no edge of their own
    rows = random_rows(r, n, high=3) + np.array(shift)
    for gens in (rows, rng.permutation(np.concatenate([rows, rows[:r // 2 + 1]]))):
        a = _relation_adjacency_loops(gens, np.zeros((n, n), np.bool_))
        b = _kernels.relation_adjacency(gens, np.zeros((n, n), np.bool_))
        assert np.array_equal(a, b)
        assert np.array_equal(a, a.T)


def test_relation_adjacency_semantics():
    gens = np.array([[1, 1, 0], [0, 1, 1], [2, 0, 0]], dtype=np.int64)
    adj = _relation_adjacency_loops(gens, np.zeros((3, 3), np.bool_))
    # x3*(x1x2) = x1*(x2x3) gives {1, 3}; x1*(x1x2) = x2*(x1^2) gives {1, 2};
    # x2x3 and x1^2 differ in three slots, so no third edge
    assert adj[0, 2] and adj[2, 0]
    assert adj[0, 1] and adj[1, 0]
    assert not adj[1, 2] and not adj[2, 1]
    assert adj.sum() == 4

