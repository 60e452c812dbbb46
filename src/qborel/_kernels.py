"""Hot inner loops over exponent-vector arrays, vectorized with numpy.

The test suite keeps plain-loop references of every kernel and checks
these against them.  Callers pass C-contiguous int64 arrays.
"""

import numpy as np

BACKEND = "numpy"

# Chunk bound for the broadcasted comparisons, in comparison cells.
_CHUNK_CELLS = 1 << 22

# numpy radix-sorts 8- and 16-bit keys and merge-sorts wider ones.  From
# about this many rows on, taking the largest key and casting down costs
# less than the wider sort.  On 8 int64 columns (2 vCPUs, numpy 2.4) 16
# rows sort in 3.6 us as they are and in 7.3 us cast, 512 rows in 117 us
# and in 20 us; on 4 to 12 columns the two cross at 64 to 160 rows.
NARROW_SORT_ROWS = 128


def sort_keys(keys):
    """Nonnegative sort keys in the narrowest type that holds them all.

    Keys with fewer than NARROW_SORT_ROWS rows, or of 16 bits or fewer,
    are returned as they are.  The cast is a copy: stored rows keep
    their type.
    """
    if len(keys) < NARROW_SORT_ROWS or keys.dtype.itemsize <= 2:
        return keys
    return keys.astype(np.min_scalar_type(int(keys.max())))


def minimalize_keep(rows, degs):
    """Mask of the rows no kept row of strictly smaller degree divides.

    Rows are deduplicated and sorted by ascending total degree degs.
    """
    k = rows.shape[0]
    keep = np.ones(k, np.bool_)
    starts = np.flatnonzero(np.diff(degs)) + 1
    bounds = [*starts.tolist(), k]
    for a, b in zip(bounds, bounds[1:]):
        keep[a:b] = ~divides_any(rows[:a][keep[:a]], rows[a:b])
    return keep


def divides_any(gens, queries):
    """Mask of the query rows divisible by some generator row."""
    q = queries.shape[0]
    out = np.zeros(q, np.bool_)
    if gens.shape[0] == 0 or q == 0:
        return out
    step = max(1, _CHUNK_CELLS // gens.shape[0])
    for s in range(0, q, step):
        cand = queries[s:s + step]
        out[s:s + cand.shape[0]] = np.logical_or.reduce(
            np.logical_and.reduce(gens[None, :, :] <= cand[:, None, :], axis=2), axis=1)
    return out


def colon_class(gens, f, vbuf):
    """Classify colon(I, x^f) without building it.

    The quotient of a generator u is max(u - f, 0).  Returns 0 when f
    lies in I (some quotient is 1), 1 when the colon equals the prime on
    the variables flagged in vbuf, 2 otherwise.  The colon is that prime
    iff its degree-one quotients divide every other quotient's support.
    """
    q = gens - f[None, :]
    np.clip(q, 0, None, out=q)
    degs = q.sum(1)
    if (degs == 0).any():
        return 0
    vbuf[:] = False
    ones = q[degs == 1]
    if ones.shape[0] == 0:
        return 2
    vbuf[np.argmax(ones, 1)] = True
    covered = (q[:, vbuf] > 0).any(1)
    return 1 if bool(covered.all()) else 2


def integer_rank_kernel(mat):
    """Exact rank of an integer matrix over the rationals.

    Fraction-free elimination over an object array of python ints, so
    no intermediate can overflow.  mat holds int64 entries or python
    ints of any size.
    """
    M = np.array(mat, dtype=object)
    if M.size == 0:
        return 0
    rows, cols = M.shape
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            M[[r, p]] = M[[p, r]]
        piv = M[r, c]
        if r + 1 < rows:
            M[r + 1:, c + 1:] = (piv * M[r + 1:, c + 1:]
                                 - np.outer(M[r + 1:, c], M[r, c + 1:])) // prev
            M[r + 1:, c] = 0
        prev = piv
        r += 1
        rank += 1
    return rank


def relation_adjacency(gens, adj):
    """Set adj[i, j] and adj[j, i] when two generators differ by e_i - e_j.

    Those are w + e_i and w + e_j for a shared child w: the children
    u - e_c are sorted into runs, and each run links the c it removed.
    """
    r, c = np.nonzero(gens > 0)
    if r.size == 0:
        return adj
    kids = gens[r]
    kids[np.arange(r.size), c] -= 1
    order = np.lexsort(sort_keys(kids).T)
    kids, c = kids[order], c[order]
    fresh = np.ones(r.size, np.bool_)
    fresh[1:] = (kids[1:] != kids[:-1]).any(axis=1)
    # float for a BLAS product; a positive count of shared runs stays positive
    removed = np.zeros((int(fresh.sum()), gens.shape[1]))
    removed[np.cumsum(fresh) - 1, c] = 1.0
    shared = (removed.T @ removed) > 0
    np.fill_diagonal(shared, False)
    adj |= shared
    return adj


def warm_up():
    """Call every kernel once on toy input.

    Any one-time cost of a first call then falls outside the timed code
    that runs afterwards.
    """
    rows = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    degs = rows.sum(1)
    minimalize_keep(rows, degs)
    divides_any(rows[:2], rows)
    colon_class(rows[:2], np.zeros(2, np.int64), np.zeros(2, np.bool_))
    integer_rank_kernel(rows)
    relation_adjacency(rows[:2], np.zeros((2, 2), np.bool_))
