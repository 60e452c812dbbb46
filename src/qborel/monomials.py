"""Monomials and monomial ideals as integer exponent vectors.

A monomial in n variables is a length-n int64 array of exponents; an
ideal is held by the rows of a (k, n) array.  Variables are 1-indexed
in every public interface, so x4*x9^2 in 11 variables is the vector
with entries 1 and 2 at positions 4 and 9.
"""

import functools
import numbers
import re

import numpy as np

from . import _kernels
from .errors import ParseError

# Sums and differences of two in-range exponents stay well inside int64.
_EXPONENT_LIMIT = 1 << 31

_TERM_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")

# Up to this many rows canonical_order sorts Python lists.  A lexsort
# makes a key copy and a pass per column, so a few wide rows (3 rows of
# 12,000 int8 columns) peaked at 33 MB; the list sort peaks at 0.5 MB.
_LIST_SORT_ROWS = 8


def _check_range(arr):
    """Refuse a negative exponent, then one past the supported range.

    One reduction decides both: the bitwise or of the entries is
    negative iff some entry is, and otherwise reaches the power of two
    _EXPONENT_LIMIT iff some entry does.
    """
    if arr.size:
        bits = np.bitwise_or.reduce(arr, axis=None)
        if bits < 0:
            raise ValueError("exponents must be nonnegative")
        if bits >= _EXPONENT_LIMIT:
            raise OverflowError("exponent exceeds the supported range")


def monomial(exponents):
    """Validate and copy an exponent sequence into a monomial."""
    arr = np.array(exponents)
    # numpy ints pass; an object array holds python ints past int64
    if arr.dtype.kind not in "biu" and arr.size and not (
            arr.dtype == object and all(isinstance(v, numbers.Integral) for v in arr.flat)):
        raise ValueError("exponents must be integers")
    m = arr.astype(np.int64, copy=False)
    if m.ndim != 1:
        raise ValueError("a monomial is a flat exponent vector")
    _check_range(m)
    return m


def parse_monomial(text, nvars):
    """Parse 'x4*x9^2' into an exponent vector; '1' is the empty product."""
    s = text.strip()
    # python ints, so a huge exponent reaches the range check intact
    exps = [0] * nvars
    if s != "1":
        for term in s.split("*"):
            t = term.strip()
            mt = _TERM_RE.fullmatch(t)
            if mt is None:
                raise ParseError(f"bad monomial term {t!r}")
            idx = int(mt[1])
            exp = int(mt[2]) if mt[2] else 1
            if not 1 <= idx <= nvars:
                raise ParseError(f"variable x{idx} out of range 1..{nvars}")
            exps[idx - 1] += exp
        # the pattern reads no sign, so no exponent is negative
        if max(exps) >= _EXPONENT_LIMIT:
            raise OverflowError("exponent exceeds the supported range")
    return np.array(exps, dtype=np.int64)


def format_monomial(m):
    """Inverse of parse_monomial, factors in ascending variable order."""
    return format_rows(np.asarray(m)[None, :])[0]


class _Factors(dict):
    """The text of the factor x_{i+1}^e of each code e << 32 | i.

    It is made the first time it is asked for, led by the separator
    that comes before the factor in its row: a newline for x1, '*'
    otherwise.  Code 0, x1^0, is entered as a bare newline before any
    lookup.
    """

    def __missing__(self, code):
        i, e = code & 0xFFFFFFFF, code >> 32
        lead = "*" if i else "\n"
        text = self[code] = f"{lead}x{i + 1}" if e == 1 else f"{lead}x{i + 1}^{e}"
        return text


# Below this many rows a loop over each row's python ints is the cheaper
# pass; from it on, one lookup per nonzero cell of the array's codes.  On
# 4 to 12 columns (2 vCPUs) the two cross at 12 to 16 rows: on 8 columns
# 8 rows take 13.7 against 19.4 us, 215 rows 237 against 118 us.
_CODED_FORMAT_ROWS = 16


def format_rows(rows):
    """format_monomial of each row of a 2-dimensional exponent array.

    Each distinct (variable, exponent) pair that occurs is formatted
    once, and every row reads its factors from those.
    """
    rows = np.asarray(rows)
    # rows of no columns have no first cell to lead them in the codes
    if len(rows) < _CODED_FORMAT_ROWS or rows.size == 0:
        factors = {}
        out = []
        for row in rows.tolist():
            parts = []
            for i, e in enumerate(row):
                if e:
                    text = factors.get((i, e))
                    if text is None:
                        text = factors[i, e] = f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    parts.append(text)
            out.append("*".join(parts) or "1")
        return out
    # the codes of the nonzero cells and of each row's first cell, in
    # order: joining their factors gives every row, each led by a newline
    n = rows.shape[1]
    cells = rows != 0
    cells[:, 0] = True
    codes = (np.asarray(rows, dtype=np.int64) << 32 | np.arange(n))[cells]
    factors = _Factors({0: "\n"})
    text = "".join(map(factors.__getitem__, codes.tolist()))
    out = text.replace("\n*", "\n").split("\n")[1:]
    return [t or "1" for t in out] if "" in out else out


def degree(m):
    return int(np.asarray(m).sum())


def support(m):
    """Indices of the variables dividing m, 1-indexed."""
    return frozenset(i + 1 for i in np.asarray(m).nonzero()[0].tolist())


def is_squarefree(m):
    return bool((np.asarray(m) <= 1).all())


def _positions(members, nvars):
    """The 0-based positions of 1-based variable indices, each checked."""
    out = []
    for i in members:
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        out.append(i - 1)
    return out


def restrict(m, members):
    """Zero every exponent outside the given variable set."""
    m = np.asarray(m)
    keep = _positions(members, m.shape[0])
    out = np.zeros_like(m)
    out[keep] = m[keep]
    return out


def canonical_order(rows, degs=None):
    """Indices that sort rows by ascending degree, then descending lex.

    That is the order a worked example is read in.  degs holds the
    degrees of the rows; without it the rows are taken to be of one
    degree, as an orbit's are, and are sorted on their columns alone.
    Up to _LIST_SORT_ROWS rows are sorted as Python lists, one key per
    row: a lexsort costs a pass per column however few the rows.  From
    _kernels.NARROW_SORT_ROWS rows on, the sort reads copies of the
    rows and degrees cast to the narrowest type holding them, which
    numpy sorts by radix.
    """
    # sorted ascending on the inverted degrees and read backwards, so no
    # negated copy of the rows is made; only equal rows tie, and they
    # come last index first.  ~ reverses the order of signed and
    # unsigned keys alike
    if len(rows) <= _LIST_SORT_ROWS:
        keys = rows.tolist()
        if degs is not None:
            keys = list(zip((~degs).tolist(), keys))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        order.reverse()
        return order
    keys = _kernels.sort_keys(rows)[:, ::-1].T
    if degs is not None:
        keys = (*keys, ~_kernels.sort_keys(degs))
    return np.lexsort(keys)[::-1]


def _firsts(rows):
    """Mask of the rows that differ from the row before them."""
    fresh = np.empty(rows.shape[0], np.bool_)
    fresh[0] = True
    np.logical_or.reduce(rows[1:] != rows[:-1], axis=1, out=fresh[1:])
    return fresh


def canonical_rows(rows):
    """The distinct rows, sorted on their columns alone.

    That is the canonical order for rows of one degree, as an orbit's
    are.  One sort puts each repeat right after the row it repeats.
    """
    if rows.shape[0] <= 1:
        return rows
    rows = rows.take(canonical_order(rows), axis=0)
    return rows.compress(_firsts(rows), axis=0)


@functools.lru_cache(maxsize=16)
def _ones(n):
    """A read-only int64 vector of n ones.

    rows @ _ones(n) sums each row exactly, faster than a sum along the
    short axis; making the vector costs as much as the product on a few
    rows, so it is cached.
    """
    ones = np.ones(n, np.int64)
    ones.flags.writeable = False
    return ones


def _minimal_rows(rows):
    """The minimal rows, distinct and in canonical order.

    Of one degree, distinct rows never divide each other, so they are
    only sorted on their columns and deduplicated.
    """
    if rows.shape[0] <= 1:
        return rows
    degs = rows @ _ones(rows.shape[1])
    if not np.count_nonzero(degs != degs[0]):
        return canonical_rows(rows)
    order = canonical_order(rows, degs)
    rows, degs = rows.take(order, axis=0), degs.take(order)
    fresh = _firsts(rows)
    rows, degs = rows.compress(fresh, axis=0), degs.compress(fresh)
    return rows.compress(_kernels.minimalize_keep(rows, degs), axis=0)


class MonomialIdeal:
    """A monomial ideal held by its unique minimal generators.

    The generator rows are minimalized and stored in canonical order on
    construction, so equal ideals compare equal.  The zero ideal has no
    rows and the unit ideal the single row of the monomial 1.  The
    private _one_degree=True takes a nonempty array of distinct rows of
    nonnegative integers, all of one degree and in canonical order, and
    neither sorts nor minimalizes them.
    """

    __slots__ = ("gens", "nvars")

    def __init__(self, gens, nvars, *, _one_degree=False):
        nvars = int(nvars)
        if _one_degree:
            # distinct rows of one degree in canonical order, as a
            # closure's are: each is its own minimal generator, so they
            # are kept as they come, widened from the narrow type they
            # may come in.  No exponent exceeds the degree, so only a
            # degree of 2^31 or more is checked
            rows = gens.astype(np.int64)
            if rows.size and int(np.add.reduce(rows[0])) >= _EXPONENT_LIMIT:
                _check_range(rows)
        else:
            rows = np.asarray(gens, dtype=np.int64)
            if rows.size == 0:
                rows = rows.reshape(0, nvars)
            if rows.ndim != 2 or rows.shape[1] != nvars:
                raise ValueError(f"generators must be rows of length {nvars}")
            _check_range(rows)
            rows = _minimal_rows(rows)
        rows.flags.writeable = False
        self.gens = rows
        self.nvars = nvars

    @classmethod
    def zero(cls, nvars):
        return cls(np.zeros((0, nvars), dtype=np.int64), nvars)

    @classmethod
    def unit(cls, nvars):
        return cls(np.zeros((1, nvars), dtype=np.int64), nvars)

    @classmethod
    def from_strings(cls, texts, nvars):
        texts = list(texts)
        rows = np.array([parse_monomial(t, nvars) for t in texts],
                        dtype=np.int64).reshape(len(texts), nvars)
        return cls(rows, nvars)

    def __len__(self):
        return self.gens.shape[0]

    def __iter__(self):
        return iter(self.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.nvars == other.nvars
                and self.gens.shape == other.gens.shape
                and not np.count_nonzero(self.gens != other.gens))

    def __hash__(self):
        return hash((self.nvars, self.gens.shape, bytes(self.gens.data)))

    def __repr__(self):
        if self.is_zero():
            return f"MonomialIdeal(<0>, nvars={self.nvars})"
        body = ", ".join(self.generator_strings())
        return f"MonomialIdeal(<{body}>, nvars={self.nvars})"

    def generator_strings(self):
        return format_rows(self.gens)

    def is_zero(self):
        return self.gens.shape[0] == 0

    def is_unit(self):
        return self.gens.shape[0] == 1 and not np.count_nonzero(self.gens)

    def degrees(self):
        return self.gens @ _ones(self.nvars)

    def is_equigenerated(self):
        degs = self.degrees()
        return degs.size <= 1 or bool((degs == degs[0]).all())

    def contains(self, m):
        """Membership of a single monomial."""
        m = np.ascontiguousarray(np.asarray(m, dtype=np.int64)[None, :])
        return bool(_kernels.divides_any(self.gens, m)[0])

    def contains_each(self, rows):
        """Membership mask over the rows of an array of monomials."""
        rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
        return _kernels.divides_any(self.gens, rows)

    def contains_ideal(self, other):
        """True iff every generator of other lies in self."""
        _check_same_ring(self, other)
        return bool(self.contains_each(other.gens).all())


def _check_same_ring(I, J):
    if I.nvars != J.nvars:
        raise ValueError("ideals live in different variable counts")


def _pairwise(I, J, combine):
    # rows combine(u, v) over u in G(I) and v in G(J), one block of rows
    # of I at a time; minimalizing the running rows before each further
    # block keeps peak memory at about one block, discarding non-minimal
    # rows early never changes the final minimal set, and the
    # constructor makes the last pass
    _check_same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return MonomialIdeal.zero(I.nvars)
    step = max(1, _kernels._CHUNK_CELLS // J.gens.shape[0])

    def block(s):
        return combine(I.gens[s:s + step, None, :], J.gens[None, :, :]).reshape(-1, I.nvars)

    acc = block(0)
    for s in range(step, I.gens.shape[0], step):
        acc = np.concatenate([_minimal_rows(acc), block(s)])
    return MonomialIdeal(acc, I.nvars)


def product(I, J):
    """The product ideal, generated by pairwise products."""
    return _pairwise(I, J, np.add)


def powers(I, d):
    """The ordinary powers (I, I^2, ..., I^d), d >= 1, one product each."""
    if int(d) != d or d < 1:
        raise ValueError("power wants an integer exponent d >= 1")
    chain = [I]
    for _ in range(int(d) - 1):
        chain.append(product(chain[-1], I))
    return tuple(chain)


def power(I, d):
    """The d-th ordinary power, d >= 1."""
    return powers(I, d)[-1]


def intersection(I, J):
    """The intersection ideal, generated by pairwise lcms."""
    return _pairwise(I, J, np.maximum)


def localize_contract(I, members):
    """Contraction of I localized at the prime on the given variables.

    For a monomial ideal this is generated by the generators with every
    exponent outside the variable set zeroed out; when no generator has
    such an exponent, that is I itself.
    """
    members = frozenset(members)
    _positions(members, I.nvars)
    drop = [i for i in range(I.nvars) if (i + 1) not in members]
    if not np.count_nonzero(I.gens.take(drop, axis=1)):
        return I
    rows = I.gens.copy()
    rows[:, drop] = 0
    return MonomialIdeal(rows, I.nvars)


def variable_prime(members, nvars):
    """The prime ideal generated by the given variables."""
    cols = _positions(sorted(frozenset(members)), nvars)
    rows = np.zeros((len(cols), nvars), dtype=np.int64)
    rows[np.arange(len(cols)), cols] = 1
    return MonomialIdeal(rows, nvars)


def alpha(I):
    """Least degree of a member, undefined for the zero ideal."""
    if I.is_zero():
        raise ValueError("alpha is undefined for the zero ideal")
    return int(np.minimum.reduce(I.degrees()))
