"""Monomials and monomial ideals as integer exponent vectors.

A monomial in n variables is a length-n int64 array of exponents; an
ideal is held by the rows of a (k, n) array.  Variables are 1-indexed
in every public interface, so x4*x9^2 in 11 variables is the vector
with entries 1 and 2 at positions 4 and 9.
"""

import re

import numpy as np

from . import _kernels
from .errors import ParseError

# Sums and differences of two in-range exponents stay well inside int64.
_EXPONENT_LIMIT = 1 << 31

_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _check_range(arr):
    """Refuse a negative exponent, then one past the supported range."""
    if arr.size:
        if arr.min() < 0:
            raise ValueError("exponents must be nonnegative")
        if arr.max() >= _EXPONENT_LIMIT:
            raise OverflowError("exponent exceeds the supported range")


def monomial(exponents):
    """Validate and copy an exponent sequence into a monomial."""
    m = np.array(exponents, dtype=np.int64)
    if m.ndim != 1:
        raise ValueError("a monomial is a flat exponent vector")
    _check_range(m)
    return m


def parse_monomial(text, nvars):
    """Parse 'x4*x9^2' into an exponent vector; '1' is the empty product."""
    s = text.strip()
    # python ints, so a huge exponent reaches the range check intact
    exps = np.zeros(nvars, dtype=object)
    if s == "1":
        return exps.astype(np.int64)
    for term in s.split("*"):
        t = term.strip()
        mt = _TERM_RE.match(t)
        if mt is None:
            raise ParseError(f"bad monomial term {t!r}")
        idx = int(mt.group(1))
        exp = int(mt.group(2)) if mt.group(2) else 1
        if not 1 <= idx <= nvars:
            raise ParseError(f"variable x{idx} out of range 1..{nvars}")
        exps[idx - 1] += exp
    _check_range(exps)
    return exps.astype(np.int64)


def format_monomial(m):
    """Inverse of parse_monomial, factors in ascending variable order."""
    parts = [
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
        for i, e in enumerate(np.asarray(m).tolist()) if e > 0
    ]
    return "*".join(parts) if parts else "1"


def degree(m):
    return int(np.asarray(m).sum())


def support(m):
    """Indices of the variables dividing m, 1-indexed."""
    return frozenset(int(i) + 1 for i in np.flatnonzero(np.asarray(m)))


def is_squarefree(m):
    return bool((np.asarray(m) <= 1).all())


def restrict(m, members):
    """Zero every exponent outside the given variable set."""
    m = np.asarray(m)
    out = np.zeros_like(m)
    for i in members:
        if not 1 <= i <= m.shape[0]:
            raise ValueError(f"variable index {i} out of range 1..{m.shape[0]}")
        out[i - 1] = m[i - 1]
    return out


def canonical_order(rows, degs=None):
    """Indices that sort rows by ascending degree, then descending lex.

    That is the order a worked example is read in.  degs holds the
    degrees of the rows; without it the rows are taken to be of one
    degree, as an orbit's are, and are sorted on their columns alone.
    """
    # sorted ascending on the negated keys and read backwards, so no
    # negated copy of the rows is made; only equal rows tie
    keys = rows[:, ::-1].T
    if degs is not None:
        keys = (*keys, -degs)
    return np.lexsort(keys)[::-1]


def _firsts(rows):
    """Mask of the rows that differ from the row before them."""
    fresh = np.empty(rows.shape[0], np.bool_)
    fresh[0] = True
    (rows[1:] != rows[:-1]).any(axis=1, out=fresh[1:])
    return fresh


def canonical_rows(rows, one_degree=False):
    """The distinct rows in canonical order.

    One sort puts each repeat right after the row it repeats.
    """
    if rows.shape[0] <= 1:
        return rows
    rows = rows[canonical_order(rows, None if one_degree else rows.sum(axis=1))]
    return rows[_firsts(rows)]


def _minimal_rows(rows):
    """The minimal rows, distinct and in canonical order.

    Of one degree, distinct rows never divide each other, so they are
    only sorted on their columns and deduplicated.
    """
    if rows.shape[0] <= 1:
        return rows
    degs = rows.sum(axis=1)
    if degs.min() == degs.max():
        return canonical_rows(rows, one_degree=True)
    order = canonical_order(rows, degs)
    rows, degs = rows[order], degs[order]
    fresh = _firsts(rows)
    rows, degs = rows[fresh], degs[fresh]
    return rows[_kernels.minimalize_keep(rows, degs)]


class MonomialIdeal:
    """A monomial ideal held by its unique minimal generators.

    The generator rows are minimalized and stored in canonical order on
    construction, so equal ideals compare equal.  The zero ideal has no
    rows and the unit ideal the single row of the monomial 1.  The
    private _one_degree=True takes a nonempty array of distinct rows of
    nonnegative integers, all of one degree, and does not minimalize.
    """

    __slots__ = ("gens", "nvars")

    def __init__(self, gens, nvars, *, _one_degree=False):
        nvars = int(nvars)
        if _one_degree:
            # distinct rows of one degree, as an orbit's are: each is its
            # own minimal generator, so they are only sorted, in the
            # narrow type they may come in.  No exponent exceeds the
            # degree, so only a degree of 2^31 or more is checked
            rows = gens[canonical_order(gens)].astype(np.int64)
            if rows.size and int(rows[0].sum()) >= _EXPONENT_LIMIT:
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
                and bool((self.gens == other.gens).all()))

    def __hash__(self):
        return hash((self.nvars, self.gens.shape, bytes(self.gens.data)))

    def __repr__(self):
        if self.is_zero():
            return f"MonomialIdeal(<0>, nvars={self.nvars})"
        body = ", ".join(self.generator_strings())
        return f"MonomialIdeal(<{body}>, nvars={self.nvars})"

    def generator_strings(self):
        return [format_monomial(g) for g in self.gens]

    def is_zero(self):
        return self.gens.shape[0] == 0

    def is_unit(self):
        return self.gens.shape[0] == 1 and degree(self.gens[0]) == 0

    def degrees(self):
        return self.gens.sum(axis=1)

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
    for i in members:
        if not 1 <= i <= I.nvars:
            raise ValueError(f"variable index {i} out of range 1..{I.nvars}")
    drop = [i for i in range(I.nvars) if (i + 1) not in members]
    if not I.gens[:, drop].any():
        return I
    rows = I.gens.copy()
    rows[:, drop] = 0
    return MonomialIdeal(rows, I.nvars)


def variable_prime(members, nvars):
    """The prime ideal generated by the given variables."""
    members = sorted(frozenset(members))
    rows = np.zeros((len(members), nvars), dtype=np.int64)
    for r, i in enumerate(members):
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        rows[r, i - 1] = 1
    return MonomialIdeal(rows, nvars)


def alpha(I):
    """Least degree of a member, undefined for the zero ideal."""
    if I.is_zero():
        raise ValueError("alpha is undefined for the zero ideal")
    return int(I.degrees().min())
