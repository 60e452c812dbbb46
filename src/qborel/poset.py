"""Finite posets on variable indices 1..n, plus small undirected graphs."""

import json
import operator
import re
from dataclasses import dataclass, field

from .errors import ParseError


class Poset:
    """Partial order on {x_1, ..., x_n}, held only by its down-sets.

    The constructor accepts any acyclic set of strict relations (j, i),
    read as x_j < x_i, with integer entries, and closes them
    transitively.  The down-set of x_i, itself included, is held as the
    int bitmask _down[i - 1] with bit j - 1 set for each x_j <= x_i;
    every query reads the order from these bitmasks, and only this
    module knows them.  The Hasse covers are derived from the bitmasks
    on each read.  Equality and hashing read (n, _down): one order has
    one set of down-sets and one set of covers, so equivalent inputs
    produce equal posets.
    """

    __slots__ = ("n", "_down")

    def __init__(self, n, relations=()):
        n = _integer_entry(n, "ground set size")
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        down = [1 << i for i in range(n)]
        above = [[] for _ in range(n)]
        wait = [0] * n
        for j, i in relations:
            if type(j) is not int or type(i) is not int:
                j = _integer_entry(j, "relation entry")
                i = _integer_entry(i, "relation entry")
            if not (0 < j <= n and 0 < i <= n):
                raise ValueError(f"relation ({j}, {i}) out of range 1..{n}")
            if j == i:
                raise ValueError(f"relation ({j}, {i}) is reflexive")
            above[j - 1].append(i - 1)
            wait[i - 1] += 1
        # close in topological order: once every relation into x_j has
        # been passed along, down[j] is final and flows to what lies above
        done = [i for i in range(n) if not wait[i]]
        for j in done:
            for i in above[j]:
                down[i] |= down[j]
                wait[i] -= 1
                if not wait[i]:
                    done.append(i)
        if len(done) < n:
            raise ValueError("relations contain a cycle")
        self.n = n
        self._down = tuple(down)

    @property
    def covers(self):
        """The Hasse covers (j, i): x_j < x_i with nothing strictly between.

        x_j is covered by x_i iff it lies strictly below x_i and strictly
        below no x_k that lies strictly below x_i.
        """
        strict = [d ^ 1 << i for i, d in enumerate(self._down)]
        out = []
        for i, below in enumerate(strict):
            inner = 0
            for k in _indices(below):
                inner |= strict[k - 1]
            out += [(j, i + 1) for j in _indices(below & ~inner)]
        return frozenset(out)

    def __eq__(self, other):
        return (isinstance(other, Poset)
                and self.n == other.n and self._down == other._down)

    def __hash__(self):
        return hash((self.n, self._down))

    def __repr__(self):
        cov = sorted(self.covers)
        return f"Poset({self.n}, {cov})"

    def _check_index(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")

    def leq(self, j, i):
        """True iff x_j <= x_i in the order."""
        self._check_index(j)
        self._check_index(i)
        return bool(self._down[i - 1] >> (j - 1) & 1)

    def lt(self, j, i):
        return j != i and self.leq(j, i)

    def down_set(self, i):
        """The indices j with x_j <= x_i, ascending, as a list."""
        self._check_index(i)
        return _indices(self._down[i - 1])

    def down_closure(self, members):
        """All indices below some member, members included."""
        mask = 0
        for i in members:
            self._check_index(i)
            mask |= self._down[i - 1]
        return _members(mask)

    def is_order_ideal(self, members):
        return self.down_closure(members) == frozenset(members)

    def minimal_elements(self):
        return frozenset(i + 1 for i, d in enumerate(self._down) if d == 1 << i)

    def connected_components(self, members):
        """Components of the subposet induced on members.

        Two members share a component iff a chain of members joins them,
        each comparable to the next.  Each set down(i) & members, i a
        member, is joined through i, and holds any two comparable members
        when i is the larger, so the components are these sets merged by
        overlap, listed by smallest member.  A set finds the unions it
        meets through the union that took each element.
        """
        members = frozenset(members)
        inside = 0
        for i in members:
            self._check_index(i)
            inside |= 1 << (i - 1)
        unions, into, owner, seen = [], [], {}, 0
        for i in members:
            if seen >> (i - 1) & 1:
                continue
            k = len(unions)
            into.append(k)
            union = self._down[i - 1] & inside
            meets = union & seen
            while meets:
                c = _find(into, owner[meets & -meets])
                meets &= ~unions[c]
                union |= unions[c]
                into[c] = k
            fresh = union & ~seen
            while fresh:
                low = fresh & -fresh
                owner[low] = k
                fresh ^= low
            unions.append(union)
            seen |= union
        comps = [u for c, u in enumerate(unions) if into[c] == c]
        return [_members(c) for c in sorted(comps, key=lambda c: c & -c)]

    def connected_ideals(self, members):
        """The connected order ideals generated by nonempty subsets of members.

        The order ideal of a subset S is the union of the down-sets
        down(i), i in S, and it is connected iff those down-sets chain by
        overlaps:
        - down(i) is connected, since saturated chains join each of its
          members to i inside it, so overlapping down-sets have a
          connected union;
        - a Hasse edge, a cover a < b, with a in down(i) and b in down(j)
          puts a in down(j), so unions of down-sets that do not overlap
          share no Hasse edge.
        So the ideals are the unions reached from single down-sets by
        adding one that meets the union so far.
        """
        members = frozenset(members)
        for i in members:
            self._check_index(i)
        down = [self._down[i - 1] for i in members]
        found = set(down)
        todo = list(found)
        while todo:
            union = todo.pop()
            for d in down:
                if union & d and union | d not in found:
                    found.add(union | d)
                    todo.append(union | d)
        return frozenset(_members(union) for union in found)

    def induced(self, members):
        """Restriction of the order to a subset, relabeled to 1..k."""
        labels = tuple(sorted(set(members)))
        for i in labels:
            self._check_index(i)
        inside = sum(1 << (i - 1) for i in labels)
        pos = {v: k + 1 for k, v in enumerate(labels)}
        rels = [
            (pos[a], pos[b])
            for b in labels for a in _members(self._down[b - 1] & inside)
            if a != b
        ]
        return InducedPoset(Poset(len(labels), rels), labels)


def _integer_entry(value, what):
    """value as a python int; numpy ints pass, 1.9, '3' or True do not."""
    try:
        # operator.index reads a python bool as 0 or 1; a numpy bool it refuses
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} is not an integer: {value!r}") from None


def _find(into, c):
    """Root of c in the merge forest into, halving the path to it."""
    while into[c] != c:
        into[c] = into[into[c]]
        c = into[c]
    return c


def _indices(mask):
    """The 1-based indices of the set bits of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _members(mask):
    """The 1-based indices of the set bits of a bitmask, as a frozenset."""
    return frozenset(_indices(mask))


@dataclass(frozen=True)
class InducedPoset:
    """Induced subposet together with its relabeling table.

    labels[k - 1] is the ambient index of the induced element k.
    """

    poset: Poset
    labels: tuple


@dataclass(frozen=True)
class Graph:
    """Undirected graph on integer vertices with frozenset edges."""

    vertices: frozenset
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges",
                           frozenset(frozenset(e) for e in self.edges))
        for e in self.edges:
            if len(e) != 2 or not e <= self.vertices:
                raise ValueError(f"bad edge {sorted(e)}")

    def components(self):
        """Connected components, sorted by smallest vertex."""
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        comps = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            stack = [v]
            comp = {v}
            seen.add(v)
            while stack:
                for w in adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        seen.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps


# int() also reads the digits of other scripts and '_' between digits
_INTEGER_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def _integer(text):
    """int(text) of ASCII digits, with an optional sign and spaces around."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# one relation line 'j < i', each index optionally led by 'x'.  Space
# after an 'x' stays in the group, where the token reading of
# _relation_error leaves it for int()
_RELATION_RE = re.compile(r"\s*x?(\s*[+-]?[0-9]+)\s*<\s*x?(\s*[+-]?[0-9]+)\s*")


def _relation_error(ln, lineno):
    """The ParseError for a line that is not a relation."""
    parts = ln.split("<")
    if len(parts) != 2:
        return ParseError(f"line {lineno}: expected 'j < i', got {ln!r}")
    for tok in parts:
        tok = tok.strip()
        if tok.startswith("x"):
            tok = tok[1:]
        try:
            _integer(tok)
        except ValueError:
            return ParseError(f"line {lineno}: expected a variable index, got {tok!r}")


def poset_from_text(text):
    """Parse the line format: n, then one 'j < i' per line; '#' starts a comment."""
    n = None
    rels = []
    for lineno, ln in enumerate(text.splitlines(), 1):
        ln = ln.partition("#")[0].strip()
        if not ln:
            continue
        if n is None:
            try:
                n = _integer(ln)
            except ValueError:
                raise ParseError(f"line {lineno}: expected the ground set size, got {ln!r}") from None
            continue
        rel = _RELATION_RE.fullmatch(ln)
        if rel is not None:
            try:
                rels.append((int(rel[1]), int(rel[2])))
                continue
            except ValueError:
                # int() refuses the separators \x1c-\x1f, which \s
                # matches, before a digit: 'x\x1f1' is no index
                pass
        raise _relation_error(ln, lineno)
    if n is None:
        raise ParseError("empty poset description")
    try:
        return Poset(n, rels)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def poset_from_json(text):
    """Parse {"n": ..., "covers": [[j, i], ...]}."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "covers" not in doc:
        raise ParseError("poset JSON needs keys 'n' and 'covers'")
    n, covers = doc["n"], doc["covers"]
    # JSON true and false load as bool, which is an int subclass
    if type(n) is not int:
        raise ParseError("'n' must be an integer")
    if type(covers) is not list:
        raise ParseError("'covers' must be a list of [lower, upper] pairs")
    for c in covers:
        if type(c) is not list or len(c) != 2 or type(c[0]) is not int or type(c[1]) is not int:
            raise ParseError("'covers' must be a list of [lower, upper] pairs")
    try:
        return Poset(n, covers)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_poset(text):
    """Dispatch on the leading character: JSON object or line format."""
    if text.lstrip().startswith("{"):
        return poset_from_json(text)
    return poset_from_text(text)


def load_poset(path):
    """Read and parse a poset file, UTF-8 with or without a byte-order mark.

    CRLF and lone CR line ends read as LF, as in text mode.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"poset file is not UTF-8: {exc}") from None
    # the mark is dropped after decoding, so an error's position counts it
    if text.startswith("\ufeff"):
        text = text[1:]
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_poset(text)
