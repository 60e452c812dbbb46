"""Finite posets on variable indices 1..n, plus small undirected graphs."""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError


class Poset:
    """Partial order on {x_1, ..., x_n} stored by its Hasse covers.

    The constructor accepts any acyclic set of strict relations (j, i),
    read as x_j < x_i, closes them transitively and keeps only the cover
    relations, so equivalent inputs produce identical posets.
    """

    __slots__ = ("n", "covers", "_leq")

    def __init__(self, n, relations=()):
        n = int(n)
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        rel = np.zeros((n, n), dtype=bool)
        for pair in relations:
            j, i = pair
            j, i = int(j), int(i)
            if not (1 <= j <= n and 1 <= i <= n):
                raise ValueError(f"relation ({j}, {i}) out of range 1..{n}")
            if j == i:
                raise ValueError(f"relation ({j}, {i}) is reflexive")
            rel[j - 1, i - 1] = True
        for k in range(n):
            np.logical_or(rel, rel[:, k:k + 1] & rel[k:k + 1, :], out=rel)
        if rel.diagonal().any():
            raise ValueError("relations contain a cycle")
        cov = rel & ~(rel @ rel)
        self.n = n
        self.covers = frozenset(
            (int(j) + 1, int(i) + 1) for j, i in zip(*np.nonzero(cov))
        )
        leq = rel
        np.fill_diagonal(leq, True)
        self._leq = leq
        self._leq.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, Poset)
                and self.n == other.n and self.covers == other.covers)

    def __hash__(self):
        return hash((self.n, self.covers))

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
        return bool(self._leq[j - 1, i - 1])

    def lt(self, j, i):
        return j != i and self.leq(j, i)

    def down_closure(self, members):
        """All indices below some member, members included."""
        members = frozenset(members)
        for i in members:
            self._check_index(i)
        if not members:
            return frozenset()
        cols = [i - 1 for i in members]
        mask = self._leq[:, cols].any(axis=1)
        return frozenset(int(j) + 1 for j in np.flatnonzero(mask))

    def is_order_ideal(self, members):
        return self.down_closure(members) == frozenset(members)

    def minimal_elements(self):
        strict = self._leq & ~np.eye(self.n, dtype=bool)
        return frozenset(int(i) + 1 for i in np.flatnonzero(~strict.any(axis=0)))

    def hasse_graph(self, members=None):
        """Undirected Hasse diagram, optionally restricted to a vertex set."""
        verts = frozenset(range(1, self.n + 1)) if members is None else frozenset(members)
        for i in verts:
            self._check_index(i)
        edges = frozenset(
            frozenset(e) for e in self.covers if e[0] in verts and e[1] in verts
        )
        return Graph(verts, edges)

    def connected_components(self, members):
        """Components of the Hasse diagram induced on an order ideal."""
        if not self.is_order_ideal(members):
            raise ValueError("component decomposition needs an order ideal")
        return self.hasse_graph(members).components()

    def induced(self, members):
        """Restriction of the order to a subset, relabeled to 1..k."""
        labels = tuple(sorted(set(members)))
        for i in labels:
            self._check_index(i)
        pos = {v: k + 1 for k, v in enumerate(labels)}
        rels = [
            (pos[a], pos[b])
            for a in labels for b in labels
            if a != b and self._leq[a - 1, b - 1]
        ]
        return InducedPoset(Poset(len(labels), rels), labels)


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

    def isolated_vertices(self):
        touched = frozenset().union(*self.edges) if self.edges else frozenset()
        return self.vertices - touched

    def without_isolated(self):
        return Graph(self.vertices - self.isolated_vertices(), self.edges)


def transitive_closure(graph):
    """Complete every connected component to a clique; vertices are kept."""
    edges = set()
    for comp in graph.components():
        comp = sorted(comp)
        for a in range(len(comp)):
            for b in range(a + 1, len(comp)):
                edges.add(frozenset((comp[a], comp[b])))
    return Graph(graph.vertices, frozenset(edges))


def _relation_token(tok, lineno):
    tok = tok.strip()
    if tok.startswith("x"):
        tok = tok[1:]
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected a variable index, got {tok!r}") from None


def poset_from_text(text):
    """Parse the line format: first line n, then one 'j < i' per line."""
    lines = [
        (k + 1, ln.strip()) for k, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty poset description")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"line {lineno}: expected the ground set size, got {head!r}") from None
    rels = []
    for lineno, ln in lines[1:]:
        parts = ln.split("<")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'j < i', got {ln!r}")
        rels.append((_relation_token(parts[0], lineno), _relation_token(parts[1], lineno)))
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
    if not isinstance(covers, list) or any(
            not isinstance(c, list) or len(c) != 2
            or not all(type(v) is int for v in c) for c in covers):
        raise ParseError("'covers' must be a list of [lower, upper] pairs")
    try:
        return Poset(n, [tuple(c) for c in covers])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_poset(text):
    """Dispatch on the leading character: JSON object or line format."""
    if text.lstrip().startswith("{"):
        return poset_from_json(text)
    return poset_from_text(text)


def load_poset(path):
    """Read and parse a poset file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"poset file is not UTF-8: {exc}") from None
    return parse_poset(text)
