"""Seeded inputs, operations and output checks for the three workloads.

Inputs are plain data (ground set size, strict relations, exponent
tuple) drawn from the seed alone; the program only ever sees them as
arguments.  Every expected output is worked out here without calling
the package: closure generators from the transport (Hall) condition on
up-sets, spreads and relation graphs from the components of the order
ideal, and associated primes from connected down-closures of support
subsets.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import numpy as np

from qborel import Poset, cli, engine, monomials, spread, verify

# verify's samplers at the sizes of acceptance criteria 4 and 5
ORACLE_MAX_N = 7
ORACLE_MAX_DEG = 4
EDGE_PROBABILITY = 0.3
SMALL_MAX_GENS = 5
# Above 64 generators a handful of ops (up to 0.25 s each at depth 1)
# decide the tail and move it by a quarter from seed to seed; the full
# tail is timed by run.py --report.
LARGE_GENS = (40, 64)
# property -> verify function, looked up at call time so tracing sees it
CHECKS = (
    ("symbolic", "check_symbolic_powers"),
    ("ass", "check_ass_powers"),
    ("containment", "check_containment"),
)
# Depth 3 is the criteria's own power depth.  Large ideals run at depth
# 1: at depth 2-3 one |G| >= 40 op takes 0.03-80 s, so a run could hold
# too few of them for a median that repeats from seed to seed.
SMALL_DEPTH = 3
LARGE_DEPTH = 1

# big-closures: (ops per cycle, lowest and highest generator count)
# The median and the p75 of a 40-op cycle then both fall inside the
# 1500-2000 band, away from its edges: an op of the lowest band costs
# anything from 60 to 200 ms, so a rank there moves with the seed.
# The top band is narrow because its k x k relation graph sets the peak
# RSS, which would otherwise move by a tenth from seed to seed.
BIG_BANDS = ((12, 1000, 1500), (26, 1500, 2000), (2, 4500, 5000))
BIG_SHAPES = ("chain", "tree", "dense")
BIG_POWER_EVERY = 4

CLI_MAX_N = 8
CLI_MAX_DEG = 4
# (instances per cycle, fewest and most generators): fixed counts per
# band keep the slowest commands, and the generators per cycle, from
# swinging with the seed; the bands narrow as the sizes grow, because
# three wide ones let the generators per cycle move by a sixth
CLI_BANDS = ((20, 1, 5), (8, 6, 12), (7, 13, 20), (5, 21, 26), (5, 27, 33), (5, 34, 40))


@dataclass(frozen=True)
class Instance:
    """A poset on 1..n given by strict relations (j, i), x_j < x_i, and m."""

    n: int
    rels: tuple
    m: tuple


@dataclass
class Op:
    """One operation of a workload; index is its place in the cycle."""

    prop: str
    index: int
    inst: Instance
    gens: int
    stratum: str = ""
    args: tuple = ()
    expected: object = None


@dataclass
class Pool:
    ops: list
    strata: dict = field(default_factory=dict)


# --- independent combinatorics -------------------------------------------

def order_matrix(inst):
    """leq[j, i] iff x_{j+1} <= x_{i+1}, reflexive and transitive."""
    leq = np.eye(inst.n, dtype=bool)
    for j, i in inst.rels:
        leq[j - 1, i - 1] = True
    for k in range(inst.n):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    return leq


def down_set(leq, members):
    """0-based indices below some 0-based member."""
    if not len(members):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(leq[:, list(members)].any(axis=1))


def comparable_edges(leq, members):
    """Pairs {a, b} (1-based) of distinct comparable members."""
    return frozenset(
        frozenset((int(a) + 1, int(b) + 1))
        for a, b in combinations(sorted(members), 2)
        if leq[a, b] or leq[b, a])


def components(members, edges):
    """Connected components (1-based frozensets) of a graph on members."""
    parent = {int(v) + 1: int(v) + 1 for v in members}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        a, b = sorted(e)
        parent[find(a)] = find(b)
    comps = {}
    for v in parent:
        comps.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in comps.values()]


def canonical(rows):
    """Rows sorted lexicographically, as one C-contiguous int64 array."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.shape[0] <= 1:
        return rows
    return np.ascontiguousarray(rows[np.lexsort(rows.T[::-1])])


def closure_rows(inst):
    """Minimal generators of the closure ideal, by the transport condition.

    u is reachable from m by downward exchanges iff deg u = deg m and
    u(U) <= m(U) for every up-set U of the order ideal A(m): each unit of
    m at i may land anywhere below i, and Hall's condition for that
    transport reads exactly so.  All such u have degree deg m, so they
    are the minimal generators.
    """
    leq = order_matrix(inst)
    m = np.array(inst.m, dtype=np.int64)
    A = down_set(leq, np.flatnonzero(m))
    a, d = len(A), int(m.sum())
    combos = np.array(list(combinations_with_replacement(range(a), d)),
                      dtype=np.int64).reshape(-1, d)
    cand = np.zeros((combos.shape[0], a), dtype=np.int64)
    np.add.at(cand, (np.repeat(np.arange(combos.shape[0]), d), combos.ravel()), 1)
    masks = ((np.arange(1 << a)[:, None] >> np.arange(a)) & 1).astype(bool)
    up = np.ones(masks.shape[0], dtype=bool)
    sub = leq[np.ix_(A, A)]
    for x, y in zip(*np.nonzero(sub)):
        if x != y:
            up &= ~masks[:, x] | masks[:, y]
    U = masks[up].astype(np.float64)
    cap = U @ m[A]
    keep = np.empty(cand.shape[0], dtype=bool)
    # blocks of at most 2**18 products keep this set-up step out of peak RSS
    step = max(64, (1 << 18) // U.shape[0])
    for s in range(0, cand.shape[0], step):
        block = cand[s:s + step].astype(np.float64)
        keep[s:s + step] = ((block @ U.T) <= cap + 0.5).all(axis=1)
    rows = np.zeros((int(keep.sum()), inst.n), dtype=np.int64)
    rows[:, A] = cand[keep]
    return canonical(rows)


def relation_graph(leq, A):
    """Components of A(m) and the expected linear relation graph.

    The relation graph is the transitive closure of the Hasse diagram
    of A(m): every component of size two or more becomes a clique.
    """
    comps = components(A, comparable_edges(leq, A))
    edges = frozenset(frozenset(pair) for c in comps for pair in combinations(sorted(c), 2))
    return comps, edges


def spread_and_edges(inst):
    """Closed-form spread |A| - K(A) + 1 and the expected relation graph."""
    leq = order_matrix(inst)
    A = down_set(leq, np.flatnonzero(inst.m))
    comps, edges = relation_graph(leq, A)
    return len(A) - len(comps) + 1, edges


def associated_primes(inst):
    """Connected down-closures of nonempty support subsets."""
    leq = order_matrix(inst)
    supp = [int(i) for i in np.flatnonzero(inst.m)]
    out = set()
    for r in range(1, len(supp) + 1):
        for sub in combinations(supp, r):
            D = down_set(leq, sub)
            if len(components(D, comparable_edges(leq, D))) == 1:
                out.add(frozenset(int(v) + 1 for v in D))
    return out


def digest(*parts):
    h = hashlib.sha1()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _gens_bound(inst):
    # generators of the closure are degree-d monomials on A(m)
    leq = order_matrix(inst)
    return comb(len(down_set(leq, np.flatnonzero(inst.m))) + sum(inst.m) - 1,
                sum(inst.m))


# --- samplers ------------------------------------------------------------

def draw_relations(rng, n, p=EDGE_PROBABILITY):
    """A random order as verify.random_poset draws it, once n is drawn."""
    perm = rng.permutation(n) + 1
    return tuple(
        (int(perm[j]), int(perm[i]))
        for j in range(n)
        for i in range(j + 1, n)
        if rng.random() < p)


def draw_instance(rng, max_n, max_deg, min_n=1, min_deg=1):
    """verify.random_poset then verify.random_monomial.

    With min_n = min_deg = 1 this consumes the generator exactly as
    verify does.  Raising them draws from the same distribution with
    the smaller sizes left out, which is the same as conditioning on
    any event those sizes cannot reach.
    """
    n = int(rng.integers(min_n, max_n + 1))
    rels = draw_relations(rng, n)
    d = int(rng.integers(min_deg, max_deg + 1))
    m = np.bincount(rng.integers(0, n, size=d), minlength=n)
    return Instance(n, rels, tuple(int(e) for e in m))


# --- oracle-trials -------------------------------------------------------

def oracle_pool(seed, n_large=300):
    """Two small ops per large op, each stratum cycling the three checks.

    |G| >= 40 needs n >= 5 and deg >= 3 at these sizes (C(7, 4) = 35 and
    C(8, 2) = 28), so the large stratum draws only those sizes; that is
    verify's distribution conditioned on 40 <= |G| <= 64.
    """
    rng_small = np.random.default_rng([seed, 1])
    rng_large = np.random.default_rng([seed, 2])
    small = []
    while len(small) < 2 * n_large:
        inst = draw_instance(rng_small, ORACLE_MAX_N, ORACLE_MAX_DEG)
        g = len(closure_rows(inst))
        if g <= SMALL_MAX_GENS:
            small.append((inst, g))
    large = []
    while len(large) < n_large:
        inst = draw_instance(rng_large, ORACLE_MAX_N, ORACLE_MAX_DEG, 5, 3)
        if _gens_bound(inst) < LARGE_GENS[0]:
            continue
        g = len(closure_rows(inst))
        if LARGE_GENS[0] <= g <= LARGE_GENS[1]:
            large.append((inst, g))
    ops = []
    for k in range(n_large):
        picks = (("small", 2 * k, *small[2 * k]), ("small", 2 * k + 1, *small[2 * k + 1]),
                 ("large", k, *large[k]))
        for stratum, j, inst, g in picks:
            prop = CHECKS[j % len(CHECKS)][0]
            depth = SMALL_DEPTH if stratum == "small" else LARGE_DEPTH
            ops.append(Op(prop, len(ops), inst, g, stratum, (depth,), digest([])))
    return Pool(ops, {"small": 2 * n_large, "large": n_large})


def oracle_execute(op):
    check = getattr(verify, dict(CHECKS)[op.prop])
    poset = Poset(op.inst.n, op.inst.rels)
    return check(poset, np.array(op.inst.m, dtype=np.int64), *op.args)


def oracle_verify(op, out):
    return digest(out) == op.expected, digest(out)


# --- big-closures --------------------------------------------------------

def _big_relations(rng, shape, n):
    perm = rng.permutation(n) + 1
    if shape == "chain":
        return tuple((int(perm[k]), int(perm[k + 1])) for k in range(n - 1))
    if shape == "tree":
        # random recursive tree, each node below its parent, root on top
        return tuple((int(perm[k]), int(perm[rng.integers(0, k)]))
                     for k in range(1, n))
    return draw_relations(rng, n, p=0.7)


def big_instance(rng, shape, lo, hi):
    """Draw until the closure has lo..hi generators; returns rows too."""
    while True:
        n = int(rng.integers(8, 13))
        d = int(rng.integers(4, 7))
        rels = _big_relations(rng, shape, n)
        leq = order_matrix(Instance(n, rels, (0,) * n))
        # support on the one or two elements with the largest down-sets
        tops = np.argsort(-leq.sum(axis=0), kind="stable")[:int(rng.integers(1, 3))]
        m = np.bincount(rng.choice(tops, size=d), minlength=n)
        inst = Instance(n, rels, tuple(int(e) for e in m))
        if not lo <= _gens_bound(inst):
            continue
        rows = closure_rows(inst)
        if lo <= len(rows) <= hi:
            return inst, rows


def interleave(bands):
    """(lo, hi) of every slot, bands spread evenly over the cycle."""
    slots = [((k + 0.5) / count, lo, hi)
             for count, lo, hi in bands for k in range(count)]
    return [(lo, hi) for _, lo, hi in sorted(slots)]


def big_pool(seed, bands=BIG_BANDS):
    """Size bands interleaved so every stretch of the cycle has the mix."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for index, (lo, hi) in enumerate(interleave(bands)):
        shape = BIG_SHAPES[index % len(BIG_SHAPES)]
        inst, rows = big_instance(rng, shape, lo, hi)
        spread_value, edges = spread_and_edges(inst)
        args = ()
        square = np.zeros(0, dtype=np.int64)
        if index % BIG_POWER_EVERY == 0:
            # a degree-2 divisor of m: its closure has at most C(13, 2) = 78
            # generators, so power(J, 2) stays a small-ideal product
            units = np.repeat(np.arange(inst.n), inst.m)[:2]
            m2 = np.bincount(units, minlength=inst.n)
            args = (tuple(int(e) for e in m2),)
            square = closure_rows(Instance(inst.n, inst.rels, tuple(2 * m2)))
        expected = digest(rows, spread_value, sorted(map(sorted, edges)), square)
        ops.append(Op(shape, index, inst, len(rows), f"{lo}-{hi}", args, expected))
    return Pool(ops, {f"{lo}-{hi}": count for count, lo, hi in bands})


def big_execute(op):
    poset = Poset(op.inst.n, op.inst.rels)
    m = np.array(op.inst.m, dtype=np.int64)
    I = engine.generate_principal(poset, m)
    by_formula = spread.analytic_spread_principal(poset, m)
    by_rank = spread.analytic_spread_rank(I)
    graph = spread.linear_relation_graph(I)
    by_graph = spread.spread_via_relation_graph(graph)
    square = None
    if op.args:
        J = engine.generate_principal(poset, np.array(op.args[0], dtype=np.int64))
        square = monomials.power(J, 2)
    return I, (by_formula, by_rank, by_graph), graph, square


def big_verify(op, out):
    I, spreads, graph, square = out
    if len(set(spreads)) != 1:
        return False, digest(spreads)
    rows = canonical(I.gens)
    sq = canonical(square.gens) if square is not None else np.zeros(0, dtype=np.int64)
    got = digest(rows, spreads[0], sorted(map(sorted, graph.edges)), sq)
    return got == op.expected, got


# --- cli-queries ---------------------------------------------------------

CLI_COMMANDS = (
    "gen", "sfgen", "ass", "maxass", "decompose", "power", "sympow",
    "spread", "sfspread", "lrg", "certify", "invariants",
)


def _poset_text(inst, as_json):
    if as_json:
        return json.dumps({"n": inst.n, "covers": [list(r) for r in inst.rels]})
    return "\n".join([str(inst.n)] + [f"{j} < {i}" for j, i in inst.rels]) + "\n"


def cli_pool(seed, workdir, bands=CLI_BANDS):
    """Small instances written as poset files, twelve commands each.

    Each band of closure sizes takes the first instances drawn into it.
    Files alternate between the JSON and the line format.
    """
    rng = np.random.default_rng([seed, 4])
    drawn = {band: [] for band in bands}
    while any(len(got) < band[0] for band, got in drawn.items()):
        inst = draw_instance(rng, CLI_MAX_N, CLI_MAX_DEG)
        rows = closure_rows(inst)
        for band, got in drawn.items():
            if band[1] <= len(rows) <= band[2] and len(got) < band[0]:
                got.append((inst, rows))
    queues = {(lo, hi): iter(drawn[(c, lo, hi)]) for c, lo, hi in bands}
    workdir = Path(workdir)
    ops = []
    for k, (lo, hi) in enumerate(interleave(bands)):
        inst, rows = next(queues[(lo, hi)])
        path = workdir / (f"q{k}.json" if k % 2 == 0 else f"q{k}.txt")
        path.write_text(_poset_text(inst, k % 2 == 0), encoding="utf-8")
        m = monomials.format_monomial(inst.m)
        sf = monomials.format_monomial([min(e, 1) for e in inst.m])
        target = monomials.format_monomial(rows[-1])
        # invariants at -d 1: at -d 2 its cross-checks take 16-235 ms on
        # 21-40 generators, and those few ops alone would set the tail
        argv = {
            "gen": [m], "sfgen": [sf], "ass": [m], "maxass": [m],
            "decompose": [m], "power": [m, "-d", "2"],
            "sympow": [m, "-d", "2", "--method", "theorem"],
            "spread": [m], "sfspread": [sf], "lrg": [m],
            "certify": [m, target], "invariants": [m, "-d", "1"],
        }
        for name in CLI_COMMANDS:
            args = (name, str(path), *argv[name], "--json")
            ops.append(Op(name, len(ops), inst, len(rows), f"{lo}-{hi}", args))
    return Pool(ops, {f"{lo}-{hi}": count for count, lo, hi in bands})


def cli_execute(op):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(op.args))
    return code, out.getvalue()


def _parse_rows(texts, n):
    return canonical(np.array([monomials.parse_monomial(t, n) for t in texts],
                              dtype=np.int64).reshape(-1, n))


def _cli_expected_ok(op, doc):
    inst = op.inst
    n = inst.n
    leq = order_matrix(inst)
    m = np.array(inst.m, dtype=np.int64)
    A = down_set(leq, np.flatnonzero(m))
    comps, edges = relation_graph(leq, A)
    d = int(m.sum())
    name = op.prop
    if name == "gen":
        return np.array_equal(_parse_rows(doc["generators"], n), closure_rows(inst))
    if name in ("power", "sympow"):
        square = Instance(n, inst.rels, tuple(2 * m))
        return np.array_equal(_parse_rows(doc["generators"], n), closure_rows(square))
    if name == "sfgen":
        sf = Instance(n, inst.rels, tuple(np.minimum(m, 1)))
        full = closure_rows(sf)
        return np.array_equal(_parse_rows(doc["generators"], n),
                              full[(full <= 1).all(axis=1)])
    if name == "ass":
        return {frozenset(p) for p in doc["primes"]} == associated_primes(inst)
    if name == "maxass":
        return {frozenset(p) for p in doc["primes"]} == set(comps)
    if name == "decompose":
        want = {}
        for c in comps:
            part = np.array([e if i + 1 in c else 0 for i, e in enumerate(m)])
            want[monomials.format_monomial(part)] = closure_rows(
                Instance(n, inst.rels, tuple(int(e) for e in part)))
        got = {p["monomial"]: _parse_rows(p["generators"], n) for p in doc["components"]}
        return (got.keys() == want.keys()
                and all(np.array_equal(got[k], want[k]) for k in want))
    if name == "spread":
        value = len(A) - len(comps) + 1
        return doc == {"formula": value, "rank": value, "graph": value}
    if name == "lrg":
        return ({frozenset(e) for e in doc["edges"]} == edges
                and set(doc["vertices"]) == set().union(*edges))
    if name == "sfspread":
        sf = Instance(n, inst.rels, tuple(np.minimum(m, 1)))
        full = closure_rows(sf)
        rows = full[(full <= 1).all(axis=1)]
        return (doc["spread"] == int(np.linalg.matrix_rank(rows.astype(float)))
                and doc["gcd"] == monomials.format_monomial(rows.min(axis=0)))
    if name == "certify":
        cur = m.copy()
        supp = set(int(i) + 1 for i in np.flatnonzero(m))
        for i, j in doc["moves"]:
            if i not in supp or i == j or not leq[j - 1, i - 1]:
                return False
            cur[i - 1] -= 1
            cur[j - 1] += 1
        return monomials.format_monomial(cur) == op.args[3]
    if name == "invariants":
        return doc == {"waldschmidt": str(d), "alphaOverS": [str(d)],
                       "sdefect": [0], "resurgenceBound": "1"}
    raise ValueError(f"unknown command {name!r}")


def cli_verify(op, out):
    code, text = out
    got = digest(code, text)
    if op.expected is None:
        # first sight: check the content, then every repeat by digest
        ok = code == 0 and _cli_expected_ok(op, json.loads(text))
        if ok:
            op.expected = got
        return ok, got
    return got == op.expected, got


# --- registry ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    pool: object
    execute: object
    verify: object
    needs_dir: bool = False


WORKLOADS = {
    "oracle-trials": Workload("oracle-trials", oracle_pool, oracle_execute, oracle_verify),
    "big-closures": Workload("big-closures", big_pool, big_execute, big_verify),
    "cli-queries": Workload("cli-queries", cli_pool, cli_execute, cli_verify, True),
}
