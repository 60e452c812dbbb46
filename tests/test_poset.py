import pathlib
import tracemalloc

import numpy as np
import pytest

import qborel
from qborel import Graph, ParseError, Poset, generate_principal, parse_poset
from qborel.poset import poset_from_json, poset_from_text


def test_covers_are_reduced():
    # the transitive relation (1, 3) must not survive as a cover
    p = Poset(3, [(1, 2), (2, 3), (1, 3)])
    assert p.covers == {(1, 2), (2, 3)}
    assert p.leq(1, 3)


def test_long_chain_has_only_consecutive_covers():
    # x1 < x258 passes through 256 elements, a count that wraps a byte
    p = Poset(258, [(i, i + 1) for i in range(1, 258)])
    assert len(p.covers) == 257
    assert (1, 258) not in p.covers


def test_equivalent_inputs_compare_equal():
    a = Poset(3, [(1, 2), (2, 3)])
    b = Poset(3, [(2, 3), (1, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Poset(4, [(1, 2), (2, 3)])


def test_leq_examples(q11):
    assert q11.leq(1, 5)
    assert not q11.leq(1, 3)
    assert q11.leq(4, 4)
    assert not q11.leq(5, 1)
    assert q11.lt(1, 5) and not q11.lt(5, 5)


def test_leq_rejects_bad_index(q11):
    with pytest.raises(ValueError):
        q11.leq(0, 5)
    with pytest.raises(ValueError):
        q11.leq(1, 12)


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        Poset(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError, match="reflexive"):
        Poset(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Poset(2, [(1, 3)])


def _order_by_pairs(n, rels):
    # the plain reference: close a set of pairs until nothing is added,
    # then keep the pairs nothing lies strictly between
    lt = set(rels)
    while True:
        more = {(a, d) for a, b in lt for c, d in lt if b == c} - lt
        if not more:
            break
        lt |= more
    covers = {(a, b) for a, b in lt
              if not any((a, c) in lt and (c, b) in lt for c in range(1, n + 1))}
    return lt, covers


def _components_by_search(covers, members):
    # search over the covers between members, listed by smallest member
    members = set(members)
    comps = []
    while members:
        comp, todo = set(), [min(members)]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp.add(v)
                todo += [w for e in covers if v in e for w in e if w in members]
        members -= comp
        comps.append(frozenset(comp))
    return comps


def _random_dag(rng, n, p):
    # relations along a random linear extension, with some repeated and
    # all in random input order
    perm = rng.permutation(n) + 1
    rels = [(int(perm[j]), int(perm[i])) for j in range(n)
            for i in range(j + 1, n) if rng.random() < p]
    rels += [rels[k] for k in rng.integers(0, len(rels), len(rels) // 4)] if rels else []
    return [rels[k] for k in rng.permutation(len(rels))]


def _check_order(rng, n, rels):
    # every public query of the order against the pair-closure reference
    p = Poset(n, rels)
    lt, covers = _order_by_pairs(n, rels)
    ground = range(1, n + 1)
    assert p.covers == covers
    assert p == Poset(n, sorted(covers)) and hash(p) == hash(Poset(n, sorted(covers)))
    assert all(p.down_set(b) == sorted(p.down_closure({b})) for b in ground)
    assert all(p.leq(a, b) == (a == b or (a, b) in lt)
               for a in ground for b in ground)
    assert p.minimal_elements() == {b for b in ground
                                    if not any((a, b) in lt for a in ground)}
    for _ in range(4):
        picked = {i for i in ground if rng.random() < 0.3}
        ideal = picked | {a for a, b in lt if b in picked}
        assert p.down_closure(picked) == ideal
        assert p.is_order_ideal(picked) == (picked == ideal)
        assert p.is_order_ideal(ideal)
        assert p.connected_components(ideal) == _components_by_search(covers, ideal)
        labels = sorted(picked)
        pos = {v: k + 1 for k, v in enumerate(labels)}
        _, induced = _order_by_pairs(len(labels), [
            (pos[a], pos[b]) for a, b in lt if a in pos and b in pos])
        ind = p.induced(picked)
        assert ind.poset.covers == induced
        # components of any member set are those of the subposet it induces
        assert p.connected_components(picked) == [
            frozenset(ind.labels[k - 1] for k in c)
            for c in _components_by_search(ind.poset.covers, range(1, len(labels) + 1))]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_bitmask_order_at_packing_edges(n):
    # byte and word edges of the bitmask packing: a shuffled chain, whose
    # top element has every bit below it set, and a sparse random order
    rng = np.random.default_rng(n)
    chain = [(i, i + 1) for i in range(1, n)]
    _check_order(rng, n, [chain[k] for k in rng.permutation(len(chain))])
    _check_order(rng, n, _random_dag(rng, n, 0.08))


def test_bitmask_order_matches_pair_closure():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        _check_order(rng, n, _random_dag(rng, n, float(rng.choice([0.15, 0.3, 0.6]))))


@pytest.mark.parametrize("rels, message", [
    ([(1, 2), (2, 2), (1, 5)], "relation (2, 2) is reflexive"),
    ([(1, 2), (1, 5), (2, 2)], "relation (1, 5) out of range 1..3"),
    ([(0, 1), (3, 3)], "relation (0, 1) out of range 1..3"),
    ([(1, 2), (2, 3), (3, 1), (3, 4)], "relation (3, 4) out of range 1..3"),
    ([(1, 2), (2, 3), (3, 1), (2, 2)], "relation (2, 2) is reflexive"),
    ([(1, 2), (2, 1)], "relations contain a cycle"),
    ([(1, 2), (2, 3), (3, 2)], "relations contain a cycle"),
])
def test_bad_relations_name_the_first_in_input_order(rels, message):
    # every relation is checked in input order before the order is
    # closed, so a cycle is reported only when no relation is bad
    with pytest.raises(ValueError) as exc:
        Poset(3, rels)
    assert str(exc.value) == message


def test_entries_must_be_integers():
    # int() would truncate 1.9 to 1 and read '3'
    for n, rels, message in [
            (3, [(1.9, 3)], "relation entry is not an integer: 1.9"),
            (3, [(1, 3.0)], "relation entry is not an integer: 3.0"),
            (2.7, [], "ground set size is not an integer: 2.7"),
            ("3", [], "ground set size is not an integer: '3'"),
            (True, [], "ground set size is not an integer: True"),
            (np.True_, [], "ground set size is not an integer: np.True_"),
            (2, [(True, 2)], "relation entry is not an integer: True"),
            (2, [np.array([True, False])], "relation entry is not an integer: np.True_")]:
        with pytest.raises(ValueError) as exc:
            Poset(n, rels)
        assert str(exc.value) == message
    p = Poset(np.int64(3), [(np.int32(1), np.uint8(3)), np.array([2, 3])])
    assert p == Poset(3, [(1, 3), (2, 3)])
    assert type(p.n) is int and repr(p) == "Poset(3, [(1, 3), (2, 3)])"


def test_covers_are_read_off_the_order(q11):
    assert q11.covers == {(1, 2), (1, 4), (2, 5), (4, 5), (3, 5),
                          (6, 9), (7, 9), (9, 11), (8, 10), (10, 11)}
    # the covers are derived on each read and cannot be assigned
    with pytest.raises(AttributeError):
        q11.covers = frozenset()


def test_down_set_is_ascending(q11):
    assert q11.down_set(9) == [6, 7, 9]
    assert q11.down_set(3) == [3]
    with pytest.raises(ValueError):
        q11.down_set(12)


def test_down_closure(q11):
    assert q11.down_closure({4, 9}) == {1, 4, 6, 7, 9}
    assert q11.down_closure({4}) == {1, 4}
    assert q11.down_closure(set()) == frozenset()
    assert q11.down_closure({3}) == {3}


def test_order_ideal_predicate(q11):
    assert q11.is_order_ideal({1, 4})
    assert not q11.is_order_ideal({4})
    assert q11.is_order_ideal(set())


def test_minimal_elements(q11, q3, q6):
    assert q11.minimal_elements() == {1, 3, 6, 7, 8}
    assert q3.minimal_elements() == {1, 2}
    assert q6.minimal_elements() == {1, 2}


def test_connected_components(q11, q3):
    assert q11.connected_components({1, 4, 6, 7, 9}) == [
        frozenset({1, 4}), frozenset({6, 7, 9})]
    assert q3.connected_components({1, 2, 3}) == [frozenset({1, 3}), frozenset({2})]
    # any member set: 1 < 5 only through the non-members 2 and 4
    assert q11.connected_components({4, 9}) == [frozenset({4}), frozenset({9})]
    assert q11.connected_components({1, 5, 9, 11}) == [
        frozenset({1, 5}), frozenset({9, 11})]
    with pytest.raises(ValueError):
        q11.connected_components({0, 1})


def test_induced_chain(q6):
    ind = q6.induced({4, 5, 6})
    assert ind.labels == (4, 5, 6)
    assert ind.poset.covers == {(1, 2), (2, 3)}


def test_induced_recovers_noncover_relations(q11):
    # 1 < 5 holds only through 2 and 4; dropping them makes it a cover
    ind = q11.induced({1, 3, 5})
    assert ind.poset.covers == {(1, 3), (2, 3)}
    assert ind.labels == (1, 3, 5)


def test_graph_components_and_isolated():
    g = Graph({1, 2, 3, 4}, [(1, 2)])
    assert g.components() == [frozenset({1, 2}), frozenset({3}), frozenset({4})]
    with pytest.raises(ValueError):
        Graph({1, 2}, [(1, 3)])
    with pytest.raises(ValueError):
        Graph({1, 2}, [(1, 1)])


JSON_TEXT = '{"n": 3, "covers": [[1, 3]]}'
LINE_TEXT = "3\nx1 < x3\n"


def test_parse_dispatch():
    assert parse_poset(JSON_TEXT) == parse_poset(LINE_TEXT)
    assert poset_from_text("  # comment\n2\n1 < 2\n").covers == {(1, 2)}
    # signs and spaces read as int() reads them
    assert poset_from_text(" +3 \n x1 <  +2\n").covers == {(1, 2)}


def test_parse_trailing_comments():
    text = "3  # size\n1 < 3  # note\nx2 < x3#tight\n"
    assert poset_from_text(text).covers == {(1, 3), (2, 3)}
    # cut comments keep the line numbers of the file
    with pytest.raises(ParseError, match="line 3: expected 'j < i', got '1 2'"):
        poset_from_text("# head\n2\n1 2  # no relation sign\n")


def test_parse_errors():
    for bad in ("", "{", '{"n": 3}', '{"n": "3", "covers": []}',
                '{"n": 3, "covers": [[1]]}', "x\n1 < 2", "2\n1 2", "2\n1 < 1"):
        with pytest.raises(ParseError):
            parse_poset(bad)


@pytest.mark.parametrize("text,message", [
    # int() reads the digits of other scripts and '_' between digits
    ("\u0661\n", "line 1: expected the ground set size, got '\u0661'"),
    ("1_2\n", "line 1: expected the ground set size, got '1_2'"),
    ("12\n1_0 < 2\n", "line 2: expected a variable index, got '1_0'"),
    ("3\nx\u0662 < x3\n", "line 2: expected a variable index, got '\u0662'"),
    ("3\n1 < \uff13\n", "line 2: expected a variable index, got '\uff13'"),
])
def test_parse_reads_ascii_digits_only(text, message):
    with pytest.raises(ParseError) as exc:
        poset_from_text(text)
    assert str(exc.value) == message


def test_load_poset_files(data_dir, q11, q3, q6):
    from qborel import load_poset
    assert load_poset(data_dir / "q11.json") == q11
    assert load_poset(data_dir / "q3.json") == q3
    assert load_poset(data_dir / "q6.txt") == q6


@pytest.mark.parametrize("name", ["q6.txt", "q3.json"])
@pytest.mark.parametrize("bom, end", [
    (b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n"), (b"", b"\r"), (b"\xef\xbb\xbf", b"\r\n")])
def test_load_poset_reads_a_byte_order_mark_and_any_line_end(data_dir, tmp_path, name, bom, end):
    from qborel import load_poset
    original = (data_dir / name).read_bytes()
    copy = tmp_path / name
    copy.write_bytes(bom + original.replace(b"\n", end))
    assert load_poset(copy) == load_poset(data_dir / name)


def _peak_bytes(build):
    # tracemalloc also sees numpy's array buffers
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_order_is_held_in_memory_linear_in_its_size():
    # a chain's down-sets hold n^2 / 2 bits, 4 MB at n = 8,000; an n x n
    # matrix of the order would take 64 MB, before any temporaries
    n = 8000
    assert _peak_bytes(lambda: Poset(n, [(i, i + 1) for i in range(1, n)])) < 48e6
    # one relation: the orbit walk holds one move, not an n x n table,
    # and its three rows of 36 kB are sorted without one pass per column
    wide = Poset(12000, [(1, 2)])
    m = np.zeros(12000, dtype=np.int64)
    m[1] = 2
    assert _peak_bytes(lambda: generate_principal(wide, m)) < 4e6


def test_only_poset_reads_the_down_set_bitmasks():
    # the bitmask format of the order stays behind the Poset queries
    src = pathlib.Path(qborel.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py")
                     if path.name != "poset.py" and "._down" in path.read_text())
    assert readers == []
