import pytest

from qborel import Graph, ParseError, Poset, parse_poset, transitive_closure
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
    with pytest.raises(ValueError):
        q11.connected_components({4, 9})


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
    assert g.isolated_vertices() == {3, 4}
    assert g.without_isolated() == Graph({1, 2}, [(1, 2)])
    with pytest.raises(ValueError):
        Graph({1, 2}, [(1, 3)])
    with pytest.raises(ValueError):
        Graph({1, 2}, [(1, 1)])


def test_transitive_closure_builds_cliques():
    g = Graph({1, 2, 3, 4, 5}, [(1, 2), (2, 3)])
    closed = transitive_closure(g)
    assert closed.edges == {frozenset(e) for e in [(1, 2), (1, 3), (2, 3)]}
    assert closed.vertices == g.vertices


def test_hasse_graph_restriction(q3):
    g = q3.hasse_graph({1, 2, 3})
    assert g.edges == {frozenset({1, 3})}
    assert g.isolated_vertices() == {2}


JSON_TEXT = '{"n": 3, "covers": [[1, 3]]}'
LINE_TEXT = "3\nx1 < x3\n"


def test_parse_dispatch():
    assert parse_poset(JSON_TEXT) == parse_poset(LINE_TEXT)
    assert poset_from_text("  # comment\n2\n1 < 2\n").covers == {(1, 2)}


def test_parse_errors():
    for bad in ("", "{", '{"n": 3}', '{"n": "3", "covers": []}',
                '{"n": 3, "covers": [[1]]}', "x\n1 < 2", "2\n1 2", "2\n1 < 1"):
        with pytest.raises(ParseError):
            parse_poset(bad)


def test_load_poset_files(data_dir, q11, q3, q6):
    from qborel import load_poset
    assert load_poset(data_dir / "q11.json") == q11
    assert load_poset(data_dir / "q3.json") == q3
    assert load_poset(data_dir / "q6.txt") == q6
