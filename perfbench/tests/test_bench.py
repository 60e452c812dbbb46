"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

import numpy as np
import pytest

import run
import workloads as wl
from qborel import Poset, engine, verify
from spans import Tracer


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1200) == 99.0
    assert run.tail_percentile(1000) == 99.0  # exactly ten above p99
    assert run.tail_percentile(999) == 95.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(19) == 100.0  # too few: the maximum
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile(values, 100) == 100
    assert run.percentile([7], 99) == 7


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)

    def middle_fn():
        leaf()

    middle = tracer.wrap("middle", middle_fn)
    inner = tracer.wrap("inner", lambda: None)

    def outer_fn():
        middle()
        inner()

    outer = tracer.wrap("outer", outer_fn)
    outer()
    # outer 0-10, middle 1-3 holding leaf 2-2.5, inner 4-7
    assert tracer.stats[("", "leaf")] == [1, 0.5]
    assert tracer.stats[("", "middle")] == [1, 1.5]
    assert tracer.stats[("", "inner")] == [1, 3.0]
    assert tracer.stats[("", "outer")] == [1, 5.0]


def test_install_wraps_and_restores_every_alias():
    original = engine.generate_principal
    init = Poset.__init__
    tracer = Tracer()
    with tracer:
        assert engine.generate_principal is not original
        I = engine.generate_principal(Poset(3, [(1, 3)]), np.array([0, 1, 1]))
    assert engine.generate_principal is original
    assert Poset.__init__ is init
    table = tracer.table()
    assert table["engine.generate_principal"][0] == 1
    assert table["poset.Poset"][0] == 1
    assert tracer.counts["engine.orbit_gens"] == len(I) == 2
    assert tracer.counts["monomials.rows_kept"] == 2


def test_sampler_draws_what_verify_draws():
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        inst = wl.draw_instance(a, 7, 4)
        poset = verify.random_poset(b, 7)
        m = verify.random_monomial(b, poset.n, 4)
        assert Poset(inst.n, inst.rels) == poset
        assert inst.m == tuple(m)


def test_independent_closure_matches_the_engine():
    rng = np.random.default_rng(5)
    for _ in range(60):
        inst = wl.draw_instance(rng, 7, 4)
        got = engine.generate_principal(Poset(inst.n, inst.rels), np.array(inst.m))
        assert np.array_equal(wl.canonical(got.gens), wl.closure_rows(inst))


def _summary(pool):
    return [(op.prop, op.index, op.inst, op.gens, op.stratum, op.args) for op in pool.ops]


def test_same_seed_same_instances_and_strata():
    a, b, c = wl.oracle_pool(3, n_large=6), wl.oracle_pool(3, n_large=6), wl.oracle_pool(4, n_large=6)
    assert _summary(a) == _summary(b)
    assert _summary(a) != _summary(c)
    assert a.strata == {"small": 12, "large": 6}
    for op in a.ops:
        if op.stratum == "small":
            assert op.gens <= wl.SMALL_MAX_GENS and op.args == (wl.SMALL_DEPTH,)
        else:
            lo, hi = wl.LARGE_GENS
            assert lo <= op.gens <= hi and op.args == (wl.LARGE_DEPTH,)
    bands = ((2, 1000, 1500), (1, 2000, 3000))
    big = [wl.big_pool(7, bands) for _ in range(2)]
    assert _summary(big[0]) == _summary(big[1])
    assert sorted(op.gens >= 2000 for op in big[0].ops) == [False, False, True]


TINY = {
    "oracle-trials": lambda seed, d: wl.oracle_pool(seed, n_large=3),
    "big-closures": lambda seed, d: wl.big_pool(seed, ((3, 1000, 1500),)),
    "cli-queries": lambda seed, d: wl.cli_pool(seed, d, ((1, 1, 5), (1, 6, 40))),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_has_no_failures(name, tmp_path):
    workload = wl.WORKLOADS[name]
    pool = TINY[name](1, tmp_path)
    correct, attempted, failed, metrics, detail = run.end_to_end(
        name, 1, 0.0, workload, pool)
    assert correct and failed == 0 and detail["fail_ratio"] == 0.0
    assert attempted == detail["cycles"] * len(pool.ops) >= 2 * len(pool.ops)
    assert all(value > 0 for value, _ in metrics.values())
    correct, _, failed, layers, detail = run.traced(name, 1, workload, pool)
    assert correct and failed == 0 and detail["counts_repeat"]
    assert layers["poset.Poset.calls"][0] > 0
