"""qborel benchmark: seeded, closed-loop, single-process workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --replay WORKLOAD:SEED:PROPERTY:INDEX [--trace 1]
    python3 perfbench/run.py --replay criteria:0:PROPERTY:INDEX [--trace 1]
    python3 perfbench/run.py --report

Run from the repository root; the package is imported from ./src.
BENCHMARK.json lists oracle-trials and cli-queries.  big-closures runs
the same way but is not listed, so that the listed two get long runs.

A workload builds a fixed pool of ops from the seed and runs it as
whole cycles, one op at a time, at least three times and while another
cycle still fits in --seconds.  Metrics cover complete cycles only, so
every run sees the same mix.  Each op's output is checked against values worked out in
workloads.py without the package, and every repeat against the digest
of its first output.

Every time metric is built from each op's best time over its repeats.
The shared 2-vCPU host this was tuned on runs at its full speed or at
about two thirds of it, in spells from milliseconds to minutes, so the
mean or median of a run moves by a quarter from run to run; the best of
an op's repeats, spread over the run, moves much less.  A faster
program fits more cycles and so takes its best over more repeats.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates two
untraced and two traced cycles, prints the per-layer metrics of the
traced cycles, and fails the run if their counts differ.  The last line
of stdout is the result JSON; the line before it holds the details
(environment, tail rows per property, the slowest ops, trace overhead).
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("oracle-trials", "big-closures", "cli-queries")
SETUP_REPEATS = 3  # before the first cycle; then one after each cycle
SETUP_SAMPLES = 9  # at most, so short cycles do not stretch the run
WARMUP_OPS = 12
SLOWEST_K = 5
MIN_CYCLES = 3  # every op repeats: digests are compared, latency is a minimum
# Percentiles tried for the tail, highest first.  The choice is made from
# the ops in one cycle, a fixed count per workload, so a faster program
# that fits more cycles is not measured at a higher percentile.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qborel\n"
    "from qborel import _kernels\n"
    "_kernels.warm_up()\n"
    "print(time.perf_counter() - t)\n"
)

# criteria 4-9 of tests/test_acceptance.py: (criterion, property, trials)
CRITERIA = (
    (4, "symbolic-powers", 500),
    (5, "ass-persistence", 500),
    (6, "spread-agreement", 500),
    (7, "squarefree-spread", 200),
    (8, "product-identity", 200),
    (8, "disjoint-intersection", 100),
    (8, "transversal-expansion", 200),
    (9, "containment-invariants", 50),
)

# the layers that should carry most of the traced op time: (workload,
# stratum or None for every op) -> span names
EXPECTED_OWNERS = {
    ("oracle-trials", "large"): ("oracle.associated_primes_bruteforce",
                                 "oracle.symbolic_power_bruteforce",
                                 "kernels.colon_class"),
    ("big-closures", None): ("engine.generate_principal",
                             "kernels.relation_adjacency",
                             "spread.linear_relation_graph"),
}


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples above it.

    Returns 100.0, the maximum, when n is too small for any of them.
    """
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return 100.0


def environment(seed):
    import numpy
    import qborel
    return {
        "backend": qborel.BACKEND,
        "numba_importable": find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def measure_setup(repeats):
    """Seconds of import qborel + warm_up in fresh interpreters, one each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_op(workload, op, first_digests):
    """Execute one op; returns (seconds, ok)."""
    start = time.perf_counter()
    try:
        out = workload.execute(op)
    except Exception as exc:  # an op that raises counts as failed
        elapsed = time.perf_counter() - start
        print(f"op {op.prop}:{op.index} raised {exc!r}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        ok, dig = workload.verify(op, out)
    except Exception as exc:
        print(f"op {op.prop}:{op.index} check raised {exc!r}", file=sys.stderr)
        return elapsed, False
    if op.index in first_digests:
        ok = ok and first_digests[op.index] == dig
    else:
        first_digests[op.index] = dig
    if not ok:
        print(f"op {op.prop}:{op.index} failed its check", file=sys.stderr)
    return elapsed, ok


def run_cycle(workload, ops, first_digests, tracer=None):
    """One pass over the pool; returns [(op, seconds, ok)]."""
    records = []
    for op in ops:
        if tracer is not None:
            tracer.group = op.stratum
        elapsed, ok = run_op(workload, op, first_digests)
        records.append((op, elapsed, ok))
    return records


def warm_up(workload, ops, first_digests):
    # let lazy imports and allocator pools settle before anything is timed
    ok = True
    for op in ops[:WARMUP_OPS]:
        ok &= run_op(workload, op, first_digests)[1]
    return ok


def best_times(records):
    """op index -> (op, its best time over the repeats)."""
    best = {}
    for op, elapsed, _ in records:
        if op.index not in best or elapsed < best[op.index][1]:
            best[op.index] = (op, elapsed)
    return best


def tail_rows(best, p):
    """p50, tail and max of the ops' best seconds, per property."""
    by_prop = {}
    for op, elapsed in best.values():
        by_prop.setdefault(op.prop, []).append(elapsed)
    rows = {}
    for prop, times in sorted(by_prop.items()):
        times.sort()
        rows[prop] = {"ops": len(times), "p50_s": percentile(times, 50),
                      f"p{p:g}_s": percentile(times, p), "max_s": times[-1]}
    return rows


def slowest(best, name, seed, k=SLOWEST_K):
    """The k ops with the highest best time, named for --replay."""
    top = sorted(best.values(), key=lambda pair: -pair[1])[:k]
    return [{"op": f"{name}:{seed}:{op.prop}:{op.index}", "stratum": op.stratum,
             "gens": op.gens, "seconds": s} for op, s in top]


def end_to_end(name, seed, seconds, workload, pool):
    first = {}
    ok_warm = warm_up(workload, pool.ops, first)
    # set-up samples are spread over the run, between cycles, so that a
    # slow spell of the machine lands in few of them
    setup_times = measure_setup(SETUP_REPEATS)
    records = []
    cycle_walls = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records += run_cycle(workload, pool.ops, first)
        cycle_walls.append(time.perf_counter() - t0)
        if len(setup_times) < SETUP_SAMPLES:
            setup_times += measure_setup(1)
        elapsed = time.perf_counter() - started
        if len(cycle_walls) >= MIN_CYCLES and elapsed + statistics.mean(cycle_walls) > seconds:
            break
    busy = sum(e for _, e, _ in records)
    # An op's latency is its best time over its repeats, one per cycle;
    # throughput is that of one cycle run at those latencies.
    best = best_times(records)
    latency = sorted(e for _, e in best.values())
    best_cycle = sum(latency)
    failed = sum(1 for _, _, ok in records if not ok)
    p = tail_percentile(len(pool.ops))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latency) / best_cycle, "1/s"),
        "op_p50_ms": (percentile(latency, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(latency, p) * 1e3, "ms"),
        "gens_per_s": (sum(op.gens for op in pool.ops) / best_cycle, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "cycles": len(cycle_walls),
        "cycle_s": cycle_walls,
        "ops_per_cycle": len(pool.ops),
        "strata": pool.strata,
        "tail_percentile": p,
        "tail_ops_beyond": len(latency) - math.ceil(p / 100.0 * len(latency)),
        "fail_ratio": failed / len(records),
        "busy_s": busy,
        "busy_ops_per_s": len(records) / busy,
        "tail_rows": tail_rows(best, p),
        "slowest": slowest(best, name, seed),
    }
    return ok_warm and failed == 0, len(records), failed, metrics, detail


def layer_metrics(tracers):
    """Per-layer rows averaged over traced cycles; counts from the first."""
    from spans import SPAN_NAMES
    first = tracers[0]
    tables = [t.table() for t in tracers]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (
            statistics.mean(tab[name][1] for tab in tables), "s")
        metrics[f"{name}.calls"] = (tables[0][name][0], "count")
    for key, value in first.counts.items():
        if key != "kernels.colon_class.primes":
            metrics[key] = (value, "count")
    c = first.counts
    metrics["monomials.keep_ratio"] = (
        c["monomials.rows_kept"] / c["monomials.rows_in"] if c["monomials.rows_in"] else 0.0,
        "ratio")
    colon_calls = tables[0]["kernels.colon_class"][0]
    metrics["kernels.colon_class.prime_ratio"] = (
        c["kernels.colon_class.primes"] / colon_calls if colon_calls else 0.0, "ratio")
    return metrics


def owner_shares(name, tracer, records):
    """Share of traced op time spent in the layers expected to own it."""
    shares = {}
    for (workload, stratum), owners in EXPECTED_OWNERS.items():
        if workload != name:
            continue
        op_time = sum(e for op, e, _ in records if stratum in (None, op.stratum))
        table = tracer.table() if stratum is None else tracer.table(stratum)
        shares[stratum or "all"] = {
            "layers": list(owners),
            "share": sum(table[n][1] for n in owners) / op_time}
    return shares


def traced(name, seed, workload, pool):
    from spans import Tracer
    first = {}
    ok = warm_up(workload, pool.ops, first)
    records, tracers, walls, plain = [], [], [], []
    # untraced and traced cycles alternate, so warm-up drift hits both
    for _ in range(2):
        t0 = time.perf_counter()
        records += run_cycle(workload, pool.ops, first)
        plain.append(time.perf_counter() - t0)
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer:
            traced_records = run_cycle(workload, pool.ops, first, tracer)
        walls.append(time.perf_counter() - t0)
        tracers.append(tracer)
        records += traced_records
    a, b = tracers
    calls = [{n: row[0] for n, row in t.table().items()} for t in tracers]
    repeat = a.counts == b.counts and calls[0] == calls[1]
    if not repeat:
        print("layer counts differ between the two traced cycles", file=sys.stderr)
    failed = sum(1 for _, _, good in records if not good)
    detail = {
        "untraced_cycle_s": plain,
        "traced_cycle_s": walls,
        "trace_overhead_s": statistics.mean(walls) - statistics.mean(plain),
        "counts_repeat": repeat,
        "shares": owner_shares(name, b, traced_records),
    }
    return (ok and repeat and failed == 0, len(records), failed,
            layer_metrics(tracers), detail)


def build_pool(workload, seed, workdir):
    if workload.needs_dir:
        return workload.pool(seed, workdir)
    return workload.pool(seed)


def emit(correct, attempted, failed, metrics, detail):
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def replay(spec, trace):
    """Re-run exactly one named op or criterion trial, optionally traced.

    Ops are named WORKLOAD:SEED:PROPERTY:INDEX as the detail line lists
    them, and criterion trials criteria:SEED:PROPERTY:INDEX as --report
    lists them.
    """
    from qborel import verify
    from spans import Tracer
    from workloads import WORKLOADS
    name, seed, prop, index = spec.split(":")
    seed, index = int(seed), int(index)
    tracer = Tracer() if trace else None
    if name == "criteria":
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            fails = verify.run_trial(prop, seed, index, 7, 4)
            elapsed, ok = time.perf_counter() - start, not fails
        detail = {"trial": spec, "seconds": elapsed, "ok": ok}
    else:
        workload = WORKLOADS[name]
        workdir = make_workdir()
        try:
            op = build_pool(workload, seed, workdir).ops[index]
            if op.prop != prop:
                raise SystemExit(f"op {index} of {name}:{seed} is {op.prop!r}, not {prop!r}")
            with tracer or contextlib.nullcontext():
                elapsed, ok = run_op(workload, op, {})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        detail = {"op": spec, "stratum": op.stratum, "gens": op.gens, "instance":
                  {"n": op.inst.n, "relations": op.inst.rels, "m": op.inst.m},
                  "args": op.args, "seconds": elapsed, "ok": ok}
    if tracer is not None:
        detail["layers"] = {n: {"calls": c, "self_s": s}
                            for n, (c, s) in tracer.table().items() if c}
        detail["counts"] = tracer.counts
    print(json.dumps(detail, sort_keys=True, default=list))
    return 0 if ok else 1


def report():
    """Criteria 4-9 through verify.run_suite, with per-trial timing."""
    from qborel import verify
    times = {}
    orig = verify.run_trial

    def timed_trial(name, seed, index, max_n, max_deg):
        start = time.perf_counter()
        try:
            return orig(name, seed, index, max_n, max_deg)
        finally:
            times[(name, index)] = time.perf_counter() - start

    verify.run_trial = timed_trial
    rows = []
    ok = True
    try:
        for criterion, prop, trials in CRITERIA:
            start = time.perf_counter()
            (rep,) = verify.run_suite(0, trials, 7, 4, properties=[prop])
            wall = time.perf_counter() - start
            ok &= rep.passed == rep.total
            per = sorted(((s, i) for (n, i), s in times.items() if n == prop), reverse=True)
            ascending = sorted(s for s, _ in per)
            rows.append({
                "criterion": criterion, "property": prop, "passed": rep.passed,
                "trials": trials, "seconds": wall,
                "p50_s": percentile(ascending, 50),
                f"p{tail_percentile(trials):g}_s": percentile(ascending, tail_percentile(trials)),
                "max_s": ascending[-1],
                "slowest": [{"trial": f"criteria:0:{prop}:{i}", "seconds": s}
                            for s, i in per[:SLOWEST_K]],
            })
            print(f"criterion {criterion} {prop}: {rep.passed}/{trials} in {wall:.2f}s; "
                  "slowest " + ", ".join(f"{i} ({s:.2f}s)" for s, i in per[:3]))
    finally:
        verify.run_trial = orig
    print(json.dumps({"env": environment(0), "criteria": rows}, sort_keys=True))
    return 0 if ok else 4


def make_workdir():
    path = Path(__file__).resolve().parent / f".work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def import_package():
    """Import qborel from ./src of this checkout, or say why not."""
    if not (SRC / "qborel" / "__init__.py").is_file():
        print(f"error: no qborel package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import qborel
    if Path(qborel.__file__).resolve().parent != (SRC / "qborel").resolve():
        print(f"error: imported qborel from {qborel.__file__}", file=sys.stderr)
        return False
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", metavar="WORKLOAD:SEED:PROPERTY:INDEX")
    parser.add_argument("--report", action="store_true",
                        help="time acceptance criteria 4-9 at their fixed seed")
    args = parser.parse_args(argv)
    if sum((args.workload is not None, args.replay is not None, args.report)) != 1:
        parser.error("give exactly one of --workload, --replay, --report")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not import_package():
        return 2
    if args.report:
        return report()
    if args.replay:
        return replay(args.replay, args.trace)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = make_workdir()
    try:
        pool = build_pool(workload, args.seed, workdir)
        if args.trace:
            result = traced(args.workload, args.seed, workload, pool)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workload, pool)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics, detail = result
    detail = {"workload": args.workload, "env": environment(args.seed), **detail}
    emit(correct, attempted, failed, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
