"""Command line interface.

Every subcommand takes a poset file (JSON with keys n and covers, or the
line format 'n' then 'j < i' per line) and monomials like x4*x9^2.
Output is deterministic text, or JSON with --json.  Exit codes: 0 ok,
2 unreadable input, 3 precondition violation (running out of memory
included), 4 a structural identity failed on the instance.
"""

import argparse
import functools
import json
import sys

from . import _kernels, engine, monomials, oracle, spectra, spread, verify
from .errors import ParseError, TheoremViolation
from .monomials import format_monomial, parse_monomial
from .poset import load_poset

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4


def _emit(args, lines, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _prime_text(members):
    return "<" + ",".join(f"x{i}" for i in sorted(members)) + ">"


def _sorted_primes(primes):
    return sorted((sorted(p) for p in primes))


def _load(args):
    poset = load_poset(args.poset)
    m = parse_monomial(args.monomial, poset.n)
    return poset, m


def _cmd_gen(args):
    poset, m = _load(args)
    gens = engine.generate_principal(poset, m).generator_strings()
    _emit(args, gens, {"generators": gens})
    return EXIT_OK


def _cmd_sfgen(args):
    poset, m = _load(args)
    gens = engine.generate_sf_principal(poset, m).generator_strings()
    _emit(args, gens, {"generators": gens})
    return EXIT_OK


def _cmd_ass(args):
    poset, m = _load(args)
    primes = _sorted_primes(spectra.associated_primes(poset, m))
    _emit(args, [_prime_text(p) for p in primes], {"primes": primes})
    return EXIT_OK


def _cmd_maxass(args):
    poset, m = _load(args)
    primes = _sorted_primes(spectra.max_associated_primes(poset, m))
    _emit(args, [_prime_text(p) for p in primes], {"primes": primes})
    return EXIT_OK


def _cmd_decompose(args):
    poset, m = _load(args)
    parts = spectra.maximal_components(poset, m)
    ideals = spectra.component_decomposition(poset, m)
    lines = [
        f"{format_monomial(mk)}: " + ", ".join(ideal.generator_strings())
        for mk, ideal in zip(parts, ideals)
    ]
    payload = {"components": [
        {"monomial": format_monomial(mk), "generators": ideal.generator_strings()}
        for mk, ideal in zip(parts, ideals)
    ]}
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_power(args):
    poset, m = _load(args)
    I = engine.generate_principal(poset, m)
    gens = monomials.power(I, args.d).generator_strings()
    _emit(args, gens, {"generators": gens})
    return EXIT_OK


def _cmd_sympow(args):
    poset, m = _load(args)
    I = engine.generate_principal(poset, m)
    result = monomials.power(I, args.d)
    if args.method == "oracle":
        (result,) = oracle.symbolic_power_bruteforce(I, (result,))
    elif args.method == "both":
        (check,) = oracle.symbolic_power_bruteforce(I, (result,))
        if result != check:
            raise TheoremViolation(
                f"symbolic power {args.d} of {format_monomial(m)} differs "
                f"from the ordinary power")
    gens = result.generator_strings()
    _emit(args, gens, {"generators": gens})
    return EXIT_OK


def _cmd_spread(args):
    poset, m = _load(args)
    values = {}
    if args.method in ("formula", "all"):
        values["formula"] = spread.analytic_spread_principal(poset, m)
    I = engine.generate_principal(poset, m)
    if args.method in ("rank", "all"):
        values["rank"] = spread.analytic_spread_rank(I)
    if args.method in ("graph", "all"):
        graph = spread.linear_relation_graph(I)
        values["graph"] = spread.spread_via_relation_graph(graph)
    line = " ".join(f"{k}={values[k]}" for k in ("formula", "rank", "graph") if k in values)
    _emit(args, [line], values)
    if len(set(values.values())) > 1:
        raise TheoremViolation(f"spread methods disagree: {line}")
    return EXIT_OK


def _cmd_sfspread(args):
    poset, m = _load(args)
    result = spread.analytic_spread_sf(poset, m)
    ground = sorted(result.induced_ground)
    line = (f"spread={result.spread} gcd={format_monomial(result.gcd)} "
            f"induced={{{','.join(f'x{i}' for i in ground)}}}")
    payload = {
        "spread": result.spread,
        "gcd": format_monomial(result.gcd),
        "inducedGroundSet": ground,
    }
    _emit(args, [line], payload)
    return EXIT_OK


def _cmd_lrg(args):
    poset, m = _load(args)
    I = engine.generate_principal(poset, m)
    graph = spread.linear_relation_graph(I)
    edges = sorted(sorted(e) for e in graph.edges)
    _emit(args, [f"x{a} x{b}" for a, b in edges],
          {"vertices": sorted(graph.vertices), "edges": edges})
    return EXIT_OK


def _cmd_certify(args):
    poset, m = _load(args)
    target = parse_monomial(args.target, poset.n)
    moves = engine.move_certificate(poset, m, target)
    _emit(args, [f"x{mv.i} -> x{mv.j}" for mv in moves],
          {"moves": [[mv.i, mv.j] for mv in moves]})
    return EXIT_OK


def _cmd_invariants(args):
    poset, m = _load(args)
    data = spectra.containment_invariants(poset, m, args.d)
    lines = [
        f"waldschmidt={data.waldschmidt}",
        "alpha_over_s=" + ",".join(str(a) for a in data.alpha_over_s),
        "sdefect=" + ",".join(str(s) for s in data.sdefect),
        f"resurgence_bound={data.resurgence_bound}",
    ]
    payload = {
        "waldschmidt": str(data.waldschmidt),
        "alphaOverS": [str(a) for a in data.alpha_over_s],
        "sdefect": list(data.sdefect),
        "resurgenceBound": str(data.resurgence_bound),
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_verify(args):
    names = args.properties.split(",") if args.properties else None
    reports = verify.run_suite(
        args.seed, args.trials, args.max_n, args.max_deg, properties=names)
    lines = [f"seed={args.seed} trials={args.trials} "
             f"max-n={args.max_n} max-deg={args.max_deg} backend={_kernels.BACKEND}"]
    lines += [f"{r.name}: {r.passed}/{r.total}" for r in reports]
    bad = [msg for r in reports for msg in r.failures]
    payload = {
        "backend": _kernels.BACKEND,
        "seed": args.seed,
        "trials": args.trials,
        "results": {r.name: {"passed": r.passed, "total": r.total} for r in reports},
        "failures": bad,
    }
    _emit(args, lines, payload)
    if bad:
        for msg in bad[:10]:
            print(f"violation: {msg}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _int_from(low, what):
    """An argparse type reading an int() of at least low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _int_from(1, "a positive integer")
_nonnegative_int = _int_from(0, "a non-negative integer")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qborel",
        description="Closure ideals of monomials under poset exchange moves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, monomial=True):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("poset", help="poset file (JSON or line format)")
        if monomial:
            p.add_argument("monomial", help="monomial like x4*x9^2")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)
        return p

    add("gen", _cmd_gen, "minimal generators of the closure ideal")
    add("sfgen", _cmd_sfgen, "generators of the square-free closure ideal")
    add("ass", _cmd_ass, "associated primes")
    add("maxass", _cmd_maxass, "inclusion-maximal associated primes")
    add("decompose", _cmd_decompose, "component decomposition")

    p = add("power", _cmd_power, "ordinary power of the closure ideal")
    p.add_argument("-d", type=int, required=True, help="exponent, d >= 1")

    p = add("sympow", _cmd_sympow, "symbolic power of the closure ideal")
    p.add_argument("-d", type=int, required=True, help="exponent, d >= 1")
    p.add_argument("--method", choices=("theorem", "oracle", "both"),
                   default="theorem")

    p = add("spread", _cmd_spread, "analytic spread")
    p.add_argument("--method", choices=("formula", "rank", "graph", "all"),
                   default="all")

    add("sfspread", _cmd_sfspread, "spread of the square-free closure ideal")
    add("lrg", _cmd_lrg, "linear relation graph edges")

    p = add("certify", _cmd_certify, "moves from the monomial to a generator")
    p.add_argument("target", help="target monomial")

    p = add("invariants", _cmd_invariants, "containment invariants")
    p.add_argument("-d", type=int, default=3, help="largest power checked")

    p = sub.add_parser("verify", help="randomized identity checks")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--max-n", type=_positive_int, default=6)
    p.add_argument("--max-deg", type=_positive_int, default=3)
    p.add_argument("--properties", help="comma-separated property names")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TheoremViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
