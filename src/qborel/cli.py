"""Command line interface.

Every subcommand but verify takes a poset file (JSON with keys n and
covers, or the line format 'n' then 'j < i' per line) and a monomial
like x4*x9^2, and is a query (poset, m, args) -> (lines, payload).  One
runner loads the poset, parses m, calls the query and prints its lines,
or its payload as JSON with --json; a query that fails has printed
nothing.  Output is deterministic.  Exit codes: 0 ok, 2 unreadable
input, 3 precondition violation (running out of memory included), 4 a
structural identity failed on the instance (verify prints its report
first).

The grammar is declared once, to argparse.  A call that names its
subcommand and spells each option in full, with its value as the next
item, is matched against that declaration in one pass and never
reaches argparse's parser.  Every other call (help, "-d=2", an
abbreviated option, a usage error) goes to argparse unchanged, so it
parses as before; usage errors keep argparse's text and exit code 2.

The prologue of a query call (match, poset file, monomial) is one
pass each.  In-process, on an 8-element poset (2 vCPUs, Python 3.11,
best of 9 x 5,000), a call whose query returns nothing takes 24-29 us:
the match 3 us, load_poset 13-18 us (4 of them reading the file) and
parse_monomial 3 us.  Reading the file in text mode, parsing each
relation token by token and keeping the covers beside the down-sets,
the same call took 47-59 us, load_poset 26-34 us of it.  A process
that makes one call spends about 200 ms starting the interpreter and
importing, either way.
"""

import argparse
import functools
import json
import sys

from . import _kernels, engine, monomials, oracle, spectra, spread, verify
from .errors import ParseError, TheoremViolation
from .monomials import format_monomial, parse_monomial
from .poset import _integer, load_poset

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


def _run_query(args):
    """Load the poset, parse m, run the query on them and print its output."""
    poset = load_poset(args.poset)
    m = parse_monomial(args.monomial, poset.n)
    _emit(args, *args.query(poset, m, args))
    return EXIT_OK


def _generator_output(ideal):
    gens = ideal.generator_strings()
    return gens, {"generators": gens}


def _prime_output(primes):
    primes = sorted(sorted(p) for p in primes)
    lines = ["<" + ",".join(f"x{i}" for i in p) + ">" for p in primes]
    return lines, {"primes": primes}


def _gen(poset, m, args):
    return _generator_output(engine.generate_principal(poset, m))


def _sfgen(poset, m, args):
    return _generator_output(engine.generate_sf_principal(poset, m))


def _ass(poset, m, args):
    return _prime_output(spectra.associated_primes(poset, m))


def _maxass(poset, m, args):
    return _prime_output(spectra.max_associated_primes(poset, m))


def _decompose(poset, m, args):
    parts = [(format_monomial(mk), engine.generate_principal(poset, mk).generator_strings())
             for mk in spectra.maximal_components(poset, m)]
    lines = [f"{mk}: " + ", ".join(gens) for mk, gens in parts]
    payload = {"components": [
        {"monomial": mk, "generators": gens} for mk, gens in parts]}
    return lines, payload


def _power(poset, m, args):
    return _generator_output(monomials.power(engine.generate_principal(poset, m), args.d))


def _sympow(poset, m, args):
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
    return _generator_output(result)


def _spread(poset, m, args):
    values = {}
    if args.method in ("formula", "all"):
        values["formula"] = spread.analytic_spread_principal(poset, m)
    if args.method != "formula":
        I = engine.generate_principal(poset, m)
    if args.method in ("rank", "all"):
        values["rank"] = spread.analytic_spread_rank(I)
    if args.method in ("graph", "all"):
        graph = spread.linear_relation_graph(I)
        values["graph"] = spread.spread_via_relation_graph(graph)
    line = " ".join(f"{k}={values[k]}" for k in ("formula", "rank", "graph") if k in values)
    if len(set(values.values())) > 1:
        raise TheoremViolation(f"spread methods disagree: {line}")
    return [line], values


def _sfspread(poset, m, args):
    result = spread.analytic_spread_sf(poset, m)
    ground = sorted(result.induced_ground)
    line = (f"spread={result.spread} gcd={format_monomial(result.gcd)} "
            f"induced={{{','.join(f'x{i}' for i in ground)}}}")
    payload = {
        "spread": result.spread,
        "gcd": format_monomial(result.gcd),
        "inducedGroundSet": ground,
    }
    return [line], payload


def _lrg(poset, m, args):
    graph = spread.linear_relation_graph(engine.generate_principal(poset, m))
    edges = sorted(sorted(e) for e in graph.edges)
    return ([f"x{a} x{b}" for a, b in edges],
            {"vertices": sorted(graph.vertices), "edges": edges})


def _certify(poset, m, args):
    target = parse_monomial(args.target, poset.n)
    moves = engine.move_certificate(poset, m, target)
    return ([f"x{mv.i} -> x{mv.j}" for mv in moves],
            {"moves": [[mv.i, mv.j] for mv in moves]})


def _invariants(poset, m, args):
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
    return lines, payload


def _cmd_verify(args):
    names = None if args.properties is None else args.properties.split(",")
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


def _int(text):
    """An argparse type: an int of ASCII digits, as in poset files."""
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_from(low, what):
    """An argparse type reading an int of ASCII digits, at least low."""
    def parse(text):
        try:
            value = _integer(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _int_from(1, "a positive integer")
_nonnegative_int = _int_from(0, "a non-negative integer")


@functools.cache
def _declaration():
    """The parser, and per subcommand the arguments matched without it.

    Each subcommand maps to its positional actions, its option actions
    by option string, its required option actions and the namespace
    before any argument is read: the command name, its set_defaults
    values and every action's default.
    """
    parser = argparse.ArgumentParser(
        prog="qborel",
        description="Closure ideals of monomials under poset exchange moves.")
    sub = parser.add_subparsers(dest="command", required=True)
    grammar = {}

    def command(name, helptext, **defaults):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(**defaults)
        positionals, options, required = [], {}, set()
        start = {"command": name, **defaults}
        grammar[name] = positionals, options, required, start

        def arg(*names, **kwargs):
            action = p.add_argument(*names, **kwargs)
            start[action.dest] = action.default
            if not action.option_strings:
                positionals.append(action)
                return
            options.update(dict.fromkeys(action.option_strings, action))
            if action.required:
                required.add(action)
        return arg

    def query(name, fn, helptext):
        arg = command(name, helptext, func=_run_query, query=fn)
        arg("poset", help="poset file (JSON or line format)")
        arg("monomial", help="monomial like x4*x9^2")
        arg("--json", action="store_true", help="emit JSON")
        return arg

    query("gen", _gen, "minimal generators of the closure ideal")
    query("sfgen", _sfgen, "generators of the square-free closure ideal")
    query("ass", _ass, "associated primes")
    query("maxass", _maxass, "inclusion-maximal associated primes")
    query("decompose", _decompose, "component decomposition")

    arg = query("power", _power, "ordinary power of the closure ideal")
    arg("-d", type=_int, required=True, help="exponent, d >= 1")

    arg = query("sympow", _sympow, "symbolic power of the closure ideal")
    arg("-d", type=_int, required=True, help="exponent, d >= 1")
    arg("--method", choices=("theorem", "oracle", "both"), default="theorem")

    arg = query("spread", _spread, "analytic spread")
    arg("--method", choices=("formula", "rank", "graph", "all"), default="all")

    query("sfspread", _sfspread, "spread of the square-free closure ideal")
    query("lrg", _lrg, "linear relation graph edges")

    arg = query("certify", _certify, "moves from the monomial to a generator")
    arg("target", help="target monomial")

    arg = query("invariants", _invariants, "containment invariants")
    arg("-d", type=_int, default=3, help="largest power checked")

    arg = command("verify", "randomized identity checks", func=_cmd_verify)
    arg("--seed", type=_nonnegative_int, default=0)
    arg("--trials", type=_positive_int, default=20)
    arg("--max-n", type=_positive_int, default=6)
    arg("--max-deg", type=_positive_int, default=3)
    arg("--properties", help="comma-separated property names")
    arg("--json", action="store_true", help="emit JSON")

    return parser, grammar


def _value(action, text):
    """text read by the action's type, in the action's choices.

    Raises what argparse refuses a value for, and ValueError for a text
    starting with "-", which argparse may read as an option.
    """
    if text.startswith("-"):
        raise ValueError(text)
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _match(argv):
    """The namespace parse_args(argv) builds, or None to leave it argparse.

    A call is matched in one pass when it names a subcommand, spells
    every option in full as its own item, follows each option taking a
    value by a value not starting with "-" that the option's type and
    choices accept, gives every required option and exactly the
    positional arguments declared.  Anything else (help, "--", "-d=2",
    "-d2", abbreviations, unknown options, bad values, missing or
    extra arguments) is None, and argparse prints its usage error.
    """
    if not argv or not all(isinstance(item, str) for item in argv):
        return None
    spec = _declaration()[1].get(argv[0])
    if spec is None:
        return None
    positionals, options, required, start = spec
    values, texts, seen = dict(start), [], set()
    items = iter(argv[1:])
    try:
        for item in items:
            if not item.startswith("-"):
                texts.append(item)
                continue
            action = options.get(item)
            if action is None:
                return None
            if action.nargs == 0:
                values[action.dest] = action.const
            else:
                values[action.dest] = _value(action, next(items, "-"))
                seen.add(action)
        if len(texts) != len(positionals) or not required <= seen:
            return None
        for action, text in zip(positionals, texts):
            values[action.dest] = _value(action, text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    if args is None:
        args = _declaration()[0].parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
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
