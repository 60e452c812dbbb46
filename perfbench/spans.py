"""Spans and counters recorded around qborel's public functions.

The wrappers are installed from outside the package.  Every module
attribute that refers to a traced function is replaced by a timing
wrapper, and the two traced classes get their __init__ wrapped, since
other modules import those names directly.  Nothing in the package is
edited; uninstall() puts every original back.

A span's self time is its duration minus the durations of the spans it
encloses directly.  Spans are aggregated in memory per (group, name);
the runner sets the group to the stratum of the op being run.
"""

import importlib
import sys
import time

# (module, attribute); "kernels" is qborel._kernels
SPANS = (
    ("poset", "Poset"),
    ("poset", "load_poset"),
    ("engine", "generate_principal"),
    ("engine", "generate_sf_principal"),
    ("engine", "move_certificate"),
    ("monomials", "MonomialIdeal"),
    ("monomials", "product"),
    ("monomials", "power"),
    ("monomials", "intersection"),
    ("monomials", "localize_contract"),
    ("kernels", "minimalize_keep"),
    ("kernels", "divides_any"),
    ("kernels", "integer_rank_kernel"),
    ("kernels", "relation_adjacency"),
    ("kernels", "colon_class"),
    ("oracle", "associated_primes_bruteforce"),
    ("oracle", "symbolic_power_bruteforce"),
    ("spectra", "associated_primes"),
    ("spectra", "symbolic_power_contractions"),
    ("spectra", "containment_invariants"),
    ("spread", "analytic_spread_rank"),
    ("spread", "linear_relation_graph"),
    ("spread", "analytic_spread_sf"),
    ("verify", "check_symbolic_powers"),
    ("verify", "check_ass_powers"),
    ("verify", "check_containment"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in SPANS)


def _rows(a):
    return a.shape[0] if getattr(a, "ndim", 0) == 2 else 0


def _count_orbit(counts, args, result):
    counts["engine.orbit_gens"] += len(result)


def _count_ideal(counts, args, result):
    counts["monomials.rows_in"] += _rows(args[1]) if len(args) > 1 else 0
    counts["monomials.rows_kept"] += len(args[0])


def _count_minimalize(counts, args, result):
    counts["kernels.minimalize_keep.rows"] += args[0].shape[0]


def _count_adjacency(counts, args, result):
    counts["kernels.relation_adjacency.rows"] += args[0].shape[0]


def _count_colon(counts, args, result):
    counts["kernels.colon_class.primes"] += int(result == 1)


COUNTERS = {
    "engine.generate_principal": _count_orbit,
    "engine.generate_sf_principal": _count_orbit,
    "monomials.MonomialIdeal": _count_ideal,
    "kernels.minimalize_keep": _count_minimalize,
    "kernels.relation_adjacency": _count_adjacency,
    "kernels.colon_class": _count_colon,
}

COUNT_NAMES = (
    "engine.orbit_gens",
    "monomials.rows_in",
    "monomials.rows_kept",
    "kernels.minimalize_keep.rows",
    "kernels.relation_adjacency.rows",
    "kernels.colon_class.primes",
)


class Tracer:
    """In-memory span aggregation with self time and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.group = ""
        self.stats = {}  # (group, name) -> [calls, self seconds]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._children = []  # per open span: time covered by its children
        self._undo = []

    def wrap(self, name, fn):
        """Return fn recording a span called name around every call."""
        clock = self.clock
        stack = self._children
        hook = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = self.stats.setdefault((self.group, name), [0, 0.0])
                st[0] += 1
                st[1] += dur - child
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Route every traced name in every loaded qborel module here."""
        mods = [m for key, m in list(sys.modules.items())
                if key == "qborel" or key.startswith("qborel.")]
        for (mod, attr), name in zip(SPANS, SPAN_NAMES):
            target = importlib.import_module(
                "qborel._kernels" if mod == "kernels" else f"qborel.{mod}")
            orig = getattr(target, attr)
            if isinstance(orig, type):
                init = orig.__init__
                orig.__init__ = self.wrap(name, init)
                self._undo.append((orig, "__init__", init))
                continue
            wrapper = self.wrap(name, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def table(self, group=None):
        """name -> (calls, self seconds), summed over groups or for one."""
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (g, name), (calls, self_s) in self.stats.items():
            if group is None or g == group:
                row = out.setdefault(name, [0, 0.0])
                row[0] += calls
                row[1] += self_s
        return out
