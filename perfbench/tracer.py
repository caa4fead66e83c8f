"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every binding of each traced function with a
wrapper: the module global where it is defined, every ``from .x import``
copy in the other ``gkpfrac`` modules, and class attributes such as
``MPoly.__mul__`` together with their aliases (``__rmul__``).  A name that
no longer exists is recorded as absent instead of failing the run.

Each span keeps (name, start, end, parent span, job).  Self time is a
span's duration minus the time its child spans cover.  Work the tracer does
for its own counters (hashing arguments, counting terms) is charged to
nobody: it is taken out of the enclosing span's self time.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from gkpfrac.exactalg import MPoly


def _hash_key(args):
    return hash(args[:2])


def _node_key(args):
    return args[0].label


def _quotient(tracer, result, args, kwargs):
    if result is not None:
        tracer.count("exactalg.divide_exact.quotients")


def _trivial_gcd(tracer, result, args, kwargs):
    if result.is_constant():
        tracer.count("exactalg.gcd.trivial")


def _peak_terms(tracer, result, args, kwargs):
    if isinstance(result, MPoly):
        tracer.peak("exactalg.peak_terms", len(result.terms))


def _term_products(tracer, result, args, kwargs):
    """Sum of |P_i| * |P_j| over the distinct products log_convexity needs."""
    named = dict(zip(("seq", "n_max", "strong"), args), **kwargs)
    seq, n_max, strong = named["seq"], named["n_max"], named.get("strong", False)
    sizes = [len(p.terms) if isinstance(p, MPoly) else 1 for p in seq]
    pairs = ([(m, n) for m in range(n_max + 1) for n in range(m, n_max + 1)]
             if strong else [(n, n) for n in range(n_max + 1)])
    keys = {tuple(sorted(ij)) for m, n in pairs
            for ij in ((m, n + 2), (m + 1, n + 1))}
    tracer.count("hankel.term_products", sum(sizes[i] * sizes[j] for i, j in keys))


# span name -> (bindings, key function for repeat counting, result hook)
# A binding is "module:function" or "module:Class.method".
TARGETS = {
    "exactalg.divide_exact": (["exactalg:divide_exact"], None, _quotient),
    "exactalg.gcd": (["exactalg:mpoly_gcd"], _hash_key, _trivial_gcd),
    "exactalg.mul": (["exactalg:MPoly.__mul__"], None, _peak_terms),
    "exactalg.ratfunc": (["exactalg:_reduce_fraction"], None, None),
    "exactalg.series": (["exactalg:TruncSeries.__mul__",
                         "exactalg:TruncSeries.reciprocal",
                         "exactalg:TruncSeries.__truediv__"], None, None),
    "gkpcore.triangle": (["gkpcore:gkp_triangle", "gkpcore:gkpz_triangle",
                          "gkpcore:binomial_like_triangle"], None, None),
    "gkpcore.gf": (["gkpcore:ogf_trunc", "gkpcore:egf_trunc",
                    "gkpcore:row_polys"], None, None),
    "cfrac.extract": (["cfrac:extract_sfrac", "cfrac:extract_jfrac"], None, None),
    "cfrac.eval": (["cfrac:eval_sr", "cfrac:eval_tr", "cfrac:eval_jr",
                    "cfrac:eval_cfrac"], None, None),
    "cfrac.contract": (["cfrac:contract"], None, None),
    "families.verify": (["families:verify_family"], None, None),
    "families.predicted": (["families:predicted_cfrac"], None, None),
    "search.node_cs": (["search:node_cs"], _node_key, None),
    "search.get_node": (["search:get_node"], None, None),
    "search.split_node": (["search:split_node"], None, None),
    "hankel.log_convexity": (["hankel:log_convexity"], None, _term_products),
    "hankel.hankel_tp": (["hankel:hankel_tp"], None, None),
    "hankel.det": (["hankel:bareiss_det", "hankel:cofactor_det"], None, None),
    "symmetry.verify_action": (["symmetry:verify_action"], None, None),
    "symmetry.verify_relations": (["symmetry:verify_relations"], None, None),
    "matprod.verify_product_case": (["matprod:verify_product_case"], None, None),
    "matprod.inverse_pair_check": (["matprod:inverse_pair_check"], None, None),
    "cli.main": (["cli:main"], None, None),
}


class PassStats:
    """Per-name totals of one pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.keys = defaultdict(set)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.stats = PassStats()
        self.absent = []
        self._patched = []

    # -- counters -------------------------------------------------------

    def count(self, name, n=1):
        self.stats.counts[name] += n

    def peak(self, name, value):
        if value > self.stats.peaks[name]:
            self.stats.peaks[name] = value

    def new_pass(self) -> PassStats:
        done, self.stats = self.stats, PassStats()
        return done

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn, key_fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            stats = tracer.stats
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end,
                                       parent[0] if parent else None, tracer.job)
                stats.calls[name] += 1
                stats.self_s[name] += duration - frame[1]
                stats.total_s[name] += duration
                if key_fn is not None or hook is not None:
                    t0 = perf_counter()
                    if key_fn is not None:
                        stats.keys[name].add(key_fn(args))
                    if hook is not None and returned:
                        hook(tracer, result, args, kwargs)
                    duration += perf_counter() - t0
                if parent is not None:
                    parent[1] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gkpfrac" or n.startswith("gkpfrac.")]
        for name, (bindings, key_fn, hook) in TARGETS.items():
            for binding in bindings:
                mod_name, _, attr = binding.partition(":")
                module = sys.modules.get("gkpfrac." + mod_name)
                owner, _, method = attr.rpartition(".")
                if owner:
                    cls = getattr(module, owner, None)
                    orig = vars(cls).get(method) if isinstance(cls, type) else None
                    places = [cls]
                else:
                    orig = getattr(module, attr, None)
                    places = modules
                if orig is None:
                    self.absent.append(binding)
                    continue
                wrapper = self._wrap(name, orig, key_fn, hook)
                for place in places:
                    for a, v in list(vars(place).items()):
                        if v is orig:
                            setattr(place, a, wrapper)
                            self._patched.append((place, a, orig))

    def uninstall(self):
        for place, attr, orig in reversed(self._patched):
            setattr(place, attr, orig)
        self._patched.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
