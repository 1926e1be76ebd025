"""Span tracing for the traced benchmark pass.

Only the traced pass installs this.  Each layer entry point listed in
TARGETS is wrapped where it is looked up: the qformlab modules bind
each other's functions with ``from .x import f``, so the wrapper is
rebound under every module attribute that holds the original, and
methods are rebound on their class.  A wrapped call records one span
(name, start, end, parent) in memory; spans are written out once, when
the pass ends.  A span's self time is its duration minus the durations
of its direct children.
"""

import functools
import sys
import time
from collections import Counter

from qformlab.qseries import GRADE


# result hooks: hook(tracer, value returned by the wrapped call)

def _count_series(tracer, series):
    tracer.counters["qseries.stored_coeffs"] += len(series.coeffs)
    tracer.counters["qseries.q_steps"] += (series.trunc - series.val) / GRADE


def _count_span_hit(tracer, coords):
    tracer.counters["etasearch.span_hits"] += coords is not None


def _count_expansion_miss(tracer, expansions):
    # a hit returns an object some earlier call already returned; holding
    # each returned object keeps its id from being reused
    if id(expansions) not in tracer.returned:
        tracer.returned[id(expansions)] = expansions
        tracer.counters["spaces.basis_expansions.misses"] += 1


def _count_oracle_points(tracer, counts):
    tracer.counters["quadforms.oracle_points"] += sum(counts)


def _count_pairs(tracer, report):
    tracer.counters["newforms.pairs_checked"] += report.pairs_checked


def _count_rederived_pairs(tracer, result):
    if result.report is not None:
        tracer.counters["newforms.pairs_checked"] += result.report.pairs_checked


# (metric prefix, qformlab module, attribute or Class.method, result hook)
TARGETS = (
    ("qseries.eta_quotient_expansion", "qseries", "eta_quotient_expansion", _count_series),
    ("qseries.eta_unit_coeffs", "qseries", "eta_unit_coeffs", None),
    ("etaq.ligozat_check", "etaq", "ligozat_check", None),
    ("etaq.cusp_order", "etaq", "cusp_order", None),
    ("etasearch.enumerate_space", "etasearch", "enumerate_space", None),
    ("etasearch.eisenstein_expressible", "etasearch", "eisenstein_expressible", _count_span_hit),
    ("etasearch.census_crosscheck", "etasearch", "census_crosscheck", None),
    ("etasearch.verify_remark_identities", "etasearch", "verify_remark_identities", None),
    ("spaces.basis_expansions", "spaces", "basis_expansions", _count_expansion_miss),
    ("spaces.solve_in_basis", "spaces", "solve_in_basis", None),
    ("spaces.verify_basis", "spaces", "verify_basis", None),
    ("eisenstein.eisenstein3", "eisenstein", "eisenstein3", _count_series),
    ("characters.sigma_twisted", "characters", "sigma_twisted", None),
    ("arith.ExactMatrix.solve_linear", "arith", "ExactMatrix.solve_linear", None),
    ("arith.ExactMatrix.rank", "arith", "ExactMatrix.rank", None),
    ("arith.NumberFieldElement.mul", "arith", "NumberFieldElement.__mul__", None),
    ("quadforms.derive_formula", "quadforms", "derive_formula", None),
    ("quadforms.rep_count_formula", "quadforms", "rep_count_formula", None),
    ("quadforms.genfun", "quadforms", "genfun", None),
    ("quadforms.rep_counts_bruteforce", "quadforms", "rep_counts_bruteforce", _count_oracle_points),
    ("quadforms.compare_with_fixture", "quadforms", "compare_with_fixture", None),
    ("newforms.build_newform", "newforms", "build_newform", None),
    ("newforms.check_eigenform", "newforms", "check_eigenform", _count_pairs),
    ("newforms.rederive_newform", "newforms", "rederive_newform", _count_rederived_pairs),
    ("cli.main", "cli", "main", None),
)

ROOT_SPAN = "perfbench.workload"

# module caches, read (never changed) at the end of the traced pass
CACHES = {
    "spaces.cache_entries": (("spaces", "_EXPANSIONS"),),
    "etasearch.cache_entries": (("etasearch", "_SOLVERS"), ("etasearch", "_CENSUS")),
    "qseries.cache_entries": (("qseries", "_EULER_POW_CACHE"),),
}


class Tracer:
    """In-memory spans of one traced pass, plus counters set by result hooks."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.returned = {}  # id -> object, for spaces.basis_expansions
        self._stack = [-1]

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def instrument(self):
        """Wrap every TARGETS entry under each name that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "qformlab" or n.startswith("qformlab.")]
        for prefix, module, qualname, hook in TARGETS:
            owner = sys.modules["qformlab." + module]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapper = self.wrap(prefix, original, hook)
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, key, wrapper)
                continue
            original = getattr(owner, qualname)
            wrapper = self.wrap(prefix, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self):
        """(calls, self seconds) per span name."""
        calls = Counter()
        self_s = Counter()
        spans = self.spans
        for name, start, end, parent in spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
        return calls, self_s

    def layer_metrics(self):
        """Every per-layer metric of the pass, by name, as (value, unit)."""
        calls, self_s = self.self_times()
        c = self.counters
        out = {}
        for prefix, _, _, _ in TARGETS:
            out[prefix + ".calls"] = (calls[prefix], "count")
            out[prefix + ".self_s"] = (self_s[prefix], "s")
        out[ROOT_SPAN + ".self_s"] = (self_s[ROOT_SPAN], "s")
        n = calls["spaces.basis_expansions"]
        misses = c["spaces.basis_expansions.misses"]
        out["spaces.basis_expansions.misses"] = (misses, "count")
        out["spaces.basis_expansions.hit_ratio"] = ((n - misses) / n if n else 0.0, "ratio")
        out["qseries.stored_coeffs"] = (c["qseries.stored_coeffs"], "count")
        steps = c["qseries.q_steps"]
        out["qseries.stored_per_qcoeff"] = (c["qseries.stored_coeffs"] / steps if steps else 0.0, "ratio")
        tried = calls["etasearch.eisenstein_expressible"]
        out["etasearch.span_hits"] = (c["etasearch.span_hits"], "count")
        out["etasearch.span_hit_ratio"] = (c["etasearch.span_hits"] / tried if tried else 0.0, "ratio")
        out["quadforms.oracle_points"] = (c["quadforms.oracle_points"], "count")
        out["newforms.pairs_checked"] = (c["newforms.pairs_checked"], "count")
        for metric, attrs in CACHES.items():
            out[metric] = (cache_entries(attrs), "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.wall_s"] = (sum(e - s for _, s, e, parent in self.spans if parent < 0), "s")
        return out

    def write(self, path):
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("# run_id\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%s\t%d\t%d\t%s\t%.9f\t%.9f\n" % (self.run_id, i, parent, name, start, end))


def cache_entries(attrs) -> int:
    """Entries held by the named module caches (None counts as empty)."""
    return sum(len(getattr(sys.modules["qformlab." + m], a) or ()) for m, a in attrs)
