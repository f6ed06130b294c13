"""In-memory span tracer that wraps glattice's public functions from outside.

Nothing under ``src/`` is edited: the tracer replaces module attributes at run
time and puts every original back when it is uninstalled.  A name copied by
``from .exactla import hnf`` lives in several module namespaces, so each target
is replaced wherever the same function object is bound.  Hot leaves (``rho``,
``IntMatrix`` arithmetic) are left alone to keep the overhead small.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "glattice"
# (module, function) pairs whose spans feed the per-layer metrics
TRACED = {
    "exactla": ("snf", "hnf", "det", "right_kernel_basis", "express_rows",
                "solve_left", "cokernel_invariants"),
    "groups": ("subgroup_classes",),
    "lattices": ("dual", "hom_lattice", "direct_sum", "fixed_sublattice",
                 "quotient_with_maps", "restrict"),
    "cohomology": ("tate_hminus1", "tate_h0", "h1", "one_cocycles", "is_flabby",
                   "is_coflabby", "cohomology_table"),
    "catalog": ("build", "witness", "verify_witness", "_nonsplit_extension",
                "_noncoboundary_cocycle"),
    "rationality": ("classify", "flabby_resolution", "stably_permutation", "iso",
                    "fingerprint", "hom_space_basis"),
    "steinitz": ("steinitz_class", "principality"),
    "serialize": ("lattice_from_json", "dump"),
    "cli": ("main",),
}
# methods wrapped on their class: (module, class, method)
TRACED_METHODS = (("lattices", "GLattice", "norm_matrix"),)
# spanned only to count them as children; not reported on their own
HELPERS = (("rationality", "_verify_iso"),)
CHECK = "check"  # op label of spans recorded while the benchmark checks an answer


class Tracer:
    """Spans (name, start, end, parent, op) and counts, kept in memory.

    ``op`` is the index of the op being timed, ``"setup"`` while inputs load,
    or ``CHECK`` while the benchmark checks an answer.
    """

    def __init__(self):
        # one column per span field; arrays of numbers are not tracked by the
        # garbage collector, so a long trace does not slow collections down
        self._names: list[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._ops: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn``.  ``hook`` gets the call's arguments in parameter order,
        however they were passed, and may return a hook for the result."""
        names, starts, ends, parents, ops = (
            self._names, self._starts, self._ends, self._parents, self._ops)
        stack = self._stack
        clock = time.perf_counter
        bind = inspect.signature(fn).bind

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                after = None
                if hook is not None:
                    after = hook(list(bind(*args, **kwargs).arguments.values()))
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _hooks(self, modules: dict) -> dict:
        counts = self.counts
        cache = modules["rationality"]._fingerprint_cache

        def cells(name):
            def hook(args):
                counts[f"exactla.{name}.cells"] += args[0].rows * args[0].cols
            return hook

        def cocycles(args):
            lat, cls = args[0], args[1]
            order = len(cls.representative)
            counts["cohomology.one_cocycles.unknowns"] += order * lat.rank
            counts["cohomology.one_cocycles.equations"] += order * order * lat.rank

        def outcome(name):
            def after(result):
                counts[f"rationality.{name}.outcome.{result.outcome}"] += 1
            return lambda args: after

        def fingerprint(args):
            size = len(cache)

            def after(_result):
                # a call that grew the cache computed the fingerprint afresh
                grew = len(cache) > size
                counts["rationality.fingerprint." + ("misses" if grew else "hits")] += 1
            return after

        return {
            "exactla.hnf": cells("hnf"),
            "exactla.snf": cells("snf"),
            "cohomology.one_cocycles": cocycles,
            "rationality.iso": outcome("iso"),
            "rationality.stably_permutation": outcome("stably_permutation"),
            "rationality.fingerprint": fingerprint,
        }

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target in every ``glattice`` namespace that binds it."""
        hooks = self._hooks(modules)
        namespaces = [m for k, m in list(sys.modules.items())
                      if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        targets = [(mod, fn) for mod, fns in TRACED.items() for fn in fns] + list(HELPERS)
        for mod, fn in targets:
            name = f"{mod}.{fn}"
            original = getattr(modules[mod], fn)
            wrapped = self.span(name, original, hooks.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, original))
                        setattr(ns, attr, wrapped)
        for mod, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.span(f"{mod}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    @property
    def spans(self) -> list[tuple]:
        """(name, start, end, parent index, op) per span, in start order."""
        return list(zip(self._names, self._starts, self._ends, self._parents, self._ops))

    def summary(self, modules: dict) -> dict:
        """Per-function calls and self time, plus the derived counts."""
        out = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = 0
                out[f"{mod}.{fn}.self_s"] = 0.0
        for mod, cls_name, meth in TRACED_METHODS:
            out[f"{mod}.{cls_name}.{meth}.calls"] = 0
            out[f"{mod}.{cls_name}.{meth}.self_s"] = 0.0
        helper_names = {f"{m}.{f}" for m, f in HELPERS}
        spans = self.spans
        for (name, _s, _e, _parent, op), own in zip(spans, self_time(spans)):
            # calls made by the benchmark's own answer checks are not the workload's
            if name in helper_names or op == CHECK:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        child = Counter()
        for name, _s, _e, parent, _op in spans:
            if parent >= 0:
                child[(spans[parent][0], name)] += 1
        out["rationality.iso.candidates"] = child[("rationality.iso", "rationality._verify_iso")]
        out["rationality.stably_permutation.iso_attempts"] = child[
            ("rationality.stably_permutation", "rationality.iso")]
        out["catalog._noncoboundary_cocycle.rows_tested"] = child[
            ("catalog._noncoboundary_cocycle", "exactla.solve_left")]
        for key in ("exactla.hnf.cells", "exactla.snf.cells",
                    "cohomology.one_cocycles.unknowns", "cohomology.one_cocycles.equations",
                    "rationality.iso.outcome.iso", "rationality.iso.outcome.noniso",
                    "rationality.iso.outcome.unknown",
                    "rationality.stably_permutation.outcome.witness",
                    "rationality.stably_permutation.outcome.unknown",
                    "rationality.fingerprint.hits", "rationality.fingerprint.misses"):
            out[key] = self.counts[key]
        out["rationality.fingerprint.cache_entries"] = len(modules["rationality"]._fingerprint_cache)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_time(spans) -> list[float]:
    """Duration minus the part of the interval covered by child spans."""
    children: list[list[tuple]] = [[] for _ in spans]
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, _parent, _op), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out
