"""Layer tracing for the benchmark, applied from outside the package.

A :class:`Tracer` rebinds the public names of each layer of ``cherednik`` to
wrappers while it is installed, and restores the originals when it is
removed.  ``from .x import f`` copies the binding into the importing module,
so every module attribute and class attribute that refers to the original
object is rebound, not only the one in the defining module (for example
``cli.singular_vector_check`` and ``reptheory.jack_by_solve``).

Span wrappers record name, start, end, parent span, job id and whether the
call raised.  Spans are kept in flat arrays in memory and written out once,
when the benchmark ends.  The hottest scalar methods (``Cyc`` and ``Poly``
arithmetic, called 10^5 times or more per job) get call counts only: a span
around each of them would distort the self time of their callers.

Everything runs in one thread, so no layer waits on another and the tracer
keeps no wait metric.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

from cherednik import cyclotomic, operators, polynomials, scalars

# span name -> (module, attribute); module functions are rebound everywhere
# they are bound.
FUNCTION_SPANS = {
    "reptheory.singular_vector_check": ("cherednik.reptheory", "singular_vector_check"),
    "reptheory.invariant_char_series": ("cherednik.reptheory", "invariant_char_series"),
    "reptheory.genericity_guard": ("cherednik.reptheory", "genericity_guard"),
    "reptheory.exponents_and_freeness": ("cherednik.reptheory", "exponents_and_freeness"),
    "pbw.check_pbw": ("cherednik.pbw", "check_pbw"),
    "intertwiners.verify_braid_and_quadratic": ("cherednik.intertwiners", "verify_braid_and_quadratic"),
    "intertwiners.apply_phi": ("cherednik.intertwiners", "apply_phi"),
    "intertwiners.apply_sigma": ("cherednik.intertwiners", "apply_sigma"),
    "jack.jack_by_solve": ("cherednik.jack", "jack_by_solve"),
    "jack.jack_by_intertwiners": ("cherednik.jack", "jack_by_intertwiners"),
    "scalars.mp_gcd": ("cherednik.scalars", "mp_gcd"),
}

# span name -> (class, method names); aliases such as ``__radd__ = __add__``
# are found and rebound with the method they alias.
METHOD_SPANS = {
    "operators.t": (operators.PolyRep, ("t",)),
    "operators.dunkl": (operators.PolyRep, ("dunkl",)),
    "operators.check_relations": (operators.PolyRep, ("check_relations",)),
    "operators.commutator_report": (operators.PolyRep, ("commutator_report",)),
    "scalars.RatFunc.add": (scalars.RatFunc, ("__add__",)),
    "scalars.RatFunc.mul": (scalars.RatFunc, ("__mul__",)),
    "scalars.RatFunc.div": (scalars.RatFunc, ("__truediv__", "__rtruediv__")),
}

# count name -> (class, method names): call counts, no spans
COUNTED_METHODS = {
    "cyclotomic.Cyc.mul": (cyclotomic.Cyc, ("__mul__",)),
    "cyclotomic.Cyc.add": (cyclotomic.Cyc, ("__add__",)),
    "cyclotomic.Cyc.inverse": (cyclotomic.Cyc, ("inverse",)),
    "polynomials.Poly.add": (polynomials.Poly, ("__add__",)),
    "polynomials.Poly.mul": (polynomials.Poly, ("__mul__", "__rmul__")),
}

# count name -> (module, generator function): items yielded
COUNTED_GENERATORS = {
    "groups.group_elements.yielded": ("cherednik.groups", "group_elements"),
}

# the layers whose spans can record a raise
SPAN_LAYERS = ("reptheory", "operators", "pbw", "intertwiners", "jack",
               "scalars")

# per-layer metrics: name -> unit.  ``trace.overhead_share`` is added by the
# runner, which owns the untraced timing.
LAYER_METRICS = {
    "reptheory.singular_vector_check.self_s": "s",
    "reptheory.invariant_char_series.self_s": "s",
    "reptheory.genericity_guard.self_s": "s",
    "reptheory.exponents_and_freeness.self_s": "s",
    "groups.group_elements.yielded": "count",
    "operators.t.calls": "count",
    "operators.t.terms_in": "count",
    "operators.t.self_s": "s",
    "operators.dunkl.calls": "count",
    "operators.dunkl.self_s": "s",
    "operators.dunkl.mono_apps": "count",
    "operators.dunkl.distinct_monos": "count",
    "operators.check_relations.self_s": "s",
    "operators.commutator_report.self_s": "s",
    "pbw.check_pbw.self_s": "s",
    "intertwiners.verify_braid_and_quadratic.self_s": "s",
    "jack.jack_by_solve.calls": "count",
    "jack.jack_by_solve.self_s": "s",
    "jack.jack_by_solve.terms_out": "count",
    "jack.jack_by_intertwiners.self_s": "s",
    "intertwiners.apply_phi.calls": "count",
    "intertwiners.apply_sigma.calls": "count",
    "scalars.mp_gcd.calls": "count",
    "scalars.mp_gcd.top_calls": "count",
    "scalars.mp_gcd.self_s": "s",
    "scalars.mp_gcd.nontrivial_share": "share",
    "scalars.RatFunc.add.calls": "count",
    "scalars.RatFunc.add.self_s": "s",
    "scalars.RatFunc.mul.calls": "count",
    "scalars.RatFunc.mul.self_s": "s",
    "scalars.RatFunc.div.calls": "count",
    "scalars.RatFunc.div.self_s": "s",
    "cyclotomic.Cyc.mul.calls": "count",
    "cyclotomic.Cyc.add.calls": "count",
    "cyclotomic.Cyc.inverse.calls": "count",
    "polynomials.Poly.add.calls": "count",
    "polynomials.Poly.mul.calls": "count",
    **{f"{layer}.raised": "count" for layer in SPAN_LAYERS},
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cherednik"
                                  or name.startswith("cherednik."))]


class Tracer:
    """Spans and counts at the layer boundaries of ``cherednik``.

    Use as a context manager around the traced jobs; set :attr:`job_id`
    before each job so its spans share an identifier.
    """

    def __init__(self):
        self.job_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # PolyRep -> {(i, exponent)} seen by dunkl; kept per job so a freed
        # representation's id can never be confused with a new one
        self._dunkl_seen: dict = {}

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = _package_modules()
        hooks = {
            "operators.t": self._after_t,
            "operators.dunkl": self._after_dunkl,
            "jack.jack_by_solve": self._after_solve,
            "scalars.mp_gcd": self._after_gcd,
        }
        for name, (modname, attr) in FUNCTION_SPANS.items():
            original = getattr(sys.modules[modname], attr)
            self._rebind(modules, original,
                         self._span(name, original, hooks.get(name)))
        for name, (cls, attrs) in METHOD_SPANS.items():
            for attr in attrs:
                original = cls.__dict__[attr]
                self._rebind([cls], original,
                             self._span(name, original, hooks.get(name)))
        for name, (cls, attrs) in COUNTED_METHODS.items():
            for attr in attrs:
                original = cls.__dict__[attr]
                self._rebind([cls], original,
                             self._counted(name + ".calls", original))
        for name, (modname, attr) in COUNTED_GENERATORS.items():
            original = getattr(sys.modules[modname], attr)
            self._rebind(modules, original, self._counted_gen(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owners, original, replacement) -> None:
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, attr, replacement)
                    self._undo.append((owner, attr, original))

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, job, raised = self.parent, self.job, self.raised
        stack = self._stack
        depth = [0]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            depth[0] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, depth[0] == 1)
                return result
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                depth[0] -= 1

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _counted_gen(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # -- per-call counts -----------------------------------------------------

    def _after_t(self, args, result, outer):
        self.counts["operators.t.terms_in"] += len(args[2].terms)

    def _after_dunkl(self, args, result, outer):
        rep, i, f = args
        self.counts["operators.dunkl.mono_apps"] += len(f.terms)
        self._dunkl_seen.setdefault(rep, set()).update(
            (i, e) for e in f.terms)

    def _after_solve(self, args, result, outer):
        self.counts["jack.jack_by_solve.terms_out"] += len(result.poly.terms)

    def _after_gcd(self, args, result, outer):
        if outer:
            self.counts["scalars.mp_gcd.top_calls"] += 1
            if not result.is_constant():
                self.counts["scalars.mp_gcd.nontrivial"] += 1

    def end_job(self) -> None:
        """Fold the per-job distinct-monomial sets into the counts."""
        self.counts["operators.dunkl.distinct_monos"] += sum(
            len(s) for s in self._dunkl_seen.values())
        self._dunkl_seen.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[Counter, dict]:
        """Calls and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap (one thread).
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for idx in range(n):
            p = parent[idx]
            if p >= 0:
                child[p] += end[idx] - start[idx]
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for idx in range(n):
            name = self.names[self.name_of[idx]]
            calls[name] += 1
            self_s[name] += end[idx] - start[idx] - child[idx]
        return calls, self_s

    def layer_metrics(self) -> dict[str, float]:
        """Every entry of :data:`LAYER_METRICS` as a number."""
        calls, self_s = self.self_times()
        raised: Counter = Counter()
        for idx, flag in enumerate(self.raised):
            if flag:
                raised[self.names[self.name_of[idx]].split(".")[0]] += 1
        top = self.counts["scalars.mp_gcd.top_calls"]
        spans = set(FUNCTION_SPANS) | set(METHOD_SPANS)
        out = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif kind == "calls" and base in spans:
                out[metric] = calls[base]
            elif kind == "raised":
                out[metric] = raised[base]
            elif kind == "nontrivial_share":
                out[metric] = (self.counts["scalars.mp_gcd.nontrivial"] / top
                               if top else 0.0)
            else:
                out[metric] = self.counts[metric]
        return out

    def check_nesting(self) -> list[int]:
        """Indices of spans that do not lie inside their parent span."""
        bad = []
        for idx, p in enumerate(self.parent):
            if p >= 0 and not (self.start[p] <= self.start[idx]
                               and self.end[idx] <= self.end[p]):
                bad.append(idx)
        return bad

    def dump(self, path) -> None:
        """Write every span (and the counts) as gzipped JSON."""
        payload = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "job", "raised"],
            "name": self.name_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "raised": self.raised.tolist(),
            "counts": dict(sorted(self.counts.items())),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)
