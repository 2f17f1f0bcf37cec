"""Per-layer tracing installed from the benchmark's own files.

``Tracer.install`` wraps the public functions of each layer.  A module
often binds an imported name locally (``pipeline.apply_delta1``,
``cli.rational_form``, the imports of ``verify`` and ``qyseries``, the
package ``__init__``), so every attribute of every loaded ``hurwitz``
module or class that *is* the original function is replaced, not only the
one in the defining module.  A local import inside a function body (as in
``closedforms``) reads the patched module attribute at call time.

While ``active`` is set, each call records a span (id, name, start, end,
parent id, op id) in memory, adds its duration minus its child spans'
durations to the layer's self time, and bumps the layer's counters.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> [(module, attribute path)], counters recorded on return
LAYERS = {
    "ring.mul": [("ring", "RingElement.__mul__")],
    "ring.add": [("ring", "RingElement.__add__")],
    "ring.apply_delta1": [("ring", "apply_delta1")],
    "ring.apply_T": [("ring", "apply_T")],
    "ring.invert_one_minus_T": [("ring", "invert_one_minus_T")],
    "pipeline.rational_form": [("pipeline", "rational_form")],
    "pipeline.normalized_delta1": [("pipeline", "normalized_delta1")],
    "pipeline.decompose_basis": [("pipeline", "decompose_basis")],
    "pipeline.integrate_phi": [("pipeline", "integrate_phi")],
    "series.mul": [("series", "MSeries.__mul__")],
    "series.add": [("series", "MSeries.__add__")],
    "series.pow": [("series", "MSeries.pow")],
    "series.inverse": [("series", "MSeries.inverse")],
    "series.exp": [("series", "MSeries.exp")],
    "inversion.expand_rational_form": [("inversion", "expand_rational_form")],
    "inversion.lagrange_extract": [("inversion", "lagrange_extract")],
    "inversion.classical_extract": [("inversion", "classical_extract")],
    "inversion.aux_series": [("inversion", "aux_series")],
    "joincut.solve": [("joincut", "solve_monotone"), ("joincut", "solve_classical")],
    "oracle.count": [
        ("oracle", "count_monotone_transitive"),
        ("oracle", "count_classical_transitive"),
    ],
    "qyseries.lift_literal": [("qyseries", "lift_literal")],
    "qyseries.transfer_literal": [("qyseries", "transfer_literal")],
    "qyseries.expand_ring_element": [("qyseries", "expand_ring_element")],
    "qyseries.mul": [("qyseries", "BiSeries.__mul__")],
    "cli.compute_value": [("cli", "compute_value")],
    "closedforms": [
        ("closedforms", name)
        for name in (
            "monotone_genus0",
            "monotone_genus1",
            "classical_genus0",
            "classical_genus1",
            "mn_single_cycle",
            "bernoulli_constant",
        )
    ],
    "tables.paper_form": [("tables", "paper_form")],
}

# cache statistics reported as layer counts: metric prefix -> lru functions
CACHES = {
    "pipeline.rational_form": [("pipeline", "rational_form")],
    "pipeline.normalized_delta1": [("pipeline", "normalized_delta1")],
    "joincut.solve": [("joincut", "solve_monotone"), ("joincut", "solve_classical")],
    "oracle.totals": [("oracle", "_monotone_totals"), ("oracle", "_classical_totals")],
}

# routes compute_value can answer an "auto" query by
ROUTES = ("closed-form", "lagrange", "joincut", "pipeline")

# counters beyond calls, recorded where the work happens
WORK_COUNTS = (
    "ring.mul.term_pairs",
    "ring.add.terms_copied",
    "ring.apply_T.terms_in",
    "ring.invert_one_minus_T.rounds",
    "series.mul.term_pairs",
    "inversion.expand_rational_form.out_terms",
    "joincut.solve.coeffs",
) + tuple(f"pipeline.E_terms.g{g}" for g in range(2, 7))


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "hurwitz"]


def _resolve(module: str, path: str):
    """(owner, attribute, value) for 'Class.method' or 'function' in hurwitz.<module>."""
    owner = sys.modules[f"hurwitz.{module}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _counter(name, tracer):
    """The counters of layer ``name`` that need the arguments, the result or
    the span's duration: count(args, out, elapsed)."""
    counts = tracer.counts
    if name in ("ring.mul", "series.mul"):
        attr = "terms" if name == "ring.mul" else "coeffs"

        def count(args, out, elapsed):
            a, b = args
            if hasattr(b, attr):  # series * scalar is a scale, not a product
                counts[f"{name}.term_pairs"] += len(getattr(a, attr)) * len(getattr(b, attr))

    elif name == "ring.add":
        def count(args, out, elapsed):
            counts["ring.add.terms_copied"] += len(args[0].terms)

    elif name == "ring.apply_T":
        def count(args, out, elapsed):
            counts["ring.apply_T.terms_in"] += len(args[0].terms)

    elif name == "pipeline.normalized_delta1":
        def count(args, out, elapsed):
            counts[f"pipeline.E_terms.g{args[0]}"] = len(out.terms)

    elif name == "inversion.expand_rational_form":
        def count(args, out, elapsed):
            counts["inversion.expand_rational_form.out_terms"] += len(out.coeffs)

    elif name == "cli.compute_value":
        def count(args, out, elapsed):  # the route that answered
            counts[f"cli.route.{out[0]}.ops"] += 1
            tracer.route_s[out[0]] += elapsed

    else:
        return None
    return count


class Tracer:
    """In-memory spans and per-layer totals for the ops of one pass."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.route_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._lru: dict[str, list] = {}

    def reset(self) -> None:
        """Start a new pass; the hooks keep references to these objects."""
        self.spans = []
        for totals in (self.self_s, self.route_s, self.calls, self.counts):
            totals.clear()
        self._stack.clear()
        self._next_id = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every layer function of the loaded package."""
        for prefix, specs in CACHES.items():
            self._lru[prefix] = [_resolve(m, p)[2] for m, p in specs]
        modules = _modules()
        for name, specs in LAYERS.items():
            for module, path in specs:
                owner, attr, original = _resolve(module, path)
                fn = original
                if name == "ring.invert_one_minus_T":
                    fn = self._rounds_counted(original)
                elif name == "joincut.solve":
                    fn = self._coeffs_counted(original)
                wrapper = self._wrap(name, fn, _counter(name, self))
                functools.update_wrapper(wrapper, original)
                owners = [owner] if isinstance(owner, type) else modules
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patched.append((target, key, original))
                            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def _rounds_counted(self, invert):
        # rounds: T applications of the Neumann series, without the final
        # (1 - T) verification
        def counted(F):
            before = self.calls["ring.apply_T"]
            out = invert(F)
            self.counts["ring.invert_one_minus_T.rounds"] += self.calls["ring.apply_T"] - before - 1
            return out

        return counted

    def _coeffs_counted(self, solve):
        # coefficients computed by solves that missed the cache
        def counted(D, R):
            misses = solve.cache_info().misses
            table = solve(D, R)
            if solve.cache_info().misses != misses:
                self.counts["joincut.solve.coeffs"] += len(table.counts)
            return table

        return counted

    def _wrap(self, name, fn, count):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            entry = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(entry)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.self_s[name] += elapsed - entry[1]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += elapsed
                tracer.spans.append(
                    (entry[0], name, start, end, parent[0] if parent else None, tracer.op)
                )
            if count is not None:
                count(args, out, elapsed)
            return out

        return wrapper

    # -- results ---------------------------------------------------------

    def cache_counts(self) -> dict[str, int]:
        out = {}
        for prefix, fns in self._lru.items():
            infos = [fn.cache_info() for fn in fns]
            out[f"{prefix}.hits"] = sum(i.hits for i in infos)
            out[f"{prefix}.misses"] = sum(i.misses for i in infos)
        return out

    def pass_metrics(self) -> tuple[dict[str, int], dict[str, float]]:
        """(counts, times) of the pass just traced, every metric present."""
        counts = {f"{name}.calls": self.calls[name] for name in LAYERS}
        counts.update((name, self.counts[name]) for name in WORK_COUNTS)
        counts.update(self.cache_counts())
        counts.update((f"cli.route.{r}.ops", self.counts[f"cli.route.{r}.ops"]) for r in ROUTES)
        times = {f"{name}.self_s": self.self_s[name] for name in LAYERS}
        times.update((f"cli.route.{r}.s", self.route_s[r]) for r in ROUTES)
        return counts, times
