"""Per-layer tracing of sosselect from outside the library.

The tracer wraps the public functions of each module (the layers
``simlab``, ``design``, ``lasso``, ``selection``, ``identify`` and
``bounds``) and replaces every binding of each wrapped function in every
loaded ``sosselect`` module, so ``simlab.standardize`` is traced as well as
``design.standardize``. Each call is a span; a span's self time is its
duration minus the time covered by the spans it called. Counters are read
from return values, never from library internals.
"""

import functools
import math
import os
import sys
import time
from collections import defaultdict

# span name -> (defining module, functions sharing the span)
SPANS = {
    "simlab.run_experiment": ("sosselect.simlab", ("run_experiment",)),
    "simlab.generate_trial": ("sosselect.simlab", ("generate_trial",)),
    "simlab.persist": ("sosselect.simlab", ("persist",)),
    "design.standardize": ("sosselect.design", ("standardize",)),
    "design.ls_fit": ("sosselect.design", ("ls_fit",)),
    "design.rss": ("sosselect.design", ("rss",)),
    "lasso.solve_lasso": ("sosselect.lasso", ("solve_lasso",)),
    "lasso.screen": ("sosselect.lasso", ("screen",)),
    "lasso.event_a": ("sosselect.lasso", ("event_a",)),
    "selection.run_sos": ("sosselect.selection", ("run_sos",)),
    "selection.run_os": ("sosselect.selection", ("run_os",)),
    "selection.order_by_t": ("sosselect.selection", ("order_by_t",)),
    "selection.gic_path": ("sosselect.selection", ("gic_path",)),
    "selection.exhaustive_gic": ("sosselect.selection", ("exhaustive_gic",)),
    "identify.check_propositions": ("sosselect.identify", ("check_propositions",)),
    "identify.kappa": ("sosselect.identify", ("kappa",)),
    "identify.kappa_uniform": ("sosselect.identify", ("kappa_uniform",)),
    "identify.min_subset_eigen": ("sosselect.identify", ("min_subset_eigen",)),
    "identify.delta": (
        "sosselect.identify",
        ("delta_pair", "delta_scaled", "delta_scaled_argmin", "delta_identifiability"),
    ),
    "bounds.bound_input_from_design": ("sosselect.bounds", ("bound_input_from_design",)),
    "bounds.evaluators": (
        "sosselect.bounds",
        (
            "theorem1_bounds",
            "theorem2_bound",
            "corollary_bounds",
            "event_a_bound",
            "exhaustive_lower_bound",
        ),
    ),
}

# the benchmark's own span around one op; its self time is the op's time
# outside every wrapped function
ROOT = "bench.op"


def _count_kappa(counts, args, kwargs, est):
    counts["identify.kappa.converged"] += est.converged_fraction


def _count_exhaustive(counts, args, kwargs, res):
    design = args[0]
    max_size = kwargs.get("max_size", args[2] if len(args) > 2 else None)
    if max_size is None:
        max_size = min(design.p, design.n_effective)
    max_size = min(max_size, design.p)
    counts["selection.exhaustive_gic.evaluated"] += res.evaluated
    counts["selection.exhaustive_gic.skipped"] += res.skipped
    counts["selection.exhaustive_gic.subsets"] += sum(
        math.comb(design.p, k) for k in range(max_size + 1)
    )


def _count_order(counts, args, kwargs, ordering):
    counts["selection.order_by_t.fallback"] += ordering.t_squared is None


def _count_lasso(counts, args, kwargs, fit):
    counts["lasso.solve_lasso.sweeps"] += fit.iterations


def _count_screen(counts, args, kwargs, scr):
    counts["lasso.screen.s1_size"] += len(scr.s1)
    counts["lasso.screen.s1_empty"] += len(scr.s1) == 0


def _count_experiment(counts, args, kwargs, summary):
    counts["bounds.ledger_skipped"] += summary.bound_ledger is None


def _count_persist(counts, args, kwargs, paths):
    counts["simlab.persist.bytes"] += sum(os.path.getsize(p) for p in paths.values())


COUNTERS = {
    "identify.kappa": _count_kappa,
    "selection.exhaustive_gic": _count_exhaustive,
    "selection.order_by_t": _count_order,
    "lasso.solve_lasso": _count_lasso,
    "lasso.screen": _count_screen,
    "simlab.run_experiment": _count_experiment,
    "simlab.persist": _count_persist,
}


class Tracer:
    """Accumulates calls, self and total time, and counters per span name.

    Entering the tracer as a context manager patches every binding of the
    wrapped functions; leaving restores the originals. ``run`` times one
    op as the root span.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.last_span = 0.0
        self._stack = []
        self._patched = []

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - frame[0]
            stack.pop()
            self.self_s[name] += span - frame[1]
            self.total_s[name] += span
            self.calls[name] += 1
            if stack:
                stack[-1][1] += span
            self.last_span = span

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def run(self, fn, *args):
        """Call ``fn(*args)`` as the root span; return (result, seconds)."""
        result = self._span(ROOT, fn, args, {})
        return result, self.last_span

    def __enter__(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "sosselect" or key.startswith("sosselect."))
        ]
        for name, (home, functions) in SPANS.items():
            for fn_name in functions:
                original = getattr(sys.modules[home], fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False
