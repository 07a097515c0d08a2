"""Span tracing of chernkit's layers, installed at run time.

The package is not edited.  `Tracer.install` rebinds each traced public
function, in every `chernkit.*` module that holds a reference to it, to a
wrapper that records one span per call; `Tracer.uninstall` puts the
originals back.  The battery's criteria are reached through the
`checks.CRITERIA` dict and the domains' samplers through their classes, so
those entries are rebound as well.

A span is (name, start, end, parent), where parent is the index of the
enclosing span in `Tracer.spans` (-1 at the top).  A layer's self time is
its spans' durations minus the parts covered by their child spans.

Helpers called once per expression node or per serialized number
(`expr.add`, `report.point_json`, ...) are left unwrapped: a span around
each would cost more than the work it measures, so their time counts
towards the caller's layer.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

# (layer, module, public functions that belong to the layer)
LAYERS = (
    ("dsl.parse", "chernkit.dsl", ("parse_metric", "parse_expression")),
    ("expr.diff", "chernkit.expr", ("wirtinger_diff",)),
    ("expr.evaluate", "chernkit.expr", ("evaluate",)),
    ("jets", "chernkit.jets", ("metric_jets",)),
    ("jets.factor", "chernkit.jets", ("factor_jet",)),
    (
        "geometry.curvature",
        "chernkit.geometry",
        ("chern_curvature", "to_unitary_frame", "orthonormal_frame"),
    ),
    (
        "geometry.traces",
        "chernkit.geometry",
        (
            "ricci_bundle",
            "torsion",
            "kahler_defect",
            "kahler_like_defect",
            "holomorphic_sectional",
            "metric_norm_sq",
            "hermitian_symmetry_residual",
        ),
    ),
    ("mixed.extremize", "chernkit.mixed", ("extremize",)),
    (
        "mixed.mc",
        "chernkit.mixed",
        ("sphere_average_monte_carlo", "sphere_average_monte_carlo_many"),
    ),
    (
        "mixed.residual",
        "chernkit.mixed",
        (
            "constancy_tensor_residual",
            "trace_identity_residual",
            "mixed_curvature",
            "sphere_average_closed_form",
        ),
    ),
    (
        "conformal",
        "chernkit.conformal",
        (
            "conformal_metric",
            "conformal_curvature_via_formula",
            "chern_laplacian",
            "surface_scalar_relation_residual",
            "conformal_constancy_residual",
        ),
    ),
    (
        "surfaces",
        "chernkit.surfaces",
        (
            "weyl_minus",
            "ricci_combination_residual",
            "form_inner",
            "wedge_ratio",
            "c1_squared_pointwise_residual",
        ),
    ),
    ("report.dumps", "chernkit.report", ("dumps",)),
    ("catalog.sample", "chernkit.catalog", ("sample_points",)),
    ("cli", "chernkit.cli", ("main",)),
)


def _count_jet_points(counters, args, kwargs, result):
    counters["jets.points"] += len(result)


def _count_mc_samples(counters, args, kwargs, result):
    counters["mixed.mc_samples"] += args[3] if len(args) > 3 else kwargs.get("samples", 100_000)


def _count_converged(counters, args, kwargs, result):
    counters["mixed.extremize_converged"] += bool(result.converged)


def _count_bytes(counters, args, kwargs, result):
    counters["report.bytes"] += len(result.encode())


# functions whose arguments or result feed a counter at the same boundary
COUNTERS = {
    "metric_jets": _count_jet_points,
    "sphere_average_monte_carlo": _count_mc_samples,
    "sphere_average_monte_carlo_many": _count_mc_samples,
    "extremize": _count_converged,
    "dumps": _count_bytes,
}


class Tracer:
    """Spans and counters of one traced phase, kept in memory.

    clock() gives the span times, in seconds.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    # -- installing the wrappers ------------------------------------------

    def _rebind(self, holder, key, original, wrapper, setter):
        self._undo.append((holder, key, original, setter))
        setter(holder, key, wrapper)

    def install(self):
        """Rebind every traced function wherever chernkit's modules refer to it."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, module, functions in LAYERS:
            for fn_name in functions:
                fn = getattr(sys.modules[module], fn_name)
                wrappers[id(fn)] = (fn, self._wrap(layer, fn, COUNTERS.get(fn_name)))
        for name, mod in list(sys.modules.items()):
            if name != "chernkit" and not name.startswith("chernkit."):
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._rebind(mod, attr, fn, wrapper, setattr)
        domains = sys.modules["chernkit.domains"]
        for cls_name in domains.__all__:
            cls = getattr(domains, cls_name)
            if isinstance(cls, type) and "sample" in vars(cls):
                fn = vars(cls)["sample"]
                self._rebind(cls, "sample", fn, self._wrap("catalog.sample", fn), setattr)
        criteria = sys.modules["chernkit.checks"].CRITERIA
        for crit, fn in list(criteria.items()):
            self._rebind(criteria, crit, fn, self._wrap(f"checks.{crit}", fn), _setitem)

    def uninstall(self):
        """Put every original function back."""
        while self._undo:
            holder, key, original, setter = self._undo.pop()
            setter(holder, key, original)


def _setitem(holder, key, value):
    holder[key] = value


def self_times(spans):
    """Per span name: (self seconds, inclusive seconds, calls)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        incl_s[name] += end - start
        calls[name] += 1
    return self_s, incl_s, calls


def top_ancestors(spans, prefix):
    """Index of the outermost enclosing span whose name starts with prefix, per span (-1 if none)."""
    top = [-1] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        up = top[parent] if parent >= 0 else -1
        top[i] = up if up >= 0 else (i if name.startswith(prefix) else -1)
    return top
