"""Span tracing of circdirac from outside the package.

The tracer swaps function references in the package's module namespaces
for thin wrappers that record spans, and puts the originals back when it
is closed.  What it wraps is found by walking the namespaces, so the list
follows refactors of the package:

- every function one circdirac module takes from another, whether by
  ``from .x import f`` or by attribute access ``x.f`` on an imported module
  (found in the importing module's code names);
- every function in a module's ``__all__``;
- the public methods of the classes in ``WRAPPED_CLASSES``;
- the criteria in ``verify.CRITERIA`` (each one starts a new item);
- the benchmark's own entry points ``cli.main`` and ``verify.run_suite``.

A span is ``[name, layer, start, end, parent, item, work]``; the layer is
the module that defines the function, ``item`` groups the spans of one
criterion, CLI invocation or draw, and ``work`` holds counts taken from
the call's arguments and result.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

import numpy as np

PACKAGE = "circdirac"

LAYERS = ("hyperbolic", "opuc", "dirac", "ensembles", "stats", "verify", "cli")

WRAPPED_CLASSES = (("ensembles", "KNMeasureSampler"),)

ENTRY_POINTS = (("cli", "main"), ("verify", "run_suite"))


# work counts per span name: (args, kwargs, result) -> dict
WORK = {
    "dirac.spectral_measure": lambda a, k, r: {
        "cells": int(a[0].path.size), "roots": len(r)},
    "dirac._sweep": lambda a, k, r: {
        "cells": int(k.get("upto") or np.shape(a[0])[-1]), "lanes": int(np.size(a[3]))},
    "ensembles.KNMeasureSampler.gammas_for": lambda a, k, r: {
        "replicas": int(a[2])},
    "opuc._measures_from_gammas_batch": lambda a, k, r: {
        "replicas": int(np.shape(a[0])[0])},
    "opuc._measures_to_alphas_batch": lambda a, k, r: {
        "replicas": int(np.shape(a[0])[0])},
}


def package_modules() -> dict:
    """The imported circdirac layer modules, by short name."""
    return {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS
            if f"{PACKAGE}.{name}" in sys.modules}


def _code_names(module) -> set:
    """Every name the module's own functions and methods load or access."""
    names = set()
    stack = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            stack.append(obj.__code__)
        elif inspect.isclass(obj):
            stack.extend(v.__code__ for v in vars(obj).values()
                         if inspect.isfunction(v))
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


class Tracer:
    """Records spans of circdirac calls while installed; see module doc."""

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        mods = package_modules()
        ours = {m.__name__ for m in mods.values()}

        def ref(fn):
            layer = fn.__module__.rsplit(".", 1)[-1]
            return f"{layer}.{fn.__name__}", layer

        # functions reached through their defining module: the public API,
        # attribute access x.f from another module, and the entry points;
        # these are swapped in every namespace that holds them
        shared = set()
        for mod in mods.values():
            ns = vars(mod)
            shared.update(id(ns[n]) for n in getattr(mod, "__all__", ())
                          if inspect.isfunction(ns.get(n)))
            # code names that are not globals of the module are attributes
            used = _code_names(mod) - ns.keys()
            imported = [v for v in ns.values() if isinstance(v, types.ModuleType)]
            for other in mods.values():
                if other is not mod and any(v is other for v in imported):
                    shared.update(id(fn) for n, fn in vars(other).items()
                                  if n in used and inspect.isfunction(fn)
                                  and fn.__module__ == other.__name__)
        for short, name in ENTRY_POINTS:
            if short in mods:
                shared.add(id(vars(mods[short])[name]))

        # everything else taken by ``from .x import f`` is swapped only where
        # it was imported, so calls inside the defining module stay untraced
        for mod in mods.values():
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if not (inspect.isfunction(obj) and obj.__module__ in ours):
                    continue
                if id(obj) in shared or obj.__module__ != mod.__name__:
                    self._patch(ns, name, self._wrap(obj, *ref(obj)))
        for short, cls_name in WRAPPED_CLASSES:
            cls = vars(mods[short]).get(cls_name) if short in mods else None
            if cls is None:
                continue
            for name, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and (name == "__call__" or not name.startswith("_")):
                    self._patch(cls, name, self._wrap(fn, f"{short}.{cls_name}.{name}", short))
        if "verify" in mods:
            criteria = mods["verify"].CRITERIA
            for name, fn in list(criteria.items()):
                self._patch(criteria, name,
                            self._wrap(fn, f"verify.{name}", "verify", starts_item=True))
        return self

    def _patch(self, target, name, wrapper) -> None:
        if isinstance(target, dict):
            original = target[name]
            target[name] = wrapper
        else:
            original = vars(target)[name]
            setattr(target, name, wrapper)
        self._patches.append((target, name, original))

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            target, name, original = self._patches.pop()
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, starts_item: bool = False):
        work = WORK.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_item = self.item
            if starts_item:
                self.item = name
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                self.item = outer_item
            if work is not None:
                span[6] = work(args, kwargs, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _outermost(spans, match) -> list:
    """Spans that match, leaving out those nested inside another match."""
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        p = s[4]
        inside[i] = p >= 0 and (inside[p] or match(spans[p]))
        if match(s) and not inside[i]:
            out.append(s)
    return out


def _total(spans, match) -> float:
    return sum(s[3] - s[2] for s in _outermost(spans, match))


def _named(*names):
    return lambda s: s[0] in names


def _rate(spans, match, scale, count) -> float:
    """Time of the matching spans per unit of work, 0 when none ran."""
    chosen = _outermost(spans, match)
    units = sum(count(s[6]) for s in chosen if s[6])
    return scale * sum(s[3] - s[2] for s in chosen) / units if units else 0.0


def layer_metric_names(criteria) -> list:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"verify.{c}.s", "s") for c in criteria]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("dirac.spectral_measure.s", "s"),
        ("dirac.spectral_measure.calls", "count"),
        ("dirac.ns_per_cell_root", "ns"),
        ("dirac.sweep.ns_per_cell_lane", "ns"),
        ("dirac.solve.s", "s"),
        ("ensembles.draw_us_per_replica", "us"),
        ("ensembles.sample_sine_operator.s", "s"),
        ("opuc.measure_to_alpha.s", "s"),
        ("opuc.alpha_to_measure.s", "s"),
        ("opuc.batch_us_per_replica", "us"),
        ("stats.ks.s", "s"),
        ("stats.chi2.s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


def layer_metrics(spans, criteria, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values; a metric whose layer did no work reads 0."""
    own = self_times(spans)
    values = {f"verify.{c}.s": _total(spans, _named(f"verify.{c}")) for c in criteria}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s[1] == layer)
    sm = _named("dirac.spectral_measure")
    batch = _named("opuc._measures_from_gammas_batch", "opuc._measures_to_alphas_batch")
    values.update({
        "dirac.spectral_measure.s": _total(spans, sm),
        "dirac.spectral_measure.calls": sum(1 for s in spans if sm(s)),
        "dirac.ns_per_cell_root": _rate(spans, sm, 1e9, lambda w: w["cells"] * w["roots"]),
        "dirac.sweep.ns_per_cell_lane": _rate(spans, _named("dirac._sweep"), 1e9,
                                              lambda w: w["cells"] * w["lanes"]),
        "dirac.solve.s": _total(spans, _named("dirac._solve_targets")),
        "ensembles.draw_us_per_replica": _rate(
            spans, _named("ensembles.KNMeasureSampler.gammas_for"), 1e6,
            lambda w: w["replicas"]),
        "ensembles.sample_sine_operator.s": _total(
            spans, _named("ensembles.sample_sine_operator")),
        "opuc.measure_to_alpha.s": _total(spans, _named("opuc.measure_to_alpha")),
        "opuc.alpha_to_measure.s": _total(spans, _named("opuc.alpha_to_measure")),
        "opuc.batch_us_per_replica": _rate(spans, batch, 1e6, lambda w: w["replicas"]),
        "stats.ks.s": _total(spans, lambda s: s[0].startswith("stats.ks_")),
        "stats.chi2.s": _total(spans, _named("stats.chi2_hist2d")),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return values


def bench_own_time(spans, traced_wall: float) -> float:
    """Traced wall time not covered by any top-level span."""
    return traced_wall - sum(s[3] - s[2] for s in spans if s[4] < 0)
