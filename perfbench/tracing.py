"""Spans and counts around tropideal's layers, recorded from outside the package.

`Tracer.install` replaces, in every loaded tropideal module, each public
function of the traced modules with a wrapper that records a span (name,
start, end, parent span, job id).  Because the replacement happens in every
namespace that holds the function, calls inside a module (`refine` calling
`fm_solve`) and calls across modules (`groebner` calling `refine` by the
name it imported) are both traced; parents come from a stack.  The CLI's
JSON read, inline-JSON and emit helpers are traced as the jsonio layer's
parse and emit, and `config.Budget` is replaced by a subclass that counts
budgets, subsets charged and size-guard errors.

`semiring`, `monomials` and `polynomials` are not wrapped: they are called
millions of times, so wrapping them would distort the run.  Their cost
lands in the self time of the module that calls them.  Methods (such as
`Cell.relint_point`) are not wrapped either; their cost lands in the
caller's self time, except for the wrapped functions they call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("polyhedra", "groebner", "ideals", "matroids", "jsonio")
CLI_IO = {"_read_json": "jsonio.read_json", "_inline_json": "jsonio.inline_json",
          "_emit": "jsonio.emit"}
PARSE = {"jsonio.read_json", "jsonio.inline_json"}
EMIT = {"jsonio.emit"}
JOB_SPAN = "bench.job"


def _is_parse(name: str) -> bool:
    return name in PARSE or (name.startswith("jsonio.") and name.endswith("_from_json"))


def _is_emit(name: str) -> bool:
    return name in EMIT or (name.startswith("jsonio.") and name.endswith("_to_json"))


def _count_result(key: str, measure):
    def hook(tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return hook


HOOKS = {
    "polyhedra.fm_solve": _count_result("polyhedra.fm_solve.feasible",
                                        lambda a, r: r is not None),
    "polyhedra.refine": _count_result("polyhedra.refine.cells", lambda a, r: r.cell_count()),
    "groebner.groebner_complex": _count_result("groebner.cells", lambda a, r: r.cell_count()),
    "cli.main": _count_result("cli.exit_nonzero", lambda a, r: r != 0),
    "jsonio.read_json": _count_result(
        "jsonio.bytes_in", lambda a, r: 0 if a[0] == "-" else os.path.getsize(a[0])),
    "jsonio.inline_json": _count_result("jsonio.bytes_in", lambda a, r: len(a[0].encode())),
}


class Tracer:
    """Spans of one traced pass live in `spans` as [name, start, end, parent, job]."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def _counting_budget(self, base):
        from tropideal.errors import SizeGuardError
        counts = self.counts

        class CountingBudget(base):
            __slots__ = ()

            def __init__(self, cap=None):
                super().__init__(cap)
                counts["config.budgets"] += 1

            def charge(self, amount, what="enumeration"):
                counts["config.subsets_charged"] += amount
                try:
                    super().charge(amount, what)
                except SizeGuardError:
                    counts["config.size_guard_errors"] += 1
                    raise

        return CountingBudget

    def install(self) -> None:
        mods = {name: importlib.import_module("tropideal." + name)
                for name in ("cli", "config") + LAYERS}
        replace = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    replace[id(fn)] = (fn, self._wrap("%s.%s" % (layer, attr), fn))
        for attr, name in CLI_IO.items():
            fn = getattr(mods["cli"], attr)
            replace[id(fn)] = (fn, self._wrap(name, fn))
        main = mods["cli"].main
        replace[id(main)] = (main, self._wrap("cli.main", main))
        budget = mods["config"].Budget
        replace[id(budget)] = (budget, self._counting_budget(budget))
        for modname, mod in list(sys.modules.items()):
            if modname != "tropideal" and not modname.startswith("tropideal."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def begin_job(self, job_id: str) -> list:
        self.job = job_id
        span = [JOB_SPAN, 0.0, 0.0, -1, job_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end_job(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        self.job = None

    def take(self) -> tuple:
        """Hand over this pass's spans and counts and start empty."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass.

    `<layer>.self_s` sums the self time (duration minus the time of direct
    child spans) of the layer's spans; `<layer>.<function>.s` is the time
    covered by the function's outermost spans; `.calls` counts spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, covered, calls = Counter(), Counter(), Counter()
    fm_in_refine = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        outermost, in_refine = True, False
        p = parent
        while p >= 0:
            outermost = outermost and spans[p][0] != name
            in_refine = in_refine or spans[p][0] == "polyhedra.refine"
            p = spans[p][3]
        if outermost:
            covered[name] += end - start
        if in_refine and name == "polyhedra.fm_solve":
            fm_in_refine += 1

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    fm_calls = calls["polyhedra.fm_solve"]
    out = {
        "polyhedra.self_s": layer_self("polyhedra"),
        "polyhedra.refine.calls": calls["polyhedra.refine"],
        "polyhedra.refine.fm_calls": fm_in_refine,
        "polyhedra.refine.yield": ratio(counts["polyhedra.refine.cells"], fm_in_refine),
        "polyhedra.fm_solve.calls": fm_calls,
        "polyhedra.fm_solve.feasible_ratio": ratio(counts["polyhedra.fm_solve.feasible"],
                                                   fm_calls),
        "groebner.self_s": layer_self("groebner"),
        "groebner.groebner_complex.calls": calls["groebner.groebner_complex"],
        "groebner.cells": counts["groebner.cells"],
        "ideals.self_s": layer_self("ideals"),
        "matroids.self_s": layer_self("matroids"),
        "matroids.is_vector.calls": calls["matroids.is_vector"],
        "matroids.contract.calls": calls["matroids.contract"],
        "matroids.initial_matroid.calls": calls["matroids.initial_matroid"],
        "jsonio.parse_s": sum(v for k, v in self_s.items() if _is_parse(k)),
        "jsonio.emit_s": sum(v for k, v in self_s.items() if _is_emit(k)),
        "jsonio.bytes_in": counts["jsonio.bytes_in"],
        "jsonio.bytes_out": counts["jsonio.bytes_out"],
        "cli.jobs": calls["cli.main"],
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
        "config.budgets": counts["config.budgets"],
        "config.subsets_charged": counts["config.subsets_charged"],
        "config.size_guard_errors": counts["config.size_guard_errors"],
    }
    for name in ("polyhedra.refine", "polyhedra.normal_complex", "polyhedra.fm_solve",
                 "polyhedra.quotient_lineality", "groebner.groebner_complex",
                 "groebner.groebner_poly", "groebner.variety", "groebner.tropical_basis",
                 "groebner.nullstellensatz", "groebner.variety_supports_equal",
                 "ideals.check_compatibility", "ideals.tropicalize",
                 "ideals.nonrealizable_ideal", "ideals.point_ideal", "ideals.compare",
                 "ideals.contains", "matroids.check_valuated_exchange", "matroids.circuits",
                 "matroids.is_vector", "matroids.initial_matroid"):
        out[name + ".s"] = covered[name]
    return out
