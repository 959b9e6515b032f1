"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions and methods of each ``stieltjes_ode``
module from outside: every name a module lists in ``__all__`` (for ``cli``,
every public function), and for each listed class its public methods plus
``__init__`` and ``__call__``.  A wrapped call is one span.  Its duration
goes to its name; the part of that interval covered by wrapped calls it made
is its child time.  Self time is duration minus child time, so the self
times of all spans add up to the time spent inside ``cli.main``.

Spans are aggregated in memory (calls, total, child time per name) instead of
being stored one by one: the silkworm workload makes hundreds of thousands of
right-hand-side calls per run.  Counts of work are recorded at the same
boundaries: points passed to the driver, steps and nodes of the solver,
right-hand-side calls made by the solver and by the analysis passes.

Nothing under ``src/`` changes; ``uninstall`` restores every original.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("derivator", "quadrature", "solver", "linear", "models", "analysis",
          "cli")
PACKAGE = "stieltjes_ode"
RULES = ("quadrature.onepoint_rule", "quadrature.trapezoid_rule",
         "quadrature.corrected_onepoint_rule",
         "quadrature.corrected_trapezoid_rule")
DRIVER_EVALS = ("value", "right_value", "continuous_value", "jump_gap")


def _arg(sig, name, args, kwargs):
    return sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Installs span wrappers into the package and aggregates them."""

    def __init__(self):
        self.open = []            # child time of each open span, innermost last
        self.spans = {}           # name -> [calls, total_s, child_s]
        self.counts = Counter()
        self._undo = []           # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn, count=None, spec_key=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self.open
        clock = time.perf_counter
        sig = inspect.signature(fn) if spec_key else None
        counted_spec = self._counted_spec

        def wrapper(*args, **kwargs):
            if spec_key is not None:
                bound = sig.bind(*args, **kwargs)
                bound.arguments["spec"] = counted_spec(bound.arguments["spec"],
                                                       spec_key)
                args, kwargs = bound.args, bound.kwargs
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += child
                if open_spans:
                    open_spans[-1] += elapsed
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_spec(self, spec, key):
        counts = self.counts

        def counted(fn):
            def rhs(t, x, history):
                counts[key] += 1
                return fn(t, x, history)
            return rhs

        return dataclasses.replace(spec, rhs=counted(spec.rhs),
                                   rhs_right=counted(spec.rhs_right))

    def _hooks(self):
        """Counts and spec substitutions per span name."""
        c = self.counts

        def points(key, pos, name):
            def count(args, kwargs, result):
                c[key] += int(np.size(args[pos] if len(args) > pos
                                      else kwargs[name]))
            return count

        def add(key, fn):
            def count(args, kwargs, result):
                c[key] += fn(args, kwargs, result)
            return count

        sig_oracle = inspect.signature(
            importlib.import_module(f"{PACKAGE}.quadrature").oracle_integral)
        analysis = importlib.import_module(f"{PACKAGE}.analysis")
        sig_trunc = inspect.signature(analysis.truncation_errors)
        sig_const = inspect.signature(analysis.measure_constants)
        hooks = {f"derivator.Derivator.{m}": {"count": points(
            "derivator.points", 1, "t")} for m in DRIVER_EVALS}
        hooks.update({
            "solver.build_partition": {"count": add(
                "solver.nodes", lambda a, k, r: len(r.nodes))},
            "solver.solve": {"spec_key": "solver.rhs_calls", "count": add(
                "solver.steps", lambda a, k, r: r.partition.n_steps)},
            "quadrature.run_bound_suite": {"count": add(
                "quadrature.cases", lambda a, k, r: len(r))},
            "quadrature.oracle_integral": {"count": add(
                "quadrature.oracle_points",
                lambda a, k, r: int(_arg(sig_oracle, "n", a, k)))},
            "linear.homogeneous_solution": {"count": points(
                "linear.exact_points", 3, "t")},
            "analysis.truncation_errors": {
                "spec_key": "analysis.truncation_rhs_calls",
                "count": add("analysis.truncation_nodes", lambda a, k, r: len(
                    _arg(sig_trunc, "part", a, k).nodes))},
            "analysis.measure_constants": {
                "spec_key": "analysis.constants_rhs_calls",
                "count": add("analysis.constants_nodes", lambda a, k, r: len(
                    _arg(sig_const, "part", a, k).nodes))},
        })
        return hooks

    def install(self):
        hooks = self._hooks()
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrapped = {}                # id(original) -> wrapper, for aliases
        for layer, module in zip(LAYERS, modules[1:]):
            names = getattr(module, "__all__", None) or [
                n for n, v in vars(module).items()
                if inspect.isfunction(v) and v.__module__ == module.__name__
                and not n.startswith("_")]
            for name in names:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    span = f"{layer}.{name}"
                    wrapped[id(obj)] = (obj, self._span(span, obj,
                                                        **hooks.get(span, {})))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, hooks, wrapped)
        # rebind every module-level name that refers to a wrapped function,
        # so calls through ``from .solver import solve`` are traced as well
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(module, name, wrapped[id(value)][1])

    def _wrap_class(self, layer, cls, hooks, wrapped):
        for name, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if name.startswith("_") and name not in ("__init__", "__call__"):
                continue
            if id(value) not in wrapped:
                span = f"{layer}.{cls.__name__}.{value.__name__}"
                wrapped[id(value)] = (value, self._span(span, value,
                                                        **hooks.get(span, {})))
            self._set(cls, name, wrapped[id(value)][1])

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- report ------------------------------------------------------------

    def report(self):
        """Per-span aggregates, per-layer self times and counts."""
        spans = {name: {"calls": s[0], "total_s": s[1], "self_s": s[1] - s[2]}
                 for name, s in self.spans.items() if s[0]}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in spans.items():
            layer_self[name.split(".", 1)[0]] += s["self_s"]
        counts = dict(self.counts)
        for name, s in spans.items():
            counts[f"calls.{name}"] = s["calls"]
        return {"spans": spans, "layer_self_s": layer_self, "counts": counts}


def scaled(report, factor):
    """``report`` with every time multiplied by ``factor``; counts unchanged."""
    return {
        "spans": {name: {"calls": s["calls"], "total_s": s["total_s"] * factor,
                         "self_s": s["self_s"] * factor}
                  for name, s in report["spans"].items()},
        "layer_self_s": {layer: t * factor
                         for layer, t in report["layer_self_s"].items()},
        "counts": report["counts"],
    }


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(report):
    """The per-layer metrics of one traced child, from ``Tracer.report()``."""
    spans, counts, layer = report["spans"], report["counts"], report["layer_self_s"]

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def total_s(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    points = counts.get("derivator.points", 0)
    cases = counts.get("quadrature.cases", 0)
    oracle_points = counts.get("quadrature.oracle_points", 0)
    oracle_s = self_s("quadrature.oracle_integral")
    rule_calls = calls(*RULES)
    rule_s = self_s(*RULES, "quadrature.evaluate_rule")
    suite_s = total_s("quadrature.run_bound_suite")
    steps = counts.get("solver.steps", 0)
    solve_s = self_s("solver.solve")
    nodes = counts.get("solver.nodes", 0)
    partition_s = self_s("solver.build_partition")
    rhs_spans = ("models.silkworm_rhs", "models.silkworm_rhs_right")
    model_rhs = calls(*rhs_spans)
    exact_points = counts.get("linear.exact_points", 0)
    trunc_nodes = counts.get("analysis.truncation_nodes", 0)
    const_nodes = counts.get("analysis.constants_nodes", 0)
    return {
        "derivator.points": points,
        "derivator.self_s": layer["derivator"],
        "derivator.ns_per_point": _ratio(layer["derivator"], points, 1e9),
        "quadrature.cases": cases,
        "quadrature.oracle_points": oracle_points,
        "quadrature.oracle_s": oracle_s,
        "quadrature.ns_per_oracle_point": _ratio(oracle_s, oracle_points, 1e9),
        "quadrature.rule_calls": rule_calls,
        "quadrature.rule_us_per_call": _ratio(rule_s, rule_calls, 1e6),
        "quadrature.case_ms": _ratio(suite_s, cases, 1e3),
        "quadrature.self_s": layer["quadrature"],
        "solver.steps": steps,
        "solver.solve_s": solve_s,
        "solver.us_per_step": _ratio(solve_s, steps, 1e6),
        "solver.partition_s": partition_s,
        "solver.ns_per_node": _ratio(partition_s, nodes, 1e9),
        "solver.rhs_calls": counts.get("solver.rhs_calls", 0),
        "solver.history_integrals": calls(
            "solver.TrajectoryHistory.integral"),
        "solver.self_s": layer["solver"],
        "models.exact_setup_s": total_s("models.SilkwormSolution.__init__"),
        "models.rhs_calls": model_rhs,
        "models.rhs_us_per_call": _ratio(self_s(*rhs_spans), model_rhs, 1e6),
        "models.self_s": layer["models"],
        "linear.exact_points": exact_points,
        "linear.exact_s": layer["linear"],
        "linear.ns_per_point": _ratio(layer["linear"], exact_points, 1e9),
        "analysis.report_s": self_s("analysis.error_report"),
        "analysis.truncation_us_per_node": _ratio(
            self_s("analysis.truncation_errors"), trunc_nodes, 1e6),
        "analysis.constants_us_per_node": _ratio(
            self_s("analysis.measure_constants"), const_nodes, 1e6),
        "analysis.rhs_calls_per_node": (
            _ratio(counts.get("analysis.truncation_rhs_calls", 0), trunc_nodes)
            + _ratio(counts.get("analysis.constants_rhs_calls", 0),
                     const_nodes)),
        "analysis.self_s": layer["analysis"],
        "cli.self_s": layer["cli"],
    }
