"""Every name the benchmark tracer reads still exists in the package.

``bench/spans.py`` wraps package functions by name strings, and a name that
no longer resolves counts as zero without a word.  These tests read the
names from the tracer's source with ``ast`` (the benchmark is not imported)
and resolve each one by the wrapping rule its docstring states, so a cut in
``src/`` that would zero a per-layer counter fails here instead.
"""

import ast
import importlib
import inspect
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                     "spans.py")
with open(_PATH, encoding="utf-8") as _fh:
    TREE = ast.parse(_fh.read(), _PATH)

# names the tracer still reads although the package no longer has them
STALE = {"quadrature.onepoint_rule", "quadrature.trapezoid_rule",
         "quadrature.corrected_onepoint_rule",
         "quadrature.corrected_trapezoid_rule",
         "solver.TrajectoryHistory.integral"}


def _literals(tree):
    """Every ``NAME = (literal strings, ...)`` in the file, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            if isinstance(value, (str, tuple)):
                out[node.targets[0].id] = value
    return out


CONSTANTS = _literals(TREE)
PACKAGE = CONSTANTS["PACKAGE"]


def _function(name):
    return next(node for node in ast.walk(TREE)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _hooks():
    """``{span name: hook dict node}`` from ``Tracer._hooks``: string keys
    of a dict of dicts, and the f-string keys of a dict comprehension over
    one module tuple, spelled out."""
    hooks = {}
    for node in ast.walk(_function("_hooks")):
        if isinstance(node, ast.Dict) and all(
                isinstance(v, ast.Dict) for v in node.values):
            for key, value in zip(node.keys, node.values):
                hooks[ast.literal_eval(key)] = value
        elif isinstance(node, ast.DictComp):
            (comp,) = node.generators
            assert isinstance(node.key, ast.JoinedStr), node.lineno
            for item in CONSTANTS[comp.iter.id]:
                parts = [item if isinstance(part, ast.FormattedValue)
                         else part.value for part in node.key.values]
                hooks["".join(parts)] = node.value
    return hooks


HOOKS = _hooks()


def _bound_arguments():
    """``(span, position or None, argument)`` for every argument a hook
    binds: ``spec`` where it substitutes the spec, the ``points`` argument
    by position and name, and each ``_arg(sig, name, ...)`` by name."""
    out = []
    for span, hook in HOOKS.items():
        fields = dict(zip((k.value for k in hook.keys), hook.values))
        if "spec_key" in fields:
            out.append((span, None, "spec"))
        for call in ast.walk(fields["count"]):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)):
                continue
            if call.func.id == "points":
                _, pos, name = map(ast.literal_eval, call.args)
                out.append((span, pos, name))
            elif call.func.id == "_arg":
                out.append((span, None, ast.literal_eval(call.args[1])))
    return out


def _read_spans():
    """Every span name the tracer reads: the hook keys, ``RULES``,
    ``derivator.Derivator.<m>`` for ``m`` in ``DRIVER_EVALS``, and the
    names passed to ``self_s``, ``total_s`` and ``calls`` in
    ``layer_metrics`` (``*RULES`` and ``*rhs_spans`` spelled out)."""
    names = set(HOOKS) | set(CONSTANTS["RULES"])
    names |= {f"derivator.Derivator.{m}" for m in CONSTANTS["DRIVER_EVALS"]}
    for call in ast.walk(_function("layer_metrics")):
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in ("self_s", "total_s", "calls")):
            for arg in call.args:
                if isinstance(arg, ast.Starred):
                    names.update(CONSTANTS[arg.value.id])
                else:
                    names.add(ast.literal_eval(arg))
    return sorted(names)


def traced_function(span):
    """The function the tracer wraps under ``span``, or ``None``.

    A span is ``layer.name`` for a function that the layer lists in
    ``__all__`` (for ``cli``, any public function of its own), or
    ``layer.Class.method`` for a public method, ``__init__`` or
    ``__call__`` of a class that the layer lists.
    """
    layer, *path = span.split(".")
    module = importlib.import_module(f"{PACKAGE}.{layer}")
    listed = getattr(module, "__all__", None) or [
        n for n, v in vars(module).items()
        if inspect.isfunction(v) and v.__module__ == module.__name__
        and not n.startswith("_")]
    obj = getattr(module, path[0], None) if path[0] in listed else None
    if len(path) == 1:
        return obj if inspect.isfunction(obj) else None
    if (len(path) == 2 and inspect.isclass(obj)
            and not issubclass(obj, BaseException)
            and (not path[1].startswith("_")
                 or path[1] in ("__init__", "__call__"))):
        method = vars(obj).get(path[1])
        return method if inspect.isfunction(method) else None
    return None


def _span_param(name):
    return pytest.param(name, marks=pytest.mark.xfail(
        name in STALE, strict=True,
        reason="ROADMAP item 12: bench/spans.py still names a function the "
               "package no longer has"))


SPANS = _read_spans()


def test_the_tracer_source_was_read():
    assert set(CONSTANTS["LAYERS"]) >= {"derivator", "quadrature", "solver"}
    # the four driver evaluations and seven more hooks
    assert len(HOOKS) == 11
    assert len(_bound_arguments()) == 11
    assert STALE <= set(SPANS)


@pytest.mark.parametrize("span", [_span_param(name) for name in SPANS])
def test_span_name_resolves(span):
    assert traced_function(span) is not None


@pytest.mark.parametrize("span, pos, name", _bound_arguments(),
                         ids=lambda v: str(v))
def test_bound_argument_exists(span, pos, name):
    params = list(inspect.signature(traced_function(span)).parameters)
    assert name in params
    if pos is not None:
        assert params[pos] == name
