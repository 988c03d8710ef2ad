"""The names bench/tracer.py wraps by name must still resolve in flowcheck.

The tracer finds public functions by walking the modules, but it names some
targets outright: the repeat-counted functions, the private function it
traces, the function it skips, the class methods it patches and the
functions whose results feed its counters. A deletion
or a rename in flowcheck would otherwise break `bench/run.py --trace 1` with
no failing test. The tracer is read as source, not imported or changed.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_constants() -> dict:
    # the module-level literal assignments of the tracer, evaluated as literals
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            try:
                out[name] = ast.literal_eval(node.value)
            except ValueError:
                continue
    return out


def resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"flowcheck.{module}"), attr)


def test_tracer_module_names_import() -> None:
    for module in tracer_constants()["MODULES"]:
        importlib.import_module(f"flowcheck.{module}")


def test_repeat_counted_functions_resolve() -> None:
    # estimator.ctx_estimate is one; install also looks it up by this name
    # to count the solves made under it
    repeats = tracer_constants()["REPEATS"]
    assert "estimator.ctx_estimate" in repeats
    for name in repeats:
        module, attr = name.split(".")
        assert inspect.isfunction(resolve(module, attr)), name


def test_private_and_skipped_functions_resolve() -> None:
    consts = tracer_constants()
    for module, attr in [*consts["PRIVATE"], *consts["SKIPPED"]]:
        assert inspect.isfunction(resolve(module, attr)), (module, attr)


def test_patched_methods_resolve() -> None:
    for (module, cls_name), methods in tracer_constants()["METHODS"].items():
        cls = resolve(module, cls_name)
        for attr in methods:
            assert inspect.isfunction(getattr(cls, attr)), (cls_name, attr)


def named_functions(tree: ast.AST) -> set[str]:
    # the dotted strings in dict keys, call arguments and comparisons: where
    # the tracer picks a wrapped function by name, among some metric names
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            cands = node.keys
        elif isinstance(node, ast.Call):
            cands = node.args
        elif isinstance(node, ast.Compare):
            cands = node.comparators
        else:
            continue
        for c in cands:
            if isinstance(c, ast.Constant) and isinstance(c.value, str) and "." in c.value:
                found.add(c.value)
    return found


def test_names_that_pick_counters_resolve() -> None:
    # "oracle.check_theorem" picks a post-call counter, for one; a patched
    # method goes by its short traced name, and a metric name such as
    # "estimator.ctx_estimate.calls" names no function
    consts = tracer_constants()
    names = named_functions(ast.parse(TRACER.read_text()))
    assert {"estimator.ctx_estimate", "oracle.check_theorem"} <= names
    shorts = {f"{m}.{short}" for (m, _), s in consts["METHODS"].items() for short in s.values()}
    for name in names - shorts:
        module, _, attr = name.partition(".")
        if module in consts["MODULES"] and attr.isidentifier():
            assert inspect.isfunction(resolve(module, attr)), name
