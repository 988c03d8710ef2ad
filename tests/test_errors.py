"""The error policy: one class per exit code, and nothing else raised."""

from __future__ import annotations

import ast
from pathlib import Path

from flowcheck import errors

SRC = Path(errors.__file__).parent

# one class per exit code: input error (2), inconclusive (3), flowcheck bug (4)
LEAVES = {"InputError", "InconclusiveError", "InternalInvariantError"}

# the usage line of a bad flag, and an assignment to a frozen value
OTHERS = {"argparse.ArgumentTypeError", "FrozenInstanceError"}


def test_errors_defines_one_class_per_exit_code() -> None:
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"FlowcheckError"} | LEAVES


def test_every_raise_names_a_leaf_class() -> None:
    # a bare raise re-raises what was caught, so only raise X(...) is checked
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                name = ast.unparse(exc.func if isinstance(exc, ast.Call) else exc)
                found.add(name)
    assert found - OTHERS == LEAVES
