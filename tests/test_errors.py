"""The error policy: one class per exit code, and nothing else raised."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from flowcheck import errors, flowgraph
from flowcheck.cli import main
from flowcheck.registry import RegistryState

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


@pytest.mark.parametrize(
    "event",
    [("k",), ("k", "v", "x"), ["k", [1]], 5, "ab", b"ab", {"k": 1, "v": 2}, frozenset({"k", "v"})],
)
def test_a_history_event_that_is_not_a_hashable_pair_is_an_input_error(event) -> None:
    # an input error exits 2; before, these built a history, or raised
    # TypeError, or ValueError when the history was read; a two-char str
    # or bytes, a two-key dict and a two-member set (in hash order) passed
    # as the pair of their items
    with pytest.raises(errors.InputError, match="bad history event") as caught:
        RegistryState.of([event])
    assert repr(tuple(event) if isinstance(event, list) else event) in str(caught.value)


@pytest.mark.parametrize("name", ["NaN", "Infinity", "-Infinity"])
def test_nan_and_the_infinities_are_input_errors(name, tmp_path, capsys) -> None:
    # Python's json reads these three; a NaN upsert key failed a casl check
    # that holds, and --json printed the bare token back
    step = {"command": {"upsert": ["NAME", 1]}, "checks": ["casl", "inv"]}
    scenario = {"algebra": "registry", "init": {"history": []}, "steps": [step]}
    graph = {"endpoints": [1, "NAME"], "nodes": [{"id": 0, "edges": []}]}
    for kind, raw in (("check", scenario), ("flow", graph)):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(raw).replace('"NAME"', name))
        with pytest.raises(errors.InputError, match=f"^{name} is not a JSON value"):
            flowgraph.load_json(path)
        assert main([kind, "--json", str(path)]) == 2
        assert capsys.readouterr().out == ""
