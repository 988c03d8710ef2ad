"""Where flow graphs, heaps and registry states are checked.

FlowGraph(...), Heap(...) and RegistryState(...), the constructors that
build on them, and copies and pickles check a state's parts; the engine's
own constructors build through _make, which Frozen compiles for each class
and which checks nothing. These tests route each _make through its class's
checked constructor while whole runs go by, and fail on any state it
rejects or changes: the bundled examples, every theorem at small bounds,
a fuzz batch and a slice of the mutation-fuzz corpus.
"""

from __future__ import annotations

import copy
import json
import pickle
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_input_fuzz
from flowcheck import oracle
from flowcheck.bst import Heap
from flowcheck.cli import main
from flowcheck.errors import InputError
from flowcheck.flowgraph import FlowGraph
from flowcheck.keyspace import TOP_TAG
from flowcheck.registry import RegistryState

from helpers import worked_tree_pre

EXAMPLES = files("flowcheck") / "examples"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def rejected(monkeypatch) -> list[str]:
    """Each class's _make through its checked constructor; each state that
    constructor rejects, or builds unlike _make, is listed here and fails
    the run it came from."""
    found: list[str] = []
    checking: list[type] = []

    def route(make):
        def checked(cls, *values):
            if checking:  # the checked constructor's own build
                return make(cls, *values)
            checking.append(cls)
            try:
                built = cls(*values)
            except InputError as exc:
                found.append(f"{cls.__name__}: {exc}: {values}")
                raise AssertionError(f"the engine built an invalid {cls.__name__}: {exc}") from exc
            finally:
                checking.pop()
            if built != make(cls, *values):
                found.append(f"{cls.__name__}: parts not in normal form: {values}")
            return built

        return classmethod(checked)

    for cls in (FlowGraph, Heap, RegistryState):
        monkeypatch.setattr(cls, "_make", route(cls._make.__func__))
    return found


def test_bundled_examples_build_only_valid_graphs(rejected, capsys) -> None:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name, want in sorted(codes.items()):
        sub = "flow" if name == "fig2.json" else "check"
        assert main([sub, str(EXAMPLES / name), "--json"]) == want, name
        assert capsys.readouterr().out == (GOLDEN / name).read_text(), name
    assert rejected == []


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("UniqueDecomp", {"bounds": oracle.EnumBounds(2, 1, 3, 4)}),
        ("MultCoincides", {}),
        ("ShapeIndependent", {"cases": 20}),
        ("Contextualization", {"cases": 10}),
        ("ConservativeExt", {"bounds": oracle.EnumBounds(2, 1, 2, 3)}),
        ("KeysetDisjoint", {"cases": 20}),
        ("FlowEquivalence", {"bounds": oracle.EnumBounds(2, 1, 2, 2), "cases": 200}),
    ],
)
def test_theorems_build_only_valid_graphs(rejected, name, kwargs) -> None:
    report = oracle.check_theorem(name, **kwargs)
    assert report.ok and report.checked > 0
    assert rejected == []


def test_fuzz_builds_only_valid_graphs(rejected, capsys) -> None:
    # random_graph builds through _make: every graph must be in normal form
    assert main(["fuzz", "--cases", "200", "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert rejected == []


def test_mutated_examples_build_only_valid_graphs(rejected) -> None:
    # the fuzz test's own body and strategy, over fewer examples
    body = test_input_fuzz.test_mutated_examples_get_a_verdict.hypothesis.inner_test
    run = settings(
        derandomize=True,
        max_examples=40,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )(given(st.data())(body))
    run()
    assert rejected == []


def test_copies_and_pickles_check_what_make_took_on_trust() -> None:
    # a copy rebuilds through FlowGraph(...); tests/test_registry.py checks
    # that copies of a valid _make-built graph are equal and hash the same
    g = worked_tree_pre()
    bad = FlowGraph._make(g.universe, g.nodes, g.edges, ((g.nodes[0], g.nodes[1], TOP_TAG),))
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        with pytest.raises(InputError, match="inflow source 0 must be external"):
            clone(bad)
