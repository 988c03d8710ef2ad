"""The value classes on the Frozen base behave as the frozen dataclasses they
replaced, and importing the command line loads neither dataclasses nor inspect."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from flowcheck import bst, casl, cli, estimator, flowgraph, oracle, registry
from flowcheck.errors import InputError, InternalInvariantError
from flowcheck.frozen import Frozen
from flowcheck.keyspace import NEG_INF, TOP_TAG, AtomUniverse

SRC = Path(__file__).resolve().parent.parent / "src"


def _samples() -> dict[type, tuple[dict, tuple, tuple]]:
    # each class: its fields with their defaults, as the dataclass declared
    # them (a name without a default maps to the sentinel below), a full set
    # of field values, and the values of the fields that take no default
    u = AtomUniverse.from_endpoints([1, 5])
    graph = flowgraph.make_graph(u, [0, 1], {(0, 1): 3}, {(9, 0): TOP_TAG})
    heap = bst.Heap.of(0, {0: bst.NodeFields(key=NEG_INF, right=1), 1: bst.NodeFields(key=5)})
    h = (("k1", "a"), ("k2", None))
    state = registry.RegistryState.of(h, {"t1": registry.Status(registry.OBL, h, "k1", "b")})
    step = bst.OpStep("s0", ((1, "del", True),), (1,), "leq", 3, 5, (2, bst.NodeFields(key=3)))
    check = casl.CheckResult("casl", False, "broken", state)
    step_report = casl.StepReport(0, "s0", False, (check,), "a note")
    return {
        bst.NodeQuantities: (
            dict.fromkeys(("inset", "out_left", "out_right", "keyset", "contents"), REQUIRED),
            (3, 1, 0, 2, frozenset({4})),
            (3, 1, 0, 2, frozenset({4})),
        ),
        bst.InvReport: (
            dict.fromkeys(("ok", "violations", "contents"), REQUIRED),
            (False, ((1, "duplicate-mark"),), frozenset({2})),
            (False, ((1, "duplicate-mark"),), frozenset({2})),
        ),
        bst.Op: ({"name": REQUIRED, "key": None, "node": None}, ("insert", 5, 2), ("insert",)),
        bst.OpStep: (
            {
                "label": REQUIRED,
                "writes": REQUIRED,
                "footprint": REQUIRED,
                "estimator": "eq",
                "pivot": None,
                "release_hi": None,
                "alloc": None,
            },
            tuple(getattr(step, f) for f in bst.OpStep._fields),
            ("s0", ((1, "del", True),), (1,)),
        ),
        bst.OpResult: (
            {"heap": REQUIRED, "result": REQUIRED, "trace": (), "heaps": ()},
            (heap, True, (step,), (heap,)),
            (heap, False),
        ),
        casl.Predicate: (
            {"is_top": REQUIRED, "state_set": frozenset()},
            (False, frozenset({state})),
            (True,),
        ),
        casl.ClosurePredicate: (
            {"families": REQUIRED},
            ((registry.RegistryClosure(state),),),
            ((),),
        ),
        casl.Command: (
            {"name": REQUIRED, "std": REQUIRED, "core": None, "event": None},
            ("upsert", len, abs, ("k1", "a")),
            ("skip", len),
        ),
        casl.CheckResult: (
            {"name": REQUIRED, "ok": REQUIRED, "detail": "", "witness": None},
            ("casl", False, "broken", state),
            ("casl", True),
        ),
        casl.StepReport: (
            {"index": REQUIRED, "label": REQUIRED, "ok": REQUIRED, "checks": (), "note": ""},
            (0, "s0", False, (check,), "a note"),
            (1, "s1", True),
        ),
        casl.ScenarioReport: (
            {"verdict": REQUIRED, "steps": REQUIRED, "counterexample": None},
            ("fail", (step_report,), {"step": 0}),
            ("pass", ()),
        ),
        cli.Report: (
            {"command": REQUIRED, "verdict": REQUIRED, "details": (), "counterexample": None},
            ("check", "fail", ({"step": 0},), {"step": 0}),
            ("flow", "pass"),
        ),
        estimator.Estimator: (
            {"kind": REQUIRED, "pivot": None, "release_bits": 0},
            ("complex", 5, 3),
            ("eq",),
        ),
        estimator.AxiomReport: (
            {"ok": REQUIRED, "axiom": None, "witness": None},
            (False, "reflexivity", (1, 2)),
            (True,),
        ),
        estimator.CtxEstimateReport: (
            {"verdict": REQUIRED, "witness": None, "at": None, "combinations": 0},
            ("fails", (((0, 1), 3),), 1, 4),
            ("holds",),
        ),
        estimator.ClosureFamily: (
            dict.fromkeys(("base", "sources", "est"), REQUIRED),
            (graph, frozenset({9}), estimator.Estimator.leq()),
            (graph, frozenset({9}), estimator.Estimator.leq()),
        ),
        flowgraph.StarFailure: ({"reason": REQUIRED, "at": None}, ("overlap", 3), ("overlap",)),
        oracle.EnumBounds: (
            {"max_nodes": 3, "max_endpoints": 2, "max_edge_fns": 3, "max_inflow_values": 4},
            (2, 1, 4, 5),
            (),
        ),
        oracle.TheoremReport: (
            {
                "name": REQUIRED,
                "ok": REQUIRED,
                "checked": REQUIRED,
                "counterexample": None,
                "notes": (),
            },
            ("UniqueDecomp", False, 10, {"graph": 1}, ("a note",)),
            ("UniqueDecomp", True, 10),
        ),
        registry.RegistryClosure: ({"base": REQUIRED}, (state,), (registry.RegistryState.of(()),)),
    }


REQUIRED = object()
CLASSES = [
    "bst.NodeQuantities",
    "bst.InvReport",
    "bst.Op",
    "bst.OpStep",
    "bst.OpResult",
    "casl.Predicate",
    "casl.ClosurePredicate",
    "casl.Command",
    "casl.CheckResult",
    "casl.StepReport",
    "casl.ScenarioReport",
    "cli.Report",
    "estimator.Estimator",
    "estimator.AxiomReport",
    "estimator.CtxEstimateReport",
    "estimator.ClosureFamily",
    "flowgraph.StarFailure",
    "oracle.EnumBounds",
    "oracle.TheoremReport",
    "registry.RegistryClosure",
]


def _twin(cls: type, fields: dict) -> type:
    """A frozen dataclass of cls's fields and defaults, keeping the repr the
    class writes itself, as @dataclass(frozen=True) kept it."""
    spec = [
        (n, object) if d is REQUIRED else (n, object, dataclasses.field(default=d))
        for n, d in fields.items()
    ]
    own = {"__repr__": cls.__dict__["__repr__"]} if "__repr__" in cls.__dict__ else None
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=own)


def _hash_or_error(value: object) -> object:
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


def test_every_value_class_is_covered():
    mods = (bst, casl, cli, estimator, flowgraph, oracle, registry)
    found = {
        f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
        for mod in mods
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and "_make" in vars(obj)
    }
    # the state classes, whose own constructors set their fields, are tested
    # in test_registry.py and test_bst.py
    states = {
        "bst.Heap",
        "bst.NodeFields",
        "flowgraph.FlowGraph",
        "registry.History",
        "registry.RegistryState",
        "registry.Status",
    }
    assert found - states == set(CLASSES)


@pytest.mark.parametrize("name", CLASSES)
def test_values_behave_as_the_frozen_dataclass_of_their_fields(name):
    mod, cls_name = name.split(".")
    cls = getattr(globals()[mod], cls_name)
    fields, values, required = _samples()[cls]
    twin = _twin(cls, fields)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin)) == tuple(fields)

    # positional, keyword and default construction
    value, plain = cls(*values), twin(*values)
    assert cls(**dict(zip(fields, values))) == value
    least, least_twin = cls(*required), twin(*required)
    assert repr(least) == repr(least_twin)
    assert all(getattr(least, n) == getattr(least_twin, n) for n in fields)

    # repr, == and hash
    assert repr(value) == repr(plain)
    assert (value == cls(*values)) is (plain == twin(*values)) is True
    assert (value == least) is (plain == least_twin)
    assert value != plain and value != values
    assert _hash_or_error(value) == _hash_or_error(plain)
    assert _hash_or_error(least) == _hash_or_error(least_twin)

    # no assignment or deletion, of a field or of any other name
    for attr in (next(iter(fields)), "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, attr, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(value, attr)
    assert repr(value) == repr(plain)

    # copies, and pickles where the fields pickle
    copies = [copy.copy(value), copy.deepcopy(value)]
    try:
        pickle.dumps(values)
    except (pickle.PicklingError, TypeError, AttributeError):
        pass
    else:
        copies.append(pickle.loads(pickle.dumps(value)))
    for copied in copies:
        assert type(copied) is cls and copied == value and repr(copied) == repr(value)
        assert _hash_or_error(copied) == _hash_or_error(value)


def _every_value() -> list:
    # a value of each class on the Frozen base, built by its public constructor
    u = AtomUniverse.from_endpoints([1, 5])
    h = (("k1", "a"), ("k2", None))
    status = registry.Status(registry.FUL, h, "k1", "a")
    heap = bst.Heap.of(0, {0: bst.NodeFields(key=NEG_INF, right=1), 1: bst.NodeFields(5, None, 2, True, "left")})
    states = [
        u,
        flowgraph.make_graph(u, [0, 1], {(0, 1): 3}, {(9, 0): TOP_TAG}),
        heap,
        heap.nodes[1],
        registry.History.of(h),
        status,
        registry.RegistryState.of(h, {"t1": status}),
    ]
    return [cls(*values) for cls, (_, values, _) in _samples().items()] + states


def _subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in {sub} | _subclasses(sub)}


def test_make_builds_what_the_public_constructor_builds():
    values = _every_value()
    ours = {c for c in _subclasses(Frozen) if c.__module__.startswith("flowcheck.")}
    assert {type(v) for v in values} == ours
    for value in values:
        cls = type(value)
        made = cls._make(*cls._values(value))
        assert type(made) is cls and cls._values(made) == cls._values(value)
        assert _hash_or_error(made) == _hash_or_error(value)
        # an interned class's equality is identity: a cell built past the
        # interning table is another object, with no length or children
        if not cls._interned:
            assert made == value and repr(made) == repr(value)
        for attr in (cls._fields[0], "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(made, attr, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(made, attr)


TOP_WITH_STATES = "Top carries no state set"
NO_PIVOT = "complex estimator needs a pivot key"
NEGATIVE = "enumeration bounds must be non-negative"
EDGE_POOL = "edge function pool holds between 1 and 5 kinds"
NOT_IFF = "counterexample present iff verdict is fail"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: casl.Predicate(True, frozenset({1})), InputError, TOP_WITH_STATES),
        (lambda: casl.Predicate(is_top=True, state_set={1}), InputError, TOP_WITH_STATES),
        (lambda: estimator.Estimator("wide"), InputError, "bad estimator kind: 'wide'"),
        (lambda: estimator.Estimator("complex"), InputError, NO_PIVOT),
        (lambda: estimator.Estimator(kind="complex", release_bits=3), InputError, NO_PIVOT),
        (lambda: oracle.EnumBounds(-1), InputError, NEGATIVE),
        (lambda: oracle.EnumBounds(max_endpoints=-1), InputError, NEGATIVE),
        (lambda: oracle.EnumBounds(max_edge_fns=0), InputError, EDGE_POOL),
        (lambda: oracle.EnumBounds(max_edge_fns=6), InputError, EDGE_POOL),
        (
            lambda: oracle.EnumBounds(max_inflow_values=0),
            InputError,
            "inflow pool holds between 1 and 5 values",
        ),
        (lambda: oracle.EnumBounds(2, 5), InputError, "at most 4 endpoints are available"),
        (lambda: cli.Report("check", "maybe"), InternalInvariantError, "bad verdict 'maybe'"),
        (lambda: cli.Report("check", "fail"), InternalInvariantError, NOT_IFF),
        (
            lambda: cli.Report("flow", verdict="pass", counterexample={}),
            InternalInvariantError,
            NOT_IFF,
        ),
    ],
)
def test_validating_constructors_keep_their_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # every verdict runs in a fresh interpreter, which pays for each module
    # flowcheck.cli pulls in; -S keeps site-packages' own imports out of it
    code = "import sys, flowcheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-S", "-c", code]
    out = subprocess.run(argv, env=env, check=True, capture_output=True)
    assert out.stdout.decode().strip() == "[]"
