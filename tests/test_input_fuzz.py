"""Mutation fuzz over the bundled examples: every mutated input gets a verdict.

Each case takes one bundled example, applies one or two structural mutations
(drop a key or entry, change a value's type, duplicate a list entry, put in an
off-grid or negative int, nest a value in a list), and runs the command line
on it in process. Every example also gets an int literal too long for Python
to read. The run must end in exit 0, 1, 2 or 3, never in exit 4 or an
escaping exception; exit 1 must come with a counterexample; and a second run
must print the same bytes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from importlib.resources import files
from pathlib import Path
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcheck.cli import main

EXAMPLES = files("flowcheck") / "examples"
NAMES = sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".json"))
SOURCES = {name: json.loads((EXAMPLES / name).read_text()) for name in NAMES}

MUTATIONS = ("drop", "retype", "duplicate", "int", "nest")
RETYPED = (None, True, False, "x", "-inf", "inf", "del", "dup", 2.5, [], [1], {}, {"a": 1}, 0)
OFF_GRID_INTS = (-7, -1, 2, 5, 13, 1000)


def _paths(doc: Any, prefix: tuple = ()) -> list[tuple]:
    """Every position below the root: dict keys and list indices."""
    out: list[tuple] = []
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


def _mutate(doc: Any, path: tuple, kind: str, data: st.DataObject) -> None:
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    value = parent[last]
    if kind == "drop":
        del parent[last]
    elif kind == "retype":
        parent[last] = data.draw(st.sampled_from(RETYPED))
    elif kind == "duplicate" and isinstance(value, list) and value:
        value.append(copy.deepcopy(data.draw(st.sampled_from(value))))
    elif kind == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(value))
    elif kind == "int":
        parent[last] = data.draw(st.sampled_from(OFF_GRID_INTS))
    else:
        parent[last] = [value]


def _subcommand(name: str) -> str:
    return "flow" if name == "fig2.json" else "check"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_examples_get_a_verdict(data: st.DataObject) -> None:
    name = data.draw(st.sampled_from(NAMES))
    doc = copy.deepcopy(SOURCES[name])
    for _ in range(data.draw(st.integers(1, 2))):
        paths = _paths(doc)
        if not paths:
            break
        where, kind = data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(MUTATIONS))
        _mutate(doc, where, kind, data)
    sub = _subcommand(name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        code, out, err = _run([sub, str(path), "--json"])
        assert code in (0, 1, 2, 3), err
        if code == 1:
            assert "counterexample" in json.loads(out)
        if out:
            # the report's bytes are json's indent=2, sort_keys=True form
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert _run([sub, str(path), "--json"]) == (code, out, err)


@pytest.mark.parametrize("name", NAMES)
def test_overlong_int_literal_is_an_input_error(name: str, tmp_path: Path) -> None:
    # json.loads refuses ints over 4300 digits with a plain ValueError
    doc = copy.deepcopy(SOURCES[name])
    *parents, last = _paths(doc)[-1]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = "HUGE"
    path = tmp_path / name
    path.write_text(json.dumps(doc).replace('"HUGE"', "9" * 5000))
    code, out, err = _run([_subcommand(name), str(path), "--json"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed JSON in {path}: Exceeds the limit (4300 digits)")
