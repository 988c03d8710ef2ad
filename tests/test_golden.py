"""Golden reports: every bundled example's `--json` report and exit code, byte for byte.

The stored reports were produced by

    PYTHONPATH=src python -m flowcheck.cli check src/flowcheck/examples/NAME --json

(`flow` instead of `check` for the graph file `fig2.json`). A refactor that
keeps behaviour keeps these bytes.
"""

from __future__ import annotations

import json
from importlib.resources import files
from pathlib import Path

import pytest

from flowcheck.cli import main

EXAMPLES = files("flowcheck") / "examples"
GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


def test_every_bundled_example_has_a_golden_report() -> None:
    bundled = sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".json"))
    assert bundled == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_report_bytes_match_the_golden_copy(capsys, name: str) -> None:
    sub = "flow" if name == "fig2.json" else "check"
    code = main([sub, str(EXAMPLES / name), "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_CODES[name]
    assert out == (GOLDEN / name).read_text()
