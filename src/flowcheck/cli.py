"""Command-line front end: load graphs and scenarios, run checks, fuzz, report."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable

from .casl import run_scenario
from .errors import (
    DEFAULT_EXPANSION_CAP,
    InconclusiveError,
    InputError,
    InternalInvariantError,
    expansion_cap,
)
from .flowgraph import compute_flow, graph_from_json, graph_to_dot, load_json
from .frozen import Frozen
from .keyspace import format_value, value_to_json
from .oracle import FUZZ_NODES, THEOREMS, EnumBounds, check_theorem, fuzz_flows, universe_for

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
# a bug in flowcheck, not a verdict: exit 1 keeps the single meaning "violation found"
EXIT_INTERNAL = 4

_VERDICT_EXITS = {
    "pass": EXIT_PASS,
    "fail": EXIT_FAIL,
    "inconclusive": EXIT_INCONCLUSIVE,
}


# ---------------------------------------------------------------- report


class Report(Frozen):
    """Machine-readable outcome of one subcommand run."""

    command: str
    verdict: str
    details: tuple[Any, ...]
    counterexample: Any

    def __new__(cls, command: str, verdict: str, details: tuple[Any, ...] = (),
                counterexample: Any = None) -> "Report":
        if verdict not in _VERDICT_EXITS:
            raise InternalInvariantError(f"bad verdict {verdict!r}")
        if (counterexample is not None) != (verdict == "fail"):
            raise InternalInvariantError("counterexample present iff verdict is fail")
        return cls._make(command, verdict, details, counterexample)

    @property
    def exit_code(self) -> int:
        return _VERDICT_EXITS[self.verdict]

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "command": self.command,
            "verdict": self.verdict,
            "details": list(self.details),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj: Any, indent: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for obj written at indent.

    Under indent, json always takes its pure-Python encoder. Plain dicts with
    str keys, lists, tuples, str, int, bool and None are written here instead;
    anything else goes to json, so its bytes and errors are json's."""
    chunks: list[str] = []
    _write(obj, indent, chunks.append)
    return "".join(chunks)


def _write(obj: Any, indent: str, out: Callable[[str], None]) -> None:
    t = type(obj)
    if t is str:
        out(_encode_str(obj))
    elif t is int:
        out(int.__repr__(obj))
    elif obj is None or t is bool:
        out("null" if obj is None else "true" if obj else "false")
    elif t is dict and all(type(k) is str for k in obj):
        inner = indent + "  "
        head = "{\n" + inner
        for k, v in sorted(obj.items()):
            out(f"{head}{_encode_str(k)}: ")
            _write(v, inner, out)
            head = ",\n" + inner
        out(f"\n{indent}}}" if obj else "{}")
    elif t is list or t is tuple:
        inner = indent + "  "
        head = "[\n" + inner
        for v in obj:
            out(head)
            _write(v, inner, out)
            head = ",\n" + inner
        out(f"\n{indent}]" if obj else "[]")
    else:
        out(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent))


def _emit(report: Report, lines: list[str] | None) -> int:
    """Print the --json report when lines is None, else the lines and the verdict."""
    if lines is None:
        print(_dumps(report.to_json(), ""))
    else:
        for line in lines:
            print(line)
        print(f"verdict: {report.verdict}")
    return report.exit_code


# ---------------------------------------------------------------- subcommands


def _cmd_flow(args: argparse.Namespace) -> int:
    g = graph_from_json(load_json(args.graph))
    flow = compute_flow(g)
    if args.dot:
        try:
            Path(args.dot).write_text(graph_to_dot(g, flow))
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc.strerror or exc}") from exc
    u = g.universe
    if args.json:
        details = tuple({"node": x, "inset": value_to_json(u, flow[x])} for x in sorted(flow))
        return _emit(Report("flow", "pass", details), None)
    lines = [f"IS({x}) = {format_value(u, flow[x])}" for x in sorted(flow)]
    return _emit(Report("flow", "pass"), lines)


def _cmd_check(args: argparse.Namespace) -> int:
    with expansion_cap(args.closure_cap):
        sr = run_scenario(args.scenario, seed=args.seed)
    if args.json:
        details = tuple(s.to_json() for s in sr.steps)
        return _emit(Report("check", sr.verdict, details, sr.counterexample), None)
    lines = []
    for s in sr.steps:
        mark = "ok" if s.ok else "FAIL" if sr.verdict == "fail" else "inconclusive"
        note = f"  {s.note}" if s.note else ""
        lines.append(f"[{mark}] step {s.index} {s.label}{note}")
        for c in s.checks:
            if not c.ok:
                lines.append(f"       {c.name}: {c.detail}")
    return _emit(Report("check", sr.verdict, (), sr.counterexample), lines)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    mismatches, witness = fuzz_flows(universe_for(EnumBounds()), args.cases, args.seed, args.nodes)
    details = (
        {"cases": args.cases, "maxNodes": args.nodes, "seed": args.seed, "mismatches": mismatches},
    )
    verdict = "pass" if witness is None else "fail"
    report = Report("fuzz", verdict, details, witness)
    lines = [f"fuzz: {args.cases} cases, {mismatches} mismatches"]
    return _emit(report, None if args.json else lines)


def _cmd_oracle(args: argparse.Namespace) -> int:
    _, bounds, cases = THEOREMS[args.theorem]
    for flag, read in (("nodes", bounds), ("cases", cases), ("seed", cases)):
        if read is None and getattr(args, flag) is not None:
            raise InputError(f"{args.theorem} does not read --{flag}")
    if args.nodes is not None:
        bounds = EnumBounds(
            args.nodes, bounds.max_endpoints, bounds.max_edge_fns, bounds.max_inflow_values
        )
    seed = 0 if args.seed is None else args.seed
    tr = check_theorem(args.theorem, bounds=bounds, cases=args.cases, seed=seed)
    verdict = "pass" if tr.ok else "fail"
    report = Report("oracle", verdict, (tr.to_json(),), tr.counterexample)
    lines = [f"{tr.name}: {'ok' if tr.ok else 'FAIL'}, {tr.checked} instances checked"]
    lines.extend(f"  {note}" for note in tr.notes)
    return _emit(report, None if args.json else lines)


# ---------------------------------------------------------------- entry point


def _at_least(least: int) -> Callable[[str], int]:
    # an argparse type: an int count no smaller than least, else exit 2
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: parse_args fills a fresh namespace per call
    parser = argparse.ArgumentParser(
        prog="flowcheck",
        description="Flow-graph computation and context-aware proof checking.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_flow = sub.add_parser("flow", help="compute per-node insets of a graph file")
    p_flow.add_argument("graph", help="flow graph JSON file")
    p_flow.add_argument("--dot", metavar="FILE", help="write a DOT dump of the graph")
    p_flow.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="check a proof scenario file")
    p_check.add_argument("scenario", help="scenario JSON file")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--closure-cap", type=_at_least(1), default=DEFAULT_EXPANSION_CAP)
    p_check.add_argument("--json", action="store_true")

    p_fuzz = sub.add_parser("fuzz", help="random graphs: engine vs naive fixpoint")
    p_fuzz.add_argument("--cases", type=_at_least(0), default=1000)
    p_fuzz.add_argument("--nodes", type=_at_least(1), default=FUZZ_NODES)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--json", action="store_true")

    p_oracle = sub.add_parser("oracle", help="run one named theorem check")
    p_oracle.add_argument("--theorem", required=True, choices=THEOREMS)
    p_oracle.add_argument("--nodes", type=int, default=None)
    p_oracle.add_argument("--cases", type=_at_least(0), default=None)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "flow": _cmd_flow,
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # InternalInvariantError, or any other escape
        detail = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
