"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py ROOT --setup-only
    python3 bench/worker.py ROOT REQUESTS.json RESULT.json [--trace SPANS.jsonl]

The worker imports flowcheck from ROOT/src and stamps the moment it could
send its first request (the clock is CLOCK_MONOTONIC, shared with the
parent). It then sends the requests one after another, times each to its
verdict, checks the verdict against the known answer the request carries,
and writes a JSON result. Before each request it times one chunk of the
speed gauge (see speed.py), and each latency is also given scaled to the
reference speed. With --trace the flowcheck modules are wrapped first (see
tracer.py) and the spans go to SPANS.jsonl.
"""

import sys
import time
from pathlib import Path

ROOT = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(ROOT / "src"))
import flowcheck.cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from typing import Any  # noqa: E402

from flowcheck import oracle, registry  # noqa: E402

from speed import chunk_seconds, factor  # noqa: E402
from workloads import REG_EVENTS, REG_KEYS, REG_VALUES  # noqa: E402


def _status_pool(h: tuple, snapshots: list | None = None) -> list:
    # every valid status over the key/value grid: the open tag is forced by
    # whether the newest matching event predates the snapshot
    snaps = [h[i:] for i in range(len(h) + 1)] if snapshots is None else snapshots
    pool = []
    for snap in snaps:
        for k in REG_KEYS:
            for v in REG_VALUES:
                tag = registry.OBL if _latest(h, k, v) < len(snap) else registry.FUL
                pool.append(registry.Status(tag, snap, k, v))
                pool.append(registry.Status(registry.SLT, snap, k, v))
    return pool


def _latest(h: tuple, key: Any, value: Any) -> int:
    # timestamp of the newest (key, value) event counted from the oldest end;
    # 0 is the tombstone baseline, -1 no match (restated here, not imported,
    # so the sweep's status pool does not come from the code under test)
    for i, event in enumerate(h):
        if event == (key, value):
            return len(h) - i
    return 0 if value is None else -1


def sweep(history: list) -> tuple[int, int]:
    """Compose every status pair and count the results that are not valid."""
    h = tuple(tuple(e) for e in history)
    state = registry.RegistryState.of
    pool = _status_pool(h)
    pairs = invalid = 0
    for s1 in pool:
        a = state(h, {"A": s1})
        for s2 in pool:
            c = registry.star(a, state(h, {"B": s2}))
            pairs += 1
            invalid += not (isinstance(c, registry.RegistryState) and c.is_valid())
    for ext in [h] + [(e,) + h for e in REG_EVENTS]:
        pool2 = _status_pool(ext, snapshots=[ext])
        for s1 in pool:
            a = state(h, {"A": s1})
            for s2 in pool2:
                c = registry.ghost_mult(a, state(ext, {"B": s2}))
                pairs += 1
                invalid += c is None or not c.is_valid()
    return pairs, invalid


def execute(req: dict) -> Any:
    """Send one request; returns what its verdict is checked on."""
    kind = req["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = flowcheck.cli.main(req["argv"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    if kind == "theorem":
        bounds = oracle.EnumBounds(**req["bounds"]) if req["bounds"] else None
        return oracle.check_theorem(req["name"], bounds=bounds, **req["kwargs"])
    if kind == "sweep":
        return sweep(req["history"])
    raise ValueError(f"unknown request kind {kind!r}")


def problem(req: dict, answer: Any) -> str | None:
    """Why the answer differs from the known one; None when it matches."""
    expect = req["expect"]
    kind = req["kind"]
    if kind == "theorem":
        if answer.ok != expect["ok"]:
            return f"ok={answer.ok}"
        if expect["checked"] is not None and answer.checked != expect["checked"]:
            return f"checked {answer.checked}, want {expect['checked']}"
        return None
    if kind == "sweep":
        pairs, invalid = answer
        if invalid or pairs != expect["pairs"]:
            return f"{invalid} invalid of {pairs} pairs, want 0 of {expect['pairs']}"
        return None
    code, out, err = answer
    if code != expect["exit"]:
        return f"exit {code}, want {expect['exit']}: {err.strip()[-200:]}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "report is not JSON"
    if report.get("verdict") != expect["verdict"]:
        return f"verdict {report.get('verdict')}, want {expect['verdict']}"
    if "details" in expect and report["details"] != expect["details"]:
        return "insets differ"
    for field in ("cases", "mismatches", "checked"):
        if field in expect and report["details"][0].get(field) != expect[field]:
            return f"{field} {report['details'][0].get(field)}, want {expect[field]}"
    return None


def outcome(req: dict, answer: Any) -> tuple[str, str | None]:
    """ok, defect (the documented wrong answer of a known defect) or wrong."""
    why = problem(req, answer)
    if why is None:
        return "ok", None
    defect = req.get("defect")
    if defect and req["kind"] == "cli":
        code, out, _ = answer
        try:
            verdict = json.loads(out).get("verdict")
        except json.JSONDecodeError:
            verdict = None
        if code == defect["exit"] and verdict == defect["verdict"]:
            return "defect", defect["note"]
    return "wrong", why


def main() -> int:
    if sys.argv[2] == "--setup-only":
        print(repr(READY))
        return 0
    requests = json.loads(Path(sys.argv[2]).read_text())
    result_path = Path(sys.argv[3])
    tracer = None
    if len(sys.argv) > 5 and sys.argv[4] == "--trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, chunks, outcomes, problems = [], [], [], []
    clock = time.perf_counter
    for req in requests:
        chunks.append(chunk_seconds())
        if tracer is not None:
            tracer.begin_request(req["id"])
        t0 = clock()
        try:
            answer = execute(req)
        except Exception as exc:  # a raised request is a wrong answer, not a crash
            answer, raised = None, f"{type(exc).__name__}: {exc}"
        else:
            raised = None
        latencies.append((clock() - t0) * 1000.0)
        status, why = ("wrong", raised) if raised else outcome(req, answer)
        outcomes.append(status)
        if why is not None:
            problems.append({"id": req["id"], "status": status, "why": why})
    chunks.append(chunk_seconds())
    result = {
        "ready": READY,
        # each request is scaled by the gauge chunks timed on either side of it
        "latencies_ms": [ms * factor(chunks[max(0, i - 5) : i + 7]) for i, ms in enumerate(latencies)],
        "raw_latencies_ms": latencies,
        "chunks_s": chunks,
        "outcomes": outcomes,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.write_spans(sys.argv[5])
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
