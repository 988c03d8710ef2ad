"""flowcheck benchmark: time to verdict on four workloads, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; flowcheck is imported from ./src. A run
measures for S seconds. It repeats rounds until the time is up; a round is
the workload's full request list (see workloads.py), generated from the seed
and the round number, sent one request after another by a single client in
a fresh interpreter, so no in-process cache carries over from an earlier
round. Every time is scaled to a reference machine speed by a gauge timed
next to it (see speed.py); the unscaled figures go to the run record.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:
  setup_s          launch of a fresh interpreter until flowcheck and its CLI
                   are imported and the first request could be sent (median
                   of several launches; input generation is excluded)
  wall_s           time to every verdict of one round, the sum of its
                   requests' times to verdict (median of rounds)
  verdict_ms.p50   median time to verdict per request (all rounds pooled)
  verdict_ms.p90   90th percentile of the same samples
  peak_rss_mb      peak resident memory of a round's interpreter (median)
  verdict_ok_frac  share of requests whose verdict matches the known answer

With --trace 1 each round runs twice on the same inputs, untraced and then
traced (see tracer.py); the metrics are the per-layer ones plus
trace.overhead_ratio, the traced over the untraced round time. Counts
(`.calls` and the ratios) come from the first traced round and repeat
exactly for a seed; times are medians over the traced rounds.

`failed` counts requests whose answer differs from the known one. A request
may name a known defect of the checker and the wrong answer it gives today;
it still counts as failed, but `correct` turns false only on a wrong answer
that is not documented that way. Details of every run (environment, sample
counts, failures) go to .bench_out/<workload>/, and the spans of the last
traced run's first round to .bench_out/<workload>/spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import chunk_seconds, factor
from workloads import WORKLOADS, build_round

BENCH = Path(__file__).resolve().parent
SETUP_LAUNCHES = 7
HARD_LIMIT_S = 170.0

PER_LAYER = (
    "keyspace.self_s",
    "keyspace.interval_bits.calls",
    "keyspace.interval_bits.self_s",
    "keyspace.oplus.calls",
    "keyspace.oplus.self_s",
    "keyspace.meet_interval.calls",
    "flowgraph.self_s",
    "flowgraph.compute_flow.calls",
    "flowgraph.compute_flow.self_s",
    "flowgraph.compute_flow.repeat_ratio",
    "flowgraph.make_graph.calls",
    "flowgraph.make_graph.self_s",
    "flowgraph.restrict.calls",
    "flowgraph.star.calls",
    "flowgraph.graph_from_json.total_s",
    "estimator.self_s",
    "estimator.ctx_estimate.calls",
    "estimator.ctx_estimate.total_s",
    "estimator.ctx_estimate.repeat_ratio",
    "estimator.ctx_estimate.solves_per_call",
    "estimator.materialize.members",
    "bst.self_s",
    "bst.run_op.calls",
    "bst.derive_flowgraph.calls",
    "bst.derive_flowgraph.total_s",
    "bst.check_inv.total_s",
    "casl.self_s",
    "casl.run_scenario.total_s",
    "casl.contextualize.calls",
    "casl.contextualize.total_s",
    "casl.check_casl.total_s",
    "casl.sem.calls",
    "registry.self_s",
    "registry.star.calls",
    "registry.ghost_mult.calls",
    "registry.is_valid.calls",
    "registry.closure_contains.calls",
    "oracle.self_s",
    "oracle.naive_flow.calls",
    "oracle.naive_flow.self_s",
    "oracle.instances",
    "cli.self_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_call")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, args: argparse.Namespace) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "FLOWCHECK_THREADS": os.environ.get("FLOWCHECK_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Launches fresh worker interpreters inside the checkout."""

    def __init__(self, root: Path, seed: int, started: float) -> None:
        self.root = root
        self.started = started
        self.env = dict(os.environ)
        # string hashing, and so set order, follows the seed: reruns repeat
        self.env["PYTHONHASHSEED"] = str(seed % 4294967296)

    def _launch(self, extra: list[str]) -> tuple[float, list[float], str]:
        """Run a worker; returns its launch time, gauge chunks timed just before, and stdout."""
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("out of time")
        cmd = [sys.executable, str(BENCH / "worker.py"), str(self.root)] + extra
        chunks = [chunk_seconds() for _ in range(3)]
        launched = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {' '.join(extra)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return launched, chunks, proc.stdout

    def setup_only(self) -> tuple[float, float]:
        """Scaled and raw seconds from launch until flowcheck.cli is imported."""
        launched, chunks, stdout = self._launch(["--setup-only"])
        raw = float(stdout.strip()) - launched
        chunks += [chunk_seconds() for _ in range(3)]
        return raw * factor(chunks), raw

    def round(self, requests: Path, result: Path, spans: Path | None) -> tuple[tuple[float, float], dict]:
        extra = [str(requests), str(result)]
        if spans is not None:
            extra += ["--trace", str(spans)]
        launched, chunks, _ = self._launch(extra)
        data = json.loads(result.read_text())
        raw = data["ready"] - launched
        return (raw * factor(chunks + data["chunks_s"][:3]), raw), data


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run(args: argparse.Namespace, root: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    out_dir = root / ".bench_out" / args.workload
    work = root / ".bench_out" / f"work-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, args.seed, started)
    try:
        runner.setup_only()  # writes bytecode caches; not a sample
        setups = [runner.setup_only() for _ in range(SETUP_LAUNCHES)]
        deadline = time.perf_counter() + args.seconds
        plain: list[dict] = []
        traced: list[dict] = []
        while not plain or time.perf_counter() < deadline:
            rdir = work / f"round-{len(plain)}"
            req_path = rdir / "requests.json"
            requests = build_round(args.workload, args.seed, len(plain), rdir)
            req_path.write_text(json.dumps(requests))
            setup, data = runner.round(req_path, rdir / "plain.json", None)
            setups.append(setup)
            plain.append(data)
            if args.trace:
                # the first traced round's spans are kept; the rest go with the work dir
                spans = out_dir / "spans.jsonl" if not traced else rdir / "spans.jsonl"
                traced.append(runner.round(req_path, rdir / "traced.json", spans)[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [sum(d["latencies_ms"]) / 1000.0 for d in plain]
    latencies = [ms for d in plain for ms in d["latencies_ms"]]
    raw_latencies = [ms for d in plain for ms in d["raw_latencies_ms"]]
    outcomes = [o for d in plain + traced for o in d["outcomes"]]
    p90 = percentile(latencies, 90)
    summary = {
        "rounds": len(plain),
        "round_wall_s": walls,
        "setup_samples_s": [scaled for scaled, _ in setups],
        "unscaled": {
            "setup_s": statistics.median(raw for _, raw in setups),
            "wall_s": statistics.median(sum(d["raw_latencies_ms"]) / 1000.0 for d in plain),
            "verdict_ms.p50": statistics.median(raw_latencies),
            "verdict_ms.p90": percentile(raw_latencies, 90),
        },
        "requests_per_round": len(plain[0]["outcomes"]),
        "verdict_samples": len(latencies),
        "samples_beyond_p90": sum(ms > p90 for ms in latencies),
        "defects": sum(o == "defect" for o in outcomes),
        "wrong": sum(o == "wrong" for o in outcomes),
        "error_frac": sum(o != "ok" for o in outcomes) / len(outcomes),
        "problems": [p for d in plain + traced for p in d["problems"]][:50],
    }
    result = {
        "correct": summary["wrong"] == 0,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
    }
    if not args.trace:
        values = {
            "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "verdict_ms.p50": (statistics.median(latencies), "ms"),
            "verdict_ms.p90": (p90, "ms"),
            "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in plain), "MB"),
            "verdict_ok_frac": (1.0 - summary["error_frac"], "frac"),
        }
    else:
        first = traced[0]["trace"]
        values = {}
        for name in PER_LAYER:
            if name.endswith("_s"):
                value = statistics.median(
                    d["trace"].get(name, 0.0) * factor(d["chunks_s"]) for d in traced
                )
            else:
                value = first.get(name, 0)
            values[name] = (value, unit_of(name))
        ratio = statistics.median(
            sum(t["latencies_ms"]) / sum(p["latencies_ms"]) for t, p in zip(traced, plain)
        )
        values["trace.overhead_ratio"] = (ratio, "ratio")
        summary["spans_per_round"] = [d["trace"]["trace.spans"] for d in traced]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return result, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "flowcheck" / "cli.py").is_file():
        print(f"error: no flowcheck sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        result, summary = run(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"environment": environment(root, args), "summary": summary, "result": result}
    out = root / ".bench_out" / args.workload / f"run-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"]}))
    print(
        f"{args.workload}: {summary['rounds']} rounds of {summary['requests_per_round']} "
        f"requests; p90 over {summary['verdict_samples']} samples, "
        f"{summary['samples_beyond_p90']} beyond it; error_frac {summary['error_frac']:.4f} "
        f"({summary['defects']} known-defect, {summary['wrong']} wrong)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
