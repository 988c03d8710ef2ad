"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They run the benchmark for one round per workload, so they take a few
minutes; the repository's own test suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, build_round, conservative_ext_count, unique_decomp_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_closed_form_counts_match_the_frozen_ones() -> None:
    assert unique_decomp_count() == 35136
    assert unique_decomp_count(edge_fns=2) == 3136
    assert conservative_ext_count(edge_fns=2) == 2208


def snapshot(workload: str, seed: int, workdir: Path) -> tuple[str, dict[str, str]]:
    """A round's requests, with the work dir cut out of paths, and its input files."""
    requests = build_round(workload, seed, 1, workdir)
    assert len(requests) >= 100
    files = {f.name: f.read_text() for f in workdir.iterdir()}
    return json.dumps(requests).replace(str(workdir), ""), files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload: str, tmp_path: Path) -> None:
    first = snapshot(workload, 5, tmp_path / "a")
    assert snapshot(workload, 5, tmp_path / "b") == first
    assert snapshot(workload, 6, tmp_path / "c") != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_run_record(workload: str) -> None:
    out = result(bench(workload, 7, 0))
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["correct"] is True and out["attempted"] >= 100
    record = json.loads((ROOT / ".bench_out" / workload / "run-seed7-trace0.json").read_text())
    env = record["environment"]
    for key in ("git_sha", "python", "nproc", "FLOWCHECK_THREADS", "seed"):
        assert key in env
    assert env["seed"] == 7 and env["nproc"] >= 1
    assert record["summary"]["samples_beyond_p90"] >= 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload: str) -> None:
    first, second = (result(bench(workload, 3, 1)) for _ in range(2))
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names
    counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}  # noqa: E731
    assert counts(first) and counts(first) == counts(second)


def test_refuses_a_directory_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("tree", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert "metrics" not in proc.stdout
    finally:
        shutil.rmtree(bare)
