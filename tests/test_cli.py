"""Command-line front end: subcommands, exit codes, reports, bundled examples."""

from __future__ import annotations

import json
import time
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcheck import cli, oracle
from flowcheck.cli import Report, main
from flowcheck.errors import InternalInvariantError

from helpers import later_write_block

EXAMPLES = files("flowcheck") / "examples"


def example(name: str) -> str:
    return str(EXAMPLES / name)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------- flow


def test_flow_prints_the_worked_insets(capsys) -> None:
    code, out = run(capsys, "flow", example("fig2.json"))
    assert code == 0
    assert "IS(6) = (4,8)" in out
    assert "IS(8) = (4,15)" in out


def test_flow_json_report_carries_every_node(capsys) -> None:
    code, report = run_json(capsys, "flow", example("fig2.json"))
    assert code == 0
    assert report["verdict"] == "pass"
    by_node = {d["node"]: d["inset"] for d in report["details"]}
    assert by_node[6] == {"intervals": [[4, 8, True, True]]}
    assert "counterexample" not in report


def test_flow_dot_dump(capsys, tmp_path) -> None:
    dot = tmp_path / "g.dot"
    code, _ = run(capsys, "flow", example("fig2.json"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "(4,8)" in text


def test_flow_missing_file_is_an_input_error(capsys) -> None:
    assert main(["flow", "no_such_graph.json"]) == 2


def _first_edge(g: dict) -> dict:
    return g["nodes"][0]["edges"][0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda g: _first_edge(g).update(dst=[4]),
        lambda g: _first_edge(g).update(dst="x"),
        lambda g: g["nodes"][0].update(edges=5),
        lambda g: g["inflow"][0].update(src=[-1]),
        lambda g: g.update(inflow=5),
        lambda g: g.update(endpoints=5),
        lambda g: g["nodes"].append({"id": 0}),
        lambda g: g["inflow"].append(dict(g["inflow"][0], value={"intervals": []})),
        lambda g: g["nodes"][0]["edges"].append(dict(_first_edge(g), fn="bot")),
        lambda g: g["nodes"][0]["edges"].append({"dst": 1}),
    ],
    ids=[
        "list-dst",
        "string-dst",
        "edges-not-a-list",
        "list-inflow-src",
        "inflow-not-a-list",
        "endpoints-not-a-list",
        "repeated-node",
        "repeated-inflow",
        "repeated-edge",
        "edge-without-fn",
    ],
)
def test_malformed_graph_file_exits_two_without_a_traceback(capsys, tmp_path, mutate) -> None:
    graph = json.loads((EXAMPLES / "fig2.json").read_text())
    mutate(graph)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    assert main(["flow", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_graph_file_naming_a_key_twice_exits_two(capsys, tmp_path) -> None:
    text = (EXAMPLES / "fig2.json").read_text()
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"nodes":', '"nodes": [],\n  "nodes":', 1))
    assert main(["flow", str(path)]) == 2
    assert "'nodes' is listed twice" in capsys.readouterr().err


def _bad_file(tmp_path, kind: str) -> str:
    path = tmp_path / f"{kind}.json"
    match kind:
        case "directory":
            path.mkdir()
        case "binary":
            path.write_bytes(bytes(range(256)))
        case "utf16-bom":
            path.write_bytes(b"\xff\xfe{\x00}\x00")
        case "deep":
            path.write_text("[" * 100_000)
        case "endless":
            return "/dev/zero"
    return str(path)


@pytest.mark.parametrize("command", ["flow", "check"])
@pytest.mark.parametrize("kind", ["directory", "binary", "utf16-bom", "deep", "endless"])
def test_unreadable_input_exits_two(capsys, tmp_path, command, kind) -> None:
    assert main([command, _bad_file(tmp_path, kind)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    if kind == "endless":
        assert "over the input limit of 16777216 bytes" in err


def test_unwritable_dot_path_exits_two(capsys, tmp_path) -> None:
    dot = tmp_path / "missing" / "g.dot"
    assert main(["flow", example("fig2.json"), "--dot", str(dot)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


# ---------------------------------------------------------------- check


def test_check_missing_file_exits_two(capsys) -> None:
    assert main(["check", "missing.json"]) == 2


def test_check_names_an_unknown_key(capsys, tmp_path) -> None:
    # a misspelt threads, and a depth, which the exploration does not take
    path = tmp_path / "misspelt.json"
    for key in ("thread", "interleaveDepth"):
        scenario = json.loads((EXAMPLES / "og_two_thread.json").read_text())
        scenario["concurrent"][key] = scenario["concurrent"].pop("threads")
        path.write_text(json.dumps(scenario))
        assert main(["check", str(path)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, want",
    [({}, 0), ({"threads": 2}, 0), (False, 2), (None, 2), ([], 2), (True, 2)],
    ids=json.dumps,
)
def test_a_present_concurrent_block_is_read(capsys, tmp_path, block, want) -> None:
    # both keys of the block are optional, so an empty block is still a block;
    # a value that is not an object is an input error, whatever its truth
    path = tmp_path / "conc.json"
    scenario = json.loads((EXAMPLES / "og_two_thread.json").read_text())
    scenario["concurrent"] = block
    path.write_text(json.dumps(scenario))
    assert main(["check", str(path)]) == want
    err = capsys.readouterr().err
    assert err == ("" if want == 0 else f"error: concurrent must be a JSON object, got {block!r}\n")


@pytest.mark.parametrize("after_a_failure", [False, True])
def test_find_succ_without_a_node_exits_two(capsys, tmp_path, after_a_failure) -> None:
    # remove_complex_eq's last step fails, so a step after it is only decoded
    path = tmp_path / "succ.json"
    scenario = json.loads((EXAMPLES / "remove_complex_eq.json").read_text())
    step = {"command": {"op": "find_succ"}}
    scenario["steps"] = [*scenario["steps"], step] if after_a_failure else [step]
    path.write_text(json.dumps(scenario))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: find_succ node must be an int: None\n"


@pytest.mark.parametrize("op", ["find_succ", "remove_simple", "remove_complex", "rotate"])
@pytest.mark.parametrize("after_a_failure", [False, True])
def test_a_node_not_in_the_heap_is_checked_when_its_step_runs(
    capsys, tmp_path, op, after_a_failure
) -> None:
    # the node set changes as steps run, so the heap check waits for the step:
    # after remove_complex_eq's failing last step it is never reached
    path = tmp_path / "absent.json"
    scenario = json.loads((EXAMPLES / "remove_complex_eq.json").read_text())
    step = {"command": {"op": op, "node": 99}}
    scenario["steps"] = [*scenario["steps"], step] if after_a_failure else [step]
    path.write_text(json.dumps(scenario))
    assert main(["check", str(path)]) == (1 if after_a_failure else 2)
    err = capsys.readouterr().err
    assert err == ("" if after_a_failure else "error: target node 99 is not in the heap\n")


@pytest.mark.parametrize("checks", [None, ["inv", "contents"]])
def test_heap_node_with_the_inflow_source_id_exits_two(capsys, tmp_path, checks) -> None:
    # a derived graph gives the root its inflow from node -1, so a heap that
    # holds node -1 has no flow graph, whichever checks the step asks for
    scenario = json.loads((EXAMPLES / "remove_simple.json").read_text())
    if checks is not None:
        scenario["steps"][0]["checks"] = checks
    for node in scenario["init"]["nodes"]:  # node 3 is renamed -1
        if node["id"] == 3:
            node["id"] = -1
        if node.get("right") == 3:
            node["right"] = -1
    path = tmp_path / "holds_source.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: inflow source -1 must be external\n"


@pytest.mark.parametrize(
    "name",
    [
        "remove_complex.json",
        "remove_simple.json",
        "rotate.json",
        "user_ops.json",
        "registry_upsert.json",
        "og_two_thread.json",
    ],
)
def test_bundled_passing_scenarios(capsys, name) -> None:
    code, report = run_json(capsys, "check", example(name))
    assert code == 0
    assert report["verdict"] == "pass"
    assert "counterexample" not in report


def test_exact_flow_demand_fails_at_the_key_copy(capsys) -> None:
    code, report = run_json(capsys, "check", example("remove_complex_eq.json"))
    assert code == 1
    assert report["verdict"] == "fail"
    ce = report["counterexample"]
    assert ce["step"] == 0
    assert ce["label"] == "removeComplex(4)"
    assert "witness" in ce


def test_frame_rule_fails_with_an_interface_mismatch(capsys) -> None:
    code, report = run_json(capsys, "check", example("frame_vs_context.json"))
    assert code == 1
    assert "interface-mismatch" in report["counterexample"]["detail"]


def test_context_rule_passes_the_same_key_copy(capsys) -> None:
    from flowcheck.casl import run_scenario

    data = json.loads((EXAMPLES / "frame_vs_context.json").read_text())
    data["steps"][0]["rule"] = "context"
    assert run_scenario(data).verdict == "pass"


def test_malformed_step_exits_two_without_a_traceback(capsys, tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "algebra": "registry",
                "init": {"history": []},
                "steps": [{"command": {"upsert": [1]}}],
            }
        )
    )
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _one_top_inflow_step(
    tmp_path, endpoints: int, retarget: bool, context_inflow: bool = False
) -> str:
    # Top inflow into node 0, whose edge to node 1 is rewritten to a wider
    # filter, or to the one it has; the context node 1 may take an inflow of
    # its own, which only the composite's guard sees
    eps = list(range(1, 10 * endpoints, 10))
    hi = eps[3] if retarget else eps[1]
    inflow = [{"src": -1, "dst": 0, "value": "top"}]
    if context_inflow:
        inflow.append({"src": -2, "dst": 1, "value": {"intervals": [[eps[0], eps[1], False, True]]}})
    scenario = {
        "algebra": "flow",
        "init": {
            "endpoints": eps,
            "nodes": [
                {"id": 0, "edges": [{"dst": 1, "fn": {"filter": [["-inf", eps[1], True, False]]}}]},
                {"id": 1},
            ],
            "inflow": inflow,
        },
        "steps": [
            {
                "label": "retarget",
                "command": {
                    "set_edges": [{"src": 0, "dst": 1, "fn": {"filter": [["-inf", hi, True, False]]}}]
                },
                "footprint": [0],
            }
        ],
    }
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(scenario))
    return str(path)


@pytest.mark.parametrize("endpoints", [6, 8])
def test_capped_context_estimate_is_inconclusive(capsys, tmp_path, endpoints) -> None:
    # the lattice below one Top inflow entry outgrows the default expansion cap
    path = _one_top_inflow_step(tmp_path, endpoints, retarget=True)
    start = time.perf_counter()
    code, report = run_json(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert report["verdict"] == "inconclusive"
    # the combinations are Bot, Top and every set of the 2e+1 atoms
    combinations = 2 ** (2 * endpoints + 1) + 2
    assert report["details"][0]["note"] == (
        f"context estimate: {combinations} inflow combinations exceed the expansion cap 4096"
    )


def test_closure_cap_reaches_the_transfer_guard(capsys, tmp_path) -> None:
    # a closure cap above the 8194 combinations lets both the footprint
    # estimate and the guard on the composite finish
    path = _one_top_inflow_step(tmp_path, 6, retarget=False)
    code, report = run_json(capsys, "check", path, "--closure-cap", "10000")
    assert code == 0
    assert report["verdict"] == "pass"


def test_capped_transfer_guard_names_its_count(capsys, tmp_path) -> None:
    # the footprint's 8194 combinations fit the cap; the composite's second
    # inflow doubles the guard's to 16388, which do not
    path = _one_top_inflow_step(tmp_path, 6, retarget=False, context_inflow=True)
    start = time.perf_counter()
    code, report = run_json(capsys, "check", path, "--closure-cap", "10000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert report["details"][0]["note"] == (
        "transfer-equality guard: 16388 inflow combinations exceed the expansion cap 10000"
    )


def test_footprint_outside_the_graph_exits_two(capsys, tmp_path) -> None:
    # unchecked, the step's update is undefined and the next step has no graph
    path = _one_top_inflow_step(tmp_path, 6, retarget=False)
    scenario = json.loads(open(path).read())
    scenario["steps"].insert(0, dict(scenario["steps"][0], footprint=[0, 7], checks=[]))
    open(path, "w").write(json.dumps(scenario))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "error: step 0: footprint nodes [7] are not in the graph\n"


def test_context_estimate_stops_counting_at_the_cap(capsys, tmp_path) -> None:
    # four Top entries over 4401 atoms: the first passes the cap, and the
    # product of all four has more digits than Python will print
    scenario = {
        "algebra": "flow",
        "init": {
            "endpoints": list(range(2200)),
            "nodes": [{"id": 0, "edges": [{"dst": 9, "fn": "top"}]}, {"id": 1}],
            "inflow": [{"src": -i, "dst": 0, "value": "top"} for i in range(1, 5)],
        },
        "steps": [{"command": {"set_edges": []}, "footprint": [0]}],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    code, report = run_json(capsys, "check", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert report["details"][0]["note"] == (
        "context estimate: 2^4401 or more inflow combinations exceed the expansion cap 4096"
    )


def test_inconclusive_check_names_the_step_that_stopped(capsys, tmp_path) -> None:
    # a step that keeps node 0's edge passes; the retarget after it stops at
    # the cap and is reported by its own index and label, after the first
    path = _one_top_inflow_step(tmp_path, 6, retarget=True)
    scenario = json.loads(open(path).read())
    keep = [{"src": 0, **e} for e in scenario["init"]["nodes"][0]["edges"]]
    first = {"label": "keep", "command": {"set_edges": keep}, "footprint": [0], "checks": []}
    scenario["steps"].insert(0, first)
    open(path, "w").write(json.dumps(scenario))
    note = "context estimate: 8194 inflow combinations exceed the expansion cap 4096"
    code, report = run_json(capsys, "check", path)
    assert code == 3 and report["verdict"] == "inconclusive"
    assert report["details"] == [
        {"index": 0, "label": "keep", "ok": True, "checks": []},
        {"index": 1, "label": "retarget", "ok": False, "checks": [], "note": note},
    ]
    code, out = run(capsys, "check", path)
    assert code == 3
    assert out.splitlines() == [
        "[ok] step 0 keep",
        f"[inconclusive] step 1 retarget  {note}",
        "verdict: inconclusive",
    ]


def _threads_scenario(tmp_path, writes: list[list], asserting: bool = False) -> str:
    # one thread per write, on a right spine of as many nodes; an asserting
    # thread asserts the value it wrote
    n = len(writes)
    nodes = [{"id": i, "key": "-inf" if i == 0 else i, "right": i + 1} for i in range(n)]
    nodes.append({"id": n, "key": n})
    steps = [{"thread": f"t{i}", "command": {"writes": [w]}} for i, w in enumerate(writes)]
    if asserting:
        for step, (node, field, value) in zip(steps, writes):
            step["assert"] = [{"node": node, "field": field, "equals": value}]
    scenario = {
        "algebra": "bst",
        "init": {"root": 0, "nodes": nodes},
        "concurrent": {"threads": n},
        "steps": steps,
    }
    path = tmp_path / "threads.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def test_a_thousand_one_write_threads_get_a_verdict_in_a_second(capsys, tmp_path) -> None:
    # og reads each cell's writers once, so the thread count meets no cap
    path = _threads_scenario(tmp_path, [[i, "del", True] for i in range(1, 1001)], asserting=True)
    start = time.perf_counter()
    code, report = run_json(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["details"][0]["checks"] == [
        {"name": "og", "ok": True, "detail": "interference-free"}
    ]


def test_the_closure_cap_leaves_a_concurrent_report_alone(capsys, tmp_path) -> None:
    # two writes to one cell, each asserted: og enumerates nothing the cap bounds
    path = _threads_scenario(tmp_path, [[1, "key", 5], [1, "key", 6]], asserting=True)
    code, report = run_json(capsys, "check", path, "--closure-cap", "4")
    assert code == 1
    assert (code, report) == run_json(capsys, "check", path)
    assert report["counterexample"]["detail"] == "assertion unstable under t10"


def test_a_later_write_that_breaks_an_assertion_fails_og(capsys, tmp_path) -> None:
    # b's assertion, true right after b's step, is unstable under a's last write
    path = tmp_path / "later_write.json"
    path.write_text(json.dumps(later_write_block()))
    code, report = run_json(capsys, "check", str(path))
    assert code == 1
    assert [c for s in report["details"] for c in s["checks"]] == [
        {"name": "og", "ok": False, "detail": "assertion unstable under a6"}
    ]


def test_eight_asserting_threads_get_a_verdict_in_a_second(capsys, tmp_path) -> None:
    # each thread asserts its own write, which no other thread touches, so
    # every assertion is stable
    path = _threads_scenario(tmp_path, [[i, "del", True] for i in range(1, 9)], asserting=True)
    start = time.perf_counter()
    code, report = run_json(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["details"][0]["checks"] == [
        {"name": "og", "ok": True, "detail": "interference-free"}
    ]


def test_interleaving_write_to_a_missing_node_exits_two(capsys, tmp_path) -> None:
    # the bad node id is an input error, named with its step
    writes = [[i, "del", True] for i in range(1, 20)] + [[99, "del", True]]
    path = _threads_scenario(tmp_path, writes)
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "error: concurrent step 19: no heap node 99\n"


def test_an_asserted_key_is_decoded_as_the_heap_file_decodes_it(capsys, tmp_path) -> None:
    # node 0's key is -inf; the assertion's "-inf" is that key, not a string
    path = _threads_scenario(tmp_path, [[1, "key", 3]])
    scenario = json.loads((tmp_path / "threads.json").read_text())
    scenario["steps"][0]["assert"] = [{"node": 0, "field": "key", "equals": "-inf"}]
    (tmp_path / "threads.json").write_text(json.dumps(scenario))
    code, report = run_json(capsys, "check", path)
    assert (code, report["verdict"]) == (0, "pass")


def test_a_write_of_a_value_the_field_cannot_hold_exits_two(capsys, tmp_path) -> None:
    path = _threads_scenario(tmp_path, [[1, "key", 3], [1, "del", 5]])
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "error: concurrent step 1: del must be a boolean: 5\n"


def test_an_assert_condition_with_a_misspelt_or_missing_equals_exits_two(capsys, tmp_path) -> None:
    # a missing equals would decode as null and silently assert "no child"
    path = _threads_scenario(tmp_path, [[1, "left", None]])
    scenario = json.loads((tmp_path / "threads.json").read_text())
    for cond, err in [
        (
            {"node": 1, "field": "left", "equal": 0},
            "error: concurrent step 0: assert: unknown key 'equal'; "
            "allowed keys are ['node', 'field', 'equals']\n",
        ),
        (
            {"node": 1, "field": "left"},
            "error: concurrent step 0: an assert condition needs a node id, a field of "
            "['del', 'dup', 'key', 'left', 'right'] and equals, got {'node': 1, 'field': 'left'}\n",
        ),
    ]:
        scenario["steps"][0]["assert"] = [cond]
        (tmp_path / "threads.json").write_text(json.dumps(scenario))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == err
    scenario["steps"][0]["assert"] = [{"node": 1, "field": "left", "equals": None}]
    (tmp_path / "threads.json").write_text(json.dumps(scenario))
    assert main(["check", path]) == 0


def test_registry_closure_sample_runs_past_4096_states(capsys, tmp_path) -> None:
    # one upsert over 1,400 distinct events: the context's one-update sample
    # holds 1 + 3 x 1,401 members, more than the default cap
    history = [[f"k{i % 50}", f"v{i}"] for i in range(1400)]
    scenario = {
        "algebra": "registry",
        "init": {"history": history, "registry": {}},
        "steps": [{"command": {"upsert": ["k1", "new"]}, "checks": ["casl", "inv"]}],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(scenario))
    code, report = run_json(capsys, "check", str(path))
    assert code == 0
    assert report["verdict"] == "pass"


def test_unstable_assertion_is_caught(capsys) -> None:
    code, report = run_json(capsys, "check", example("og_unstable.json"))
    assert code == 1
    checks = {c["name"]: c for s in report["details"] for c in s["checks"]}
    assert list(checks) == ["og"] and not checks["og"]["ok"]


# ---------------------------------------------------------------- fuzz


def test_fuzz_reports_case_counts(capsys) -> None:
    code, report = run_json(capsys, "fuzz", "--cases", "30", "--seed", "5")
    assert code == 0
    assert report["details"][0] == {
        "cases": 30,
        "maxNodes": 16,
        "seed": 5,
        "mismatches": 0,
    }


def test_fuzz_reports_are_byte_identical(capsys) -> None:
    _, first = run(capsys, "fuzz", "--cases", "20", "--json")
    _, second = run(capsys, "fuzz", "--cases", "20", "--json")
    assert first == second


def plant_mismatch(monkeypatch, case: int, seed: int) -> None:
    # the engine gives a wrong flow on the one graph the flow-fuzz stream draws at case
    bad = oracle.random_graph(
        oracle.rng_for("flow-fuzz", case, seed),
        oracle.universe_for(oracle.EnumBounds()),
        oracle.FUZZ_NODES,
    )
    real = oracle.compute_flow
    monkeypatch.setattr(oracle, "compute_flow", lambda g: {} if g == bad else real(g))


def test_fuzz_counts_a_planted_mismatch(capsys, monkeypatch) -> None:
    plant_mismatch(monkeypatch, case=3, seed=0)
    code, report = run_json(capsys, "fuzz", "--cases", "10")
    assert code == 1
    assert report["details"][0]["mismatches"] == 1
    assert report["counterexample"]["case"] == 3


def test_flow_equivalence_stops_at_a_planted_mismatch(capsys, monkeypatch) -> None:
    plant_mismatch(monkeypatch, case=3, seed=0)
    code, report = run_json(
        capsys, "oracle", "--theorem", "FlowEquivalence", "--nodes", "1", "--cases", "10"
    )
    assert code == 1
    # the 17 enumerated graphs and fuzz cases 0..2 pass before case 3 fails
    assert report["details"][0]["checked"] == 17 + 3
    assert report["counterexample"]["case"] == 3


# ---------------------------------------------------------------- oracle


def test_oracle_runs_a_named_theorem(capsys) -> None:
    code, report = run_json(capsys, "oracle", "--theorem", "MultCoincides")
    assert code == 0
    assert report["details"][0]["theorem"] == "MultCoincides"
    assert report["details"][0]["checked"] == 288


def test_oracle_threads_cases_and_seed_through(capsys) -> None:
    code, report = run_json(
        capsys, "oracle", "--theorem", "KeysetDisjoint", "--cases", "12", "--seed", "9"
    )
    assert code == 0
    assert report["details"][0]["checked"] == 12


def test_oracle_nodes_flag_shrinks_the_space(capsys) -> None:
    code, report = run_json(
        capsys, "oracle", "--theorem", "UniqueDecomp", "--nodes", "2"
    )
    assert code == 0
    assert report["details"][0]["checked"] == 144


# the flags each theorem reads: the enumerating ones --nodes, the sampling
# ones --cases and --seed, and FlowEquivalence, which does both, all three
_READS = {
    "UniqueDecomp": ("--nodes",),
    "MultCoincides": ("--nodes",),
    "ShapeIndependent": ("--cases", "--seed"),
    "Contextualization": ("--cases", "--seed"),
    "ConservativeExt": ("--nodes",),
    "KeysetDisjoint": ("--cases", "--seed"),
    "FlowEquivalence": ("--nodes", "--cases", "--seed"),
}


@pytest.mark.parametrize("flag", ["--nodes", "--cases", "--seed"])
@pytest.mark.parametrize("theorem", list(_READS))
def test_oracle_rejects_a_flag_the_theorem_does_not_read(
    capsys, monkeypatch, theorem, flag
) -> None:
    # only the flag check is under test, so the theorem itself is not run
    checked = oracle.TheoremReport(theorem, True, 0)
    monkeypatch.setattr(cli, "check_theorem", lambda name, **kwargs: checked)
    code = main(["oracle", "--theorem", theorem, flag, "1"])
    err = capsys.readouterr().err
    if flag in _READS[theorem]:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"error: {theorem} does not read {flag}\n")


@pytest.mark.parametrize(
    "theorem, nodes",
    [("MultCoincides", "400"), ("UniqueDecomp", "800"), ("FlowEquivalence", "1200")],
)
def test_case_count_stops_at_the_budget(capsys, theorem, nodes) -> None:
    # the count stops at 4 nodes, the first to pass the budget
    start = time.perf_counter()
    assert main(["oracle", "--theorem", theorem, "--nodes", nodes]) == 3
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == "inconclusive: 8514881 cases exceed the budget 200000\n"


def test_flow_equivalence_applies_the_nodes_flag(capsys) -> None:
    code, report = run_json(
        capsys, "oracle", "--theorem", "FlowEquivalence", "--nodes", "1", "--cases", "0"
    )
    assert code == 0
    # the empty graph plus 4 x 4 inflow choices on the one node
    assert report["details"][0]["checked"] == 17


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--nodes", "0"],
        ["fuzz", "--nodes", "-2"],
        ["fuzz", "--cases", "-5"],
        ["fuzz", "--cases", "many"],
        ["oracle", "--theorem", "KeysetDisjoint", "--cases", "-3"],
        ["oracle", "--theorem", "FlowEquivalence", "--cases", "-3"],
        ["check", "s.json", "--closure-cap", "0"],
        ["check", "s.json", "--closure-cap", "-1"],
        # counts past Python's int-string limit, which int() refuses
        ["fuzz", "--cases", "9" * 5000],
        ["check", "s.json", "--closure-cap", "9" * 5000],
        ["oracle", "--theorem", "UniqueDecomp", "--nodes", "9" * 5000],
    ],
)
def test_out_of_range_counts_exit_two(capsys, argv) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_oracle_rejects_unknown_theorems() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--theorem", "NoSuch"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- plumbing


def test_unknown_flags_exit_two_with_usage(capsys) -> None:
    # check --loop-cap is gone: a scenario step is one command, never a loop;
    # --max-iter is gone: the fixpoint bounds its own sweeps
    for argv in (
        ["flow", "g.json", "--bogus"],
        ["check", "s.json", "--loop-cap", "5"],
        ["flow", "g.json", "--max-iter", "5"],
        ["fuzz", "--max-iter", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_unknown_subcommand_exits_two() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["prove"])
    assert exc.value.code == 2


def test_successive_calls_share_no_options(capsys) -> None:
    code, report = run_json(capsys, "fuzz", "--cases", "3", "--nodes", "4", "--seed", "7")
    assert code == 0
    assert report["details"][0] == {"cases": 3, "maxNodes": 4, "seed": 7, "mismatches": 0}
    code, out = run(capsys, "fuzz", "--cases", "2")
    assert code == 0
    assert out == "fuzz: 2 cases, 0 mismatches\nverdict: pass\n"
    code, report = run_json(capsys, "fuzz", "--cases", "2")
    assert report["details"][0] == {"cases": 2, "maxNodes": 16, "seed": 0, "mismatches": 0}


@pytest.mark.parametrize(
    "exc", [InternalInvariantError("planted invariant"), KeyError("planted key")]
)
def test_internal_error_exits_four_without_a_traceback(capsys, monkeypatch, exc) -> None:
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "flow", broken)
    assert main(["flow", example("fig2.json")]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ")
    assert "planted" in lines[0] and "Traceback" not in captured.err


def test_report_requires_a_counterexample_exactly_on_failure() -> None:
    with pytest.raises(InternalInvariantError):
        Report("flow", "fail", ())
    with pytest.raises(InternalInvariantError):
        Report("flow", "pass", (), counterexample={"x": 1})
    assert Report("flow", "fail", (), counterexample={"x": 1}).exit_code == 1


# ---------------------------------------------------------------- report bytes


_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", '\\"\n', "\x00\x1f\t\x7f", "é∀\u2028😀", "\ud800"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda n: n * (-1) ** (n % 2))
    | st.floats(allow_nan=True, allow_infinity=True)
    | _TEXT
)


def _json_values(depth: int) -> st.SearchStrategy:
    if depth == 0:
        return _LEAVES
    kids = _json_values(depth - 1)
    return (
        _LEAVES
        | st.lists(kids, max_size=3)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, kids, max_size=3)
    )


def _dumps_as_json(value) -> None:
    try:
        want = json.dumps(value, indent=2, sort_keys=True)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            cli._dumps(value, "")
        assert str(info.value) == str(exc)
    else:
        assert cli._dumps(value, "") == want


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_json_values(6))
def test_report_bytes_are_json_indent_two_sorted(value) -> None:
    _dumps_as_json(value)


class _Str(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        {2: "b", 1: [1, {"x": 2}]},
        [{"a": {3: [1.5, float("nan")], 4: {}}}],
        {"a": _Str("s"), _Str("k"): 1},
        [_Str("s"), {"k": _Str("t")}],
        {1: 0, "a": 1},
        [1, {"a": object()}],
        {"a": [], "b": {}, "c": ()},
    ],
    ids=[
        "int-keys",
        "nested-int-keys",
        "str-subclass-key",
        "str-subclass",
        "mixed-keys",
        "unserialisable",
        "empty",
    ],
)
def test_report_bytes_leave_other_types_to_json(value) -> None:
    _dumps_as_json(value)
