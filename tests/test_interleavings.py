"""The og check against a schedule enumerator of its own.

The enumerator walks every schedule of a concurrent block on plain dicts of
(node, field) cells. It shares no code with the checker, which it reaches
only through run_scenario, so the two cannot agree by construction.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowcheck.casl import run_scenario

from helpers import later_write_block

NODES = (1, 2)
VALUES = {"del": (False, True), "key": (1, 2), "left": (None, 1, 2)}


def enumerate_block(scenario: dict) -> tuple[list, list]:
    """(thread, step) pairs whose assertion fails right after the step, and
    those whose assertion fails in some reachable state where the thread sits
    after the step, over every schedule."""
    cells = {}
    for node in scenario["init"]["nodes"]:
        cells[node["id"], "key"] = node["key"]
        cells[node["id"], "del"] = node.get("del", False)
        cells[node["id"], "left"] = node.get("left")
    programs: dict[str, list] = {}
    for step in scenario["steps"]:
        programs.setdefault(step["thread"], []).append(step)
    threads = sorted(programs)

    def holds(heap: dict, step: dict) -> bool:
        return all(heap[c["node"], c["field"]] == c["equals"] for c in step.get("assert", []))

    start = ((0,) * len(threads), tuple(sorted(cells.items())))
    seen, todo = {start}, [start]
    at_once, later = set(), set()
    while todo:
        pcs, frozen = todo.pop()
        heap = dict(frozen)
        for i, tid in enumerate(threads):
            if pcs[i] > 0 and not holds(heap, programs[tid][pcs[i] - 1]):
                later.add((tid, pcs[i] - 1))
            if pcs[i] == len(programs[tid]):
                continue
            step = programs[tid][pcs[i]]
            after = dict(heap)
            for node, field, value in step["command"]["writes"]:
                after[node, field] = value
            if not holds(after, step):
                at_once.add((tid, pcs[i]))
            state = (pcs[:i] + (pcs[i] + 1,) + pcs[i + 1 :], tuple(sorted(after.items())))
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return sorted(at_once), sorted(later)


def og_passes(scenario: dict) -> bool:
    report = run_scenario(scenario)
    assert [c.name for s in report.steps for c in s.checks] == ["og"]
    return report.verdict == "pass"


@st.composite
def cell_value(draw) -> tuple:
    field = draw(st.sampled_from(sorted(VALUES)))
    return draw(st.sampled_from(NODES)), field, draw(st.sampled_from(VALUES[field]))


def spine_block(steps: list) -> dict:
    """steps on the spine 0 -> 1 -> 2, whose keys are -inf, 1 and 2."""
    nodes = [
        {"id": 0, "key": "-inf", "right": 1},
        {"id": 1, "key": 1, "right": 2},
        {"id": 2, "key": 2},
    ]
    init = {"root": 0, "nodes": nodes}
    return {"algebra": "bst", "init": init, "concurrent": {}, "steps": steps}


@st.composite
def blocks(draw) -> dict:
    steps = []
    for t in range(draw(st.integers(2, 3))):
        for _ in range(draw(st.integers(1, 3))):
            writes = draw(st.lists(cell_value(), min_size=1, max_size=2))
            step = {"thread": f"t{t}", "command": {"writes": [list(w) for w in writes]}}
            # an assertion of the step's own write mostly holds right after it
            conds = draw(st.lists(st.sampled_from(writes) | cell_value(), max_size=2))
            step["assert"] = [{"node": n, "field": f, "equals": v} for n, f, v in conds]
            steps.append(step)
    return spine_block(steps)


# only t2's own step writes node 1's del, so its assertion holds in every
# schedule; an og that judged replays by reachable heaps called it unstable
DEFECT_3 = spine_block(
    [
        {"thread": "t0", "command": {"writes": [[2, "del", True]]}},
        {"thread": "t0", "command": {"writes": [[2, "del", False]]}},
        {"thread": "t0", "command": {"writes": [[1, "key", 2]]}},
        {
            "thread": "t2",
            "command": {"writes": [[1, "del", True]]},
            "assert": [{"node": 1, "field": "del", "equals": True}],
        },
        {"thread": "t2", "command": {"writes": [[2, "del", True]]}},
    ]
)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(blocks())
@example(DEFECT_3)
def test_og_agrees_with_every_schedule(scenario: dict) -> None:
    at_once, later = enumerate_block(scenario)
    # og passes exactly when (a) no schedule breaks an assertion right after
    # its step, and (b) none breaks one at any point where its thread sits after the step
    assert og_passes(scenario) == ((at_once, later) == ([], []))


def test_a_break_after_later_writes_fails_og() -> None:
    # b's assertion holds right after b's step, but a's last write, six
    # unrelated writes later, breaks it: only a check at every later point sees it
    scenario = later_write_block()
    assert enumerate_block(scenario) == ([], [("b", 0)])
    assert not og_passes(scenario)
