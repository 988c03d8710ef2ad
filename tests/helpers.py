"""Shared fixtures: the worked nine-node search-tree graph, its known insets, and a
deliberately non-local flow command."""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from flowcheck.casl import Command, _checked_footprint, _rewrite_edges
from flowcheck.keyspace import (
    BOT_TAG,
    NEG_INF,
    POS_INF,
    AtomUniverse,
    interval_bits,
)
from flowcheck.flowgraph import FlowGraph, NodeId, make_graph

TREE_KEYS = (1, 3, 4, 6, 7, 8, 9, 15, 18)
ROOT = 0
EXT = -1


def tree_universe() -> AtomUniverse:
    return AtomUniverse.from_endpoints(TREE_KEYS)


def iv(u: AtomUniverse, lo, hi, lo_open=True, hi_open=True) -> int:
    return interval_bits(u, lo, hi, lo_open, hi_open)


def below(u: AtomUniverse, k: int) -> int:
    """Left-child edge function: intersect with [-inf, k)."""
    return interval_bits(u, NEG_INF, k, False, True)


def above(u: AtomUniverse, k: int) -> int:
    """Right-child edge function: intersect with (k, inf]."""
    return interval_bits(u, k, POS_INF, True, False)


def worked_tree_pre() -> FlowGraph:
    """The worked nine-node tree before maintenance; node ids equal keys, root id 0.

    Root is the infinity sentinel holding the tree under its left pointer, so
    its left edge filters with [-inf, inf), which covers the whole atom grid.
    """
    u = tree_universe()
    edges = {
        (ROOT, 4): u.full_bits,
        (4, 1): below(u, 4),
        (4, 15): above(u, 4),
        (1, 3): above(u, 1),
        (15, 8): below(u, 15),
        (15, 18): above(u, 15),
        (8, 6): below(u, 8),
        (8, 9): above(u, 8),
        (6, 7): above(u, 6),
    }
    inflow = {(EXT, ROOT): u.full_bits}
    return make_graph(u, (ROOT,) + TREE_KEYS, edges, inflow)


def worked_tree_post() -> FlowGraph:
    """The same tree after the two-step remove: key 4 overwritten by 6, node 6 unlinked."""
    u = tree_universe()
    edges = {
        (ROOT, 4): u.full_bits,
        (4, 1): below(u, 6),
        (4, 15): above(u, 6),
        (1, 3): above(u, 1),
        (15, 8): below(u, 15),
        (15, 18): above(u, 15),
        (8, 7): below(u, 8),
        (8, 9): above(u, 8),
        (6, 7): above(u, 6),
    }
    inflow = {(EXT, ROOT): u.full_bits}
    return make_graph(u, (ROOT,) + TREE_KEYS, edges, inflow)


def worked_heap_pre() -> "Heap":
    """Heap whose derived graph is worked_tree_pre; node 4 is marked for removal."""
    from flowcheck.bst import Heap, NodeFields

    return Heap.of(
        ROOT,
        {
            ROOT: NodeFields(key=NEG_INF, right=4),
            4: NodeFields(key=4, left=1, right=15, deleted=True),
            1: NodeFields(key=1, right=3),
            3: NodeFields(key=3),
            15: NodeFields(key=15, left=8, right=18),
            8: NodeFields(key=8, left=6, right=9),
            6: NodeFields(key=6, right=7),
            7: NodeFields(key=7),
            9: NodeFields(key=9),
            18: NodeFields(key=18),
        },
    )


def later_write_block() -> dict:
    """og_two_thread's heap under a block whose break shows only later: b marks
    node 6 and asserts the mark, and a clears it after six unrelated writes."""
    from importlib.resources import files

    scenario = json.loads((files("flowcheck") / "examples" / "og_two_thread.json").read_text())
    a = [{"thread": "a", "command": {"writes": [[9, "key", 9]]}} for _ in range(6)]
    a.append({"thread": "a", "command": {"writes": [[6, "del", False]]}})
    b = {
        "thread": "b",
        "command": {"writes": [[6, "del", True]]},
        "assert": [{"node": 6, "field": "del", "equals": True}],
    }
    scenario["steps"] = [*a, b]
    return scenario


def worked_tree_insets_pre(u: AtomUniverse) -> dict[int, int]:
    full = u.full_bits
    return {
        ROOT: full,
        4: full,
        1: iv(u, NEG_INF, 4),
        3: iv(u, 1, 4),
        15: iv(u, 4, POS_INF),
        8: iv(u, 4, 15),
        6: iv(u, 4, 8),
        7: iv(u, 6, 8),
        9: iv(u, 8, 15),
        18: iv(u, 15, POS_INF),
    }


def worked_tree_insets_post(u: AtomUniverse) -> dict[int, int]:
    out = worked_tree_insets_pre(u)
    out.update(
        {
            1: iv(u, NEG_INF, 6),
            3: iv(u, 1, 6),
            15: iv(u, 6, POS_INF),
            8: iv(u, 6, 15),
            6: BOT_TAG,
        }
    )
    return out


def raw_flow_write_command(
    name: str,
    new_edges: Mapping[tuple[NodeId, NodeId], int],
    footprint: Iterable[NodeId],
) -> Command:
    """The guarded flow command's rewrite with no abort guard; deliberately non-local."""
    foot = _checked_footprint(new_edges, footprint)

    def core(g: FlowGraph) -> FlowGraph | None:
        return _rewrite_edges(g, new_edges, foot)

    return Command(name, core, core)
