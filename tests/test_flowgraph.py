"""Flow graph engine: fixpoint, transfer, restriction, composition, decomposition."""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from flowcheck import flowgraph
from flowcheck.cli import main
from flowcheck.errors import InputError
from flowcheck.flowgraph import (
    FlowGraph,
    FlowKernel,
    StarFailure,
    apply_edge,
    compute_flow,
    empty_graph,
    ghost_mult,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_graph,
    restrict,
    star,
    unique_decompose,
)
from flowcheck.keyspace import (
    BOT_TAG,
    NEG_INF,
    POS_INF,
    TOP_TAG,
    AtomUniverse,
    interval_bits,
    oplus,
)
from flowcheck.oracle import (
    SINK,
    EnumBounds,
    enumerate_graphs,
    naive_flow,
    random_graph,
    rng_for,
    universe_for,
)

from helpers import (
    EXT,
    ROOT,
    iv,
    worked_tree_insets_post,
    worked_tree_insets_pre,
    worked_tree_post,
    worked_tree_pre,
)


def val(u: AtomUniverse, *keys: int) -> int:
    bits = 0
    for k in keys:
        bits |= 1 << u.atom_of_key(k)
    return bits


# ---------------------------------------------------------------- compute_flow


def test_flow_of_empty_graph_is_empty():
    u = AtomUniverse.from_endpoints([1])
    assert compute_flow(empty_graph(u)) == {}


def test_flow_of_worked_tree_matches_annotations():
    g = worked_tree_pre()
    assert compute_flow(g) == worked_tree_insets_pre(g.universe)


def test_flow_of_worked_tree_after_remove():
    g = worked_tree_post()
    assert compute_flow(g) == worked_tree_insets_post(g.universe)


def test_two_node_cycle_overflows_to_top():
    # a receives external (0,10] plus b's echo, two non-Bot summands force Top
    u = AtomUniverse.from_endpoints([0, 5, 10])
    g = make_graph(
        u,
        (1, 2),
        {
            (1, 2): interval_bits(u, 0, 10, True, False),
            (2, 1): interval_bits(u, 5, 10, True, False),
        },
        {(EXT, 1): iv(u, 0, 10, True, False)},
    )
    flow = compute_flow(g)
    assert flow[1] == TOP_TAG
    assert flow[2] == TOP_TAG


def test_flow_exceeding_iteration_cap_is_an_internal_error(capsys, monkeypatch):
    # a sum that falls as node 0's flow rises never settles: the sweep cap
    # reports the broken monotonicity as a bug, not as a verdict
    def flipping(acc, edges, flow):
        return TOP_TAG if flow[0] == BOT_TAG else BOT_TAG

    monkeypatch.setattr(flowgraph, "_edge_sum", flipping)
    assert main(["flow", str(files("flowcheck") / "examples" / "fig2.json")]) == 4
    err = "internal error: InternalInvariantError: flow fixpoint did not stabilize in 22 sweeps\n"
    assert capsys.readouterr().err == err


def test_flow_settles_within_two_sweeps_per_node(monkeypatch):
    # each node's flow ascends at most twice (Bot < key set < Top), so the
    # sweeps that change something number at most 2n, and one more confirms;
    # solve sums each node's inflow once per sweep
    calls = 0
    edge_sum = flowgraph._edge_sum

    def counted(acc, edges, flow):
        nonlocal calls
        calls += 1
        return edge_sum(acc, edges, flow)

    monkeypatch.setattr(flowgraph, "_edge_sum", counted)
    fuzzed = (
        random_graph(rng_for("flow-fuzz", i, 0), universe_for(EnumBounds()), 16)
        for i in range(3000)
    )
    for g in itertools.chain(enumerate_graphs(EnumBounds()), fuzzed):
        k = FlowKernel(g)
        calls = 0
        k.solve(k.inflow((dst, v) for _, dst, v in g.inflow))
        assert calls <= (2 * len(g.nodes) + 1) * len(g.nodes)


def test_flow_with_const_top_edge_from_unreachable_node():
    # ConstTop emits Top even on Bot input; kept as written
    u = AtomUniverse.from_endpoints([1])
    g = make_graph(u, (1, 2), {(1, 2): TOP_TAG}, {})
    flow = compute_flow(g)
    assert flow[1] == BOT_TAG
    assert flow[2] == TOP_TAG


# ---------------------------------------------------------------- outflow


def outflow(g: FlowGraph, x: int, y: int) -> int:
    # what x sends to y: the edge function applied to x's flow, as the tree
    # algebra reads an internal edge
    return apply_edge(g.edge_fn(x, y), g.flow[x])


def test_outflow_const_bot_edge():
    g = worked_tree_pre()
    assert outflow(g, 4, 9) == BOT_TAG


def test_outflow_of_parent_toward_removed_child():
    g = worked_tree_pre()
    assert outflow(g, 8, 6) == iv(g.universe, 4, 8)


def test_outflow_filter_on_top_is_top():
    u = AtomUniverse.from_endpoints([3])
    g = make_graph(
        u,
        (1,),
        {(1, 2): interval_bits(u, NEG_INF, 3, True, True)},
        {(EXT, 1): TOP_TAG},
    )
    assert outflow(g, 1, 2) == TOP_TAG


# ---------------------------------------------------------------- transfer


def transfer(g: FlowGraph, entries: dict, y: int) -> int:
    # the kernel's outflow toward external y after solving under replaced inflow
    k = FlowKernel(g)
    flow = k.solve(k.inflow((dst, v) for (_, dst), v in entries.items()))
    return k.outflow(flow, y)


def test_transfer_single_node_filter():
    u = AtomUniverse.from_endpoints([0, 2, 4, 6])
    g = make_graph(
        u,
        (1,),
        {(1, 9): interval_bits(u, 0, 4, True, False)},
        {(EXT, 1): val(u, 2, 6)},
    )
    assert transfer(g, {(EXT, 1): val(u, 2, 6)}, 9) == val(u, 2)


def test_transfer_all_bot_inflow_yields_bot():
    g = worked_tree_pre()
    for y in g.external_targets:
        assert transfer(g, {}, y) == BOT_TAG


def test_transfer_const_top_edge_from_reachable_node():
    u = AtomUniverse.from_endpoints([1])
    g = make_graph(u, (1,), {(1, 9): TOP_TAG}, {(EXT, 1): val(u, 1)})
    assert transfer(g, {(EXT, 1): val(u, 1)}, 9) == TOP_TAG


def test_transfer_matches_naive_whole_graph_reference():
    u = AtomUniverse.from_endpoints([2, 4])
    for i in range(80):
        rng = rng_for("transfer-reference", i, 0)
        g = random_graph(rng, u, max_nodes=5, edge_p=0.3)
        pool = [BOT_TAG, TOP_TAG]
        pool += [rng.getrandbits(u.atom_count) for _ in range(3)]
        keys = [(src, dst) for src, dst, _ in g.inflow] + [(-9, rng.choice(g.nodes))]
        entries = {key: rng.choice(pool) for key in keys}
        flow = naive_flow(g.with_inflow(entries))
        for y in (SINK, -4):
            want = BOT_TAG
            for src, dst, fn in g.edges:
                if dst == y:
                    want = oplus(want, apply_edge(fn, flow[src]))
            assert transfer(g, entries, y) == want, (i, y)


# ---------------------------------------------------------------- restrict


def test_restrict_to_all_nodes_is_identity():
    g = worked_tree_pre()
    assert restrict(g, g.nodes) == g


def test_restrict_to_nothing_is_empty():
    g = worked_tree_pre()
    assert restrict(g, ()) == empty_graph(g.universe)


def test_restrict_pins_inflow_from_dropped_parent():
    g = worked_tree_pre()
    sub = restrict(g, {8, 6})
    assert sub.inflow_value(15, 8) == iv(g.universe, 4, 15)


# ---------------------------------------------------------------- ghost_mult


def test_ghost_mult_unit():
    g = worked_tree_pre()
    assert ghost_mult(g, empty_graph(g.universe)) == g


def test_ghost_mult_drops_cross_inflow():
    u = AtomUniverse.from_endpoints([1, 2, 3])
    s = make_graph(u, (10,), {}, {(20, 10): val(u, 1), (EXT, 10): val(u, 2)})
    t = make_graph(u, (20,), {}, {(10, 20): val(u, 3)})
    prod = ghost_mult(s, t)
    assert prod is not None
    assert prod.nodes == (10, 20)
    assert prod.inflow == ((EXT, 10, val(u, 2)),)


def test_ghost_mult_overlap_is_undefined():
    g = worked_tree_pre()
    assert ghost_mult(g, restrict(g, {4})) is None


# ---------------------------------------------------------------- built from normal parts


def _same_graph(built: FlowGraph, normalized: FlowGraph) -> None:
    assert built == normalized
    assert hash(built) == hash(normalized)
    assert repr(built) == repr(normalized)


def _restrict_by_make_graph(g: FlowGraph, region) -> FlowGraph:
    keep = set(region) & g.node_set
    edges = {(s, d): fn for s, d, fn in g.edges if s in keep}
    inflow = {(s, d): v for s, d, v in g.inflow if d in keep}
    for src, dst, fn in g.edges:
        if src not in keep and dst in keep:
            inflow[(src, dst)] = apply_edge(fn, g.flow[src])
    return make_graph(g.universe, keep, edges, inflow)


def _ghost_mult_by_make_graph(s: FlowGraph, t: FlowGraph) -> FlowGraph:
    nodes = set(s.nodes) | set(t.nodes)
    edges = {(a, b): fn for a, b, fn in s.edges + t.edges}
    inflow = {(a, b): v for a, b, v in s.inflow + t.inflow if a not in nodes}
    return make_graph(s.universe, nodes, edges, inflow)


def test_constructors_from_normal_parts_match_make_graph():
    u = AtomUniverse.from_endpoints([2, 4])
    pool = [BOT_TAG, TOP_TAG, *range(u.full_bits + 1)]
    for i in range(150):
        rng = rng_for("normal-parts", i, 0)
        g = random_graph(rng, u, max_nodes=7, edge_p=0.3)
        region = [x for x in g.nodes + (SINK, 99) if rng.random() < 0.5]
        part = restrict(g, region)
        _same_graph(part, _restrict_by_make_graph(g, region))
        rest = restrict(g, g.node_set - set(region))
        for s, t in ((part, rest), (rest, part), (part, empty_graph(u))):
            _same_graph(ghost_mult(s, t), _ghost_mult_by_make_graph(s, t))
        if part.nodes:
            assert ghost_mult(part, g) is None
        keys = {(src, rng.choice(g.nodes)) for src in (-1, -2, -9) for _ in range(2)}
        keys |= {(src, dst) for src, dst, _ in g.inflow}
        entries = {key: rng.choice(pool) for key in keys}
        _same_graph(g.with_inflow(entries), make_graph(u, g.nodes, g.edge_map, entries))


# ---------------------------------------------------------------- star


def test_star_unit():
    g = worked_tree_pre()
    assert star(g, empty_graph(g.universe)) == g


def test_star_interface_mismatch_reported():
    u = AtomUniverse.from_endpoints([1, 2, 3, 5])
    # s expects {1} from node 20 but t actually sends {5}
    s = make_graph(u, (10,), {}, {(20, 10): val(u, 1), (EXT, 10): val(u, 2)})
    t = make_graph(
        u, (20,), {(20, 10): u.full_bits}, {(EXT, 20): val(u, 5)}
    )
    failure = star(s, t)
    assert isinstance(failure, StarFailure)
    assert failure.reason == "interface-mismatch"
    assert failure.at == (20, 10)


def test_star_flow_faithfulness_rejects_self_feeding_cycle():
    # interfaces agree but the composite's least flow is Bot, not the echo
    u = AtomUniverse.from_endpoints([1])
    s = make_graph(
        u, (10,), {(10, 20): u.full_bits}, {(20, 10): val(u, 1)}
    )
    t = make_graph(
        u, (20,), {(20, 10): u.full_bits}, {(10, 20): val(u, 1)}
    )
    failure = star(s, t)
    assert isinstance(failure, StarFailure)
    assert failure.reason == "flow-not-faithful"


def test_restriction_pairs_recompose_by_star():
    g = worked_tree_pre()
    for region in ({8, 6}, {ROOT}, set(), {ROOT, 4, 1, 3}, set(g.nodes)):
        left = restrict(g, region)
        right = restrict(g, set(g.nodes) - region)
        assert star(left, right) == g


# ---------------------------------------------------------------- unique_decompose


def test_unique_decompose_recomposes_ghost_product():
    u = AtomUniverse.from_endpoints([1, 2, 3])
    s = make_graph(u, (10,), {(10, 20): u.full_bits}, {(EXT, 10): val(u, 1)})
    t = make_graph(u, (20,), {}, {(10, 20): val(u, 1)})
    prod = ghost_mult(s, t)
    left, right = unique_decompose(prod, {10}, {20})
    assert star(left, right) == prod


def test_unique_decompose_trivial_split():
    g = worked_tree_pre()
    left, right = unique_decompose(g, g.nodes, ())
    assert left == g
    assert right == empty_graph(g.universe)


def test_unique_decompose_rejects_non_partition():
    g = worked_tree_pre()
    with pytest.raises(InputError):
        unique_decompose(g, {ROOT}, {ROOT, 4})
    # the parts cover the graph but overlap
    three = make_graph(g.universe, [0, 1, 2], {}, {})
    with pytest.raises(InputError, match="partition"):
        unique_decompose(three, {0, 1}, {1, 2})


def test_unique_decompose_cross_inflow_matches_annotated_insets():
    g = worked_tree_pre()
    u = g.universe
    inner, outer = unique_decompose(g, {4, 8, 6}, set(g.nodes) - {4, 8, 6})
    assert inner.inflow_value(ROOT, 4) == u.full_bits
    assert inner.inflow_value(15, 8) == iv(u, 4, 15)
    assert outer.inflow_value(4, 1) == iv(u, NEG_INF, 4)
    assert outer.inflow_value(4, 15) == iv(u, 4, POS_INF)
    assert outer.inflow_value(8, 9) == iv(u, 8, 15)
    assert outer.inflow_value(6, 7) == iv(u, 6, 8)


# ---------------------------------------------------------------- codecs


def test_graph_json_round_trip():
    g = worked_tree_pre()
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_rejects_garbage():
    with pytest.raises(InputError):
        graph_from_json({"endpoints": [1]})
    with pytest.raises(InputError):
        graph_from_json({"endpoints": [1], "nodes": [{"id": "a"}]})


def test_load_json_reads_a_file_of_exactly_the_limit(monkeypatch, tmp_path):
    monkeypatch.setattr(flowgraph, "MAX_INPUT_BYTES", 16)
    path = tmp_path / "g.json"
    path.write_text('{"a": [1, 2, 3]}')  # 16 bytes
    assert flowgraph.load_json(path) == {"a": [1, 2, 3]}
    path.write_text('{"a": [1, 2, 3]} ')
    with pytest.raises(InputError) as info:
        flowgraph.load_json(path)
    assert str(info.value) == f"{path} is over the input limit of 16 bytes"


def test_graphs_of_twin_universes_are_equal_and_hash_equal():
    g = worked_tree_pre()
    twin = graph_from_json(graph_to_json(g))
    assert twin.universe is not g.universe
    assert twin == g and hash(twin) == hash(g)
    assert twin != make_graph(g.universe, g.nodes, g.edge_map)
    hash(g), g.flow  # fill the caches a copy must not carry
    for copied in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert "_hash" not in vars(copied) and "flow" not in vars(copied)
        assert copied == g and hash(copied) == hash(g)


def test_graph_rejects_a_value_outside_the_universe():
    # a filter or inflow int is TOP_TAG or an atom set in [0, full_bits]
    u = AtomUniverse.from_endpoints([1])
    for bad in (-3, u.full_bits + 1, 1 << 20):
        with pytest.raises(InputError):
            make_graph(u, [0], {(0, 5): bad}, {})
        with pytest.raises(InputError):
            make_graph(u, [0], {}, {(9, 0): bad})
        with pytest.raises(InputError):
            FlowGraph(u, (0,), ((0, 5, bad),), ())
        with pytest.raises(InputError):
            FlowGraph(u, (0,), (), ((9, 0, bad),))
    # Bot is the default a normalized graph drops, never an entry
    with pytest.raises(InputError):
        FlowGraph(u, (0,), ((0, 5, BOT_TAG),), ((9, 0, BOT_TAG),))


def test_graph_constructor_checks_entry_order():
    u = AtomUniverse.from_endpoints([1])
    top, f = TOP_TAG, TOP_TAG
    bad = [
        ((0, 1), ((1, 5, f), (0, 5, f)), ()),
        ((0, 1), ((0, 5, f), (0, 5, f)), ()),
        ((0, 1), (), ((9, 1, top), (9, 0, top))),
        ((0, 1), (), ((9, 0, top), (9, 0, top))),
    ]
    for nodes, edges, inflow in bad:
        with pytest.raises(InputError, match="sorted and keyed uniquely"):
            FlowGraph(u, nodes, edges, inflow)
    assert FlowGraph(u, (0, 1), ((0, 5, f), (1, 5, f)), ((9, 0, top), (9, 1, top))).nodes == (0, 1)


def test_make_graph_normalizes_defaults():
    u = AtomUniverse.from_endpoints([1])
    g = make_graph(
        u,
        (2, 1),
        {(1, 2): BOT_TAG},
        {(EXT, 1): BOT_TAG},
    )
    assert g == make_graph(u, (1, 2), {}, {})


def test_dot_output_mentions_every_node():
    g = worked_tree_pre()
    dot = graph_to_dot(g)
    for x in g.nodes:
        assert f"n{x}" in dot


@pytest.mark.parametrize("first", ["flowgraph", "estimator"])
def test_flowgraph_and_estimator_import_in_either_order(first):
    # each module binds the other at import time; a fresh interpreter that
    # imports either one first must still close and update a graph
    code = (
        f"import flowcheck.{first}\n"
        "from flowcheck.estimator import ClosureFamily, Estimator\n"
        "from flowcheck.flowgraph import make_graph\n"
        "from flowcheck.keyspace import AtomUniverse\n"
        "g = make_graph(AtomUniverse.from_endpoints([4]), (0,), {}, {(-1, 0): 1})\n"
        "assert isinstance(g.closure({-1}, Estimator.eq()), ClosureFamily)\n"
        "assert g.approx_update(lambda s: s, Estimator.eq()) is g\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
