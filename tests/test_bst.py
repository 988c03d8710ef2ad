"""Heap model, derived flow graphs, tree invariants, and the eight operations."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError

import pytest

from flowcheck.bst import (
    EXTERNAL_SOURCE,
    Heap,
    NodeFields,
    Op,
    SKIPPED,
    check_inv,
    derive_flowgraph,
    derived_quantities,
    find,
    find_succ,
    heap_from_json,
    heap_to_json,
    op_from_json,
    run_op,
    singleton_heap,
)
from flowcheck.errors import InputError
from flowcheck.flowgraph import FlowGraph, make_graph
from flowcheck.keyspace import (
    BOT_TAG,
    NEG_INF,
    POS_INF,
    TOP_TAG,
    AtomUniverse,
    contains_key,
    interval_bits,
)
from helpers import (
    iv,
    tree_universe,
    worked_heap_pre,
    worked_tree_insets_post,
    worked_tree_insets_pre,
    worked_tree_post,
    worked_tree_pre,
)

# ---------------------------------------------------------------- derivation


def test_derived_graph_matches_worked_tree():
    assert derive_flowgraph(worked_heap_pre()) == worked_tree_pre()


def test_derived_insets_match_annotations():
    g = derive_flowgraph(worked_heap_pre())
    assert g.flow == worked_tree_insets_pre(g.universe)


def test_duplicate_mark_suppresses_edge():
    h = worked_heap_pre().with_writes(((8, "dup", "left"),))
    g = derive_flowgraph(h)
    assert g.edge_fn(8, 6) == BOT_TAG
    assert g.edge_fn(8, 9) >= 0


def test_equal_children_derive_const_top_edge():
    h = Heap.of(
        0,
        {
            0: NodeFields(key=NEG_INF, right=1),
            1: NodeFields(key=4, left=2, right=2),
            2: NodeFields(key=8),
        },
    )
    g = derive_flowgraph(h, AtomUniverse.from_endpoints((4, 8)))
    assert g.edge_fn(1, 2) == TOP_TAG
    assert g.flow[2] == TOP_TAG


def test_key_off_grid_rejected():
    h = worked_heap_pre()
    with pytest.raises(InputError):
        derive_flowgraph(h, AtomUniverse.from_endpoints((1, 4)))


def test_default_inflow_targets_root_with_full_range():
    g = derive_flowgraph(singleton_heap())
    assert g.inflow_value(EXTERNAL_SOURCE, 0) == g.universe.full_bits


def _derive_by_make_graph(h: Heap, universe: AtomUniverse) -> FlowGraph:
    edges = {}
    for x, f in h.entries:
        if f.left is not None and f.left == f.right:
            edges[(x, f.left)] = TOP_TAG
            continue
        if f.left is not None and f.dup != "left":
            edges[(x, f.left)] = interval_bits(universe, NEG_INF, f.key, False, True)
        if f.right is not None and f.dup != "right":
            edges[(x, f.right)] = interval_bits(universe, f.key, POS_INF, True, False)
    inflow = {(EXTERNAL_SOURCE, h.root): universe.full_bits}
    return make_graph(universe, h.nodes.keys(), edges, inflow)


def test_derived_graph_matches_make_graph_on_random_heaps():
    grid = tuple(range(1, 18))
    u = AtomUniverse.from_endpoints(grid)
    for i in range(60):
        rng = random.Random(i)
        h = singleton_heap()
        for _ in range(rng.randint(0, 20)):
            h = run_op(h, Op("insert", key=rng.choice(grid))).heap
        for x in rng.sample(sorted(h.nodes), min(3, len(h.nodes))):
            f = h.get(x)
            match rng.randrange(4):
                case 0:
                    h = h.with_writes(((x, "dup", rng.choice(("left", "right"))),))
                case 1 if f.left is not None:
                    h = h.with_writes(((x, "right", f.left),))
                case 2:
                    target = rng.choice([None, max(h.nodes) + 1, f.right])
                    h = h.with_writes(((x, "left", target),))
        own = AtomUniverse.from_endpoints(h.keys_present())
        for universe, ref in ((u, u), (None, own)):
            got, want = derive_flowgraph(h, universe), _derive_by_make_graph(h, ref)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want), i


# ---------------------------------------------------------------- quantities


def test_keyset_of_interior_node_is_point():
    h = worked_heap_pre()
    g = derive_flowgraph(h)
    q = derived_quantities(h, g, g.flow, 8)
    assert q.keyset == iv(g.universe, 8, 8, False, False)
    assert contains_key(g.universe, q.keyset, 8)


def test_keyset_of_left_child_holds_low_range():
    h = worked_heap_pre()
    g = derive_flowgraph(h)
    q = derived_quantities(h, g, g.flow, 1)
    # node 1 keeps (-inf, 4) minus its only outset (1, 4)
    assert q.keyset == iv(g.universe, NEG_INF, 1, False, False)


def test_contents_empty_for_deleted_and_root():
    h = worked_heap_pre()
    g = derive_flowgraph(h)
    assert derived_quantities(h, g, g.flow, 4).contents == frozenset()
    assert derived_quantities(h, g, g.flow, 0).contents == frozenset()
    assert derived_quantities(h, g, g.flow, 6).contents == {6}


def test_keyset_empty_when_inset_bot():
    h = worked_heap_pre()
    post = run_op(h, Op("remove_complex"), seed=_seed_for(h, 4)).heap
    g = derive_flowgraph(post)
    q = derived_quantities(post, g, g.flow, 6)
    assert g.flow[6] == BOT_TAG
    assert q.keyset == 0


# ---------------------------------------------------------------- invariants


def test_worked_tree_satisfies_invariant():
    rep = check_inv(worked_heap_pre())
    assert rep.ok
    assert rep.contents == {1, 3, 6, 7, 8, 9, 15, 18}


def test_invariant_flags_duplicate_mark():
    rep = check_inv(worked_heap_pre().with_writes(((6, "dup", "right"),)))
    assert (6, "duplicate-mark") in rep.violations


def test_node_fields_read_as_the_frozen_dataclass_did():
    f = NodeFields(key=4, left=1)
    assert repr(f) == "NodeFields(key=4, left=1, right=None, deleted=False, dup='no')"
    assert hash(f) == hash((4, 1, None, False, "no"))
    assert f == NodeFields(4, 1, None, False, "no") and f != NodeFields(key=4)
    with pytest.raises(FrozenInstanceError):
        f.key = 5
    with pytest.raises(InputError, match="bad dup mark: 'up'"):
        NodeFields(key=4, dup="up")


def test_heap_writes_rebuild_only_the_written_fields():
    pre = worked_heap_pre()
    h = pre.with_writes(((6, "del", True), (6, "left", 3), (9, "dup", "left")))
    assert h.get(6) == NodeFields(key=6, left=3, right=7, deleted=True)
    assert h.get(9) == NodeFields(key=9, dup="left")
    assert h.get(8) is pre.get(8)
    with pytest.raises(InputError, match="bad dup mark"):
        h.with_writes(((9, "dup", "middle"),))


def test_heap_updates_build_what_the_checked_constructor_builds():
    # with_writes and add_node skip the entry check, so their heaps must be
    # the ones Heap(...) accepts from the sorted entries
    rng = random.Random(3)
    h = worked_heap_pre()
    for _ in range(60):
        if rng.random() < 0.5:
            x = rng.choice([i for i in range(-5, 40) if i not in h.nodes])
            h = h.add_node(x, NodeFields(key=rng.randrange(20)))
        else:
            x = rng.choice(list(h.nodes))
            h = h.with_writes(((x, "del", rng.random() < 0.5), (x, "left", rng.choice(list(h.nodes)))))
        ref = Heap(h.root, tuple(sorted(h.nodes.items())))
        assert h.entries == ref.entries and h == ref and repr(h) == repr(ref)
    with pytest.raises(InputError, match="heap entries must be sorted and distinct"):
        Heap(0, tuple(reversed(h.entries)))
    with pytest.raises(InputError, match="root must be a heap node"):
        Heap(1000, h.entries)


def test_invariant_flags_unreached_live_node():
    h = worked_heap_pre().add_node(99, NodeFields(key=9))
    rep = check_inv(h, universe=tree_universe())
    assert (99, "contents-outside-keyset") in rep.violations


def test_invariant_tolerates_unreached_deleted_node():
    h = worked_heap_pre().add_node(99, NodeFields(key=9, deleted=True))
    assert check_inv(h, universe=tree_universe()).ok


def test_invariant_flags_top_inset():
    h = Heap.of(
        0,
        {
            0: NodeFields(key=NEG_INF, right=1),
            1: NodeFields(key=4, left=2, right=2),
            2: NodeFields(key=8),
        },
    )
    rep = check_inv(h)
    assert (2, "inset-top") in rep.violations


def test_invariant_flags_bad_root():
    rep = check_inv(worked_heap_pre().with_writes(((0, "del", True),)))
    assert (0, "root-deleted") in rep.violations
    rep = check_inv(worked_heap_pre().with_writes(((0, "key", 1),)))
    assert any(c == "root-key-not-sentinel" for _, c in rep.violations)


def test_invariant_flags_key_outside_inset():
    # node 3 sits on 4's low side but claims key 15
    h = worked_heap_pre().with_writes(((3, "key", 15),))
    rep = check_inv(h, universe=tree_universe())
    assert (3, "key-outside-inset") in rep.violations


def test_invariant_region_restricted_to_given_nodes():
    h = worked_heap_pre().with_writes(((6, "dup", "right"),))
    rep = check_inv(h, region=(1, 3))
    assert rep.ok
    assert rep.contents == {1, 3}


# ---------------------------------------------------------------- search


def test_find_follows_corrected_branching():
    h = worked_heap_pre()
    assert find(h, 3) == (1, 3)
    assert find(h, 6) == (8, 6)
    assert find(h, 5) == (6, None)
    assert find(h, 4) == (0, 4)


def test_find_succ_walks_leftmost():
    h = worked_heap_pre()
    assert find_succ(h, 4) == (8, 6)
    assert find_succ(h, 1) is None
    assert find_succ(h, 3) is None


# ---------------------------------------------------------------- user operations


def test_insert_into_fresh_tree():
    out = run_op(singleton_heap(), Op("insert", key=5))
    assert out.result is True
    assert out.heap.get(0).right == 1
    assert out.heap.get(1).key == 5
    assert [s.label for s in out.trace] == ["insert-alloc", "insert-link"]


def test_insert_attaches_on_search_side():
    h = worked_heap_pre()
    out = run_op(h, Op("insert", key=5))
    z = out.heap.get(6).left
    assert z is not None and out.heap.get(z).key == 5


def test_insert_revives_deleted_node():
    h = worked_heap_pre()
    out = run_op(h, Op("insert", key=4))
    assert out.result is True
    assert not out.heap.get(4).deleted
    assert [s.label for s in out.trace] == ["insert-revive"]


def test_insert_present_key_returns_false():
    out = run_op(worked_heap_pre(), Op("insert", key=8))
    assert out.result is False
    assert out.heap == worked_heap_pre()


def test_delete_marks_node():
    out = run_op(worked_heap_pre(), Op("delete", key=8))
    assert out.result is True
    assert out.heap.get(8).deleted
    assert run_op(out.heap, Op("delete", key=8)).result is False


def test_delete_absent_key_returns_false():
    assert run_op(worked_heap_pre(), Op("delete", key=5)).result is False


def test_contains_respects_deletion_mark():
    h = worked_heap_pre()
    assert run_op(h, Op("contains", key=8)).result is True
    assert run_op(h, Op("contains", key=4)).result is False
    assert run_op(h, Op("contains", key=5)).result is False


def test_user_ops_preserve_invariant_and_model():
    h = worked_heap_pre()
    model = {1, 3, 6, 7, 8, 9, 15, 18}
    for op, change in (
        (Op("insert", key=10), True),
        (Op("delete", key=3), True),
        (Op("insert", key=4), True),
        (Op("delete", key=10), True),
        (Op("insert", key=7), False),
    ):
        out = run_op(h, op)
        assert out.result is change
        if op.name == "insert" and change:
            model.add(op.key)
        if op.name == "delete" and change:
            model.remove(op.key)
        h = out.heap
        rep = check_inv(h)
        assert rep.ok
        assert rep.contents == model


# ---------------------------------------------------------------- maintenance


def _seed_for(h: Heap, target: int) -> int:
    """Smallest seed whose reachable pick lands on target."""
    from flowcheck.bst import _pick_reachable

    for seed in range(500):
        if _pick_reachable(h, seed) == target:
            return seed
    raise AssertionError(f"no seed selects node {target}")


def test_remove_simple_unlinks_marked_left_child():
    # 8's left child 6 marked; 6 has only a right child, which gets promoted
    h = run_op(worked_heap_pre(), Op("delete", key=6)).heap
    pre = check_inv(h)
    out = run_op(h, Op("remove_simple"), seed=_seed_for(h, 8))
    assert out.result is True
    assert out.heap.get(8).left == 7
    assert out.trace[0].estimator == "simple"
    post = check_inv(out.heap)
    assert post.ok
    assert post.contents == pre.contents


def test_remove_simple_skips_unmarked_child():
    h = worked_heap_pre()
    out = run_op(h, Op("remove_simple"), seed=_seed_for(h, 15))
    assert out.result == SKIPPED
    assert out.heap == h


def test_remove_simple_skips_two_child_target():
    h = run_op(worked_heap_pre(), Op("delete", key=8)).heap
    out = run_op(h, Op("remove_simple"), seed=_seed_for(h, 15))
    assert out.result == SKIPPED


def test_remove_complex_reproduces_worked_removal():
    h = worked_heap_pre()
    out = run_op(h, Op("remove_complex"), seed=_seed_for(h, 4))
    assert out.result is True
    g = derive_flowgraph(out.heap, tree_universe())
    assert g == worked_tree_post()
    assert g.flow == worked_tree_insets_post(g.universe)
    assert [s.label for s in out.trace] == ["key-copy", "del-swap", "unlink-succ"]


def test_remove_complex_preserves_contents_and_invariant():
    h = worked_heap_pre()
    pre = check_inv(h)
    out = run_op(h, Op("remove_complex"), seed=_seed_for(h, 4))
    post = check_inv(out.heap, universe=tree_universe())
    assert post.ok
    assert post.contents == pre.contents


def test_remove_complex_trace_carries_estimator_hints():
    out = run_op(worked_heap_pre(), Op("remove_complex"), seed=_seed_for(worked_heap_pre(), 4))
    copy, swap, unlink = out.trace
    assert copy.estimator == "complex" and copy.pivot == 4 and copy.release_hi == 6
    assert swap.estimator == "eq"
    assert unlink.estimator == "simple" and unlink.footprint == (8, 6)


def test_remove_complex_skips_undeleted_or_leafish_targets():
    h = worked_heap_pre()
    assert run_op(h, Op("remove_complex"), seed=_seed_for(h, 8)).result == SKIPPED
    h2 = run_op(h, Op("delete", key=1)).heap
    assert run_op(h2, Op("remove_complex"), seed=_seed_for(h2, 1)).result == SKIPPED


def test_remove_complex_skips_when_successor_chain_missing():
    # 15 marked but its right child 18 has no left chain
    h = Heap.of(
        0,
        {
            0: NodeFields(key=NEG_INF, right=15),
            15: NodeFields(key=15, left=8, right=18, deleted=True),
            8: NodeFields(key=8),
            18: NodeFields(key=18),
        },
    )
    assert run_op(h, Op("remove_complex"), seed=_seed_for(h, 15)).result == SKIPPED


def test_rotate_duplicates_then_swings():
    # x=15 with left 8, grandchild 6: rotation lifts 8's subtree shape
    h = worked_heap_pre()
    pre = check_inv(h)
    out = run_op(h, Op("rotate"), seed=_seed_for(h, 15))
    assert out.result is True
    c = out.heap.get(6).right
    assert c is not None
    cf = out.heap.get(c)
    assert cf.key == 8 and cf.dup == "no" and cf.right == 9 and cf.left == 7
    assert out.heap.get(15).left == 6
    assert out.heap.get(8).deleted
    post = check_inv(out.heap, universe=tree_universe())
    assert post.ok
    assert post.contents == pre.contents


def test_rotate_skips_without_grandchild():
    h = worked_heap_pre()
    assert run_op(h, Op("rotate"), seed=_seed_for(h, 1)).result == SKIPPED
    assert run_op(h, Op("rotate"), seed=_seed_for(h, 3)).result == SKIPPED


def test_maintenance_pick_is_seed_deterministic():
    h = run_op(worked_heap_pre(), Op("delete", key=8)).heap
    a = run_op(h, Op("remove_complex"), seed=7)
    b = run_op(h, Op("remove_complex"), seed=7)
    assert a.heap == b.heap and a.result == b.result


def test_trace_replay_matches_returned_heap():
    # a key copy with two writes, then an allocation: each traced step,
    # replayed on the heap before it, gives the heap the operation kept
    h = worked_heap_pre()
    for name, target in (("remove_complex", 4), ("rotate", 15)):
        out = run_op(h, Op(name), seed=_seed_for(h, target))
        assert out.result is True and len(out.heaps) == len(out.trace)
        replayed = h
        for step, after in zip(out.trace, out.heaps):
            if step.alloc:
                replayed = replayed.add_node(*step.alloc)
            replayed = replayed.with_writes(step.writes)
            assert replayed == after
        assert out.heaps[-1] == out.heap == replayed


# ---------------------------------------------------------------- JSON


def test_heap_json_round_trip():
    h = worked_heap_pre()
    assert heap_from_json(heap_to_json(h)) == h


def test_heap_json_rejects_garbage():
    with pytest.raises(InputError):
        heap_from_json({"nodes": []})
    with pytest.raises(InputError):
        heap_from_json({"root": 0, "nodes": [{"id": 0}]})


def test_op_json_decoding():
    assert op_from_json({"op": "insert", "key": 5}) == Op("insert", key=5)
    assert op_from_json({"op": "remove_complex"}) == Op("remove_complex")
    with pytest.raises(InputError):
        op_from_json({"op": "defrag"})
