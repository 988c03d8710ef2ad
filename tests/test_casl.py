"""Contextual triples: predicates, commands, checks, and the scenario runner."""

from __future__ import annotations

import ast
import inspect
import json
from importlib.resources import files
from pathlib import Path

import pytest

from flowcheck import bst, casl, oracle
from flowcheck import registry as reg
from flowcheck.casl import (
    EMPTY,
    TOP,
    CheckResult,
    ClosurePredicate,
    Command,
    Predicate,
    _pred_leq,
    _rewrite_edges,
    check_casl,
    check_hoare,
    check_locality,
    check_mediation,
    contextualize,
    emp_for,
    flow_update_command,
    induced_transformer,
    run_scenario,
    sem,
    star_with_context,
    upsert_command,
)
from flowcheck.cli import main
from flowcheck.errors import InputError, InternalInvariantError
from flowcheck.estimator import Estimator
from flowcheck.flowgraph import (
    FlowGraph,
    empty_graph,
    graph_from_json,
    graph_to_json,
    make_graph,
    star,
    unique_decompose,
)
from flowcheck.keyspace import BOT_TAG, TOP_TAG, AtomUniverse
from flowcheck.oracle import SINK, random_graph, rng_for
from helpers import raw_flow_write_command, tree_universe, worked_heap_pre, worked_tree_pre

EXT = -1


# ---------------------------------------------------------------- fixtures


def small_universe() -> AtomUniverse:
    return AtomUniverse.from_endpoints([4, 8])


def island(u: AtomUniverse, node: int, src: int) -> FlowGraph:
    return make_graph(u, [node], {}, {(src, node): u.full_bits})


def worked_split():
    g = worked_tree_pre()
    foot = [4, 6]
    s, d = unique_decompose(g, foot, sorted(g.node_set - set(foot)))
    return g, s, d


def key_copy_command(universe: AtomUniverse):
    # the unbounded-footprint step: the target key moves from 4 to 6
    h2 = worked_heap_pre().with_writes(((4, "key", 6),))
    post = bst.derive_flowgraph(h2, universe)
    edges = {(src, dst): fn for src, dst, fn in post.edges if src in (4, 6)}
    return flow_update_command("key-copy", edges, (4, 6)), post


def key_copy_estimator(u: AtomUniverse) -> Estimator:
    from flowcheck.keyspace import interval_bits

    return Estimator.complex(4, interval_bits(u, 4, 6, True, False))


# ---------------------------------------------------------------- predicates


def test_top_is_above_everything():
    u = small_universe()
    p = Predicate.of([island(u, 1, EXT)])
    assert _pred_leq(p, TOP)[0]
    assert not _pred_leq(TOP, p)[0]
    assert _pred_leq(TOP, TOP)[0]


def test_leq_is_state_inclusion():
    u = small_universe()
    a, b = island(u, 1, EXT), island(u, 2, -2)
    assert _pred_leq(Predicate.of([a]), Predicate.of([a, b]))[0]
    assert not _pred_leq(Predicate.of([a, b]), Predicate.of([a]))[0]


def test_join_unions_states_and_absorbs_top():
    u = small_universe()
    a, b = island(u, 1, EXT), island(u, 2, -2)
    assert Predicate.of([a]).join(Predicate.of([b])).state_set == {a, b}
    assert Predicate.of([a]).join(TOP).is_top


def test_sep_conj_unit_and_top():
    u = small_universe()
    a = Predicate.of([island(u, 1, EXT)])
    emp = Predicate.of([empty_graph(u)])
    assert star_with_context(a, emp) == a
    assert star_with_context(TOP, a).is_top


def test_sep_conj_drops_interface_mismatches():
    g, s, d = worked_split()
    # d expects inflow from node 4; an island in 4's place sends nothing
    u = g.universe
    wrong = make_graph(u, [4, 6], {}, {(EXT, 4): u.full_bits})
    assert star_with_context(Predicate.of([wrong]), Predicate.of([d])).state_set == frozenset()


def test_sep_conj_recomposes_the_worked_split():
    g, s, d = worked_split()
    assert star_with_context(Predicate.of([s]), Predicate.of([d])).state_set == {g}


def test_sep_conj_mixed_algebras_rejected():
    u = small_universe()
    a = Predicate.of([island(u, 1, EXT)])
    r = Predicate.of([reg.RegistryState.of((("k1", "a"),))])
    with pytest.raises(InputError):
        star_with_context(a, r)


def test_sep_conj_registry_pairs():
    h = (("k1", "a"),)
    a = Predicate.of([reg.RegistryState.of(h)])
    s = reg.Status(reg.SLT, snapshot=h, key="k1", value="a")
    b = Predicate.of([reg.RegistryState.of(h, {"t1": s})])
    out = star_with_context(a, b)
    assert out.state_set == {reg.RegistryState.of(h, {"t1": s})}


def test_emp_for_both_algebras():
    u = small_universe()
    g = island(u, 1, EXT)
    assert emp_for(g) == empty_graph(u)
    r = reg.RegistryState.of((("k1", "a"),))
    assert emp_for(r) == reg.RegistryState.of((("k1", "a"),))


# ---------------------------------------------------------------- semantics


def markdel_command() -> Command:
    return Command("markDel", lambda h: h.with_writes(((6, "del", True),)))


def test_sem_com_is_per_state():
    h = worked_heap_pre()
    out = sem(markdel_command(), Predicate.of([h]))
    assert out.state_set == {h.with_writes(((6, "del", True),))}


def test_sem_strict_in_top():
    assert sem(Command("skip", lambda s: s), TOP).is_top


def test_sem_abort_anywhere_gives_top():
    u = small_universe()
    g = island(u, 1, EXT)
    bad = Command("die", lambda s: None)
    assert sem(bad, Predicate.of([g])).is_top


# ---------------------------------------------------------------- hoare triples


def test_check_hoare_pass_and_fail_with_witness():
    h = worked_heap_pre()
    marked = h.with_writes(((6, "del", True),))
    com = markdel_command()
    assert check_hoare(Predicate.of([h]), com, Predicate.of([marked])).ok
    bad = check_hoare(Predicate.of([h]), com, Predicate.of([h]))
    assert not bad.ok and bad.witness == marked


def test_check_hoare_top_post_is_always_valid():
    u = small_universe()
    g = island(u, 1, EXT)
    abort = Command("die", lambda s: None)
    assert check_hoare(Predicate.of([g]), abort, TOP).ok


# ---------------------------------------------------------------- witness order

# Every post state fails against the empty post, so the witness is the one a
# walk in repr order meets first; the expected witnesses were recorded from
# the checker when it walked the sorted states.


def _witness_registry_case():
    S, h = reg.Status, (("k1", "a"),)
    a = Predicate.of(
        [
            reg.RegistryState.of(h, {"t2": S(reg.OBL, h, "k1", "b")}),
            reg.RegistryState.of(h, {"t1": S(reg.SLT, (), "k2", "a")}),
            reg.RegistryState.of(h, {"t10": S(reg.FUL, h, "k1", "a")}),
            reg.RegistryState.of(h, {"s9": S(reg.OBL, h, "k2", "b")}),
        ]
    )
    c = Predicate.of(
        [
            reg.RegistryState.of(h, {"u1": S(reg.OBL, h, "k1", "b")}),
            reg.RegistryState.of(h, {"u2": S(reg.SLT, h, "k2", None)}),
        ]
    )
    return a, c, upsert_command("k1", "b")


def _witness_flow_case():
    u = small_universe()

    def isle(node: int, src: int, bits: int) -> FlowGraph:
        return make_graph(u, [node], {}, {(src, node): bits})

    a = Predicate.of([isle(3, -1, 0b11), isle(1, -1, 0b100), isle(2, -2, 0b1), isle(1, -1, 0b11)])
    c = Predicate.of([isle(5, -5, 0b1), isle(6, -6, 0b10)])
    return a, c, Command("skip", lambda s: s), isle


def test_hoare_witness_is_the_least_failing_state_in_repr_order():
    a, _, com = _witness_registry_case()
    v = check_hoare(a, com, EMPTY)
    h2 = (("k1", "b"), ("k1", "a"))
    assert not v.ok and v.witness == reg.RegistryState.of(
        h2, {"s9": reg.Status(reg.OBL, (("k1", "a"),), "k2", "b")}
    )
    a, _, com, isle = _witness_flow_case()
    v = check_hoare(a, com, EMPTY)
    assert not v.ok and v.witness == isle(1, -1, 0b11)


def test_casl_witness_is_the_least_failing_composite_in_repr_order():
    a, c, com = _witness_registry_case()
    v = check_casl(c, a, com, EMPTY)
    h, h2 = (("k1", "a"),), (("k1", "b"), ("k1", "a"))
    assert not v.ok and v.witness == reg.RegistryState.of(
        h2,
        {
            "s9": reg.Status(reg.OBL, h, "k2", "b"),
            "u1": reg.Status(reg.FUL, h, "k1", "b"),
        },
    )
    a, c, com, isle = _witness_flow_case()
    v = check_casl(c, a, com, EMPTY)
    assert not v.ok and v.witness == star(isle(1, -1, 0b11), isle(5, -5, 0b1))


# ---------------------------------------------------------------- contextual triples


def identity_flow_command(g: FlowGraph) -> Command:
    return flow_update_command("same", dict(g.edge_map), g.node_set)


def test_check_casl_is_the_starred_hoare_triple():
    u = small_universe()
    a_st, c_st = island(u, 1, EXT), island(u, 2, -2)
    a, c = Predicate.of([a_st]), Predicate.of([c_st])
    com = identity_flow_command(a_st)
    good = star_with_context(a, Predicate.of([empty_graph(u)]))
    assert check_casl(c, a, com, good).ok
    bad = check_casl(c, a, com, Predicate.of([c_st]))
    assert not bad.ok and bad.witness is not None


def test_check_casl_round_trips_context_against_frame():
    # <c>{a * d} st {b * d}  iff  <c * d>{a} st {b}
    u = small_universe()
    a_st, d_st, c_st = island(u, 1, EXT), island(u, 2, -2), island(u, 3, -3)
    a, d, c = Predicate.of([a_st]), Predicate.of([d_st]), Predicate.of([c_st])
    com = identity_flow_command(a_st)
    for b in (a, Predicate.of([c_st]), TOP):
        lhs = check_casl(c, star_with_context(a, d), com, star_with_context(b, d)).ok
        rhs = check_casl(star_with_context(c, d), a, com, b).ok
        assert lhs == rhs


def test_check_casl_frames_untouched_state():
    u = small_universe()
    a_st, d_st, c_st = island(u, 1, EXT), island(u, 2, -2), island(u, 3, -3)
    a, d, c = Predicate.of([a_st]), Predicate.of([d_st]), Predicate.of([c_st])
    com = identity_flow_command(a_st)
    assert check_casl(c, a, com, a).ok
    assert check_casl(c, star_with_context(a, d), com, star_with_context(a, d)).ok


# ---------------------------------------------------------------- locality and mediation


def test_locality_of_skip():
    u = small_universe()
    a = Predicate.of([island(u, 1, EXT)])
    b = Predicate.of([island(u, 2, -2)])
    assert check_locality(Command("skip", lambda s: s), [(a, b)]).ok


def test_locality_of_the_guarded_flow_command():
    g, s, d = worked_split()
    com, _ = key_copy_command(g.universe)
    # alone the guard aborts (frame-visible change), composed it passes: both local
    assert check_locality(com, [(Predicate.of([s]), Predicate.of([d]))]).ok


def test_locality_fails_for_the_raw_write():
    g, s, d = worked_split()
    guarded, _ = key_copy_command(g.universe)
    h2 = worked_heap_pre().with_writes(((4, "key", 6),))
    post = bst.derive_flowgraph(h2, g.universe)
    edges = {(src, dst): fn for src, dst, fn in post.edges if src in (4, 6)}
    raw = raw_flow_write_command("key-copy-raw", edges, (4, 6))
    out = check_locality(raw, [(Predicate.of([s]), Predicate.of([d]))])
    assert not out.ok and out.witness is not None


def test_mediation_holds_under_the_emp_context():
    g, s, d = worked_split()
    u = g.universe
    com = identity_flow_command(s)
    emp = Predicate.of([empty_graph(u)])
    assert check_mediation(com, emp, [Predicate.of([s])], Estimator.eq()).ok


def test_mediation_holds_for_the_closure_context():
    g, s, d = worked_split()
    est = key_copy_estimator(g.universe)
    com, _ = key_copy_command(g.universe)
    c = ClosurePredicate((d.closure(frozenset((4, 6)), est),))
    assert check_mediation(com, c, [Predicate.of([s])], est).ok


def test_mediation_fails_for_a_weakened_semantics():
    g, s, d = worked_split()
    est = key_copy_estimator(g.universe)
    com, _ = key_copy_command(g.universe)
    c = ClosurePredicate((d.closure(frozenset((4, 6)), est),))
    out = check_mediation(com, c, [Predicate.of([s])], est, ca=lambda a: EMPTY)
    assert not out.ok and out.witness is not None


def test_induced_transformer_emp_else_branch_equals_std():
    # under the emp context the approximation path coincides with std
    u = small_universe()
    g = island(u, 1, EXT)
    emp = Predicate.of([empty_graph(u)])
    for com in (identity_flow_command(g), key_copy_command(tree_universe())[0]):
        run = induced_transformer(com, emp, Estimator.eq())
        for state in (g, worked_tree_pre()):
            if com.core(state) is None:
                continue
            assert run(Predicate.of([state])) == sem(com, Predicate.of([state]))


# ---------------------------------------------------------------- contextualization


def test_contextualize_key_copy_produces_checked_split():
    g, s, d = worked_split()
    est = key_copy_estimator(g.universe)
    com, post = key_copy_command(g.universe)
    b, c = contextualize(com, Predicate.of([s]), Predicate.of([d]), est)
    assert isinstance(c, ClosurePredicate) and c.contains(d)
    assert check_casl(c, Predicate.of([s]), com, b).ok
    post_foot, post_ctx = unique_decompose(post, [4, 6], sorted(post.node_set - {4, 6}))
    assert b.contains(post_foot)
    assert c.contains(post_ctx)


def test_contextualize_composition_recovers_the_composite():
    g, s, d = worked_split()
    est = key_copy_estimator(g.universe)
    com, _ = key_copy_command(g.universe)
    _, c = contextualize(com, Predicate.of([s]), Predicate.of([d]), est)
    # the only family member whose interface matches the footprint is d itself
    assert star_with_context(Predicate.of([s]), c).state_set == {g}


def test_contextualize_rejects_wrong_posts():
    g, s, d = worked_split()
    est = key_copy_estimator(g.universe)
    com, _ = key_copy_command(g.universe)
    _, c = contextualize(com, Predicate.of([s]), Predicate.of([d]), est)
    out = check_casl(c, Predicate.of([s]), com, Predicate.of([s]))
    assert not out.ok


def test_contextualize_weak_estimator_gives_top_top():
    g, s, d = worked_split()
    com, _ = key_copy_command(g.universe)
    b, c = contextualize(com, Predicate.of([s]), Predicate.of([d]), Estimator.eq())
    assert b is TOP and c is TOP


def test_contextualize_top_in_top_out():
    b, c = contextualize(Command("skip", lambda s: s), TOP, TOP, Estimator.eq())
    assert b is TOP and c is TOP


def test_contextualize_registry_worked_example():
    h = (("k1", "a"),)
    obl = reg.Status(reg.OBL, snapshot=h, key="k1", value="b")
    a_state = reg.RegistryState.of(h)
    d_state = reg.RegistryState.of(h, {"t1": obl})
    com = upsert_command("k1", "b")
    b, c = contextualize(com, Predicate.of([a_state]), Predicate.of([d_state]))
    assert check_casl(c, Predicate.of([a_state]), com, b).ok
    h2 = (("k1", "b"),) + h
    assert b == Predicate.of([reg.RegistryState.of(h2)])
    ful = reg.Status(reg.FUL, snapshot=h, key="k1", value="b")
    assert c.contains(d_state)
    assert c.contains(reg.RegistryState.of(h2, {"t1": ful}))


def test_registry_runner_reports_a_failed_triple_with_its_witness(monkeypatch):
    # unreachable with the real check: the runner validates contextualize's
    # (b, c) itself and reports a failure as a casl check, not a crash
    bad = reg.RegistryState.of((("k1", "x"),))
    planted = casl.CheckResult("casl", False, "planted", bad)
    monkeypatch.setattr(casl, "check_casl", lambda c, a, com, b: planted)
    rep = run_scenario(bundled("registry_upsert.json"))
    assert rep.verdict == "fail"
    cx = rep.counterexample
    assert cx["check"] == "casl" and cx["detail"].endswith(": planted")
    assert cx["witness"] == reg.state_to_json(bad)


def test_registry_step_splits_mixed_thread_ids_without_sorting():
    # ids 1 and "t1" do not compare, so the split must not sort them
    spawns = [{"command": {"spawn": [tid, "k1", "b"]}} for tid in (1, "t1")]
    upsert = {"command": {"upsert": ["k1", "b"]}, "checks": ["casl", "inv"]}
    sc = {"algebra": "registry", "init": {"history": [["k1", "a"]]}, "steps": spawns + [upsert]}
    rep = run_scenario(sc)
    assert rep.verdict == "pass"
    casl_check, inv = rep.steps[2].checks
    assert casl_check.detail == "upsert 'k1': contextual triple holds over 2 threads"
    assert inv.name == "inv" and inv.ok


def test_registry_exact_context_is_not_enough():
    # widening matters: the old context alone cannot absorb the settled search
    h = (("k1", "a"),)
    obl = reg.Status(reg.OBL, snapshot=h, key="k1", value="b")
    a = Predicate.of([reg.RegistryState.of(h)])
    d = Predicate.of([reg.RegistryState.of(h, {"t1": obl})])
    com = upsert_command("k1", "b")
    b = Predicate.of([reg.RegistryState.of(((("k1", "b"),) + h))])
    assert not check_casl(d, a, com, b).ok
    _, c = contextualize(com, a, d)
    assert check_casl(c, a, com, b).ok


# ---------------------------------------------------------------- scenarios


def bundled(name: str) -> dict:
    return json.loads((files("flowcheck") / "examples" / name).read_text())


def worked_scenario(**step_extra) -> dict:
    step = {"command": {"op": "remove_complex", "node": 4}, "checks": ["casl", "inv", "contents"]}
    step.update(step_extra)
    return {
        "algebra": "bst",
        "init": bst.heap_to_json(worked_heap_pre()),
        "steps": [step],
    }


def test_scenario_worked_removal_passes():
    rep = run_scenario(worked_scenario())
    assert rep.verdict == "pass"
    assert rep.counterexample is None
    labels = [c.name for c in rep.steps[0].checks]
    assert labels == ["casl", "casl", "casl", "inv", "contents"]


def test_scenario_eq_estimator_fails_at_key_copy():
    rep = run_scenario(worked_scenario(estimator="eq"))
    assert rep.verdict == "fail"
    assert rep.counterexample["check"] == "casl"
    assert "key-copy" in rep.counterexample["detail"]
    assert rep.counterexample["witness"] is not None


def test_scenario_frame_rule_fails_with_interface_mismatch():
    rep = run_scenario(worked_scenario(rule="frame"))
    assert rep.verdict == "fail"
    assert "interface-mismatch" in rep.counterexample["detail"]


def test_frame_rule_fails_where_the_estimate_fails():
    sc = bundled("remove_complex_eq.json")
    sc["steps"][0]["rule"] = "frame"
    rep = run_scenario(sc)
    assert rep.verdict == "fail"
    assert rep.counterexample["detail"] == (
        "key-copy: update is not estimator-above the footprint at target 1"
    )


def test_frame_recomposition_that_drifts_is_a_bug(monkeypatch):
    # star rebuilds the rewritten graph exactly, so a drift is never a verdict;
    # this step rewrites its footprint's out-edges to themselves and passes
    # until star is made to drop the context
    sc = bundled("frame_vs_context.json")
    sc["steps"][0]["command"]["set_edges"] = [
        {"src": x["id"], **e} for x in sc["init"]["nodes"] if x["id"] in (4, 6)
        for e in x.get("edges", [])
    ]
    assert run_scenario(sc).verdict == "pass"
    monkeypatch.setattr(casl, "star", lambda up, d: up)
    with pytest.raises(InternalInvariantError, match="frame recomposition drifted"):
        run_scenario(sc)


def test_a_write_that_passes_under_frame_passes_under_context(monkeypatch):
    # every traced write of Contextualization's random trees, under both rules
    verdicts = []

    def both_rules(pre, post, tstep, universe):
        frame, _ = casl.check_trace_step(pre, post, tstep, universe, None, "frame")
        context, _ = casl.check_trace_step(pre, post, tstep, universe, None, "context")
        verdicts.append((frame.ok, context.ok))
        return "frame passes, context fails" if frame.ok and not context.ok else None

    monkeypatch.setattr(oracle, "_contextualize_step", both_rules)
    report = oracle.check_theorem("Contextualization", cases=40, seed=0)
    assert report.ok, report.counterexample
    assert (True, True) in verdicts


def test_scenario_registry_upsert_passes():
    rep = run_scenario(
        {
            "algebra": "registry",
            "init": {
                "history": [["k1", "a"]],
                "registry": {
                    "t1": {"tag": "OBL", "snapshot": [["k1", "a"]], "key": "k1", "value": "b"}
                },
            },
            "steps": [
                {"command": {"upsert": ["k1", "b"]}, "checks": ["casl", "inv"]},
                {"command": {"spawn": ["t2", "k1", "b"]}, "checks": ["inv"]},
            ],
        }
    )
    assert rep.verdict == "pass"


def test_scenario_flow_algebra_runs_raw_graphs():
    g = worked_tree_pre()
    h2 = worked_heap_pre().with_writes(((4, "key", 6),))
    post = bst.derive_flowgraph(h2, g.universe)
    from flowcheck.flowgraph import edge_fn_to_json

    rewrites = [
        {"src": src, "dst": dst, "fn": edge_fn_to_json(g.universe, fn)}
        for src, dst, fn in post.edges
        if src in (4, 6)
    ]
    rep = run_scenario(
        {
            "algebra": "flow",
            "init": graph_to_json(g),
            "estimator": {"complex": {"kx": 4, "K": [[4, 6, True, False]]}},
            "steps": [
                {"label": "key-copy", "command": {"set_edges": rewrites}, "footprint": [4, 6]}
            ],
        }
    )
    assert rep.verdict == "pass"


@pytest.mark.parametrize(
    "name", ["remove_complex.json", "remove_simple.json", "rotate.json", "user_ops.json"]
)
@pytest.mark.parametrize("every_check", [False, True], ids=["as-bundled", "every-check"])
def test_carried_graph_gives_the_fresh_invariant_report(monkeypatch, name, every_check):
    data = bundled(name)
    if every_check:
        # under casl the inserts and the rotate allocate, which drops the carried graph
        for step in data["steps"]:
            step["checks"] = ["casl", "inv", "contents"]
    check_inv = bst.check_inv
    reports = []

    def from_carried_graph(h, graph=None, **kwargs):
        assert graph is not None and not kwargs
        assert graph == bst.derive_flowgraph(h, graph.universe)
        report = check_inv(h, graph=graph)
        assert report == check_inv(h, universe=graph.universe)
        reports.append(report)
        return report

    monkeypatch.setattr(bst, "check_inv", from_carried_graph)
    rep = run_scenario(data)
    assert rep.verdict == "pass"
    inv_checks = [c for step in rep.steps for c in step.checks if c.name == "inv"]
    assert len(reports) == len(inv_checks) > 0


def test_rewrite_edges_matches_make_graph():
    u = AtomUniverse.from_endpoints([2, 4])
    fns = [BOT_TAG, TOP_TAG, *range(u.full_bits + 1)]
    for i in range(120):
        rng = rng_for("rewrite-edges", i, 0)
        g = random_graph(rng, u, max_nodes=6, edge_p=0.3)
        foot = frozenset(x for x in g.nodes if rng.random() < 0.5)
        targets = g.nodes + (SINK, 50)
        new = {(src, rng.choice(targets)): rng.choice(fns) for src in foot for _ in range(2)}
        edges = {key: fn for key, fn in g.edge_map.items() if key[0] not in foot}
        edges.update(new)
        want = make_graph(u, g.nodes, edges, g.inflow_map)
        got = _rewrite_edges(g, new, foot)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want), i
        assert _rewrite_edges(g, new, foot | {99}) is None
    with pytest.raises(InputError):
        raw_flow_write_command("escapes", {(5, 1): TOP_TAG}, (4,))


def test_scenario_input_errors(tmp_path):
    with pytest.raises(InputError):
        run_scenario({"algebra": "nope", "init": {}, "steps": []})
    with pytest.raises(InputError):
        run_scenario({"algebra": "flow", "steps": []})
    with pytest.raises(InputError):
        run_scenario("/does/not/exist.json")
    registry_init = {"history": [["k1", "a"]]}
    malformed = [
        ("registry", registry_init, [{"command": {"upsert": [1]}}]),
        ("registry", registry_init, [{"command": {"spawn": ["t"]}}]),
        ("registry", registry_init, ["upsert"]),
        ("flow", {"endpoints": [4], "nodes": [{"id": 0}]}, ["set_edges"]),
        ("registry", registry_init, [{"command": {"upsert": [[1], 2]}}]),
        ("registry", registry_init, [{"command": {"spawn": [["t"], "k1", "a"]}}]),
        ("registry", {"history": 5}, []),
        (
            "flow",
            {"endpoints": [4], "nodes": [{"id": 0}]},
            [{"command": {"set_edges": []}, "footprint": 5}],
        ),
        (
            "flow",
            {"endpoints": [4], "nodes": [{"id": 0}]},
            [{"command": {"set_edges": 5}, "footprint": [0]}],
        ),
        ("registry", registry_init, [{"command": {"upsert": ["k1", "b"]}, "checks": ["invariant"]}]),
        ("registry", registry_init, [{"command": {"upsert": ["k1", "b"]}, "checks": "inv"}]),
    ]
    for algebra, init, steps in malformed:
        with pytest.raises(InputError):
            run_scenario({"algebra": algebra, "init": init, "steps": steps})
    heap = bst.heap_to_json(worked_heap_pre())
    with pytest.raises(InputError):
        run_scenario({"algebra": "bst", "endpoints": 5, "init": heap, "steps": []})
    malformed_heaps = [
        lambda h: h.update(nodes=5),
        lambda h: h["nodes"][1].update(id=[4]),
        lambda h: h["nodes"][1].update(left=[1]),
        lambda h: h["nodes"].append(dict(h["nodes"][-1])),
    ]
    step = {"command": {"op": "contains", "key": 4}, "checks": ["inv", "contents"]}
    for mutate in malformed_heaps:
        heap = bst.heap_to_json(worked_heap_pre())
        mutate(heap)
        with pytest.raises(InputError):
            run_scenario({"algebra": "bst", "init": heap, "steps": [step]})
    heap = bst.heap_to_json(worked_heap_pre())
    heap["nodes"][1]["del"] = "no"
    with pytest.raises(InputError):
        run_scenario({"algebra": "bst", "init": heap, "steps": [step]})
    for command in (
        {"op": "remove_complex", "node": [1]},
        {"op": "remove_complex", "node": True},
        {"op": "contains"},
        {"op": ["contains"], "key": 3},
    ):
        with pytest.raises(InputError):
            run_scenario(worked_scenario(command=command))
    # a tree step's seed is an int; a present registry is an object
    for seed in ([1], {}, "x", 1.5, True, None):
        with pytest.raises(InputError, match="seed must be an int"):
            run_scenario(worked_scenario(command={"op": "rotate"}, seed=seed))
    for entries in ([], 0, False, "", None):
        init = dict(registry_init, registry=entries)
        with pytest.raises(InputError, match="registry must be an object"):
            run_scenario({"algebra": "registry", "init": init, "steps": []})
    frame_vs_context = bundled("frame_vs_context.json")
    frame_vs_context["steps"][0]["rule"] = "Frame"
    with pytest.raises(InputError):
        run_scenario(frame_vs_context)
    frame_vs_context["steps"][0]["rule"] = "frame"
    set_edges = frame_vs_context["steps"][0]["command"]["set_edges"]
    for bad in (dict(set_edges[0], dst=None), dict(set_edges[0], src=[4]), set_edges[0]):
        sc = json.loads(json.dumps(frame_vs_context))
        sc["steps"][0]["command"]["set_edges"].append(bad)
        with pytest.raises(InputError):
            run_scenario(sc)
    with pytest.raises(InputError):
        run_scenario(worked_scenario(rule="Frame"))
    concurrent = [
        lambda sc: sc["concurrent"].update(interleaveDepth="6"),
        lambda sc: sc["steps"][0].update({"assert": [5]}),
        lambda sc: sc["steps"][0]["command"].update(writes=[5]),
        lambda sc: sc.update(concurrent=5),
        lambda sc: sc["steps"][0].update({"assert": [{"node": 6, "field": ["del"]}]}),
        lambda sc: sc["steps"][0]["command"].update(writes=[[6, "color", 1]]),
        lambda sc: sc["steps"][0]["command"].update(writes=[[6, "key", [1]]]),
        lambda sc: sc["steps"][0].pop("command"),
        lambda sc: sc["steps"][0].update(command=5),
    ]
    for mutate in concurrent:
        sc = concurrent_scenario()
        mutate(sc)
        with pytest.raises(InputError):
            run_scenario(sc)
    # json.loads would keep only the last of two values given one key
    obl = '{"tag": "OBL", "snapshot": [["k9", "z"]], "key": "k1", "value": "a"}'
    slt = '{"tag": "SLT", "snapshot": [["k1", "a"]], "key": "k1", "value": "a"}'
    repeated = [
        '{"algebra": "registry", "init": {"history": [["k1", "a"]], "registry": '
        f'{{"t1": {obl}, "t1": {slt}}}}}, "steps": [{{"command": {{"spawn": ["t2", "k1", "a"]}}, '
        '"checks": ["inv"]}]}',
        '{"algebra": "registry", "init": {"history": [["k1", "a"]]}, "steps": [{"command": '
        '{"upsert": ["k1", "b"]}, "checks": ["invariant"], "checks": ["inv"]}]}',
    ]
    for text in repeated:
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(InputError, match="listed twice"):
            run_scenario(path)


def test_unknown_scenario_keys_are_named():
    # a misspelt key would be ignored and silently change what is checked
    broken = bst.heap_to_json(worked_heap_pre().with_writes(((6, "dup", "right"),)))
    misspelt = {"command": {"op": "contains", "key": 4}, "check": ["inv"]}
    registry = {"algebra": "registry", "init": {"history": [["k1", "a"]]}}
    upsert = {"command": {"upsert": ["k1", "b"]}}
    flow = bundled("frame_vs_context.json")
    cases = [
        ({"algebra": "bst", "init": broken, "steps": [misspelt]}, "step 0", "check"),
        (dict(registry, steps=[dict(upsert, rule="frame")]), "step 0", "rule"),
        (dict(registry, steps=[], estimator="eq"), "scenario", "estimator"),
        (dict(registry, steps=[dict(upsert, seed=1)]), "step 0", "seed"),
        (dict(flow, endpoints=[4]), "scenario", "endpoints"),
        (dict(flow, concurrent={"threads": 1}), "scenario", "concurrent"),
        (dict(flow, steps=[dict(flow["steps"][0], seed=1)]), "step 0", "seed"),
        (dict(flow, steps=[dict(flow["steps"][0], context=[1])]), "step 0", "context"),
        (worked_scenario(context=[0]), "step 0", "context"),
        (dict(worked_scenario(), estimator="eq"), "scenario", "estimator"),
    ]
    conc = concurrent_scenario()
    conc["concurrent"] = {"threads": 2, "interleaveDeph": 0}
    cases.append((conc, "concurrent", "interleaveDeph"))
    conc = concurrent_scenario()
    conc["steps"][1]["checks"] = ["inv"]
    cases.append((conc, "step 1", "checks"))
    for sc, where, key in cases:
        with pytest.raises(InputError, match=f"^{where}: unknown key '{key}'"):
            run_scenario(sc)


def test_broken_invariant_is_reported_by_node():
    heap = bst.heap_to_json(worked_heap_pre().with_writes(((6, "dup", "right"),)))
    step = {"command": {"op": "contains", "key": 4}, "checks": ["inv"]}
    rep = run_scenario({"algebra": "bst", "init": heap, "steps": [step]})
    assert rep.verdict == "fail"
    detail = "duplicate-mark at node 6; contents-outside-keyset at node 7"
    assert rep.counterexample["detail"] == detail


# a malformed step is an input error even after a failing step: every step is
# decoded before any is checked


def test_flow_runner_decodes_every_step_first():
    sc = bundled("frame_vs_context.json")
    assert run_scenario(sc).verdict == "fail"
    bad_fn = {"src": 4, "dst": 1, "fn": "nonsense"}
    sc["steps"].append({"command": {"set_edges": [bad_fn]}, "footprint": [4]})
    with pytest.raises(InputError):
        run_scenario(sc)


def test_tree_runner_decodes_every_step_first():
    sc = bundled("remove_complex_eq.json")
    assert run_scenario(sc).verdict == "fail"
    for command in ({"op": "insert", "key": "seven"}, {"op": "delete", "key": "inf"}):
        bad = dict(sc, steps=sc["steps"] + [{"command": command}])
        with pytest.raises(InputError, match="key"):
            run_scenario(bad)


def test_registry_runner_decodes_every_step_first():
    # t1's snapshot is no suffix of the history, so the first step's inv fails
    obl = {"tag": "OBL", "snapshot": [["k9", "z"]], "key": "k1", "value": "a"}
    init = {"history": [["k1", "a"]], "registry": {"t1": obl}}
    steps = [{"command": {"spawn": ["t2", "k1", "b"]}, "checks": ["inv"]}]
    sc = {"algebra": "registry", "init": init, "steps": steps}
    assert run_scenario(sc).verdict == "fail"
    steps.append({"command": {"upsert": [1]}})
    with pytest.raises(InputError, match="upsert takes a list of 2"):
        run_scenario(sc)


@pytest.mark.parametrize(
    "command", [{"upsert": ["k1", "b"]}, {"spawn": ["t2", "k1", "b"]}], ids=["upsert", "spawn"]
)
@pytest.mark.parametrize("footprint", [[1], 0, "", False, None], ids=json.dumps)
def test_registry_step_footprint_is_absent_or_empty(command, footprint):
    step = {"command": command}
    sc = {"algebra": "registry", "init": {"history": [["k1", "a"]]}, "steps": [step]}
    assert run_scenario(sc).verdict == "pass"
    step["footprint"] = []
    assert run_scenario(sc).verdict == "pass"
    step["footprint"] = footprint
    with pytest.raises(InputError, match="a registry step's footprint is the history alone"):
        run_scenario(sc)


def test_tree_step_trace_footprint_stays_inside_the_declared_one():
    sc = bundled("remove_simple.json")
    sc["steps"][0]["footprint"] = [0]
    with pytest.raises(InputError, match=r"^step 0: trace footprint \[6, 8\] escapes the declared"):
        run_scenario(sc)
    for covering in ([6, 8], [0, 6, 8]):
        sc["steps"][0]["footprint"] = covering
        assert run_scenario(sc).verdict == "pass"


def test_context_rule_fails_when_the_change_leaves_the_graph():
    # a context node forwards its whole inset past the graph, so the key copy's
    # change to that inset is visible outside and the step must fail
    sc = bundled("frame_vs_context.json")
    sc["steps"][0]["rule"] = "context"
    full = {"filter": [["-inf", "inf", True, False]]}
    sc["init"]["nodes"][1]["edges"].append({"dst": 99, "fn": full})
    rep = run_scenario(sc)
    assert rep.verdict == "fail"
    assert rep.counterexample["detail"] == "key-copy: computation aborts under the context"
    # an abort has no witness of its own: the step's pre composite stands for it
    assert rep.counterexample["witness"] == graph_to_json(graph_from_json(sc["init"]))
    del sc["init"]["nodes"][1]["edges"][-1]
    assert run_scenario(sc).verdict == "pass"


def check_json(capsys, tmp_path, scenario: dict) -> dict:
    # the scenario's report as `check --json` encodes it
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    main(["check", str(path), "--json"])
    return json.loads(capsys.readouterr().out)


def test_scenario_reports_are_deterministic(capsys, tmp_path):
    a = check_json(capsys, tmp_path, worked_scenario())
    b = check_json(capsys, tmp_path, worked_scenario())
    assert a == b


def concurrent_scenario(extra_assert=()) -> dict:
    init = {
        "root": 0,
        "nodes": [
            {"id": 0, "key": "-inf", "right": 4},
            {"id": 4, "key": 4, "left": 2, "right": 6},
            {"id": 2, "key": 2, "left": 1, "del": True},
            {"id": 1, "key": 1},
            {"id": 6, "key": 6},
        ],
    }
    return {
        "algebra": "bst",
        "init": init,
        "concurrent": {"threads": 2},
        "steps": [
            {
                "thread": "A",
                "label": "mark",
                "command": {"writes": [[6, "del", True]]},
                "assert": [{"node": 6, "field": "del", "equals": True}],
            },
            {
                "thread": "B",
                "label": "unlink",
                "command": {"writes": [[4, "left", 1]]},
                "assert": [{"node": 4, "field": "left", "equals": 1}, *extra_assert],
            },
        ],
    }


def test_concurrent_scenario_is_interference_free():
    rep = run_scenario(concurrent_scenario())
    assert rep.verdict == "pass"
    names = {c.name: c.ok for c in rep.steps[0].checks}
    assert names == {"og": True}


def test_concurrent_planted_unstable_assertion_is_caught():
    rep = run_scenario(
        concurrent_scenario(extra_assert=({"node": 6, "field": "del", "equals": False},))
    )
    assert rep.verdict == "fail"
    names = {c.name: c.ok for c in rep.steps[0].checks}
    assert names == {"og": False}


def test_an_assertion_no_state_meets_fails_at_its_least_breaking_state():
    # a's own value for the cell breaks the assertion, so the witness is the
    # heap after a's step, whatever the other threads write
    init = {
        "root": 0,
        "nodes": [
            {"id": 0, "key": "-inf", "right": 1},
            {"id": 1, "key": 3, "right": 2},
            {"id": 2, "key": 5},
        ],
    }
    sc = {
        "algebra": "bst",
        "init": init,
        "concurrent": {},
        "steps": [
            {
                "thread": "a",
                "command": {"writes": [[1, "key", 5]]},
                "assert": [{"node": 2, "field": "del", "equals": True}],
            },
        ],
    }
    after_a = bst.heap_from_json(init).with_writes(((1, "key", 5),))
    want = {
        "step": 0,
        "label": "concurrent",
        "check": "og",
        "detail": "assertion broken after a0",
        "witness": {"shared": bst.heap_to_json(after_a), "local": [["pc", 0], ["thread", "a"]]},
    }
    rep = run_scenario(sc)
    assert (rep.verdict, rep.counterexample) == ("fail", want)
    # a second thread's write reaches another heap that breaks it; the witness stays
    sc["steps"].append({"thread": "b", "command": {"writes": [[2, "key", 7]]}})
    assert run_scenario(sc).counterexample == want


def test_concurrent_thread_count_must_match():
    sc = concurrent_scenario()
    sc["concurrent"]["threads"] = 3
    with pytest.raises(InputError):
        run_scenario(sc)


# ---------------------------------------------------------------- report shape


def test_report_json_counterexample_only_on_fail(capsys, tmp_path):
    good = check_json(capsys, tmp_path, worked_scenario())
    assert "counterexample" not in good
    bad = check_json(capsys, tmp_path, worked_scenario(estimator="eq"))
    assert bad["counterexample"]["step"] == 0


def test_witness_json_rejects_a_type_with_no_json_form():
    # a repr cannot be replayed, so an unknown witness is a bug, not a report
    with pytest.raises(InternalInvariantError, match="witness of type Estimator"):
        casl.witness_json(Estimator.eq())
    with pytest.raises(InternalInvariantError):
        casl.witness_json([1, object()])


def test_check_result_json_shape():
    out = CheckResult("casl", False, "boom").to_json()
    assert out == {"name": "casl", "ok": False, "detail": "boom"}


# ---------------------------------------------------------------- one interface

# the state classes of the three algebras and their closures; casl reaches
# them through the separation-algebra operations, not by testing their type
ALGEBRA_TYPES = {
    "FlowGraph", "Heap", "RegistryState", "ClosureFamily", "RegistryClosure"
}


def _algebra_type_tests(source: str) -> set[tuple[str, str]]:
    """(top-level definition, type name) for each isinstance or type() test
    that names an algebra type."""
    found = set()
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = node.args[1:]
            elif isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Call) and getattr(x.func, "id", None) == "type"
                for x in [node.left, *node.comparators]
            ):
                named = [node.left, *node.comparators]
            else:
                continue
            for sub in named:
                for name in ast.walk(sub):
                    ident = getattr(name, "id", None) or getattr(name, "attr", None)
                    if ident in ALGEBRA_TYPES:
                        found.add((where, ident))
    return found


def test_casl_tests_algebra_types_only_in_witness_json():
    found = _algebra_type_tests(inspect.getsource(casl))
    assert {where for where, _ in found} == {"witness_json"}


# the parts of a proof step: a split, the context rule and the triple check
PROOF_STEP_CALLS = {"unique_decompose", "contextualize", "check_casl"}


def _proof_step_calls(source: str) -> dict[str, set[str]]:
    """For each top-level definition of source, the proof-step parts it calls."""
    found: dict[str, set[str]] = {}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in PROOF_STEP_CALLS:
                    found.setdefault(getattr(top, "name", "<module>"), set()).add(name)
    return found


def test_only_the_shared_step_runs_a_proof_step():
    # the flow, tree and registry runners all go through _casl_check; a runner
    # that splits and checks a triple by hand is a second copy of the rule
    found = _proof_step_calls(inspect.getsource(casl))
    assert found == {"_casl_check": {"contextualize", "check_casl"}}
    planted = "def run(s):\n    reg.unique_decompose(s, (), ())\n    return contextualize(s)\n"
    assert _proof_step_calls(planted) == {"run": {"unique_decompose", "contextualize"}}


VALUE_DUNDERS = {"__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__", "_make"}


def test_only_the_frozen_base_defines_value_dunders():
    # equality, hashing, copying, immutability and _make, the unchecked
    # constructor, are written once, in frozen.py: a method of one of these
    # names, or an assignment to one, anywhere in another class fails here
    found = set()
    for path in sorted(Path(casl.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    name = node.attr
                else:
                    continue
                if name in VALUE_DUNDERS:
                    found.add((path.name, cls.name, name))
    assert {(where, cls) for where, cls, _ in found} == {("frozen.py", "Frozen")}
    assert {name for _, _, name in found} == VALUE_DUNDERS


def _cap_parameters(source: str) -> set[str]:
    """The functions of source with a parameter named cap or closure_cap."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for arg in ast.walk(node.args):
                if isinstance(arg, ast.arg) and arg.arg in ("cap", "closure_cap"):
                    found.add(getattr(node, "name", "<lambda>"))
    return found


def test_no_function_takes_a_cap_parameter():
    # the expansion cap is the run's, read where a search counts; a cap passed
    # from call to call falls back to the default wherever one hop drops it
    for path in sorted(Path(casl.__file__).parent.glob("*.py")):
        assert _cap_parameters(path.read_text()) == set(), path.name
    planted = "def f(x, *, cap=1):\n    pass\nclass C:\n    def g(self, closure_cap): pass\n"
    assert _cap_parameters(planted) == {"f", "g"}


def test_algebra_type_guard_sees_isinstance_and_type_tests():
    source = (
        "def f(s):\n    return isinstance(s, (int, bst.Heap))\n"
        "class C:\n    def g(self, s):\n        return type(s) is RegistryState\n"
    )
    assert _algebra_type_tests(source) == {("f", "Heap"), ("C", "RegistryState")}
