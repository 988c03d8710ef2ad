"""Estimator relations, axioms, graph lifts, closures, approximate updates."""

from __future__ import annotations

import copy
import itertools
import math
import random
import time

import pytest

from flowcheck import estimator as estimator_module
from flowcheck.errors import InconclusiveError, count_text, expansion_cap
from flowcheck.estimator import (
    AxiomReport,
    ClosureFamily,
    Estimator,
    _splitting_count,
    _splittings,
    approx_physical_update,
    check_estimator_axioms,
    ctx_estimate,
    estimator_from_json,
    estimator_to_json,
    inflow_rel,
    related_values,
    relates,
)
from flowcheck.flowgraph import (
    FlowGraph,
    FlowKernel,
    apply_edge,
    empty_graph,
    make_graph,
    restrict,
)
from flowcheck.keyspace import (
    BOT_TAG,
    NEG_INF,
    POS_INF,
    TOP_TAG,
    AtomUniverse,
    all_values,
    interval_bits,
    oplus,
)
from flowcheck.oracle import SINK, naive_flow, random_graph, rng_for

from helpers import EXT, iv

U1 = AtomUniverse.from_endpoints([4])          # 3 atoms
U2 = AtomUniverse.from_endpoints([2, 4])       # 5 atoms


def bits_of(u: AtomUniverse, lo, hi, lo_open=True, hi_open=True) -> int:
    return interval_bits(u, lo, hi, lo_open, hi_open)


# ---------------------------------------------------------------- relates


def test_simple_allows_growth_of_proper_sets():
    u = AtomUniverse.from_endpoints([4, 6, 8])
    assert relates(u, Estimator.simple(), iv(u, 4, 8), iv(u, NEG_INF, 8))


def test_simple_rejects_bot_below_set():
    u = U1
    assert not relates(u, Estimator.simple(), BOT_TAG, iv(u, 4, 4, False, False))


def test_simple_is_reflexive_on_sentinels():
    assert relates(U1, Estimator.simple(), TOP_TAG, TOP_TAG)
    assert relates(U1, Estimator.simple(), BOT_TAG, BOT_TAG)


def test_complex_allows_shrink_by_release_set_without_pivot():
    u = AtomUniverse.from_endpoints([4, 6, 15])
    release = bits_of(u, 4, 6, True, False)
    est = Estimator.complex(4, release)
    assert relates(u, est, iv(u, 4, 15), iv(u, 6, 15))


def test_complex_blocks_shrink_when_pivot_present():
    u = AtomUniverse.from_endpoints([4, 6, 15])
    release = bits_of(u, 4, 6, True, False)
    est = Estimator.complex(4, release)
    m = bits_of(u, 4, 15, False, True)  # contains the pivot 4
    assert not relates(u, est, m, iv(u, 6, 15))


def test_complex_blocks_shrink_beyond_release_set():
    u = AtomUniverse.from_endpoints([4, 6, 15])
    release = bits_of(u, 4, 6, True, False)
    est = Estimator.complex(4, release)
    # shrinking by more than K must fail
    assert not relates(u, est, iv(u, 4, 15), iv(u, 15, POS_INF))


# ---------------------------------------------------------------- axioms


@pytest.mark.parametrize(
    "est",
    [
        Estimator.eq(),
        Estimator.leq(),
        Estimator.simple(),
        Estimator.complex(4, 0),
    ],
)
def test_named_estimators_pass_axioms_small(est):
    report = check_estimator_axioms(est, U1)
    assert report.ok


def test_complex_with_release_passes_axioms():
    release = bits_of(U2, 2, 4)
    report = check_estimator_axioms(Estimator.complex(2, release), U2)
    assert report.ok


def test_eq_and_leq_pass_on_larger_universe():
    assert check_estimator_axioms(Estimator.eq(), U2).ok
    assert check_estimator_axioms(Estimator.leq(), U2).ok


def test_planted_non_transitive_relation_rejected_with_witness(monkeypatch):
    # drop the pair closing one transitivity triangle of the simple relation
    vals = list(all_values(U1))
    empty = 0
    full = U1.full_bits
    pairs = {
        (m, n)
        for m in vals
        for n in vals
        if relates(U1, Estimator.simple(), m, n) and (m, n) != (empty, full)
    }
    monkeypatch.setattr(estimator_module, "relates", lambda _u, _est, m, n: (m, n) in pairs)
    report = check_estimator_axioms(Estimator.simple(), U1)
    assert not report.ok
    assert report.axiom == "E1-transitive"
    m, n, o = report.witness
    assert (m, o) == (empty, full)


def test_axiom_check_respects_value_cap():
    # six endpoints give 13 atoms, so 2^13 + 2 = 8,194 values, over the 4,096 cap
    u = AtomUniverse.from_endpoints(range(6))
    with pytest.raises(InconclusiveError, match="lattice of 8194 values exceeds the cap 4096"):
        check_estimator_axioms(Estimator.eq(), u)


# ---------------------------------------------------------------- ctx_estimate

# unlink footprint: parent 40 (key 4) over child 20 (key 2) feeding external 30
UF = AtomUniverse.from_endpoints([2, 4, 10])


def unlink_pre() -> FlowGraph:
    edges = {
        (40, 20): bits_of(UF, NEG_INF, 4, False, True),
        (20, 30): bits_of(UF, 2, POS_INF, True, False),
    }
    return make_graph(UF, (20, 40), edges, {(EXT, 40): iv(UF, NEG_INF, 10, True, False)})


def unlink_post() -> FlowGraph:
    edges = {
        (40, 30): bits_of(UF, NEG_INF, 4, False, True),
        (20, 30): bits_of(UF, 2, POS_INF, True, False),
    }
    return make_graph(UF, (20, 40), edges, {(EXT, 40): iv(UF, NEG_INF, 10, True, False)})


def test_ctx_estimate_reflexive():
    s = unlink_pre()
    assert ctx_estimate(s, s, Estimator.simple()).holds


def test_ctx_estimate_unlink_grows_outflow_under_simple():
    report = ctx_estimate(unlink_pre(), unlink_post(), Estimator.simple())
    assert report.holds


def test_ctx_estimate_reverse_direction_fails_with_witness():
    report = ctx_estimate(unlink_post(), unlink_pre(), Estimator.simple())
    assert report.verdict == "fails"
    assert report.at == 30
    assert report.witness is not None


def test_ctx_estimate_requires_same_shape():
    s = unlink_pre()
    t = restrict(s, {40})
    assert ctx_estimate(s, t, Estimator.simple()).verdict == "fails"


def reference_ctx_estimate(
    s: FlowGraph, t: FlowGraph, est: Estimator, cap: int
) -> tuple:
    """ctx_estimate on whole graphs: rebuild both under every inflow at or
    below the recorded one and solve them with the oracle's naive flow."""
    if s.nodes != t.nodes or s.inflow != t.inflow:
        return ("fails", (), None)
    u = s.universe
    bot = BOT_TAG
    entries = list(s.inflow)
    options = [list(all_values(u)) if v == TOP_TAG else [bot, v] for _, _, v in entries]
    if math.prod(len(o) for o in options) > cap:
        return ("inconclusive", None, None)
    targets = sorted(set(s.external_targets) | set(t.external_targets))
    for combo in itertools.product(*options):
        inflow = {(src, dst): v for (src, dst, _), v in zip(entries, combo)}
        flow_s = naive_flow(s.with_inflow(inflow))
        flow_t = naive_flow(t.with_inflow(inflow))
        for y in targets:
            out_s = out_t = bot
            for src, dst, fn in s.edges:
                if dst == y:
                    out_s = oplus(out_s, apply_edge(fn, flow_s[src]))
            for src, dst, fn in t.edges:
                if dst == y:
                    out_t = oplus(out_t, apply_edge(fn, flow_t[src]))
            if not relates(u, est, out_s, out_t):
                return ("fails", tuple(inflow.items()), y)
    return ("holds", None, None)


def _rewired(rng, s: FlowGraph) -> FlowGraph:
    # same nodes and inflow; some edge functions replaced, some edges out added
    u = s.universe
    fns = [TOP_TAG, u.full_bits]
    fns += [rng.getrandbits(u.atom_count) for _ in range(3)]
    edges = {(a, b): fn for a, b, fn in s.edges}
    for key in list(edges):
        if rng.random() < 0.3:
            edges[key] = rng.choice(fns)
    for x in s.nodes:
        if rng.random() < 0.3:
            edges[(x, rng.choice((SINK, -4)))] = rng.choice(fns)
    return make_graph(u, s.nodes, edges, s.inflow)


def _closed_pair(rng, u: AtomUniverse, top: bool = False) -> tuple[FlowGraph, FlowGraph]:
    # two graphs on the same nodes and three or four inflow entries, one of
    # them Top if asked, whose edges all stay among the nodes
    g = random_graph(rng, u, max_nodes=4, edge_p=0.5, allow_top=False)
    inflow = {(src, rng.choice(g.nodes)): rng.getrandbits(u.atom_count) or u.full_bits
              for src in (-5, -6, -7)}
    if top:
        inflow[(-8, g.nodes[0])] = TOP_TAG
    fns = [TOP_TAG, u.full_bits, *(rng.getrandbits(u.atom_count) for _ in range(2))]
    inner = {(a, b): fn for a, b, fn in g.edges if b in g.node_set}
    rewired = {key: rng.choice(fns) for key in inner}
    rewired.update({(a, b): rng.choice(fns) for a in g.nodes for b in g.nodes if rng.random() < 0.3})
    return make_graph(u, g.nodes, inner, inflow), make_graph(u, g.nodes, rewired, inflow)


def test_ctx_estimate_matches_naive_whole_graph_reference(monkeypatch):
    ests = [
        Estimator.eq(),
        Estimator.leq(),
        Estimator.simple(),
        Estimator.complex(4, bits_of(U2, 2, POS_INF, True, False)),
    ]
    verdicts = set()
    for i in range(60):
        rng = rng_for("ctx-estimate-reference", i, 0)
        s = random_graph(rng, U2, max_nodes=4, edge_p=0.4)
        t = _rewired(rng, s)
        for est in ests:
            for a, b in ((s, t), (t, s), (s, s)):
                with expansion_cap(256):
                    report = ctx_estimate(a, b, est)
                got = (report.verdict, report.witness, report.at)
                assert got == reference_ctx_estimate(a, b, est, 256), (i, est)
                verdicts.add(report.verdict)
    assert verdicts == {"holds", "fails", "inconclusive"}
    # no edge leaves either graph: the estimate holds before a kernel is
    # built, but only once the cap admits the inflows; a Top entry's 34
    # values times three entries' two pass the cap of 256
    monkeypatch.setattr(estimator_module, "FlowKernel", lambda g: pytest.fail("built a kernel"))
    for i in range(40):
        rng = rng_for("ctx-estimate-closed", i, 0)
        top = i % 4 == 0
        s, t = _closed_pair(rng, U2, top)
        for est in ests:
            for a, b in ((s, t), (t, s)):
                with expansion_cap(256):
                    report = ctx_estimate(a, b, est)
                got = (report.verdict, report.witness, report.at)
                assert got == reference_ctx_estimate(a, b, est, 256), (i, est)
                assert report.verdict == ("inconclusive" if top else "holds")


def _shared_target_graph(rng: random.Random, u: AtomUniverse) -> FlowGraph:
    # up to three sources per node, so entries often share a target; now and
    # then a Top entry, whose down-set is the whole lattice
    nodes = list(range(rng.randint(1, 3)))
    inflow = {}
    for src in (-1, -2, -4):
        for x in nodes:
            if rng.random() < 0.6:
                top = rng.random() < 0.08
                inflow[(src, x)] = TOP_TAG if top else rng.getrandbits(u.atom_count)
    fns = [TOP_TAG, u.full_bits, *(rng.getrandbits(u.atom_count) for _ in range(3))]
    edges = {
        (a, b): rng.choice(fns) for a in nodes for b in nodes if a != b and rng.random() < 0.4
    }
    for x in nodes:
        edges[(x, rng.choice((SINK, -5)))] = rng.choice(fns)
    return make_graph(u, nodes, edges, inflow)


def test_skipping_repeated_inflow_vectors_keeps_every_report():
    ests = [
        Estimator.eq(),
        Estimator.leq(),
        Estimator.simple(),
        Estimator.complex(4, bits_of(U2, 2, POS_INF, True, False)),
    ]
    verdicts = {est.kind: set() for est in ests}
    shared = 0
    for i in range(150):
        rng = rng_for("ctx-estimate-repeats", i, 0)
        s = _shared_target_graph(rng, U2)
        t = _rewired(rng, s)
        dsts = [dst for _, dst, _ in s.inflow]
        shared += len(set(dsts)) < len(dsts)
        for est in ests:
            for a, b in ((s, t), (t, s), (s, s)):
                with expansion_cap(2048):
                    report = ctx_estimate(a, b, est)
                got = (report.verdict, report.witness, report.at)
                assert got == reference_ctx_estimate(a, b, est, 2048), (i, est)
                verdicts[est.kind].add(report.verdict)
    assert shared >= 50
    for kind, seen in verdicts.items():
        assert seen == {"holds", "fails", "inconclusive"}, kind


def _solve_counter(monkeypatch) -> list:
    solves = []
    solve = FlowKernel.solve

    def counted(self, base):
        solves.append(tuple(base))
        return solve(self, base)

    monkeypatch.setattr(FlowKernel, "solve", counted)
    return solves


def _three_node_graph(changed: dict | None = None, drop: tuple = ()) -> FlowGraph:
    # 3, 3 and 2 entries of distinct values on three nodes: 2^8 combinations,
    # but each node's sum is Bot, one of its values or Top: 5 x 5 x 4 vectors
    u = U2
    inflow = [
        (-1, 0, 1), (-2, 0, 2), (-4, 0, 4),
        (-1, 1, 8), (-2, 1, 16), (-4, 1, 3),
        (-1, 2, 5), (-2, 2, 6),
    ]
    edges = {(0, 1): u.full_bits, (1, 2): 7, (2, SINK): u.full_bits}
    edges.update(changed or {})
    for key in drop:
        del edges[key]
    return make_graph(u, (0, 1, 2), edges, inflow)


def test_ctx_estimate_solves_each_distinct_inflow_vector_once(monkeypatch):
    # t filters the internal edge (0, 1) to the atoms node 0 can carry, so
    # the in-edges differ but every outflow agrees: both kernels solve all 100
    g = _three_node_graph()
    t = _three_node_graph({(0, 1): 7})
    solves = _solve_counter(monkeypatch)
    report = ctx_estimate(g, t, Estimator.eq())
    assert report.holds and report.combinations == 0
    assert len(solves) == 2 * 100


def test_ctx_estimate_solves_only_what_the_update_can_change(monkeypatch):
    solves = _solve_counter(monkeypatch)
    g = _three_node_graph()
    # nothing differs: nothing to compare, nothing solved
    assert ctx_estimate(g, g, Estimator.eq()).holds
    assert solves == []
    # every in-edge kept, one external edge rewritten: one solve per vector
    out = _three_node_graph({(2, SINK): 7})
    assert ctx_estimate(g, out, Estimator.eq()).holds
    assert len(solves) == 100 and len(set(solves)) == 100
    # an internal rewrite with no external target in either graph
    solves.clear()
    closed = _three_node_graph(drop=((2, SINK),))
    inner = _three_node_graph({(0, 1): 1}, drop=((2, SINK),))
    assert ctx_estimate(closed, inner, Estimator.eq()).holds
    assert solves == []


def _targets_graph(rng: random.Random, u: AtomUniverse) -> FlowGraph:
    # 4-6 nodes, 2 or 3 external targets, a few inflow entries, now and then Top
    nodes = list(range(rng.randint(4, 6)))
    fns = [TOP_TAG, u.full_bits, *(rng.getrandbits(u.atom_count) for _ in range(3))]
    edges = {
        (a, b): rng.choice(fns) for a in nodes for b in nodes if a != b and rng.random() < 0.3
    }
    for y in rng.sample((-3, -4, -5), rng.randint(2, 3)):
        for x in rng.sample(nodes, rng.randint(1, 2)):
            edges[(x, y)] = rng.choice(fns)
    inflow = {}
    for src in (-1, -2):
        for x in rng.sample(nodes, rng.randint(1, 2)):
            top = rng.random() < 0.1
            inflow[(src, x)] = TOP_TAG if top else rng.getrandbits(u.atom_count)
    return make_graph(u, nodes, edges, inflow)


def _rewrite(rng: random.Random, s: FlowGraph, kind: str) -> FlowGraph:
    # a: every in-edge kept, one target's edges changed; b: every in-edge and
    # every edge out of the graph kept; c: an in-edge changed
    u = s.universe
    fns = [TOP_TAG, u.full_bits, *(rng.getrandbits(u.atom_count) for _ in range(2))]
    edges = dict(s.edge_map)
    if kind == "a":
        y = rng.choice(s.external_targets)
        for x in rng.sample(s.nodes, rng.randint(1, 2)):
            edges[(x, y)] = rng.choice([*fns, BOT_TAG])
    elif kind == "c":
        a, b = rng.sample(s.nodes, 2)
        edges[(a, b)] = rng.choice([fn for fn in [*fns, BOT_TAG] if fn != edges.get((a, b))])
    return make_graph(u, s.nodes, edges, s.inflow)


def test_skipped_targets_keep_the_full_walks_report():
    ests = [
        Estimator.eq(),
        Estimator.leq(),
        Estimator.simple(),
        Estimator.complex(4, bits_of(U2, 2, POS_INF, True, False)),
    ]
    verdicts = set()
    late_failures = 0
    for i in range(60):
        rng = rng_for("ctx-estimate-skips", i, 0)
        s = _targets_graph(rng, U2)
        t = _rewrite(rng, s, "abc"[i % 3])
        same_in = FlowKernel(s).preds == FlowKernel(t).preds
        skipped = [
            y for y in s.external_targets
            if same_in and [e for e in s.edges if e[1] == y] == [e for e in t.edges if e[1] == y]
        ]
        for est in ests:
            for a, b in ((s, t), (t, s)):
                with expansion_cap(256):
                    report = ctx_estimate(a, b, est)
                got = (report.verdict, report.witness, report.at)
                assert got == reference_ctx_estimate(a, b, est, 256), (i, est)
                verdicts.add(report.verdict)
                late_failures += report.at is not None and any(y < report.at for y in skipped)
    assert verdicts == {"holds", "fails", "inconclusive"}
    assert late_failures > 0


def test_ctx_estimate_cap_yields_inconclusive():
    u = U2
    g = make_graph(u, (1,), {}, {(EXT, 1): TOP_TAG})
    with expansion_cap(4):
        report = ctx_estimate(g, g, Estimator.simple())
    assert report.verdict == "inconclusive"


# ---------------------------------------------------------------- inflow_rel


def test_inflow_rel_reflexive():
    inflow = {(EXT, 1): iv(UF, 2, 4)}
    assert inflow_rel(UF, inflow, inflow, {EXT}, Estimator.simple(), (1,))


def test_inflow_rel_single_entry_growth():
    a = {(EXT, 1): iv(UF, 2, 4)}
    b = {(EXT, 1): iv(UF, NEG_INF, 4)}
    assert inflow_rel(UF, a, b, {EXT}, Estimator.simple(), (1,))
    assert not inflow_rel(UF, b, a, {EXT}, Estimator.simple(), (1,))


def test_inflow_rel_absorbs_source_identity_in_region():
    # the per-target sum matters, not which region source carries it
    a = {(7, 1): iv(UF, 2, 4)}
    b = {(8, 1): iv(UF, 2, 4)}
    assert inflow_rel(UF, a, b, {7, 8}, Estimator.eq(), (1,))


def test_inflow_rel_rejects_change_outside_region():
    a = {(EXT, 1): iv(UF, 2, 4), (9, 1): iv(UF, 4, 10)}
    b = {(EXT, 1): iv(UF, NEG_INF, 4), (9, 1): iv(UF, 4, 10)}
    assert not inflow_rel(UF, a, b, {9}, Estimator.simple(), (1,))


def _inflow_rel_per_node(u, in1, in2, region, est, nodes) -> bool:
    # the definition as written: the entries from outside the region agree,
    # and at each node est relates the two sums over the region's sources
    def outside(inflow):
        return {k: v for k, v in inflow.items() if k[0] not in region and v != BOT_TAG}

    if outside(in1) != outside(in2):
        return False
    for x in nodes:
        sums = []
        for inflow in (in1, in2):
            acc = BOT_TAG
            for (src, dst), v in inflow.items():
                if dst == x and src in region:
                    acc = oplus(acc, v)
            sums.append(acc)
        if not relates(u, est, *sums):
            return False
    return True


def test_inflow_rel_matches_the_per_node_definition():
    # region sources -1, -2 and 7 and outside source -9 aim at nodes 1-3
    # and at 9, which is not a node; a second inflow keeps, grows, drops,
    # moves or adds entries, so both answers occur for every estimator
    ests = [
        Estimator.eq(),
        Estimator.leq(),
        Estimator.simple(),
        Estimator.complex(4, bits_of(U1, 4, POS_INF, True, False)),
    ]
    pool = [BOT_TAG, TOP_TAG, *range(U1.full_bits + 1)]
    region, nodes = {-1, -2, 7}, (1, 2, 3)
    answers = {est.kind: set() for est in ests}
    for i in range(400):
        rng = rng_for("inflow-rel", i, 0)
        in1 = {(src, dst): rng.choice(pool) for src in (-1, -2, 7, -9) for dst in (1, 2, 3, 9)
               if rng.random() < 0.35}
        in2 = {}
        for (src, dst), v in in1.items():
            move = rng.random()
            if move < 0.5:
                in2[(src, dst)] = v
            elif move < 0.7:
                in2[(src, dst)] = TOP_TAG if v < 0 else v | rng.getrandbits(U1.atom_count)
            elif move < 0.85 and src in region:
                in2[(rng.choice((-1, -2, 7)), dst)] = v
        if rng.random() < 0.3:
            in2[(rng.choice((-1, -2, 7, -9)), rng.choice((1, 2, 3, 9)))] = rng.choice(pool)
        for est in ests:
            got = inflow_rel(U1, in1, in2, region, est, nodes)
            assert got == _inflow_rel_per_node(U1, in1, in2, region, est, nodes), (i, est)
            answers[est.kind].add(got)
    assert all(seen == {True, False} for seen in answers.values()), answers


# ---------------------------------------------------------------- closure


def test_closure_under_eq_is_singleton():
    g = unlink_pre()
    fam = g.closure({EXT}, Estimator.eq())
    assert fam.materialize() == [g]
    assert fam.contains(g)


def test_closure_single_atom_entry_counts_supersets():
    # one pinned atom on a 7-atom grid leaves 2^6 = 64 region-larger inflows
    u = UF
    g = make_graph(u, (1,), {}, {(EXT, 1): iv(u, 2, 4)})
    with expansion_cap(100):
        members = g.closure({EXT}, Estimator.simple()).materialize()
    assert len(members) == 64
    assert len(set(members)) == 64
    assert all(g.closure({EXT}, Estimator.simple()).contains(m) for m in members)


def test_closure_materialize_respects_cap():
    u = UF
    g = make_graph(u, (1,), {}, {(EXT, 1): iv(u, 2, 4)})
    with expansion_cap(10), pytest.raises(InconclusiveError):
        g.closure({EXT}, Estimator.simple()).materialize()


def test_splitting_count_is_the_length_of_the_splittings():
    for u in (AtomUniverse.from_endpoints([]), U1):
        for total in all_values(u):
            for k in range(4):
                sources = list(range(-k, 0))
                assert _splitting_count(u, total, k) == len(_splittings(u, total, sources, 0))
    assert _splitting_count(U2, TOP_TAG, 2) == 1091


@pytest.mark.parametrize("endpoints", [4, 6])
def test_closure_cap_is_checked_before_splitting_top(endpoints):
    # a Top sum over two sources has (2^a + 2)^2 - 1 - 2 * 2^a splittings
    u = AtomUniverse.from_endpoints(range(endpoints))
    g = make_graph(u, (0,), {}, {(-1, 0): TOP_TAG})
    start = time.perf_counter()
    with pytest.raises(InconclusiveError, match="closure larger than the cap"):
        g.closure({-1, -2}, Estimator.eq()).materialize()
    assert time.perf_counter() - start < 1.0


def test_closure_cap_note_gives_the_count_it_reached():
    # the one source's inflow into each node ranges over all ten values of a
    # one-endpoint universe, so a cap of 50 trips at the second of three nodes
    g = make_graph(AtomUniverse.from_endpoints((1,)), (0, 1, 2), {})
    family = g.closure({-1}, Estimator.leq())
    with expansion_cap(50), pytest.raises(InconclusiveError) as info:
        family.materialize()
    assert str(info.value) == (
        "closure larger than the cap 50: at least 100 members counted over 2 of 3 nodes"
    )
    with expansion_cap(1000):
        assert len(family.materialize()) == 1000


def test_closure_is_idempotent_as_an_operator():
    u = AtomUniverse.from_endpoints([2])
    g = make_graph(u, (1,), {}, {(EXT, 1): iv(u, 2, 2, False, False)})
    fam = g.closure({EXT}, Estimator.simple())
    base_members = set(fam.materialize())
    rederived = set()
    for member in base_members:
        rederived |= set(member.closure({EXT}, Estimator.simple()).materialize())
    assert rederived == base_members


NAMED_ESTIMATORS = [
    Estimator.eq(),
    Estimator.leq(),
    Estimator.simple(),
    Estimator.complex(4, iv(U1, 4, POS_INF, False, False)),
]


def _members_by_membership(fam: ClosureFamily, sources: tuple[int, ...]) -> set[FlowGraph]:
    # every inflow from the given sources into the base's nodes, kept where
    # the family's exact membership test holds
    base = fam.base
    keys = [(src, x) for src in sources for x in base.nodes]
    out = set()
    for combo in itertools.product(all_values(base.universe), repeat=len(keys)):
        g = base.with_inflow(dict(zip(keys, combo)))
        if fam.contains(g):
            out.add(g)
    return out


@pytest.mark.parametrize("est", NAMED_ESTIMATORS, ids=lambda e: e.kind)
def test_a_closure_with_no_free_inflow_is_its_base(est):
    # no source to widen, or no node to widen into: the base is the one member
    inflow = {(EXT, 0): iv(U1, 4, 4, False, False), (-2, 0): TOP_TAG}
    g = make_graph(U1, (0,), {(0, 9): iv(U1, NEG_INF, 4)}, inflow)
    for fam in (ClosureFamily(g, frozenset(), est), empty_graph(U1).closure({EXT}, est)):
        assert fam.materialize() == [fam.base]
        assert _members_by_membership(fam, (EXT, -2)) == {fam.base}


def test_a_closure_with_no_free_inflow_enumerates_nothing_past_the_cap():
    # the enumeration listed Bot's leq-related values for each node before
    # splitting them over no source: 130 values on this grid, past a cap of 8
    u = AtomUniverse.from_endpoints((4, 8, 12))
    g = make_graph(u, (0,), {}, {(EXT, 0): iv(u, 4, 8)})
    with expansion_cap(8):
        with pytest.raises(InconclusiveError, match=r"^130 related values exceed the cap 8$"):
            related_values(u, Estimator.leq(), BOT_TAG)
        assert g.closure((), Estimator.leq()).materialize() == [g]


def test_closure_membership_rejects_edge_changes():
    g = unlink_pre()
    fam = g.closure({EXT}, Estimator.simple())
    assert not fam.contains(unlink_post())


def test_closure_membership_rejects_another_universe():
    # same nodes, no edges and the same inflow bits, read over other endpoints
    v = 0b101
    g = make_graph(U1, (1,), {}, {(EXT, 1): v})
    other = make_graph(AtomUniverse.from_endpoints([5]), (1,), {}, {(EXT, 1): v})
    assert (other.nodes, other.edges, other.inflow_map) == (g.nodes, g.edges, g.inflow_map)
    assert g.closure({EXT}, Estimator.eq()).contains(g)
    assert not g.closure({EXT}, Estimator.eq()).contains(other)


# ---------------------------------------------------------------- approximations


def unlink_update(s: FlowGraph) -> FlowGraph | None:
    if s != unlink_pre():
        return None
    return unlink_post()


def test_approx_update_unlink_under_simple():
    out = approx_physical_update(unlink_update, unlink_pre(), Estimator.simple())
    assert out == unlink_post()


def test_approx_update_unlink_under_eq_aborts():
    assert approx_physical_update(unlink_update, unlink_pre(), Estimator.eq()) is None


def test_approx_update_propagates_update_abort():
    assert approx_physical_update(lambda s: None, unlink_pre(), Estimator.simple()) is None


def _counted(monkeypatch) -> list:
    # the graphs ctx_estimate was asked about, in order
    asked = []
    real = estimator_module.ctx_estimate

    def counted(s, t, est):
        asked.append(t)
        return real(s, t, est)

    monkeypatch.setattr(estimator_module, "ctx_estimate", counted)
    return asked


def test_a_graph_keeps_its_last_approximate_update(monkeypatch):
    asked = _counted(monkeypatch)
    s = unlink_pre()
    t = approx_physical_update(unlink_update, s, Estimator.simple())
    assert approx_physical_update(unlink_update, s, Estimator.simple(), "guard") is t
    assert s.approx_update(unlink_update, Estimator.simple()) is t
    assert len(asked) == 1
    # an equal graph that is another object, or a copy, keeps nothing
    assert approx_physical_update(unlink_update, unlink_pre(), Estimator.simple()) == t
    assert approx_physical_update(unlink_update, copy.copy(s), Estimator.simple()) == t
    assert len(asked) == 3


def test_another_estimator_is_not_served_the_kept_update(monkeypatch):
    asked = _counted(monkeypatch)
    s = unlink_pre()
    assert approx_physical_update(unlink_update, s, Estimator.simple()) == unlink_post()
    assert approx_physical_update(unlink_update, s, Estimator.eq()) is None
    assert approx_physical_update(unlink_update, s, Estimator.simple()) == unlink_post()
    assert len(asked) == 3


def test_another_update_object_is_not_served_the_kept_update(monkeypatch):
    asked = _counted(monkeypatch)

    def update_for(target: FlowGraph):
        return lambda s: target

    s = unlink_pre()
    # equal in value, two objects: each is asked
    first, second = update_for(unlink_post()), update_for(unlink_post())
    assert approx_physical_update(first, s, Estimator.simple()) == unlink_post()
    assert approx_physical_update(second, s, Estimator.simple()) == unlink_post()
    assert len(asked) == 2
    assert approx_physical_update(update_for(None), s, Estimator.simple()) is None


def test_the_kept_update_is_asked_again_under_a_smaller_cap():
    # one Top inflow entry ranges over U1's ten values
    g = make_graph(U1, (0,), {(0, 9): U1.full_bits}, {(EXT, 0): TOP_TAG})

    def same(s):
        return s

    with expansion_cap(10):
        assert approx_physical_update(same, g, Estimator.eq()) is g
    with expansion_cap(9):
        # an inconclusive answer is not kept: each ask raises with its own note
        for what in ("guard", "estimate"):
            with pytest.raises(InconclusiveError, match=f"^{what}: 10 inflow combinations"):
                approx_physical_update(same, g, Estimator.eq(), what)
    with expansion_cap(10):
        assert approx_physical_update(same, g, Estimator.eq()) is g


def test_related_values_orders_and_caps():
    u = U1
    point = iv(u, 4, 4, False, False)
    vals = related_values(u, Estimator.simple(), point)
    assert point in vals and u.full_bits in vals
    assert len(vals) == 4  # supersets of one atom among three
    with expansion_cap(3), pytest.raises(InconclusiveError):
        related_values(u, Estimator.leq(), BOT_TAG)


def test_related_count_at_the_cap_runs_and_one_past_is_inconclusive():
    # Bot under leq relates to every value of the lattice: 2^3 + 2 = 10 on U1
    u = U1
    with expansion_cap(10):
        assert len(related_values(u, Estimator.leq(), BOT_TAG)) == 10
    with expansion_cap(9), pytest.raises(InconclusiveError, match=r"^10 related values exceed the cap 9$"):
        related_values(u, Estimator.leq(), BOT_TAG)


def test_counts_past_two_to_the_64_print_as_a_power_of_two():
    # str of an int over 4300 digits raises, and a long one is slow to build
    assert count_text(2**64 - 1) == "18446744073709551615"
    assert count_text(2**64) == "2^64 or more"
    u = AtomUniverse.from_endpoints(range(8000))
    with pytest.raises(InconclusiveError, match=r"^2\^16001 or more related values exceed the cap 4096$"):
        related_values(u, Estimator.leq(), BOT_TAG)


# ---------------------------------------------------------------- JSON


def test_estimator_json_round_trip():
    u = UF
    for raw in ("eq", "leq", "simple", {"complex": {"kx": 4, "K": [[4, 10, True, False]]}}):
        est = estimator_from_json(u, raw)
        assert estimator_from_json(u, estimator_to_json(u, est)) == est
