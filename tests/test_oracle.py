"""Oracle module: naive fixpoint, graph enumeration, and theorem checks."""

from __future__ import annotations

import inspect
import itertools
import os
import threading
import time

import pytest

from flowcheck import bst, casl, flowgraph, oracle
from flowcheck.errors import InconclusiveError, InputError
from flowcheck.estimator import ClosureFamily, Estimator
from flowcheck.flowgraph import (
    FlowGraph,
    FlowKernel,
    apply_edge,
    compute_flow,
    graph_from_json,
    make_graph,
    restrict,
)
from flowcheck.keyspace import (
    BOT_TAG,
    TOP_TAG,
    AtomUniverse,
    all_values,
    interval_bits,
    natural_leq,
    oplus,
)
from flowcheck.oracle import (
    THEOREMS,
    EnumBounds,
    TheoremReport,
    check_theorem,
    count_cases,
    enumerate_graphs,
    flow_equivalence,
    naive_flow,
    random_graph,
    rng_for,
    universe_for,
)

from helpers import plant_wrong_carried_flow, tree_universe, worked_tree_insets_pre, worked_tree_pre


# ---------------------------------------------------------------- randomness


def test_rng_for_replays_a_single_case() -> None:
    a = rng_for("suite", 7, 42)
    b = rng_for("suite", 7, 42)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_for_separates_suites_indices_and_seeds() -> None:
    base = rng_for("suite", 0, 0).random()
    assert rng_for("other", 0, 0).random() != base
    assert rng_for("suite", 1, 0).random() != base
    assert rng_for("suite", 0, 1).random() != base


# ---------------------------------------------------------------- naive flow


ENGINE_NAMES = {
    "FlowKernel",
    "compute_flow",
    "_solve",
    "_edge_sum",
    "transfer",
    "natural_leq",
    "restrict",
    "unique_decompose",
    "star",
    "ghost_mult",
}


def _names_used(code) -> set[str]:
    # global and attribute names of a function and of its nested comprehensions
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _names_used(const)
    return names


def natural_leq_search(u: AtomUniverse, m: int, n: int) -> bool:
    """The natural order by its existential definition: some o completes m to n."""
    return any(oplus(m, o) == n for o in all_values(u))


@pytest.mark.parametrize(
    "fn", ["_naive_flow_raw", "naive_flow", "natural_leq_search", "_decompositions"]
)
def test_oracle_twins_use_no_engine_code(fn) -> None:
    # a twin that solves through the engine would agree with it by construction;
    # natural_leq_search, which only tests call, is defined in this file
    twin = globals()[fn] if fn == "natural_leq_search" else getattr(oracle, fn)
    code = inspect.unwrap(twin).__code__
    assert not _names_used(code) & ENGINE_NAMES


def test_engine_name_guard_sees_nested_code() -> None:
    def uses_kernel(gs):
        return [compute_flow(g) for g in gs]

    assert "compute_flow" in _names_used(uses_kernel.__code__)


def test_engine_name_guard_sees_a_restrict_planted_in_the_decomposition_search() -> None:
    # a search that took its answer from restrict would agree with it by construction
    source = inspect.getsource(oracle._decompositions)
    planted = source.replace("    edges2, ", "    canon = restrict(u, p1)\n    edges2, ", 1)
    assert planted != source
    namespace = dict(vars(oracle))
    exec(planted, namespace)
    assert _names_used(namespace["_decompositions"].__code__) & ENGINE_NAMES == {"restrict"}


def test_naive_flow_empty_graph_is_empty() -> None:
    u = tree_universe()
    assert naive_flow(make_graph(u, (), {}, {})) == {}


def test_naive_flow_matches_engine_on_the_worked_tree() -> None:
    g = worked_tree_pre()
    flow = naive_flow(g)
    assert flow == compute_flow(g)
    assert flow == worked_tree_insets_pre(g.universe)


def test_naive_flow_two_node_cycle_tops_out() -> None:
    # (0,10] circulates through filters (0,10] and (5,10]; the re-entrant
    # summand joins the external one, so both stations saturate
    u = AtomUniverse.from_endpoints((0, 5, 10))
    wide = interval_bits(u, 0, 10, True, False)
    narrow = interval_bits(u, 5, 10, True, False)
    g = make_graph(
        u,
        (0, 1),
        {(0, 1): wide, (1, 0): narrow},
        {(-1, 0): wide},
    )
    top = TOP_TAG
    assert naive_flow(g) == {0: top, 1: top}
    assert compute_flow(g) == naive_flow(g)


def test_naive_flow_matches_engine_on_random_graphs() -> None:
    u = universe_for(EnumBounds())
    for i in range(40):
        g = random_graph(rng_for("unit-fuzz", i, 3), u, max_nodes=10)
        assert naive_flow(g) == compute_flow(g)


def test_natural_order_closed_form_matches_existential_search() -> None:
    for endpoints in ((4,), (4, 8)):
        u = AtomUniverse.from_endpoints(endpoints)
        vals = list(all_values(u))
        for m in vals:
            for n in vals:
                assert natural_leq(m, n) == natural_leq_search(u, m, n)


# ---------------------------------------------------------------- enumeration


def test_enum_bounds_reject_bad_pools() -> None:
    with pytest.raises(InputError):
        EnumBounds(max_nodes=-1)
    with pytest.raises(InputError):
        EnumBounds(max_edge_fns=0)
    with pytest.raises(InputError):
        EnumBounds(max_inflow_values=6)
    with pytest.raises(InputError):
        EnumBounds(max_endpoints=5)


def test_count_cases_closed_form() -> None:
    # one empty graph, then fns^(n(n-1)) * vals^2 per node count
    assert count_cases(EnumBounds(1, 1, 3, 4)) == 1 + 16
    assert count_cases(EnumBounds(2, 1, 2, 2)) == 1 + 4 + 16
    assert count_cases(EnumBounds()) == 11_825


def test_enumeration_visits_every_case_exactly_once(monkeypatch) -> None:
    bounds = EnumBounds(2, 1, 2, 2)
    graphs = list(enumerate_graphs(bounds))
    assert len(graphs) == count_cases(bounds)
    assert len(set(graphs)) == len(graphs)
    # consecutive index ranges, cut at node-count boundaries (1, 5), inside a
    # block, at the end (21) and past it, concatenate to the whole space
    for cuts in [(), (0,), (1, 5), (3, 4, 12, 20), (21,), (9, 100)]:
        ends = [0, *cuts, None]
        pieces = [list(enumerate_graphs(bounds, a, b)) for a, b in zip(ends, ends[1:])]
        assert sum(pieces, []) == graphs, cuts
    built = []
    make = FlowGraph._make.__func__
    monkeypatch.setattr(FlowGraph, "_make", classmethod(lambda cls, *a: built.append(a) or make(cls, *a)))
    assert list(enumerate_graphs(bounds, 3, 12)) == graphs[3:12]
    assert len(built) == 9


def test_enumeration_is_deterministic_and_starts_empty() -> None:
    bounds = EnumBounds(2, 1, 2, 2)
    first, second = list(enumerate_graphs(bounds)), list(enumerate_graphs(bounds))
    assert first == second
    assert first[0].nodes == ()


def test_tiny_bounds_give_a_countable_handful() -> None:
    graphs = list(enumerate_graphs(EnumBounds(1, 1, 3, 4)))
    assert len(graphs) == 17
    assert any(g.nodes == () for g in graphs)


def test_enumeration_refuses_over_budget_with_the_count() -> None:
    # four nodes draw 3^12 edge choices times 16 inflows: far over the budget
    with pytest.raises(InconclusiveError, match="8514881 cases exceed the budget 200000"):
        next(enumerate_graphs(EnumBounds(max_nodes=4)))


def test_random_graph_respects_bounds_and_top_opt_out() -> None:
    u = universe_for(EnumBounds())
    for i in range(30):
        g = random_graph(
            rng_for("shape-unit", i, 0), u, max_nodes=5, min_nodes=2, allow_top=False
        )
        assert 2 <= len(g.nodes) <= 5
        assert all(fn != TOP_TAG for _, _, fn in g.edges)
        assert all(v != TOP_TAG for _, _, v in g.inflow)


@pytest.mark.parametrize(
    "kwargs", [{"max_nodes": 0}, {"min_nodes": 3, "max_nodes": 2}, {"min_nodes": 0, "max_nodes": 0}]
)
def test_random_graph_refuses_an_empty_node_range_before_any_draw(kwargs) -> None:
    rng = rng_for("empty-range", 0, 0)
    with pytest.raises(InputError, match="1 <= min_nodes <= max_nodes"):
        random_graph(rng, universe_for(EnumBounds()), **kwargs)
    assert rng.random() == rng_for("empty-range", 0, 0).random()


def _random_graph_by_make_graph(rng, universe, max_nodes=oracle.FUZZ_NODES, min_nodes=1,
                                edge_p=0.15, allow_top=True):
    # random_graph as it was: entries drawn into dicts, then sorted and
    # checked by make_graph
    def edge_fn():
        if allow_top and rng.random() < 0.05:
            return TOP_TAG
        return rng.getrandbits(universe.atom_count) or universe.full_bits

    n = rng.randint(min_nodes, max_nodes)
    nodes = list(range(n))
    edges = {}
    for x in nodes:
        for y in nodes:
            if x == y or rng.random() >= edge_p:
                continue
            edges[(x, y)] = edge_fn()
        if rng.random() < 0.1:
            edges[(x, oracle.SINK)] = edge_fn()
    inflow = {}
    hit_p = min(1.0, 2.0 / n)
    for src in oracle.SOURCES:
        for x in nodes:
            if rng.random() >= hit_p:
                continue
            if allow_top and rng.random() < 0.05:
                inflow[(src, x)] = TOP_TAG
            else:
                inflow[(src, x)] = rng.getrandbits(universe.atom_count)
    return make_graph(universe, nodes, edges, inflow)


def _enumerate_graphs_by_make_graph(bounds):
    # enumerate_graphs as it was, with the whole space built through make_graph
    universe = universe_for(bounds)
    fns = oracle._edge_fn_pool(universe, bounds.max_edge_fns)
    values = oracle._inflow_pool(universe, bounds.max_inflow_values)
    for n in range(bounds.max_nodes + 1):
        nodes = list(range(n))
        pairs = [(x, y) for x in nodes for y in nodes if x != y]
        in_targets = [(oracle.SOURCES[0], 0), (oracle.SOURCES[1], n - 1)] if n else []
        for fn_choice in itertools.product(fns, repeat=len(pairs)):
            for val_choice in itertools.product(values, repeat=len(in_targets)):
                yield make_graph(universe, nodes, dict(zip(pairs, fn_choice)), dict(zip(in_targets, val_choice)))


def _parts(g: FlowGraph) -> tuple:
    return g.nodes, g.edges, g.inflow


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"allow_top": False},
        {"min_nodes": 2, "max_nodes": 5},
        {"min_nodes": 16, "max_nodes": 16},
        {"edge_p": 0.4},
        {"edge_p": 1.0},
    ],
)
def test_random_graph_builds_what_make_graph_built_from_the_same_draws(kwargs) -> None:
    # field for field, and the rng left where the old way left it, since
    # ShapeIndependent keeps drawing from it after the graph
    universes = [AtomUniverse.from_endpoints(()), universe_for(EnumBounds()),
                 AtomUniverse.from_endpoints(oracle.TREE_KEY_GRID)]
    for u, i in itertools.product(universes, range(170)):
        rng, old_rng = rng_for("normal-form", i, 0), rng_for("normal-form", i, 0)
        got, want = random_graph(rng, u, **kwargs), _random_graph_by_make_graph(old_rng, u, **kwargs)
        assert _parts(got) == _parts(want), (i, u)
        assert rng.random() == old_rng.random(), (i, u)


@pytest.mark.parametrize("bounds", [EnumBounds(), EnumBounds(2, 0, 5, 5), EnumBounds(2, 4, 5, 5)])
def test_enumerate_graphs_builds_what_make_graph_built(bounds) -> None:
    got = list(map(_parts, enumerate_graphs(bounds)))
    assert got == list(map(_parts, _enumerate_graphs_by_make_graph(bounds)))
    assert len(got) == count_cases(bounds)


# ---------------------------------------------------------------- reports


def test_report_json_includes_counterexample_only_on_failure() -> None:
    ok = TheoremReport("X", True, 10)
    assert ok.to_json() == {"theorem": "X", "ok": True, "checked": 10}
    bad = TheoremReport("X", False, 3, {"case": 3, "seed": 1}, notes=("n",))
    out = bad.to_json()
    assert out["counterexample"] == {"case": 3, "seed": 1}
    assert out["notes"] == ["n"]


def test_flow_equivalence_covers_exhaustive_space_plus_fuzz() -> None:
    bounds = EnumBounds(2, 1, 2, 2)
    report = flow_equivalence(bounds, cases=25, seed=0)
    assert report.ok
    assert report.checked == count_cases(bounds) + 25


# ---------------------------------------------------------------- theorems


def test_check_theorem_rejects_unknown_names() -> None:
    with pytest.raises(InputError):
        check_theorem("NoSuchTheorem")


def test_unique_decomp_checks_every_split() -> None:
    report = check_theorem("UniqueDecomp", bounds=EnumBounds(2, 1, 3, 4))
    assert report.ok
    # only the 144 two-node graphs admit a split, one each
    assert report.checked == 144


def test_decomposition_search_finds_only_the_restriction() -> None:
    from flowcheck.oracle import _decompositions

    u = tree_universe()
    wide = u.full_bits
    g = make_graph(
        u,
        (0, 1, 2),
        {(0, 1): wide, (1, 2): wide},
        {(-1, 0): wide},
    )
    derived = _decompositions(g, {0}, {1, 2}, naive_flow(g))
    assert derived["inflow1"] == restrict(g, {0}).inflow_map
    assert derived["inflow2"] == restrict(g, {1, 2}).inflow_map


def test_decomposition_search_on_two_node_parts_with_internal_edges() -> None:
    # UniqueDecomp's smaller part is one node at its three-node bound, so the
    # search's branch for a part with internal edges runs only here
    from flowcheck.oracle import _decompositions

    u = universe_for(EnumBounds(max_endpoints=1))
    internal = 0
    for i in range(40):
        g = random_graph(rng_for("decomp-2+2", i, 0), u, max_nodes=4, min_nodes=4, edge_p=0.4)
        for part in ({0, 1}, {0, 2}, {0, 3}):
            derived = _decompositions(g, part, set(g.nodes) - part, naive_flow(g))
            assert derived is not None, (i, part)
            assert derived["inflow1"] == restrict(g, part).inflow_map, (i, part)
            internal += any(s in part and d in part for s, d, _ in g.edges)
    assert internal >= 60


def _decompositions_by_search(u, p1, p2) -> list[dict]:
    # the exhaustive search: every product of summands of u's flow as part
    # one's cross inflow, kept where both parts' flows meet u's and it equals
    # part two's outflow at part two's flow
    target = naive_flow(u)
    edges1 = [(s, d, fn) for s, d, fn in u.edges if s in p1 and d in p1]
    edges2 = [(s, d, fn) for s, d, fn in u.edges if s in p2 and d in p2]
    cross_into_1 = [(s, d, fn) for s, d, fn in u.edges if s in p2 and d in p1]
    cross_into_2 = [(s, d, fn) for s, d, fn in u.edges if s in p1 and d in p2]
    inflow2 = {(s, d): v for (s, d), v in u.inflow_map.items() if d in p2}
    for s, d, fn in cross_into_2:
        if (v := apply_edge(fn, target[s])) != BOT_TAG:
            inflow2[(s, d)] = v
    flow2 = oracle._naive_flow_raw(p2, edges2, inflow2)
    forced = tuple(apply_edge(fn, flow2[s]) for s, _, fn in cross_into_1)
    vals = list(all_values(u.universe))
    per_entry = [
        [v for v in vals if natural_leq_search(u.universe, v, target[d])]
        for _, d, _ in cross_into_1
    ]
    found = []
    for combo in itertools.product(*per_entry):
        inflow1 = {(s, d): v for (s, d), v in u.inflow_map.items() if d in p1}
        for (s, d, _), v in zip(cross_into_1, combo):
            if v != BOT_TAG:
                inflow1[(s, d)] = v
        flow1 = oracle._naive_flow_raw(p1, edges1, inflow1)
        if all(flow1[x] == target[x] for x in p1) and all(
            flow2[x] == target[x] for x in p2
        ) and combo == forced:
            found.append({"inflow1": inflow1, "inflow2": inflow2})
    return found


def test_decompositions_match_the_exhaustive_summand_search() -> None:
    # every split of the bench space both ways, then 3-4-node random graphs
    # whose parts have internal edges and up to three cross entries; those
    # are drawn on one endpoint, since the search tries every value for an
    # entry into a Top node: 10^3 products there, 34^3 on two endpoints
    checked = 0
    for g in enumerate_graphs(EnumBounds(max_endpoints=1, max_edge_fns=2)):
        for p1, p2 in oracle._splits(g.nodes):
            for a, b in ((p1, p2), (p2, p1)):
                found = oracle._decompositions(g, a, b, naive_flow(g))
                assert _decompositions_by_search(g, a, b) == ([] if found is None else [found])
                checked += 1
    assert checked == 6_272
    u = universe_for(EnumBounds(max_endpoints=1))
    internal = wide = 0
    for i in range(40):
        g = random_graph(rng_for("decomp-diff", i, 0), u, max_nodes=4, min_nodes=3, edge_p=0.4)
        for size in range(1, len(g.nodes)):
            for part in map(set, itertools.combinations(g.nodes, size)):
                rest = set(g.nodes) - part
                found = oracle._decompositions(g, part, rest, naive_flow(g))
                want = [] if found is None else [found]
                assert _decompositions_by_search(g, part, rest) == want, (i, part)
                internal += any(s in part and d in part for s, d, _ in g.edges)
                wide += sum(s in rest and d in part for s, d, _ in g.edges) >= 2
    assert internal >= 150 and wide >= 100


def test_mult_coincides_with_star_where_both_are_defined() -> None:
    report = check_theorem("MultCoincides")
    assert report.ok
    assert report.checked == 288


def test_shape_independent_runs_the_requested_cases() -> None:
    report = check_theorem("ShapeIndependent", cases=50, seed=0)
    assert report.ok
    assert report.checked == 50


def test_contextualization_covers_both_removal_shapes() -> None:
    report = check_theorem("Contextualization", cases=25, seed=0)
    assert report.ok
    assert report.checked > 0
    assert any("remove_simple" in n for n in report.notes)
    assert any("remove_complex" in n for n in report.notes)


def test_conservative_extension_on_the_enumerated_space() -> None:
    bounds = EnumBounds(2, 1, 2, 3)
    report = check_theorem("ConservativeExt", bounds=bounds)
    assert report.ok
    # two guarded commands per non-empty state
    assert report.checked == (count_cases(bounds) - 1) * 2


@pytest.mark.parametrize("plant", ["reclose", "materialize"])
def test_conservative_extension_catches_a_broken_induced_side(monkeypatch, plant) -> None:
    # both sides share one estimate per command, so what the theorem tests is
    # the induced side's reclose under the emp context: a wrong set there fails
    if plant == "reclose":
        monkeypatch.setattr(casl.Predicate, "reclose", lambda self, t, est: casl.EMPTY)
    else:
        # the one member loses its inflow: wrong only on a graph that has some
        monkeypatch.setattr(ClosureFamily, "materialize", lambda self: [self.base.with_inflow({})])
    report = check_theorem("ConservativeExt", bounds=EnumBounds(2, 1, 2, 3))
    assert not report.ok
    assert set(report.counterexample) == {"graph", "command"}
    assert report.counterexample["command"] in ("route-out", "drop-out")
    g = graph_from_json(report.counterexample["graph"])
    assert g.nodes
    if plant == "reclose":
        assert report.checked == 0
    else:
        assert g.inflow and report.checked > 0


def test_keyset_disjointness_on_random_trees() -> None:
    report = check_theorem("KeysetDisjoint", cases=30, seed=0)
    assert report.ok
    assert report.checked == 30


def test_every_declared_theorem_is_dispatchable() -> None:
    # in the order the command line lists them
    assert list(THEOREMS) == [
        "UniqueDecomp",
        "MultCoincides",
        "ShapeIndependent",
        "Contextualization",
        "ConservativeExt",
        "KeysetDisjoint",
        "FlowEquivalence",
    ]


# ---------------------------------------------------------------- the split


# (theorem, bounds, cases, frozen count, forks on two CPUs): MultCoincides'
# 161 graphs are too few to split; a sampled run splits from 2 * MIN_SHARE
# cases, and the last row's 21 graphs leave only FlowEquivalence's fuzz half
SPLIT = [
    ("UniqueDecomp", EnumBounds(max_endpoints=1, max_edge_fns=2), None, 3_136, 1),
    ("ConservativeExt", EnumBounds(max_edge_fns=2), None, 2_208, 1),
    ("FlowEquivalence", None, 10, 11_825 + 10, 1),
    ("MultCoincides", None, None, 288, 0),
    ("ShapeIndependent", None, 512, 512, 1),
    ("Contextualization", None, 512, 1_497, 1),
    ("KeysetDisjoint", None, 512, 512, 1),
    ("FlowEquivalence", EnumBounds(2, 1, 2, 2), 512, 21 + 512, 1),
]
BENCH_BOUNDS = SPLIT[0][1]
UNIQUE_DECOMP_GRAPH = oracle._unique_decomp_graph


def _pin(monkeypatch, cpus: set[int]) -> list[int]:
    # the usable CPUs, and a log of the forks taken
    forks: list[int] = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def _plant(monkeypatch, fail=(), raise_at=(), hang=(), interrupt=()) -> None:
    # UniqueDecomp's per-graph check, broken at the given graph indices of
    # BENCH_BOUNDS; forked children inherit the patch
    index = {g: i for i, g in enumerate(enumerate_graphs(BENCH_BOUNDS))}
    parent = os.getpid()

    def planted(g):
        i = index[g]
        if i in fail:
            return (0,), {"planted": i}
        if i in raise_at:
            raise InconclusiveError(f"planted at {i}")
        if i in hang and os.getpid() != parent:
            time.sleep(60)
        if i in interrupt and os.getpid() == parent:
            raise KeyboardInterrupt
        return UNIQUE_DECOMP_GRAPH(g)

    monkeypatch.setattr(oracle, "_unique_decomp_graph", planted)


def _assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name, bounds, cases, count, forks", SPLIT)
def test_split_reports_equal_the_serial_ones(monkeypatch, name, bounds, cases, count, forks) -> None:
    reports = []
    for cpus, want_forks in (({0, 1}, forks), ({0}, 0)):
        forked = _pin(monkeypatch, cpus)
        reports.append(check_theorem(name, bounds=bounds, cases=cases))
        assert len(forked) == want_forks
        _assert_no_children()
    assert reports[0] == reports[1]
    assert reports[0].ok and reports[0].checked == count


def test_the_split_is_serial_without_fork_or_beside_another_thread(monkeypatch) -> None:
    serial = check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS)
    forked = _pin(monkeypatch, {0, 1})
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS) == serial
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS) == serial
    assert forked == []


def test_a_failure_in_the_second_share_gives_the_serial_report(monkeypatch) -> None:
    # the shares of the 1,105 graphs are [0, 552) and [552, 1105)
    reports = []
    for cpus in ({0, 1}, {0}):
        forked = _pin(monkeypatch, cpus)
        _plant(monkeypatch, fail={800, 1000})
        reports.append(check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS))
        assert len(forked) == len(cpus) - 1
        _assert_no_children()
    assert reports[0] == reports[1]
    assert not reports[0].ok and reports[0].counterexample == {"planted": 800}
    # 64 two-node graphs with one split each end at index 80, then three per graph
    assert reports[0].checked == 64 + 3 * (800 - 81)


def test_a_raise_in_the_second_share_is_raised_unless_an_earlier_graph_fails(monkeypatch) -> None:
    for cpus in ({0, 1}, {0}):
        _pin(monkeypatch, cpus)
        _plant(monkeypatch, raise_at={900})
        with pytest.raises(InconclusiveError, match="planted at 900"):
            check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS)
        _assert_no_children()
        _plant(monkeypatch, fail={300}, raise_at={900})
        assert check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS).counterexample == {"planted": 300}
        _assert_no_children()
        _plant(monkeypatch, fail={1000}, raise_at={900})
        with pytest.raises(InconclusiveError, match="planted at 900"):
            check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS)
        _assert_no_children()


def test_a_share_whose_child_dies_is_checked_by_the_parent(monkeypatch) -> None:
    serial = check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS)
    forked = _pin(monkeypatch, {0, 1})
    parent = os.getpid()
    monkeypatch.setattr(
        oracle,
        "_unique_decomp_graph",
        lambda g: UNIQUE_DECOMP_GRAPH(g) if os.getpid() == parent else os._exit(1),
    )
    assert check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS) == serial
    assert len(forked) == 1
    _assert_no_children()


def test_an_interrupted_check_kills_its_children(monkeypatch) -> None:
    # the child sleeps in its share's first graph until it is killed
    _pin(monkeypatch, {0, 1})
    _plant(monkeypatch, hang={552}, interrupt={500})
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        check_theorem("UniqueDecomp", bounds=BENCH_BOUNDS)
    assert time.perf_counter() - start < 30
    _assert_no_children()


def test_an_over_budget_space_is_refused_before_any_graph_or_fork(monkeypatch) -> None:
    _pin(monkeypatch, {0, 1})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(FlowGraph, "_make", classmethod(lambda *a: pytest.fail("built a graph")))
    with pytest.raises(InconclusiveError, match="cases exceed the budget"):
        check_theorem("UniqueDecomp", bounds=EnumBounds(max_nodes=4))


# ---------------------------------------------------------------- planted faults


def _restrict_unpinned(monkeypatch) -> None:
    # restrict keeps a part's outer inflow but drops what the other part sends it
    real = flowgraph.restrict

    def planted(g, region):
        part = real(g, region)
        inflow = tuple(e for e in part.inflow if e[0] not in g.node_set)
        return FlowGraph._make(part.universe, part.nodes, part.edges, inflow)

    monkeypatch.setattr(flowgraph, "restrict", planted)


def _ghost_mult_drops_edges(monkeypatch, armed=(True,), where=(oracle,)) -> None:
    # ghost_mult, as the modules in `where` call it, ignores the second part's edges
    real = flowgraph.ghost_mult

    def planted(s, t):
        u = real(s, t)
        if u is None or not armed[0]:
            return u
        edges = tuple(e for e in u.edges if e[0] not in t.node_set)
        return FlowGraph._make(u.universe, u.nodes, edges, u.inflow)

    for module in where:
        monkeypatch.setattr(module, "ghost_mult", planted)


def _star_inherits_dropped_edges(monkeypatch) -> None:
    # the same fault where star sees it too: star then rejects the broken
    # pairs as unfaithful, and a pair of restrictions that fails to compose
    # is a counterexample
    _ghost_mult_drops_edges(monkeypatch, where=(oracle, flowgraph))


def _materialize_adds_a_member(monkeypatch) -> None:
    # a closure lists, beside its members, its base with no inflow at all
    real = ClosureFamily.materialize
    monkeypatch.setattr(ClosureFamily, "materialize", lambda self: [*real(self), self.base.with_inflow({})])


ENUMERATED_FAULTS = [
    ("UniqueDecomp", EnumBounds(2, 1, 3, 4), _restrict_unpinned),
    ("MultCoincides", None, _ghost_mult_drops_edges),
    ("ConservativeExt", EnumBounds(2, 1, 2, 3), _materialize_adds_a_member),
    ("MultCoincides", None, _star_inherits_dropped_edges),
    ("UniqueDecomp", EnumBounds(2, 1, 3, 4), plant_wrong_carried_flow),
]


@pytest.mark.parametrize("name, bounds, plant", ENUMERATED_FAULTS)
def test_a_planted_engine_fault_fails_the_enumerated_theorem(monkeypatch, name, bounds, plant) -> None:
    plant(monkeypatch)
    report = check_theorem(name, bounds=bounds)
    assert not report.ok and report.counterexample["graph"]
    assert report.notes == ()


def test_unique_decomp_compares_the_restriction_with_the_derived_split(monkeypatch) -> None:
    # an unpinned restriction stars back only under a star that checks no
    # interface; the comparison with the derived split then catches it
    _restrict_unpinned(monkeypatch)
    bounds = EnumBounds(2, 1, 3, 4)
    report = check_theorem("UniqueDecomp", bounds=bounds)
    assert report.counterexample["reason"] == "restriction does not star back"
    monkeypatch.setattr(oracle, "star", flowgraph.ghost_mult)
    report = check_theorem("UniqueDecomp", bounds=bounds)
    assert report.counterexample["reason"] == "restriction does not match the derived split"


def _armed(monkeypatch, case_check: str) -> list[bool]:
    # a sampled theorem's per-case check, wrapped to arm a planted fault in
    # its cases from the first of the second share of a 2 * MIN_SHARE-case
    # run on two CPUs on; a forked child inherits the wrapper
    armed = [False]
    check = getattr(oracle, case_check)

    def wrapped(i, *args):
        armed[0] = i >= oracle.MIN_SHARE
        try:
            return check(i, *args)
        finally:
            armed[0] = False

    monkeypatch.setattr(oracle, case_check, wrapped)
    return armed


def _eq_hints(monkeypatch, armed) -> None:
    # every traced tree write is checked under eq, whatever its hint names
    real = casl.trace_step_estimator
    monkeypatch.setattr(
        casl, "trace_step_estimator", lambda ts, g: Estimator.eq() if armed[0] else real(ts, g)
    )


def _keyset_is_inset(monkeypatch, armed) -> None:
    # a node's keyset keeps the keys it passes on to its children
    real = bst.derived_quantities

    def planted(h, g, flow, x):
        q = real(h, g, flow, x)
        if not armed[0] or q.inset < 0:
            return q
        return bst.NodeQuantities(q.inset, q.out_left, q.out_right, q.inset, q.contents)

    monkeypatch.setattr(bst, "derived_quantities", planted)


def _solve_one_sweep(monkeypatch, armed) -> None:
    # the kernel stops after its first sweep
    real = FlowKernel.solve

    def planted(self, base):
        if not armed[0]:
            return real(self, base)
        flow = [BOT_TAG] * len(base)
        for i, preds in enumerate(self.preds):
            flow[i] = flowgraph._edge_sum(base[i], preds, flow)
        return flow

    monkeypatch.setattr(FlowKernel, "solve", planted)


# FlowEquivalence's 21 graphs leave the fault and the split to its fuzz half
SAMPLED_FAULTS = [
    ("ShapeIndependent", None, "_shape_case", _ghost_mult_drops_edges),
    ("Contextualization", None, "_contextualization_case", _eq_hints),
    ("KeysetDisjoint", None, "_keyset_case", _keyset_is_inset),
    ("FlowEquivalence", EnumBounds(2, 1, 2, 2), "_fuzz_case", _solve_one_sweep),
]


@pytest.mark.parametrize("name, bounds, case_check, plant", SAMPLED_FAULTS)
def test_a_fault_planted_in_the_second_share_fails_the_sampled_theorem(
    monkeypatch, name, bounds, case_check, plant
) -> None:
    plant(monkeypatch, _armed(monkeypatch, case_check))
    reports = []
    for cpus in ({0, 1}, {0}):
        forked = _pin(monkeypatch, cpus)
        reports.append(check_theorem(name, bounds=bounds, cases=2 * oracle.MIN_SHARE))
        assert len(forked) == len(cpus) - 1
        _assert_no_children()
    assert reports[0] == reports[1]
    assert not reports[0].ok and reports[0].counterexample["case"] >= oracle.MIN_SHARE


def test_every_theorem_runs_through_the_indexed_driver(monkeypatch) -> None:
    # one driver runs and counts every row's instances, so no row keeps a
    # loop of its own; the per-instance checks stay private, since
    # bench/tracer.py wraps every public oracle function
    checks: list[str] = []
    indexed = oracle._indexed

    def logged(total, instances, check, *args):
        checks.append(check.__name__)
        return indexed(total, instances, check, *args)

    monkeypatch.setattr(oracle, "_indexed", logged)
    for name in THEOREMS:
        checks.clear()
        assert check_theorem(name, bounds=EnumBounds(0, 0, 1, 1), cases=0).ok, name
        assert checks and all(c.startswith("_") for c in checks), (name, checks)
