"""Brute-force twins of the engine's fast paths, exhaustive graph enumeration,
and instance-level checks of the framework's lemma and theorem statements."""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import sys
from typing import Any, Callable, Iterable, Iterator

from . import bst, casl
from .errors import InconclusiveError, InputError, InternalInvariantError
from .estimator import Estimator, ctx_estimate, inflow_rel
from .flowgraph import (
    FlowGraph,
    NodeId,
    apply_edge,
    compute_flow,
    empty_graph,
    ghost_mult,
    graph_to_json,
    make_graph,
    restrict,
    star,
    unique_decompose,
)
from .frozen import Frozen
from .keyspace import (
    BOT_TAG,
    NEG_INF,
    TOP_TAG,
    AtomUniverse,
    all_values,
    interval_bits,
    oplus,
)

DEFAULT_CASE_BUDGET = 200_000
SOURCES = (-1, -2)
SINK = -3
ENDPOINT_GRID = (4, 8, 12, 16)
TREE_KEY_GRID = tuple(range(1, 18))

# the node bound of a random fuzz graph, for `fuzz` and FlowEquivalence alike
FUZZ_NODES = 16


# ---------------------------------------------------------------- randomness


def rng_for(suite: str, index: int, seed: int) -> random.Random:
    """Counter-based generator: any single case replays without the rest."""
    digest = hashlib.sha256(f"{suite}:{index}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


# ---------------------------------------------------------------- naive flow


def _naive_flow_raw(
    nodes: Iterable[NodeId],
    edges: Iterable[tuple[NodeId, NodeId, int]],
    inflow: dict[tuple[NodeId, NodeId], int],
) -> dict[NodeId, int]:
    # simultaneous re-evaluation from all-Bot; no worklist, no in-place sweep
    node_list = list(nodes)
    node_set = set(node_list)
    base: dict[NodeId, int] = {x: BOT_TAG for x in node_list}
    for (src, dst), v in inflow.items():
        if dst in node_set and v != BOT_TAG:
            base[dst] = oplus(base[dst], v)
    internal = [(s, d, fn) for s, d, fn in edges if s in node_set and d in node_set]
    cur = {x: BOT_TAG for x in node_list}
    cap = 2 * len(node_list) + 2
    for _ in range(cap + 1):
        nxt = dict(base)
        for s, d, fn in internal:
            nxt[d] = oplus(nxt[d], apply_edge(fn, cur[s]))
        if nxt == cur:
            return cur
        cur = nxt
    raise InternalInvariantError(f"naive flow did not stabilize in {cap} rounds")


def naive_flow(g: FlowGraph) -> dict[NodeId, int]:
    """Least solution of the flow equation by full Jacobi rounds; the
    lattice-height bound on the rounds always suffices."""
    return _naive_flow_raw(g.nodes, g.edges, dict(g.inflow_map))


def natural_leq_search(u: AtomUniverse, m: int, n: int) -> bool:
    """The natural order by its existential definition: some o completes m to n."""
    return any(oplus(m, o) == n for o in all_values(u))


# ---------------------------------------------------------------- enumeration


class EnumBounds(Frozen):
    """Size knobs for the exhaustive graph space."""

    max_nodes: int
    max_endpoints: int
    max_edge_fns: int
    max_inflow_values: int

    def __new__(cls, max_nodes: int = 3, max_endpoints: int = 2, max_edge_fns: int = 3,
                max_inflow_values: int = 4) -> "EnumBounds":
        if max_nodes < 0 or max_endpoints < 0:
            raise InputError("enumeration bounds must be non-negative")
        if not 1 <= max_edge_fns <= 5:
            raise InputError("edge function pool holds between 1 and 5 kinds")
        if not 1 <= max_inflow_values <= 5:
            raise InputError("inflow pool holds between 1 and 5 values")
        if max_endpoints > len(ENDPOINT_GRID):
            raise InputError(f"at most {len(ENDPOINT_GRID)} endpoints are available")
        return cls._make(max_nodes, max_endpoints, max_edge_fns, max_inflow_values)


def universe_for(bounds: EnumBounds) -> AtomUniverse:
    return AtomUniverse.from_endpoints(ENDPOINT_GRID[: bounds.max_endpoints])


def _edge_fn_pool(universe: AtomUniverse, count: int) -> list[int]:
    low = _low_bits(universe)
    full = universe.full_bits
    return [BOT_TAG, low, TOP_TAG, full & ~low, full][:count]


def _inflow_pool(universe: AtomUniverse, count: int) -> list[int]:
    low = _low_bits(universe)
    full = universe.full_bits
    return [BOT_TAG, low, full & ~low, full, TOP_TAG][:count]


def _low_bits(universe: AtomUniverse) -> int:
    if not universe.finite_endpoints:
        return universe.full_bits
    first = universe.finite_endpoints[0]
    return interval_bits(universe, NEG_INF, first, True, False)


def _pair_count(n: int) -> int:
    return n * (n - 1)


def count_cases(bounds: EnumBounds) -> int:
    """Closed-form size of the enumeration, summed by node count until it
    passes DEFAULT_CASE_BUDGET, so the sum has at most a few dozen bits."""
    total = 0
    for n in range(bounds.max_nodes + 1):
        cases = bounds.max_edge_fns ** _pair_count(n)
        if n >= 1:
            cases *= bounds.max_inflow_values ** len(SOURCES)
        total += cases
        if total > DEFAULT_CASE_BUDGET:
            break
    return total


def _case_total(bounds: EnumBounds) -> int:
    total = count_cases(bounds)
    if total > DEFAULT_CASE_BUDGET:
        raise InconclusiveError(f"{total} cases exceed the budget {DEFAULT_CASE_BUDGET}")
    return total


def enumerate_graphs(
    bounds: EnumBounds, start: int = 0, stop: int | None = None
) -> Iterator[FlowGraph]:
    """Every graph in the bounded space whose index lies in [start, stop), in
    a fixed order; the graphs outside the range are not built.

    Nodes are 0..n-1; every ordered pair of distinct nodes draws an edge
    function from the pool; the two external sources feed the first and last
    node with a pool value each.
    """
    total = _case_total(bounds)
    stop = total if stop is None else stop
    universe = universe_for(bounds)
    fns = _edge_fn_pool(universe, bounds.max_edge_fns)
    values = _inflow_pool(universe, bounds.max_inflow_values)
    first = 0  # the index of the node count's first graph
    for n in range(bounds.max_nodes + 1):
        nodes = list(range(n))
        pairs = [(x, y) for x in nodes for y in nodes if x != y]
        in_targets = [(SOURCES[0], 0), (SOURCES[1], n - 1)] if n else []
        block = len(fns) ** len(pairs) * len(values) ** len(in_targets)
        if start < first + block and first < stop:
            fn_choices = itertools.product(fns, repeat=len(pairs))
            choices = itertools.product(fn_choices, itertools.product(values, repeat=len(in_targets)))
            for fn_choice, val_choice in itertools.islice(choices, max(start - first, 0), stop - first):
                edges, inflow = dict(zip(pairs, fn_choice)), dict(zip(in_targets, val_choice))
                yield make_graph(universe, nodes, edges, inflow)
        first += block


# ---------------------------------------------------------------- the split

# the fewest graphs a forked share checks: a fork round trip costs about 2 ms,
# what some 90 of the cheapest graphs (FlowEquivalence's) take to build and check
MIN_SHARE = 256


def _exhaustive(bounds: EnumBounds, check: Callable, *args: Any) -> tuple[list[int], Any]:
    """Run `check(g, *args)` over the bounded space in index order until a graph
    gives a witness: the summed counts and that witness, or None. The check
    returns a graph's counts, up to the failure on one that fails, and its
    witness or None.

    The index range is cut into contiguous shares, one per CPU the process
    may run on and each of at least MIN_SHARE graphs. A forked child checks
    each share after the first and writes only its counts, or `stop`, to a
    pipe; the parent checks the first share itself, sums the shares in index
    order and re-runs in-process the first one that did not pass or whose
    child died. So the witness, the counts and any exception are the serial
    loop's.
    """
    total = _case_total(bounds)
    ways = max(1, min(_usable_cpus(), total // MIN_SHARE))
    cuts = [total * i // ways for i in range(ways + 1)]
    shares = list(zip(cuts, cuts[1:]))
    children: list[tuple[int, int] | None] = []
    try:
        for start, stop in shares[1:]:
            children.append(_fork_share(bounds, start, stop, check, args))
        sums, witness = _share(bounds, *shares[0], check, args)
        for (start, stop), child in zip(shares[1:], children):
            if witness is not None:
                break
            reply = os.read(child[1], 4096) if child else b""
            if reply in (b"", b"stop"):
                counts, witness = _share(bounds, start, stop, check, args)
            else:
                counts = [int(c) for c in reply.split()]
            sums = [a + b for a, b in zip(sums, counts)]
        return sums, witness
    finally:
        # kill first, then wait: a child that already wrote is a zombie by now
        alive = [child for child in children if child]
        if alive:
            import signal

            for pid, _ in alive:
                os.kill(pid, signal.SIGKILL)
            for pid, read in alive:
                os.waitpid(pid, 0)
                os.close(read)


def _usable_cpus() -> int:
    # forking a process that runs other threads is unsafe
    threads = sys.modules.get("threading")
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return 1 if threads and threads.active_count() > 1 else len(os.sched_getaffinity(0))


def _share(bounds: EnumBounds, start: int, stop: int, check: Callable, args: tuple) -> tuple:
    sums: list[int] = []
    for g in enumerate_graphs(bounds, start, stop):
        counts, witness = check(g, *args)
        sums = [a + b for a, b in zip(sums, counts)] if sums else list(counts)
        if witness is not None:
            return sums, witness
    return sums, None


def _fork_share(
    bounds: EnumBounds, start: int, stop: int, check: Callable, args: tuple
) -> tuple[int, int] | None:
    """A child checking one share, as its pid and the read end of its pipe,
    or None when no child could be forked."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        try:
            # one write under PIPE_BUF arrives whole; an exception writes
            # nothing, and the parent re-runs the share to raise it itself
            sums, witness = _share(bounds, start, stop, check, args)
            os.write(write, b"stop" if witness is not None else " ".join(map(str, sums)).encode())
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def random_graph(
    rng: random.Random,
    universe: AtomUniverse,
    max_nodes: int = FUZZ_NODES,
    min_nodes: int = 1,
    edge_p: float = 0.15,
    allow_top: bool = True,
) -> FlowGraph:
    """One arbitrary graph: sparse random edges, random inflow, optional Tops."""
    n = rng.randint(min_nodes, max_nodes)
    nodes = list(range(n))
    edges: dict[tuple[NodeId, NodeId], int] = {}
    for x in nodes:
        for y in nodes:
            if x == y or rng.random() >= edge_p:
                continue
            edges[(x, y)] = _random_edge_fn(rng, universe, allow_top)
        if rng.random() < 0.1:
            edges[(x, SINK)] = _random_edge_fn(rng, universe, allow_top)
    inflow: dict[tuple[NodeId, NodeId], int] = {}
    hit_p = min(1.0, 2.0 / n)
    for src in SOURCES:
        for x in nodes:
            if rng.random() >= hit_p:
                continue
            if allow_top and rng.random() < 0.05:
                inflow[(src, x)] = TOP_TAG
            else:
                inflow[(src, x)] = rng.getrandbits(universe.atom_count)
    return make_graph(universe, nodes, edges, inflow)


def _random_edge_fn(
    rng: random.Random, universe: AtomUniverse, allow_top: bool
) -> int:
    if allow_top and rng.random() < 0.05:
        return TOP_TAG
    return rng.getrandbits(universe.atom_count) or universe.full_bits


# ---------------------------------------------------------------- reports


class TheoremReport(Frozen):
    """Outcome of one instance-level theorem run."""

    name: str
    ok: bool
    checked: int
    counterexample: Any = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "theorem": self.name,
            "ok": self.ok,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def flow_equivalence(
    bounds: EnumBounds | None = None,
    cases: int = 1000,
    seed: int = 0,
) -> TheoremReport:
    """Engine fixpoint against the naive one: exhaustive space plus fuzz."""
    bounds = bounds or EnumBounds()
    (checked,), witness = _exhaustive(bounds, _flow_equivalence_graph)
    if witness is None:
        _, witness = fuzz_flows(universe_for(bounds), cases, seed, FUZZ_NODES, first_only=True)
        checked += cases if witness is None else witness["case"]
    return TheoremReport("FlowEquivalence", witness is None, checked, witness)


def _flow_equivalence_graph(g: FlowGraph) -> tuple:
    if compute_flow(g) != naive_flow(g):
        return (0,), {"graph": graph_to_json(g)}
    return (1,), None


def fuzz_flows(
    universe: AtomUniverse,
    cases: int,
    seed: int,
    max_nodes: int,
    first_only: bool = False,
) -> tuple[int, dict[str, Any] | None]:
    """Engine fixpoint against the naive one on random graphs: the number of
    mismatches and the first one's witness, stopping there when first_only.

    The rng is derived from the case index alone, so any case replays.
    """
    mismatches, witness = 0, None
    for i in range(cases):
        g = random_graph(rng_for("flow-fuzz", i, seed), universe, max_nodes)
        if compute_flow(g) != naive_flow(g):
            mismatches += 1
            witness = witness or {"case": i, "seed": seed, "graph": graph_to_json(g)}
            if first_only:
                break
    return mismatches, witness


# ---------------------------------------------------------------- theorems


# ---- unique decomposition


def _splits(nodes: tuple[NodeId, ...]) -> list[tuple[set[NodeId], set[NodeId]]]:
    # unordered bipartitions with both sides nonempty and at most two nodes
    if len(nodes) < 2:
        return []
    out = []
    anchor = nodes[0]
    for size in (1, 2):
        for part in itertools.combinations(nodes, size):
            if anchor not in part:
                continue
            rest = set(nodes) - set(part)
            if 1 <= len(rest) <= 2:
                out.append((set(part), rest))
    return out


def _decompositions(
    u: FlowGraph, p1: set[NodeId], p2: set[NodeId], target: dict[NodeId, int]
) -> list[dict]:
    """The star decompositions of u along the partition, derived from u's
    naive flow `target`: the one the interface allows, or none.

    Outer entries are kept verbatim by the composition (anything else fails
    to rebuild u) and inflow without a matching edge breaks the interface
    check, so only cross-edge entries are open. Part two's cross inflow is
    part one's outflow at u's flow, and part one's is then forced to be part
    two's outflow at part two's own flow: any other value breaks the
    interface, so at most one candidate is left. No summand filter is
    needed: where part one's flow meets u's, every entry into a node is a
    summand of that node's flow.
    """
    def split_off(part, other_flow):
        # the part's internal edges, and its inflow with the other side's
        # outflow on the cross edges
        inflow = {(s, d): v for (s, d), v in u.inflow_map.items() if d in part}
        internal = []
        for s, d, fn in u.edges:
            if d not in part:
                continue
            if s in part:
                internal.append((s, d, fn))
            elif (v := apply_edge(fn, other_flow[s])) != BOT_TAG:
                inflow[(s, d)] = v
        return internal, inflow

    edges2, inflow2 = split_off(p2, target)
    flow2 = _naive_flow_raw(p2, edges2, inflow2)
    if any(flow2[x] != target[x] for x in p2):
        return []
    edges1, inflow1 = split_off(p1, flow2)
    if edges1:
        flow1 = _naive_flow_raw(p1, edges1, inflow1)
    else:
        # no internal edges: the flow is the plain inflow sum
        flow1 = {x: BOT_TAG for x in p1}
        for (_, d), v in inflow1.items():
            flow1[d] = oplus(flow1[d], v)
    if any(flow1[x] != target[x] for x in p1):
        return []
    return [{"inflow1": inflow1, "inflow2": inflow2}]


def _check_unique_decomp(bounds: EnumBounds) -> TheoremReport:
    (checked,), witness = _exhaustive(bounds, _unique_decomp_graph)
    return TheoremReport("UniqueDecomp", witness is None, checked, witness)


def _unique_decomp_graph(u: FlowGraph) -> tuple:
    checked = 0
    splits = _splits(u.nodes)
    target = _naive_flow_raw(u.nodes, u.edges, dict(u.inflow_map)) if splits else {}
    for p1, p2 in splits:
        t1, t2 = unique_decompose(u, p1, p2)
        recomposed = star(t1, t2)
        if not isinstance(recomposed, FlowGraph) or recomposed != u:
            return (checked,), _split_witness(u, p1, "restriction does not star back")
        # derive from the smaller side; the derivation is symmetric
        small, large, canon = (p1, p2, t1) if len(p1) <= len(p2) else (p2, p1, t2)
        options = _decompositions(u, small, large, target)
        if len(options) != 1:
            return (checked,), _split_witness(u, p1, f"{len(options)} decompositions found")
        if options[0]["inflow1"] != canon.inflow_map:
            reason = "search found a different decomposition than restriction"
            return (checked,), _split_witness(u, p1, reason)
        checked += 1
    return (checked,), None


def _split_witness(u: FlowGraph, p1: set[NodeId], reason: str) -> dict[str, Any]:
    return {"graph": graph_to_json(u), "part": sorted(p1), "reason": reason}


# ---- star coincides with ghost multiplication


def _check_mult_coincides(bounds: EnumBounds) -> TheoremReport:
    (checked, defined), witness = _exhaustive(bounds, _mult_coincides_graph)
    notes = () if witness else (f"{defined} pairs composed",)
    return TheoremReport("MultCoincides", witness is None, checked, witness, notes)


def _mult_coincides_graph(u: FlowGraph) -> tuple:
    checked = defined = 0
    subsets = [
        set(part)
        for size in range(1, len(u.nodes))
        for part in itertools.combinations(u.nodes, size)
    ]
    parts = {frozenset(s): restrict(u, s) for s in subsets}
    for a, b in itertools.permutations(parts, 2):
        if a & b:
            continue
        s_, t_ = parts[a], parts[b]
        composed = star(s_, t_)
        checked += 1
        if not isinstance(composed, FlowGraph):
            continue
        defined += 1
        mult = ghost_mult(s_, t_)
        flows = naive_flow(composed)
        part_flows = {**naive_flow(s_), **naive_flow(t_)}
        faithful = all(flows[x] == part_flows[x] for x in composed.nodes)
        if composed != mult or not faithful:
            witness = {"graph": graph_to_json(u), "left": sorted(a), "right": sorted(b)}
            return (checked, defined), witness
    return (checked, defined), None


# ---- shape-independent approximation


def _check_shape_independent(cases: int, seed: int) -> TheoremReport:
    universe = AtomUniverse.from_endpoints(ENDPOINT_GRID[:2])
    checked = 0
    mutated = 0
    for i in range(cases):
        rng = rng_for("shape", i, seed)
        w = random_graph(
            rng, universe, max_nodes=6, min_nodes=2, edge_p=0.35, allow_top=False
        )
        nodes = list(w.nodes)
        k = rng.randint(1, len(nodes) - 1)
        p1 = set(rng.sample(nodes, k))
        p2 = set(nodes) - p1
        s_, u_ = unique_decompose(w, p1, p2)
        est = Estimator.simple()
        t_ = _enlarged(rng, s_)
        if t_ is None or not ctx_estimate(s_, t_, est).holds:
            t_ = s_
        else:
            mutated += 1
        composed = star(s_, u_)
        mult = ghost_mult(t_, u_)
        witness = {
            "case": i,
            "seed": seed,
            "composite": graph_to_json(w),
            "part": sorted(p1),
        }
        if not isinstance(composed, FlowGraph) or mult is None:
            return TheoremReport("ShapeIndependent", False, checked, witness)
        if not ctx_estimate(composed, mult, est).holds:
            return TheoremReport("ShapeIndependent", False, checked, witness)
        tt, uu = unique_decompose(mult, t_.node_set, u_.node_set)
        rebuilt = star(tt, uu)
        if not isinstance(rebuilt, FlowGraph) or rebuilt != mult:
            return TheoremReport("ShapeIndependent", False, checked, witness)
        if not inflow_rel(universe, s_.inflow_map, tt.inflow_map, u_.node_set, est, tt.nodes):
            return TheoremReport("ShapeIndependent", False, checked, witness)
        if not inflow_rel(universe, u_.inflow_map, uu.inflow_map, t_.node_set, est, uu.nodes):
            return TheoremReport("ShapeIndependent", False, checked, witness)
        checked += 1
    return TheoremReport(
        "ShapeIndependent", True, checked, notes=(f"{mutated} proper enlargements",)
    )


def _enlarged(rng: random.Random, s: FlowGraph) -> FlowGraph | None:
    # grow one edge filter; candidates keeping the estimate are kept by the caller
    growable = [(x, y, fn) for x, y, fn in s.edges if 0 <= fn != s.universe.full_bits]
    if not growable:
        return None
    x, y, fn = rng.choice(growable)
    extra = rng.getrandbits(s.universe.atom_count) & ~fn
    if not extra:
        return None
    edges = {(a, b): f for a, b, f in s.edges}
    edges[(x, y)] = fn | extra
    return make_graph(s.universe, s.nodes, edges, dict(s.inflow_map))


# ---- contextualization on tree scenarios


def _random_tree(rng: random.Random) -> bst.Heap:
    h = bst.singleton_heap()
    for _ in range(rng.randint(4, 28)):
        out = bst.run_op(h, bst.Op("insert", key=rng.choice(TREE_KEY_GRID)))
        h = out.heap
    live = [k for k in h.keys_present()]
    for _ in range(rng.randint(0, 4)):
        if not live:
            break
        key = rng.choice(live)
        live.remove(key)
        h = bst.run_op(h, bst.Op("delete", key=key)).heap
    return h


def _removal_target(
    h: bst.Heap, op_name: str, rng: random.Random
) -> tuple[NodeId, NodeId] | None:
    """Pick (op target, node to mark), or None when the shape never fits."""
    if op_name == "remove_complex":
        cands = [
            x
            for x in h.reachable()
            if x != h.root
            and h.get(x).left is not None
            and h.get(x).right is not None
            and bst.find_succ(h, x) is not None
        ]
        return (lambda x: (x, x))(rng.choice(cands)) if cands else None
    # the simple removal unlinks a left child that has at most one child
    pairs = []
    for x in h.reachable():
        y = h.get(x).left
        if y is None or y not in h.nodes:
            continue
        yf = h.get(y)
        if yf.left is None or yf.right is None:
            pairs.append((x, y))
    return rng.choice(pairs) if pairs else None


def _check_contextualization(cases: int, seed: int) -> TheoremReport:
    universe = AtomUniverse.from_endpoints(TREE_KEY_GRID)
    checked = 0
    ran = {"remove_simple": 0, "remove_complex": 0}
    for i in range(cases):
        rng = rng_for("ctx", i, seed)
        h = _random_tree(rng)
        for op_name in ("remove_simple", "remove_complex"):
            picked = _removal_target(h, op_name, rng)
            if picked is None:
                continue
            target, mark = picked
            if not h.get(mark).deleted:
                h = bst.run_op(h, bst.Op("delete", key=h.get(mark).key)).heap
            out = bst.run_op(h, bst.Op(op_name, node=target))
            if out.result == bst.SKIPPED:
                continue
            for tstep, pre, post in zip(out.trace, (h, *out.heaps), out.heaps):
                reason = _contextualize_step(pre, post, tstep, universe)
                if reason is not None:
                    witness = {"step": tstep.label, "pre": bst.heap_to_json(pre), "reason": reason,
                               "case": i, "seed": seed, "op": op_name}
                    return TheoremReport("Contextualization", False, checked, witness)
                checked += 1
            h = out.heap
            ran[op_name] += 1
    notes = tuple(f"{n} {op} scenarios" for op, n in sorted(ran.items()))
    return TheoremReport("Contextualization", True, checked, notes=notes)


def _contextualize_step(
    pre: bst.Heap, post: bst.Heap, tstep: bst.OpStep, universe: AtomUniverse
) -> str | None:
    """Why the step's contextual triple fails, or None when it holds; an
    allocation, or a step whose footprint is empty or the whole heap, has no
    context to check."""
    foot = set(tstep.footprint)
    if tstep.alloc or not foot or foot == set(pre.nodes):
        return None
    try:
        check, _ = casl.check_trace_step(pre, post, tstep, universe, None, "context")
    except InternalInvariantError as exc:
        return str(exc)
    return None if check.ok else check.detail


# ---- conservative extension


def _check_conservative_ext(bounds: EnumBounds) -> TheoremReport:
    universe = universe_for(bounds)
    emp = casl.Predicate.of([empty_graph(universe)])
    (checked,), witness = _exhaustive(bounds, _conservative_ext_graph, emp, _low_bits(universe))
    return TheoremReport("ConservativeExt", witness is None, checked, witness)


def _conservative_ext_graph(g: FlowGraph, emp: casl.Predicate, low: int) -> tuple:
    checked = 0
    if not g.nodes:
        return (0,), None
    commands = [
        casl.flow_update_command("route-out", {(0, SINK): low}, (0,)),
        casl.flow_update_command("drop-out", {}, (0,)),
    ]
    for com in commands:
        a = casl.Predicate.of([g])
        std = casl.sem(com, a)
        induced = casl.induced_transformer(com, emp, Estimator.eq())(a)
        if induced != std:
            return (checked,), {"graph": graph_to_json(g), "command": com.name}
        checked += 1
    return (checked,), None


# ---- keyset disjointness


def _check_keyset_disjoint(cases: int, seed: int) -> TheoremReport:
    universe = AtomUniverse.from_endpoints(TREE_KEY_GRID)
    checked = 0
    for i in range(cases):
        rng = rng_for("keyset", i, seed)
        h = _random_tree(rng)
        g = bst.derive_flowgraph(h, universe)
        flow = naive_flow(g)
        keysets = {
            x: bst.derived_quantities(h, g, flow, x).keyset for x in h.reachable()
        }
        items = sorted(keysets.items())
        for (x, kx), (y, ky) in itertools.combinations(items, 2):
            if kx >= 0 and ky >= 0 and kx & ky:
                return TheoremReport(
                    "KeysetDisjoint",
                    False,
                    checked,
                    {
                        "case": i,
                        "seed": seed,
                        "heap": bst.heap_to_json(h),
                        "nodes": [x, y],
                    },
                )
        checked += 1
    return TheoremReport("KeysetDisjoint", True, checked)


# ---------------------------------------------------------------- dispatch

# each theorem's check, its default enumeration bounds and its default case
# count; None means the theorem does not read that input. The order is the
# order the command line lists them in.
THEOREMS: dict[str, tuple[Callable[..., TheoremReport], EnumBounds | None, int | None]] = {
    # splits of up to 2+2 nodes sit inside the 3-node space; one endpoint
    # keeps the alternative-inflow search exhaustive
    "UniqueDecomp": (_check_unique_decomp, EnumBounds(max_endpoints=1), None),
    "MultCoincides": (_check_mult_coincides, EnumBounds(max_nodes=2, max_endpoints=1), None),
    "ShapeIndependent": (_check_shape_independent, None, 1000),
    "Contextualization": (_check_contextualization, None, 200),
    "ConservativeExt": (_check_conservative_ext, EnumBounds(), None),
    "KeysetDisjoint": (_check_keyset_disjoint, None, 200),
    "FlowEquivalence": (flow_equivalence, EnumBounds(), 1000),
}


def check_theorem(
    name: str,
    bounds: EnumBounds | None = None,
    cases: int | None = None,
    seed: int = 0,
) -> TheoremReport:
    """Instantiate one named lemma or theorem over a bounded space, passing
    it only the inputs its `THEOREMS` row reads."""
    if name not in THEOREMS:
        raise InputError(f"unknown theorem: {name!r}")
    check, row_bounds, row_cases = THEOREMS[name]
    kwargs: dict[str, Any] = {}
    if row_bounds is not None:
        kwargs["bounds"] = bounds or row_bounds
    if row_cases is not None:
        kwargs.update(cases=row_cases if cases is None else cases, seed=seed)
    return check(**kwargs)
