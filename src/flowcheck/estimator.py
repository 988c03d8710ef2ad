"""Estimator relations on flow values and graphs, closures, and approximate updates."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Mapping

from .errors import EXPANSION_CAP, InconclusiveError, InputError, capped_product, count_text
from .keyspace import (
    BOT_TAG,
    TOP_TAG,
    AtomUniverse,
    Key,
    all_values,
    contains_key,
    key_to_json,
    natural_leq,
    oplus,
    parse_interval_set,
    parse_key,
    value_to_json,
)
from .flowgraph import FlowGraph, FlowKernel, NodeId, apply_edge
from .frozen import Frozen


class Estimator(Frozen):
    """Named relation on flow values, liftable to graphs as the context estimate.

    Kinds: eq, leq (the natural order), simple (equal, or both proper sets with
    containment), complex (simple, or shrink by at most the release set K when
    the pivot key is absent).
    """

    kind: str
    pivot: Key | None
    release_bits: int

    def __new__(cls, kind: str, pivot: Key | None = None, release_bits: int = 0) -> "Estimator":
        if kind not in ("eq", "leq", "simple", "complex"):
            raise InputError(f"bad estimator kind: {kind!r}")
        if kind == "complex" and pivot is None:
            raise InputError("complex estimator needs a pivot key")
        return cls._make(kind, pivot, release_bits)

    @classmethod
    def eq(cls) -> "Estimator":
        return cls("eq")

    @classmethod
    def leq(cls) -> "Estimator":
        return cls("leq")

    @classmethod
    def simple(cls) -> "Estimator":
        return cls("simple")

    @classmethod
    def complex(cls, pivot: Key, release_bits: int) -> "Estimator":
        return cls("complex", pivot=pivot, release_bits=release_bits)


def relates(u: AtomUniverse, est: Estimator, m: int, n: int) -> bool:
    """Decide m est-below n for flow values of universe u."""
    if est.kind == "eq":
        return m == n
    if est.kind == "leq":
        return natural_leq(m, n)
    if m == n:
        return True
    if m < 0 or n < 0:
        return False
    if m & ~n == 0:
        return True
    if est.kind == "complex" and not contains_key(u, m, est.pivot):
        return (m & ~est.release_bits) & ~n == 0
    return False


def related_values(u: AtomUniverse, est: Estimator, m: int) -> list[int]:
    """All n with m est-below n, in a canonical order; capped for sanity."""
    if est.kind == "eq":
        return [m]
    if est.kind == "leq":
        if m == TOP_TAG:
            return [m]
        if m == BOT_TAG:
            _check_related_count(u.full_bits + 3)
            return list(all_values(u))
        return [TOP_TAG, m]
    # simple or complex: exactly the supersets of a base mask
    if m < 0:
        return [m]
    base = m
    if est.kind == "complex" and not contains_key(u, m, est.pivot):
        base &= ~est.release_bits
    free = u.full_bits & ~base
    _check_related_count(1 << free.bit_count())
    out = []
    t = 0
    while True:
        out.append(base | t)
        if t == free:
            break
        t = (t - free) & free
    return out


def _check_related_count(count: int) -> None:
    if count > (cap := EXPANSION_CAP.get()):
        raise InconclusiveError(f"{count_text(count)} related values exceed the cap {cap}")


# ---------------------------------------------------------------- axioms


class AxiomReport(Frozen):
    """Outcome of the estimator axiom check, with the violating instance if any."""

    ok: bool
    axiom: str | None = None
    witness: tuple | None = None

    def __str__(self) -> str:
        if self.ok:
            return "axioms hold"
        parts = ", ".join(str(w) for w in self.witness or ())
        return f"{self.axiom} violated at ({parts})"


def check_estimator_axioms(est: Estimator, universe: AtomUniverse) -> AxiomReport:
    """Exhaustively verify reflexivity/transitivity, sum-compatibility, and
    edge-function monotonicity; chain-join stability is discharged by the
    ascending chain condition of the finite lattice."""
    lattice_size = universe.full_bits + 3
    if lattice_size > (cap := EXPANSION_CAP.get()):
        count = count_text(lattice_size)
        raise InconclusiveError(f"lattice of {count} values exceeds the cap {cap}")
    vals = list(all_values(universe))
    for m in vals:
        if not relates(universe, est, m, m):
            return AxiomReport(False, "E1-reflexive", (m,))
    rel = {(m, n) for m in vals for n in vals if relates(universe, est, m, n)}
    pairs = [(m, n) for m in vals for n in vals if (m, n) in rel]
    for m, n in pairs:
        for o in vals:
            if (n, o) in rel and (m, o) not in rel:
                return AxiomReport(False, "E1-transitive", (m, n, o))
    for m, n in pairs:
        for o in vals:
            if not relates(universe, est, oplus(m, o), oplus(n, o)):
                return AxiomReport(False, "E2-sum-compatible", (m, n, o))
    # ascending chain condition: strict ascents exist only out of Bot or into Top
    for m in vals:
        for n in vals:
            if natural_leq(m, n) and m != n and not (m == BOT_TAG or n == TOP_TAG):
                return AxiomReport(False, "E3-ascending-chain", (m, n))
    # every edge function: ConstBot, ConstTop and each filter, which are the values
    for fn in vals:
        for m, n in rel:
            if not relates(universe, est, apply_edge(fn, m), apply_edge(fn, n)):
                return AxiomReport(False, "E4-edge-monotone", (fn, m, n))
    return AxiomReport(True)


# ---------------------------------------------------------------- graph lift


Inflow = Mapping[tuple[NodeId, NodeId], int]


class CtxEstimateReport(Frozen):
    """Outcome of the graph-level estimate, with a failing inflow and node if
    any; an inconclusive one carries the inflow combinations it would need."""

    verdict: str
    witness: tuple[tuple[tuple[NodeId, NodeId], int], ...] | None = None
    at: NodeId | None = None
    combinations: int = 0

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def over_cap(self, what: str) -> str:
        count, cap = count_text(self.combinations), EXPANSION_CAP.get()
        return f"{what}: {count} inflow combinations exceed the expansion cap {cap}"


def _down_set(u: AtomUniverse, value: int) -> list[int]:
    # pointwise candidates below one inflow entry
    if value == TOP_TAG:
        return list(all_values(u))
    return [BOT_TAG, value]


def ctx_estimate(s: FlowGraph, t: FlowGraph, est: Estimator) -> CtxEstimateReport:
    """Decide s below t as graphs: same nodes and inflow, and every inflow at or
    below the recorded one transfers est-related values to every external target.
    The cap counts those inflows, the combinations of each entry's down-set,
    up to the first entry that takes them past it; each distinct per-node sum
    vector they give is solved once, in combination order.

    When every node keeps its in-edges, one solve serves both graphs and only
    the targets whose edges differ are compared: equal edges carry equal
    values and every estimator relates a value to itself, so a skipped target
    never fails and the report is that of comparing every target. With no
    target left it holds unsolved, after the cap check; with no edge leaving
    the nodes it holds before either graph is compiled."""
    if s.universe != t.universe:
        raise InputError("graphs from different atom universes")
    if s.nodes != t.nodes or s.inflow != t.inflow:
        return CtxEstimateReport("fails", ())
    u = s.universe
    entries = list(s.inflow)
    if over := capped_product([u.full_bits + 3 if v == TOP_TAG else 2 for _, _, v in entries]):
        return CtxEstimateReport("inconclusive", combinations=over[0])
    if s.node_set.issuperset([e[1] for e in s.edges + t.edges]):
        return CtxEstimateReport("holds")
    options = [_down_set(u, v) for _, _, v in entries]
    dsts = [dst for _, dst, _ in entries]
    ks, kt = FlowKernel(s), FlowKernel(t)
    same_flow = ks.preds == kt.preds
    targets = sorted(
        y for y in set(ks.outs) | set(kt.outs) if not same_flow or ks.outs.get(y) != kt.outs.get(y)
    )
    if not targets:
        return CtxEstimateReport("holds")
    # one vector serves both kernels (same nodes); a repeated one already held
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.product(*options):
        base = ks.inflow(zip(dsts, combo))
        if (vector := tuple(base)) in seen:
            continue
        seen.add(vector)
        flow_s = ks.solve(base)
        flow_t = flow_s if same_flow else kt.solve(base)
        for y in targets:
            if not relates(u, est, ks.outflow(flow_s, y), kt.outflow(flow_t, y)):
                witness = tuple(((src, dst), v) for (src, dst, _), v in zip(entries, combo))
                return CtxEstimateReport("fails", witness, y)
    return CtxEstimateReport("holds")


def inflow_rel(
    u: AtomUniverse,
    in1: Inflow,
    in2: Inflow,
    region: Iterable[NodeId],
    est: Estimator,
    nodes: Iterable[NodeId],
) -> bool:
    """Inflow order relative to a source region: agreement outside the region,
    est-related per-target sums over sources inside it."""
    region = set(region)
    outside1 = {k: v for k, v in in1.items() if k[0] not in region and v != BOT_TAG}
    outside2 = {k: v for k, v in in2.items() if k[0] not in region and v != BOT_TAG}
    if outside1 != outside2:
        return False
    # each side's per-target sums over the region's sources, in one pass; a
    # node that no such entry reaches sums Bot on both sides, which every
    # estimator relates, as it relates each value to itself
    sum1, sum2 = {}, {}
    for inflow, sums in ((in1, sum1), (in2, sum2)):
        for (src, dst), v in inflow.items():
            if src in region:
                sums[dst] = oplus(sums.get(dst, BOT_TAG), v)
    targets = (sum1.keys() | sum2.keys()).intersection(nodes)
    return all(relates(u, est, sum1.get(x, BOT_TAG), sum2.get(x, BOT_TAG)) for x in targets)


# ---------------------------------------------------------------- closures


class ClosureFamily(Frozen):
    """The graphs coinciding with a base graph except for region-larger inflow.

    Membership is exact and cheap; materialization is exact but may exceed the
    expansion cap, in which case only the membership test remains available.
    """

    base: FlowGraph
    sources: frozenset[NodeId]
    est: Estimator

    def contains(self, g: FlowGraph) -> bool:
        """Exact membership test."""
        if g.universe != self.base.universe:
            return False
        if g.nodes != self.base.nodes or g.edges != self.base.edges:
            return False
        base = self.base
        return inflow_rel(
            base.universe, base.inflow_map, g.inflow_map, self.sources, self.est, base.nodes
        )

    def materialize(self) -> list[FlowGraph]:
        """Every member, in a canonical order; inconclusive over the cap. With
        no free inflow the base is the one member, and nothing is counted."""
        base = self.base
        if not self.sources or not base.nodes:
            return [base]
        u = base.universe
        outside = {
            (src, dst): v for (src, dst), v in base.inflow_map.items() if src not in self.sources
        }
        sums: dict[NodeId, int] = {x: BOT_TAG for x in base.nodes}
        for (src, dst), v in base.inflow_map.items():
            if src in self.sources:
                sums[dst] = oplus(sums[dst], v)
        srcs = sorted(self.sources)
        per_node_values = [related_values(u, self.est, sums[x]) for x in base.nodes]
        counts = [
            sum(_splitting_count(u, val, len(srcs)) for val in vals) for vals in per_node_values
        ]
        if over := capped_product(counts):
            # each later node adds at least one choice, so the count so far
            # bounds the members from below
            count, i = over
            raise InconclusiveError(
                f"closure larger than the cap {EXPANSION_CAP.get()}: at least"
                f" {count_text(count)} members counted over {i} of {len(base.nodes)} nodes"
            )
        per_node_choices = [
            [part for val in vals for part in _splittings(u, val, srcs, x)]
            for x, vals in zip(base.nodes, per_node_values)
        ]
        members = []
        for combo in itertools.product(*per_node_choices):
            inflow = dict(outside)
            for part in combo:
                inflow.update(part)
            members.append(base.with_inflow(inflow))
        return members

    # ------------------------------------------------------------- as a context

    def compose(self, s: FlowGraph, events: Iterable[Any] = ()) -> list[FlowGraph]:
        """s starred with the one member whose interface can match it, if any;
        events play no part in a flow closure."""
        if not isinstance(s, FlowGraph):
            raise InputError("flow closure composed with a non-graph state")
        base = self.base
        if s.universe != base.universe or s.node_set & base.node_set:
            return []
        # s pins the inflow on its edges into the region; other entries stay
        inflow = {(x, y): v for (x, y), v in base.inflow_map.items() if x not in s.node_set}
        for src, dst, fn in s.edges:
            if dst in base.node_set:
                v = apply_edge(fn, s.flow[src])
                if v != BOT_TAG:
                    inflow[(src, dst)] = v
        m = base.with_inflow(inflow)
        if not self.contains(m):
            return []
        comp = s.star(m)
        return [] if comp is None else [comp]

    def splits(self, u: FlowGraph, post: Any) -> bool:
        """u is a state of post starred with a member: split it along the region."""
        region = self.base.node_set
        if not region <= u.domain:
            return False
        uf, uc = u.decompose(u.domain - region, region)
        return self.contains(uc) and post.contains(uf)

    def stable_under(self, t: FlowGraph) -> bool:
        """Closing over the updated footprint's nodes gives back this family."""
        return self.sources == t.domain

    def reclose(self, t: FlowGraph, est: Estimator) -> "ClosureFamily":
        """The updated footprint closed over this family's nodes."""
        return ClosureFamily(t, self.base.node_set, est)

    def inside(self, states: frozenset) -> bool:
        """Every member lies in the finite set; inconclusive over the cap."""
        return all(m in states for m in self.materialize())


def _splitting_count(u: AtomUniverse, total: int, k: int) -> int:
    # len(_splittings(u, total, sources, dst)) over k sources, in closed form
    if total == BOT_TAG:
        return 1
    if k <= 1 or total >= 0:
        return k
    # Top: every assignment of the 2^a sets, Bot and Top sums to Top except
    # all-Bot and a lone set beside Bots
    sets = u.full_bits + 1
    return (sets + 2) ** k - 1 - k * sets


def _splittings(
    u: AtomUniverse, total: int, sources: list[NodeId], dst: NodeId
) -> list[dict[tuple[NodeId, NodeId], int]]:
    # ways to distribute a per-node sum across the region's sources
    if total == BOT_TAG:
        return [{}]
    if len(sources) == 1:
        return [{(sources[0], dst): total}]
    out = []
    if total >= 0:
        # a set sums only as itself plus Bot elsewhere
        for carrier in sources:
            out.append({(carrier, dst): total})
        return out
    # Top: any assignment whose sum is Top
    options = list(all_values(u))
    for combo in itertools.product(options, repeat=len(sources)):
        acc = BOT_TAG
        for v in combo:
            acc = oplus(acc, v)
        if acc == total:
            out.append({(src, dst): v for src, v in zip(sources, combo) if v != BOT_TAG})
    return out


# ---------------------------------------------------------------- approximations

# an update reads only its graph; updates and their approximations signal abort (Top) with None
CoreUpdate = Callable[[FlowGraph], "FlowGraph | None"]


def approx_physical_update(
    up: CoreUpdate, s: FlowGraph, est: Estimator, what: str = "context estimate"
) -> FlowGraph | None:
    """Strengthened update: the updated graph when it is est-above the original
    at every inflow, Top (None) otherwise; inconclusive over the cap, with a
    note that names the search as what. The last finished answer is kept on
    s, as its flow is, for the same update object, estimator and cap."""
    key = (est, EXPANSION_CAP.get())
    slot = s.__dict__.get("_approx")
    if slot is not None and slot[0] is up and slot[1] == key:
        return slot[2]
    t = up(s)
    if t is not None:
        report = ctx_estimate(s, t, est)
        if report.verdict == "inconclusive":
            raise InconclusiveError(report.over_cap(what))
        t = t if report.holds else None
    s.__dict__["_approx"] = (up, key, t)
    return t


def estimator_from_json(universe: AtomUniverse, raw: Any) -> Estimator:
    """Decode "eq" | "leq" | "simple" | {"complex": {"kx": key, "K": intervals}}."""
    if raw == "eq":
        return Estimator.eq()
    if raw == "leq":
        return Estimator.leq()
    if raw == "simple":
        return Estimator.simple()
    if isinstance(raw, dict) and set(raw) == {"complex"}:
        body = raw["complex"]
        if not isinstance(body, dict) or not {"kx", "K"} <= set(body):
            raise InputError(f"bad complex estimator: {raw!r}")
        return Estimator.complex(
            parse_key(body["kx"]), parse_interval_set(universe, body["K"])
        )
    raise InputError(f"bad estimator: {raw!r}")


def estimator_to_json(universe: AtomUniverse, est: Estimator) -> Any:
    if est.kind != "complex":
        return est.kind
    ivs = value_to_json(universe, est.release_bits)["intervals"]
    return {"complex": {"kx": key_to_json(est.pivot), "K": ivs}}
