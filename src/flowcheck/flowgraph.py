"""Flow graphs: exact fixpoint flow, restriction, composition, decomposition."""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import Any, Container, Iterable, Mapping

from .errors import InputError, InternalInvariantError
from .frozen import Frozen, cached
from .keyspace import (
    BOT_TAG,
    TOP_TAG,
    AtomUniverse,
    format_value,
    meet_interval,
    parse_interval_set,
    value_from_json,
    value_to_json,
)

NodeId = int


def apply_edge(fn: int, m: int) -> int:
    """Evaluate edge function fn on flow value m; ConstTop yields Top even on Bot input."""
    if fn >= 0:
        return meet_interval(m, fn)
    return fn


class FlowGraph(Frozen):
    """Nodes, finite-support edge functions, and finite-support external inflow.

    Edge functions and inflow values are tagged ints (see keyspace), read as
    keys through the graph's universe. Stored normalized: ConstBot edges and
    Bot inflow entries are dropped and entries are sorted, so field equality
    is semantic equality. The hash, the node set, the entry maps and the
    flow are built on first use, and approx_update keeps its last answer.

    FlowGraph(...), make_graph, graph_from_json, with_inflow, copies and
    pickles check the parts; the engine's constructors, which build from
    another graph's or a heap's normal parts, go through _make, which checks
    nothing: nodes sorted and distinct, entries sorted and keyed uniquely by
    (src, dst) with Bot dropped, edges out of the nodes, inflow from outside
    into them, every value Top or an atom set of the universe.
    """

    universe: AtomUniverse
    nodes: tuple[NodeId, ...]
    edges: tuple[tuple[NodeId, NodeId, int], ...]
    inflow: tuple[tuple[NodeId, NodeId, int], ...]

    def __new__(cls, universe: AtomUniverse, nodes: tuple, edges: tuple, inflow: tuple) -> "FlowGraph":
        full = universe.full_bits
        node_set = set(nodes)
        if len(node_set) != len(nodes) or list(nodes) != sorted(nodes):
            raise InputError("nodes must be sorted and distinct")
        for src, _, fn in edges:
            if src not in node_set:
                raise InputError(f"edge source {src} is not an internal node")
            _check_tagged(fn, full, "edge function")
        _check_keyed(edges, "edges")
        for src, dst, value in inflow:
            if src in node_set:
                raise InputError(f"inflow source {src} must be external")
            if dst not in node_set:
                raise InputError(f"inflow target {dst} must be internal")
            _check_tagged(value, full, "inflow value")
        _check_keyed(inflow, "inflow")
        return cls._make(universe, nodes, edges, inflow)

    # ------------------------------------------------------------- access

    @cached
    def node_set(self) -> frozenset[NodeId]:
        return frozenset(self.nodes)

    @cached
    def edge_map(self) -> dict[tuple[NodeId, NodeId], int]:
        return {(s, d): fn for s, d, fn in self.edges}

    @cached
    def inflow_map(self) -> dict[tuple[NodeId, NodeId], int]:
        return {(s, d): v for s, d, v in self.inflow}

    @property
    def external_targets(self) -> tuple[NodeId, ...]:
        return tuple(sorted({d for _, d, _ in self.edges if d not in self.node_set}))

    def edge_fn(self, x: NodeId, y: NodeId) -> int:
        return self.edge_map.get((x, y), BOT_TAG)

    def inflow_value(self, x: NodeId, y: NodeId) -> int:
        return self.inflow_map.get((x, y), BOT_TAG)

    @cached
    def flow(self) -> dict[NodeId, int]:
        return compute_flow(self)

    def with_inflow(self, entries: Mapping[tuple[NodeId, NodeId], int]) -> "FlowGraph":
        """Same nodes and edges with the inflow replaced (g[in']); g itself if unchanged."""
        inflow = tuple((s, d, v) for (s, d), v in sorted(entries.items()) if v != BOT_TAG)
        if inflow == self.inflow:
            return self
        return FlowGraph(self.universe, self.nodes, self.edges, inflow)

    # ------------------------------------------------------------- separation algebra

    @property
    def domain(self) -> frozenset[NodeId]:
        """The nodes this graph owns; decompositions split along them."""
        return self.node_set

    def star(self, other: "FlowGraph") -> "FlowGraph | None":
        """Star composition; None when it is undefined."""
        out = star(self, other)
        return None if isinstance(out, StarFailure) else out

    def decompose(
        self, part1: Iterable[NodeId], part2: Iterable[NodeId]
    ) -> tuple["FlowGraph", "FlowGraph"]:
        return unique_decompose(self, part1, part2)

    def closure(self, region: Iterable[NodeId], est: Any) -> Any:
        """The graphs like this one with region-larger inflow, as a ClosureFamily."""
        return estimator.ClosureFamily(self, frozenset(region), est)

    def approx_update(self, core: Any, est: Any) -> "FlowGraph | None":
        """The core update when it is estimator-above this graph; None signals Top."""
        if est is None:
            raise InputError("flow updates need an estimator to approximate")
        return estimator.approx_physical_update(core, self, est)


def _check_tagged(v: Any, full_bits: int, what: str) -> None:
    # a normalized entry is TOP_TAG or an atom set of the universe; Bot is dropped
    if v.__class__ is not int or not (v == TOP_TAG or 0 <= v <= full_bits):
        raise InputError(f"{what} {v!r} is not Top or an atom set of the universe")


def _check_keyed(entries: tuple[tuple[NodeId, NodeId, Any], ...], what: str) -> None:
    keys = [e[:2] for e in entries]
    if len(set(keys)) != len(keys) or keys != sorted(keys):
        raise InputError(f"{what} must be sorted and keyed uniquely by (src, dst)")


def make_graph(
    universe: AtomUniverse,
    nodes: Iterable[NodeId],
    edges: Mapping[tuple[NodeId, NodeId], int] | Iterable[tuple[NodeId, NodeId, int]],
    inflow: Mapping[tuple[NodeId, NodeId], int] | Iterable[tuple[NodeId, NodeId, int]] = (),
) -> FlowGraph:
    """Normalize and build a flow graph from entries in any order: sort them
    and drop defaults. Graphs built from another graph's normal parts go
    through FlowGraph._make."""
    return FlowGraph(
        universe,
        tuple(sorted(set(nodes))),
        tuple(e for e in _sorted_entries(edges) if e[2] != BOT_TAG),
        tuple(e for e in _sorted_entries(inflow) if e[2] != BOT_TAG),
    )


_by_key = itemgetter(0, 1)


def _sorted_entries(entries: Mapping | Iterable[tuple]) -> list[tuple]:
    # a mapping's keys are distinct, so its items sort without comparing values;
    # listed entries sort by key alone, and a repeated key fails validation
    if isinstance(entries, (dict, Mapping)):  # dict first: the ABC check costs far more
        return [(s, d, x) for (s, d), x in sorted(entries.items())]
    return sorted(entries, key=_by_key)


def _merged(a: tuple, b: tuple) -> tuple:
    # two sorted tuples whose keys are disjoint, as one sorted tuple
    return tuple(sorted(a + b)) if a and b else a or b


def empty_graph(universe: AtomUniverse) -> FlowGraph:
    """The unit of both multiplications."""
    return FlowGraph._make(universe, (), (), ())


# ---------------------------------------------------------------- fixpoint


class FlowKernel:
    """A flow graph compiled for solving under many inflows.

    Node i is the graph's i-th node in ascending id order, and each edge is
    a pair (source index, edge function) as the graph stores it.
    """

    __slots__ = ("index", "preds", "outs")

    def __init__(self, g: FlowGraph) -> None:
        self.index = {x: i for i, x in enumerate(g.nodes)}
        self.preds: list[list[tuple[int, int]]] = [[] for _ in g.nodes]
        self.outs: dict[NodeId, list[tuple[int, int]]] = {}
        for src, dst, fn in g.edges:
            edge = (self.index[src], fn)
            if dst in self.index:
                self.preds[self.index[dst]].append(edge)
            else:
                self.outs.setdefault(dst, []).append(edge)

    def inflow(self, entries: Iterable[tuple[NodeId, int]]) -> list[int]:
        """Per-node sums of (target, value) inflow entries, as a vector for solve."""
        base = [BOT_TAG] * len(self.preds)
        for dst, v in entries:
            if v != BOT_TAG:
                i = self.index[dst]
                base[i] = v if base[i] == BOT_TAG else TOP_TAG
        return base

    def solve(self, base: list[int]) -> list[int]:
        """Least flow vector over the per-node inflow sums: ascending-index
        sweeps from all-Bot, capped at 2n+2."""
        n = len(base)
        flow = [BOT_TAG] * n
        if n == 0:
            return flow
        cap = 2 * n + 2
        preds = self.preds
        sweeps = 0
        while True:
            sweeps += 1
            if sweeps > cap:
                raise InternalInvariantError(f"flow fixpoint did not stabilize in {cap} sweeps")
            changed = False
            for i in range(n):
                acc = _edge_sum(base[i], preds[i], flow)
                if acc != flow[i]:
                    flow[i] = acc
                    changed = True
            if not changed:
                return flow

    def outflow(self, flow: list[int], y: NodeId) -> int:
        """Sum of the flow the edges into external y carry."""
        return _edge_sum(BOT_TAG, self.outs.get(y, ()), flow)


def _edge_sum(acc: int, edges: Iterable[tuple[int, int]], flow: list[int]) -> int:
    # oplus over tagged ints: Bot is the unit, any other sum is Top;
    # ConstTop gives Top even on Bot input, a filter passes Bot and Top through
    for j, fn in edges:
        if acc == TOP_TAG:
            return acc
        if fn == TOP_TAG:
            v = TOP_TAG
        else:
            v = flow[j]
            if v == BOT_TAG:
                continue
            if v >= 0:
                v &= fn
        acc = v if acc == BOT_TAG else TOP_TAG
    return acc


def compute_flow(g: FlowGraph) -> dict[NodeId, int]:
    """Least solution of flow(x) = sum of inflow into x + sum of edge-propagated flows.

    Compiles g to a FlowKernel and solves it: ascending-id sweeps from
    all-Bot. On this three-level lattice every node ascends at most twice,
    so 2n+1 sweeps always suffice. Exceeding the cap means a broken
    monotonicity invariant, not bad input.
    """
    k = FlowKernel(g)
    flow = k.solve(k.inflow((dst, v) for _, dst, v in g.inflow))
    return dict(zip(g.nodes, flow))


# ---------------------------------------------------------------- restriction


def restrict(g: FlowGraph, region: Iterable[NodeId]) -> FlowGraph:
    """Subgraph on the region; inflow from dropped nodes is pinned at their outflow.

    A solved g's flow on the region is the part's least flow, so the part
    carries it; g is not solved for that alone. It solves the part's equations
    under the pinned inflow, and the part's least flow joined with g's flow
    off the region is a pre-fixpoint of g's, so at or above g's least flow."""
    keep = g.node_set.intersection(region)
    edges, pinned = [], []
    for e in g.edges:
        if e[0] in keep:
            edges.append(e)
        elif e[1] in keep and (value := apply_edge(e[2], g.flow[e[0]])) != BOT_TAG:
            pinned.append((e[0], e[1], value))
    # pinned sources are g's nodes, the kept inflow's are not: no key is shared
    part = FlowGraph._make(
        g.universe,
        tuple([x for x in g.nodes if x in keep]),
        tuple(edges),
        _merged(tuple([e for e in g.inflow if e[1] in keep]), tuple(pinned)),
    )
    if (flow := g.__dict__.get("flow")) is not None:
        part.__dict__["flow"] = {x: flow[x] for x in part.nodes}
    return part


# ---------------------------------------------------------------- composition


class StarFailure(Frozen):
    """Machine-readable reason star composition is undefined."""

    reason: str
    at: Any = None


def ghost_mult(s: FlowGraph, t: FlowGraph) -> FlowGraph | None:
    """Disjoint union that drops cross-boundary inflow expectations; None on overlap."""
    if s.universe != t.universe:
        raise InputError("graphs from different atom universes")
    if not s.node_set.isdisjoint(t.node_set):
        return None
    # entries are keyed by a source or a target of one side, so no key is shared
    return FlowGraph._make(
        s.universe,
        _merged(s.nodes, t.nodes),
        _merged(s.edges, t.edges),
        _merged(
            tuple(e for e in s.inflow if e[0] not in t.node_set),
            tuple(e for e in t.inflow if e[0] not in s.node_set),
        ),
    )


def star(s: FlowGraph, t: FlowGraph) -> FlowGraph | StarFailure:
    """Composition: ghost_mult guarded by interface match and flow faithfulness."""
    u = ghost_mult(s, t)
    if u is None:
        return StarFailure("node-overlap", tuple(sorted(s.node_set & t.node_set)))
    flow_s, flow_t = s.flow, t.flow
    for a, b, side in ((s, t, flow_s), (t, s, flow_t)):
        # a's outflow into b must be exactly the inflow b expects from a
        expected = {(x, y): v for x, y, v in b.inflow if x in a.node_set}
        for x, y, fn in a.edges:
            if y in b.node_set:
                out = apply_edge(fn, side[x])
                if out != b.inflow_value(x, y):
                    return StarFailure("interface-mismatch", (x, y))
                expected.pop((x, y), None)
        if expected:
            # normalized inflow holds no Bot entry, so any left over is unmatched
            return StarFailure("interface-mismatch", next(iter(expected)))
    flow_u = u.flow
    for x in u.nodes:
        split = flow_s[x] if x in s.node_set else flow_t[x]
        if flow_u[x] != split:
            return StarFailure("flow-not-faithful", x)
    return u


def unique_decompose(
    u: FlowGraph, part1: Iterable[NodeId], part2: Iterable[NodeId]
) -> tuple[FlowGraph, FlowGraph]:
    """Split along a node partition; the parts star-recompose to u and are unique."""
    p1, p2 = set(part1), set(part2)
    if p1 & p2 or p1 | p2 != u.node_set:
        raise InputError("node sets must partition the graph")
    return restrict(u, p1), restrict(u, p2)


# ---------------------------------------------------------------- JSON and DOT


def edge_fn_from_json(universe: AtomUniverse, raw: Any) -> int:
    """Decode "bot" | "top" | {"filter": interval-set}."""
    if raw == "bot":
        return BOT_TAG
    if raw == "top":
        return TOP_TAG
    if isinstance(raw, dict) and set(raw) == {"filter"}:
        return parse_interval_set(universe, raw["filter"])
    raise InputError(f"bad edge function: {raw!r}")


def edge_fn_to_json(universe: AtomUniverse, fn: int) -> Any:
    out = value_to_json(universe, fn)
    return {"filter": out["intervals"]} if fn >= 0 else out


def node_id_from_json(raw: Any, what: str) -> NodeId:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise InputError(f"{what} must be an int: {raw!r}")
    return raw


# the most bytes an input file may hold; the bundled inputs are a few KB
MAX_INPUT_BYTES = 16 << 20


def load_json(path: "str | Path") -> Any:
    """Parse a JSON file; a missing or unreadable file, one over
    MAX_INPUT_BYTES, text that is not UTF-8, malformed or too deeply nested
    JSON, an int literal too long for Python to read, NaN or an infinity, or
    an object that names one key twice is an input error."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise InputError(f"{path} is over the input limit of {MAX_INPUT_BYTES} bytes")
        text = data.decode("utf-8")
        return json.loads(text, object_pairs_hook=_unrepeated, parse_constant=_not_json)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int over Python's digit limit
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"JSON in {path} nests too deeply") from exc


def _unrepeated(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json.loads would keep a repeated key's last value and drop the others
    out = dict(pairs)
    if len(out) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            check_fresh(key, seen, "JSON key")
            seen.add(key)
    return out


def _not_json(name: str) -> Any:
    # json.loads reads NaN, Infinity and -Infinity, which JSON does not have
    raise InputError(f"{name} is not a JSON value")


def json_list(raw: Any, what: str) -> list:
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list: {raw!r}")
    return raw


def check_fresh(key: Any, seen: Container, what: str) -> None:
    """Reject an entry whose node id or (src, dst) an earlier entry used."""
    if key in seen:
        raise InputError(f"{what} {key!r} is listed twice")


def graph_from_json(raw: Any) -> FlowGraph:
    """Decode the graph file format (endpoints, nodes with edges, inflow)."""
    if not isinstance(raw, dict):
        raise InputError("graph file must be a JSON object")
    for field in ("endpoints", "nodes"):
        if field not in raw:
            raise InputError(f"graph file lacks {field!r}")
    universe = AtomUniverse.from_endpoints(raw["endpoints"])
    nodes: set[NodeId] = set()
    edges: dict[tuple[NodeId, NodeId], int] = {}
    for entry in json_list(raw["nodes"], "nodes"):
        if not isinstance(entry, dict) or "id" not in entry:
            raise InputError(f"bad node entry: {entry!r}")
        x = node_id_from_json(entry["id"], "node id")
        check_fresh(x, nodes, "node id")
        nodes.add(x)
        for edge in json_list(entry.get("edges", []), "edges"):
            if not isinstance(edge, dict) or "dst" not in edge or "fn" not in edge:
                raise InputError(f"bad edge entry: {edge!r}")
            key = (x, node_id_from_json(edge["dst"], "edge dst"))
            check_fresh(key, edges, "edge")
            edges[key] = edge_fn_from_json(universe, edge["fn"])
    inflow: dict[tuple[NodeId, NodeId], int] = {}
    for entry in json_list(raw.get("inflow", []), "inflow"):
        if not isinstance(entry, dict) or not {"src", "dst", "value"} <= set(entry):
            raise InputError(f"bad inflow entry: {entry!r}")
        src = node_id_from_json(entry["src"], "inflow src")
        key = (src, node_id_from_json(entry["dst"], "inflow dst"))
        check_fresh(key, inflow, "inflow entry")
        inflow[key] = value_from_json(universe, entry["value"])
    return make_graph(universe, nodes, edges, inflow)


def graph_to_json(g: FlowGraph) -> dict[str, Any]:
    """Encode a graph in the file format, canonically ordered."""
    nodes = []
    for x in g.nodes:
        out_edges = [
            {"dst": d, "fn": edge_fn_to_json(g.universe, fn)}
            for s, d, fn in g.edges
            if s == x
        ]
        entry: dict[str, Any] = {"id": x}
        if out_edges:
            entry["edges"] = out_edges
        nodes.append(entry)
    return {
        "endpoints": list(g.universe.finite_endpoints),
        "nodes": nodes,
        "inflow": [
            {"src": s, "dst": d, "value": value_to_json(g.universe, v)}
            for s, d, v in g.inflow
        ],
    }


def graph_to_dot(g: FlowGraph, flow: Mapping[NodeId, int] | None = None) -> str:
    """Render the graph (optionally annotated with its flow) in DOT syntax."""
    flow = g.flow if flow is None else flow
    u = g.universe
    lines = ["digraph flowgraph {"]
    for x in g.nodes:
        lines.append(f'  n{x} [label="{x}\\n{format_value(u, flow[x])}"];')
    for y in g.external_targets:
        lines.append(f'  n{y} [label="{y}", style=dashed];')
    for s, d, fn in g.edges:
        lines.append(f'  n{s} -> n{d} [label="{format_value(u, fn)}"];')
    for s, d, v in g.inflow:
        lines.append(f'  ext{s} [label="{s}", shape=plaintext];')
        lines.append(f'  ext{s} -> n{d} [label="{format_value(u, v)}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)


# bound last, as estimator imports this module's names: either may be imported first
from . import estimator  # noqa: E402
