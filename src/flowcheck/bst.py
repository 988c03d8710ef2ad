"""Binary search tree with logical deletion: heap model, derived flow graph,
inset/keyset quantities, node and global invariants, and executable operations."""

from __future__ import annotations

import random
from bisect import bisect
from operator import itemgetter
from typing import Any, Iterable, Sequence

from .errors import InputError
from .keyspace import (
    BOT_TAG,
    NEG_INF,
    POS_INF,
    TOP_TAG,
    AtomUniverse,
    Key,
    contains_key,
    interval_bits,
    key_to_json,
    parse_key,
)
from .flowgraph import (
    FlowGraph,
    NodeId,
    apply_edge,
    check_fresh,
    json_list,
    node_id_from_json,
)
from .frozen import Frozen, cached

EXTERNAL_SOURCE = -1


DUP_MARKS = ("no", "left", "right")


class NodeFields(Frozen):
    """One heap node: child pointers, key, deletion and duplicate marks; hashed once, when built."""

    __slots__ = ("key", "left", "right", "deleted", "dup", "_hash")

    key: Key
    left: NodeId | None
    right: NodeId | None
    deleted: bool
    dup: str

    def __init__(self, key: Key, left: NodeId | None = None, right: NodeId | None = None,
                 deleted: bool = False, dup: str = "no") -> None:
        if dup not in DUP_MARKS:
            raise InputError(f"bad dup mark: {dup!r}")
        init = object.__setattr__
        init(self, "key", key)
        init(self, "left", left)
        init(self, "right", right)
        init(self, "deleted", deleted)
        init(self, "dup", dup)
        init(self, "_hash", hash((key, left, right, deleted, dup)))


class Heap(Frozen):
    """Immutable node store with a distinguished root; operations return new heaps.

    Heap(...) and Heap.of check the entries; with_writes and add_node build
    through _make, which checks nothing: entries sorted and distinct by id,
    the root among them.
    """

    root: NodeId
    entries: tuple[tuple[NodeId, NodeFields], ...]

    def __new__(cls, root: NodeId, entries: tuple[tuple[NodeId, NodeFields], ...]) -> "Heap":
        ids = [i for i, _ in entries]
        if ids != sorted(set(ids)):
            raise InputError("heap entries must be sorted and distinct")
        if root not in set(ids):
            raise InputError("root must be a heap node")
        return cls._make(root, entries)

    @classmethod
    def of(cls, root: NodeId, nodes: dict[NodeId, NodeFields]) -> "Heap":
        return cls(root, tuple(sorted(nodes.items())))

    @cached
    def nodes(self) -> dict[NodeId, NodeFields]:
        return dict(self.entries)

    def get(self, x: NodeId) -> NodeFields:
        try:
            return self.nodes[x]
        except KeyError:
            raise InputError(f"no heap node {x}") from None

    def with_writes(self, writes: Sequence[tuple[NodeId, str, Any]]) -> "Heap":
        """The heap after (node, field, value) writes, applied in order."""
        if not writes:
            return self
        nodes = dict(self.nodes)
        for x, field, value in writes:
            if x not in nodes:
                raise InputError(f"no heap node {x}")
            kw = dict(zip(NodeFields._fields, NodeFields._values(nodes[x])))
            kw["deleted" if field == "del" else field] = value
            nodes[x] = NodeFields(**kw)
        # writes replace values only, so the dict keeps the entries' id order
        return Heap._make(self.root, tuple(nodes.items()))

    def add_node(self, x: NodeId, fields: NodeFields) -> "Heap":
        if x in self.nodes:
            raise InputError(f"heap node {x} already exists")
        entries = self.entries
        i = bisect(entries, x, key=itemgetter(0))
        return Heap._make(self.root, entries[:i] + ((x, fields),) + entries[i:])

    def fresh_id(self) -> NodeId:
        return max(self.nodes) + 1

    def reachable(self) -> list[NodeId]:
        """Nodes reachable from the root via child pointers, in visit order."""
        seen: list[NodeId] = []
        seen_set: set[NodeId] = set()
        stack = [self.root]
        while stack:
            x = stack.pop()
            if x is None or x in seen_set or x not in self.nodes:
                continue
            seen.append(x)
            seen_set.add(x)
            fields = self.nodes[x]
            stack.append(fields.right)
            stack.append(fields.left)
        return seen

    def keys_present(self) -> list[int]:
        return sorted(
            {f.key for _, f in self.entries if isinstance(f.key, int)}
        )


def singleton_heap() -> Heap:
    """A fresh tree: only the sentinel root with key -inf and the tree under its right."""
    return Heap.of(0, {0: NodeFields(key=NEG_INF)})


# ---------------------------------------------------------------- flow derivation


def derive_flowgraph(h: Heap, universe: AtomUniverse | None = None) -> FlowGraph:
    """Edge functions from the physical tree; the inflow routes the full key
    range from EXTERNAL_SOURCE to the root, so a heap that holds that id
    has no flow graph."""
    if universe is None:
        universe = AtomUniverse.from_endpoints(h.keys_present())
    grid = set(universe.finite_endpoints)
    # the heap's entries are sorted by id, so each node's out-edges, sorted by
    # target, extend the sorted edge list, and the graph is in normal form
    edges: list[tuple[NodeId, NodeId, int]] = []
    for x, f in h.entries:
        if isinstance(f.key, int) and f.key not in grid:
            raise InputError(f"key {f.key} of node {x} is off the atom grid")
        left, right = f.left, f.right
        if left is not None and left == right:
            edges.append((x, left, TOP_TAG))
            continue
        out = []
        if left is not None and f.dup != "left":
            out.append((x, left, interval_bits(universe, NEG_INF, f.key, False, True)))
        if right is not None and f.dup != "right":
            out.append((x, right, interval_bits(universe, f.key, POS_INF, True, False)))
        if len(out) == 2 and right < left:
            out.reverse()
        edges.extend(out)
    if EXTERNAL_SOURCE in h.nodes:
        raise InputError(f"inflow source {EXTERNAL_SOURCE} must be external")
    root_inflow = ((EXTERNAL_SOURCE, h.root, universe.full_bits),)
    return FlowGraph._make(universe, tuple(x for x, _ in h.entries), tuple(edges), root_inflow)


class NodeQuantities(Frozen):
    """Inset, both outsets, keyset, and logical contents of one node."""

    inset: int
    out_left: int
    out_right: int
    keyset: int
    contents: frozenset[int]


def derived_quantities(
    h: Heap, g: FlowGraph, flow: dict[NodeId, int], x: NodeId
) -> NodeQuantities:
    """Per-node quantities: keyset is the inset minus both outsets."""
    f = h.get(x)
    inset = flow[x]
    out_left = apply_edge(g.edge_fn(x, f.left), inset) if f.left is not None else 0
    out_right = apply_edge(g.edge_fn(x, f.right), inset) if f.right is not None else 0
    if inset < 0 or TOP_TAG in (out_left, out_right):
        keyset = 0
    else:
        # a Bot outset removes nothing
        keyset = inset & ~max(out_left, 0) & ~max(out_right, 0)
    if f.deleted or x == h.root or not isinstance(f.key, int):
        contents: frozenset[int] = frozenset()
    else:
        contents = frozenset((f.key,))
    return NodeQuantities(inset, out_left, out_right, keyset, contents)


# ---------------------------------------------------------------- invariants


class InvReport(Frozen):
    """Region invariant evaluation: per-conjunct violations and the region's contents."""

    ok: bool
    violations: tuple[tuple[NodeId, str], ...]
    contents: frozenset[int]


def check_inv(
    h: Heap,
    region: Iterable[NodeId] | None = None,
    universe: AtomUniverse | None = None,
    graph: FlowGraph | None = None,
) -> InvReport:
    """Evaluate the per-node invariant over a region against the full node set."""
    g = derive_flowgraph(h, universe) if graph is None else graph
    flow = g.flow
    region = list(h.nodes) if region is None else sorted(region)
    violations: list[tuple[NodeId, str]] = []
    contents: set[int] = set()
    for x in region:
        f = h.get(x)
        q = derived_quantities(h, g, flow, x)
        contents |= q.contents
        for child in (f.left, f.right):
            if child is not None and child not in h.nodes:
                violations.append((x, "child-outside-region"))
        if f.dup != "no":
            violations.append((x, "duplicate-mark"))
        if q.inset == TOP_TAG:
            violations.append((x, "inset-top"))
        if any(not contains_key(g.universe, q.keyset, k) for k in q.contents):
            violations.append((x, "contents-outside-keyset"))
        if q.inset != BOT_TAG and not contains_key(g.universe, q.inset, f.key):
            violations.append((x, "key-outside-inset"))
        if x == h.root:
            if q.inset != g.universe.full_bits:
                violations.append((x, "root-inset-not-full"))
            if f.deleted:
                violations.append((x, "root-deleted"))
            if f.key != NEG_INF:
                violations.append((x, "root-key-not-sentinel"))
    return InvReport(not violations, tuple(violations), frozenset(contents))


# ---------------------------------------------------------------- operations


class Op(Frozen):
    """One tree operation; maintenance ops pick their target from the seed."""

    name: str
    key: Key | None = None
    node: NodeId | None = None


class OpStep(Frozen):
    """One proof-relevant program step with a footprint: it allocates a node
    (alloc, with no writes) or makes grouped field writes.

    The estimator hint names the relation the proof outline declares for the
    step; the release bound carries the successor key for the complex kind.
    """

    label: str
    writes: tuple[tuple[NodeId, str, Any], ...]
    footprint: tuple[NodeId, ...]
    estimator: str = "eq"
    pivot: Key | None = None
    release_hi: Key | None = None
    alloc: tuple[NodeId, NodeFields] | None = None


class OpResult(Frozen):
    """The heap an operation leaves, its result, its traced steps and the
    heap after each of them."""

    heap: Heap
    result: Any
    trace: tuple[OpStep, ...] = ()
    heaps: tuple[Heap, ...] = ()


def _traced(h: Heap, steps: tuple[OpStep, ...]) -> OpResult:
    """A completed operation: its steps run on h, one after another."""
    heaps = []
    for step in steps:
        h = h.add_node(*step.alloc) if step.alloc else h.with_writes(step.writes)
        heaps.append(h)
    return OpResult(h, True, steps, tuple(heaps))


def find(h: Heap, key: Key) -> tuple[NodeId, NodeId | None]:
    """Walk from the root; returns (last node on the path, match or None)."""
    x = h.root
    y = h.get(x).right
    while y is not None and h.get(y).key != key:
        x = y
        y = h.get(x).left if key < h.get(x).key else h.get(x).right
    return x, y


def _pick_reachable(h: Heap, seed: int) -> NodeId:
    # the seeded resolution of the nondeterministic target pick
    rng = random.Random(seed)
    return rng.choice(sorted(h.reachable()))


def _target(h: Heap, op: Op, seed: int) -> NodeId:
    # an explicit node pins the maintenance target; otherwise the seed picks
    if op.node is not None:
        if op.node not in h.nodes:
            raise InputError(f"target node {op.node} is not in the heap")
        return op.node
    return _pick_reachable(h, seed)


def find_succ(h: Heap, x: NodeId) -> tuple[NodeId, NodeId] | None:
    """Leftmost node under x's right child with its parent; None if absent."""
    p = h.get(x).right
    if p is None:
        return None
    y = h.get(p).left
    if y is None:
        return None
    while h.get(y).left is not None:
        p = y
        y = h.get(p).left
    return p, y


SKIPPED = "skipped"


def run_op(h: Heap, op: Op, seed: int = 0) -> OpResult:
    """Execute one operation; unmet maintenance preconditions give a skip."""
    match op.name:
        case "find":
            return OpResult(h, find(h, op.key))
        case "contains":
            _, y = find(h, op.key)
            return OpResult(h, y is not None and not h.get(y).deleted)
        case "insert":
            return _insert(h, op.key)
        case "delete":
            return _delete(h, op.key)
        case "find_succ":
            return OpResult(h, find_succ(h, _target(h, op, seed)))
        case "remove_simple":
            return _remove_simple(h, _target(h, op, seed))
        case "remove_complex":
            return _remove_complex(h, _target(h, op, seed))
        case "rotate":
            return _rotate(h, _target(h, op, seed))
        case _:
            raise InputError(f"unknown operation: {op.name!r}")


def _check_user_key(key: Key) -> None:
    if not isinstance(key, int):
        raise InputError("user operations take finite keys")


def _insert(h: Heap, key: Key) -> OpResult:
    _check_user_key(key)
    x, y = find(h, key)
    if y is None:
        z = h.fresh_id()
        side = "left" if key < h.get(x).key else "right"
        alloc = OpStep(
            "insert-alloc",
            writes=(),
            footprint=(z,),
            alloc=(z, NodeFields(key=key)),
        )
        link = OpStep("insert-link", writes=((x, side, z),), footprint=(x, z))
        return _traced(h, (alloc, link))
    if h.get(y).deleted:
        step = OpStep("insert-revive", writes=((y, "del", False),), footprint=(y,))
        return _traced(h, (step,))
    return OpResult(h, False)


def _delete(h: Heap, key: Key) -> OpResult:
    _check_user_key(key)
    _, y = find(h, key)
    if y is None or h.get(y).deleted:
        return OpResult(h, False)
    step = OpStep("delete-mark", writes=((y, "del", True),), footprint=(y,))
    return _traced(h, (step,))


def _remove_simple(h: Heap, x: NodeId) -> OpResult:
    y = h.get(x).left
    if y is None or not h.get(y).deleted:
        return OpResult(h, SKIPPED)
    yf = h.get(y)
    if yf.right is None:
        child = yf.left
    elif yf.left is None:
        child = yf.right
    else:
        return OpResult(h, SKIPPED)
    step = OpStep(
        "unlink-marked",
        writes=((x, "left", child),),
        footprint=(x, y),
        estimator="simple",
    )
    return _traced(h, (step,))


def _remove_complex(h: Heap, x: NodeId) -> OpResult:
    xf = h.get(x)
    if not xf.deleted or xf.left is None or xf.right is None:
        return OpResult(h, SKIPPED)
    succ = find_succ(h, x)
    if succ is None:
        return OpResult(h, SKIPPED)
    p, y = succ
    yf = h.get(y)
    steps = (
        OpStep(
            "key-copy",
            writes=((x, "key", yf.key),),
            footprint=(x, y),
            estimator="complex",
            pivot=xf.key,
            release_hi=yf.key,
        ),
        OpStep(
            "del-swap",
            writes=((x, "del", yf.deleted), (y, "del", True)),
            footprint=(x, y),
        ),
        OpStep(
            "unlink-succ",
            writes=((p, "left", yf.right),),
            footprint=(p, y),
            estimator="simple",
        ),
    )
    return _traced(h, steps)


def _rotate(h: Heap, x: NodeId) -> OpResult:
    y = h.get(x).left
    if y is None:
        return OpResult(h, SKIPPED)
    z = h.get(y).left
    if z is None:
        return OpResult(h, SKIPPED)
    yf, zf = h.get(y), h.get(z)
    c = h.fresh_id()
    steps = (
        OpStep(
            "rotate-alloc-duplicate",
            writes=(),
            footprint=(c,),
            alloc=(
                c,
                NodeFields(
                    key=yf.key,
                    left=zf.right,
                    right=yf.right,
                    deleted=yf.deleted,
                    dup="right",
                ),
            ),
        ),
        OpStep("rotate-attach", writes=((z, "right", c),), footprint=(x, y, z, c)),
        OpStep(
            "rotate-swing",
            writes=((x, "left", z), (c, "dup", "no")),
            footprint=(x, y, z, c),
        ),
        OpStep("rotate-retire", writes=((y, "del", True),), footprint=(y,)),
    )
    return _traced(h, steps)


# ---------------------------------------------------------------- JSON


def heap_from_json(raw: Any) -> Heap:
    """Decode {"root": id, "nodes": [{"id", "key", "left", "right", "del", "dup"}]}."""
    if not isinstance(raw, dict) or "root" not in raw or "nodes" not in raw:
        raise InputError("heap file needs root and nodes")
    nodes: dict[NodeId, NodeFields] = {}
    for entry in json_list(raw["nodes"], "nodes"):
        if not isinstance(entry, dict) or "id" not in entry or "key" not in entry:
            raise InputError(f"bad heap node: {entry!r}")
        x = node_id_from_json(entry["id"], "node id")
        check_fresh(x, nodes, "node id")
        try:
            nodes[x] = NodeFields(
                key=parse_key(entry["key"]),
                left=_child_from_json(entry.get("left")),
                right=_child_from_json(entry.get("right")),
                deleted=_del_from_json(entry.get("del", False)),
                dup=_dup_from_json(entry.get("dup", "no")),
            )
        except InputError as exc:
            raise InputError(f"node {x}: {exc}") from None
    return Heap.of(node_id_from_json(raw["root"], "root"), nodes)


def _child_from_json(raw: Any) -> NodeId | None:
    return None if raw is None else node_id_from_json(raw, "child")


def _del_from_json(raw: Any) -> bool:
    if not isinstance(raw, bool):
        raise InputError(f"del must be a boolean: {raw!r}")
    return raw


def _dup_from_json(raw: Any) -> str:
    if raw not in DUP_MARKS:
        raise InputError(f"bad dup mark: {raw!r}")
    return raw


# each node field's JSON decoder, shared by heap files and concurrent writes
FIELD_FROM_JSON = {
    "key": parse_key,
    "left": _child_from_json,
    "right": _child_from_json,
    "del": _del_from_json,
    "dup": _dup_from_json,
}


def heap_to_json(h: Heap) -> dict[str, Any]:
    nodes = []
    for x, f in h.entries:
        entry: dict[str, Any] = {"id": x, "key": key_to_json(f.key)}
        if f.left is not None:
            entry["left"] = f.left
        if f.right is not None:
            entry["right"] = f.right
        if f.deleted:
            entry["del"] = True
        if f.dup != "no":
            entry["dup"] = f.dup
        nodes.append(entry)
    return {"root": h.root, "nodes": nodes}


def op_from_json(raw: Any) -> Op:
    """Decode {"op": name, "key"?: k, "node"?: id}."""
    if not isinstance(raw, dict) or "op" not in raw:
        raise InputError(f"bad operation: {raw!r}")
    name = raw["op"]
    # a tuple, not a set: a list or object name is unhashable
    known = ("find", "contains", "insert", "delete", "find_succ", "remove_simple",
             "remove_complex", "rotate")
    if name not in known:
        raise InputError(f"unknown operation: {name!r}")
    needs_key = name in ("find", "contains", "insert", "delete")
    key = parse_key(raw.get("key")) if needs_key or "key" in raw else None
    if name in ("insert", "delete") and not isinstance(key, int):
        raise InputError(f"{name} takes a finite key, got {raw['key']!r}")
    node = raw.get("node")
    if name == "find_succ":
        return Op(name, key=key, node=node_id_from_json(node, "find_succ node"))
    return Op(name, key=key, node=None if node is None else node_id_from_json(node, "node"))
