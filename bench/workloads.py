"""Seed-driven request lists for the four benchmark workloads.

A round is one fixed list of requests, sent one after another by a single
client in a fresh interpreter. Everything here is a pure function of
(workload, seed, round): the same arguments give the same requests and the
same input files. Every request carries the answer it must produce, and that
answer never comes from the engine under test: insets of generated search
trees are walked here, instance counts are closed forms, generated scenarios
must pass, and the bundled examples carry verdicts written down by hand.

This module imports nothing from flowcheck.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path
from typing import Any

WORKLOADS = ("fixpoint", "estimate", "tree", "registry")

EXAMPLES = Path("src") / "flowcheck" / "examples"

# Hand-written verdicts of the bundled examples.
BUNDLED_TREE = (
    ("remove_simple.json", "pass"),
    ("remove_complex.json", "pass"),
    ("remove_complex_eq.json", "fail"),
    ("rotate.json", "pass"),
    ("user_ops.json", "pass"),
    ("og_two_thread.json", "pass"),
    ("og_unstable.json", "fail"),
)
EXIT_OF = {"pass": 0, "fail": 1, "inconclusive": 3}

# The oracle's exhaustive graph space has two external sources, each feeding one node.
ENUM_SOURCES = 2
TREE_GRID = list(range(1, 18))

# Sizes chosen so one round takes a few seconds on a 2-CPU machine.
# A third of the graph files have 256 nodes, so that with the UniqueDecomp
# request they are the top sixth of a fixpoint round and verdict_ms.p90
# falls in the middle of that class rather than on its fastest sample.
FLOW_SIZES = (16, 256, 32, 64, 256, 128)
FLOW_FILES = 50
FUZZ_BATCHES = 50
FUZZ_CASES = 60
SHAPE_REQUESTS = 20
SHAPE_CASES = 2
GROW_SCENARIOS = 80
GROW_ENTRIES = (4, 5, 6, 7, 8)
TREE_SCENARIOS = 92
REGISTRY_SCENARIOS = 90
REGISTRY_SWEEPS = 20

REG_KEYS = ("k1", "k2")
REG_VALUES = ("v1", "v2", None)
REG_EVENTS = tuple((k, v) for k in REG_KEYS for v in REG_VALUES)


def derive_seed(*parts: Any) -> int:
    """A 31-bit seed from any labels; stable across interpreters and runs."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def rng_for(*parts: Any) -> random.Random:
    return random.Random(derive_seed(*parts))


# ---------------------------------------------------------------- requests


def cli_request(argv: list[str], verdict: str, **expect: Any) -> dict[str, Any]:
    """A `flowcheck ... --json` call with its expected exit code and verdict."""
    return {
        "kind": "cli",
        "argv": argv + ["--json"],
        "expect": {"exit": EXIT_OF[verdict], "verdict": verdict, **expect},
    }


def theorem_request(
    name: str, checked: int | None, bounds: dict | None = None, **kwargs: Any
) -> dict[str, Any]:
    """An `oracle.check_theorem` call; `checked` is the closed-form count, if any."""
    return {
        "kind": "theorem",
        "name": name,
        "bounds": bounds,
        "kwargs": kwargs,
        "expect": {"ok": True, "checked": checked},
    }


def build_round(workload: str, seed: int, rnd: int, workdir: Path) -> list[dict]:
    """Write the round's input files under workdir and return its requests."""
    workdir.mkdir(parents=True, exist_ok=True)
    builder = {
        "fixpoint": _fixpoint,
        "estimate": _estimate,
        "tree": _tree,
        "registry": _registry,
    }[workload]
    requests = builder(seed, rnd, workdir)
    # spread each kind evenly over the round, in the same order for every
    # seed: what a request finds in memory then does not move with the seed
    kinds: dict[str, list[dict]] = {}
    for req in requests:
        kinds.setdefault(_kind(req), []).append(req)
    placed = [((i + 0.5) / len(group), req) for group in kinds.values() for i, req in enumerate(group)]
    requests = [req for _, req in sorted(placed, key=lambda p: p[0])]
    for i, req in enumerate(requests):
        req["id"] = i
    return requests


def _kind(req: dict) -> str:
    if req["kind"] != "cli":
        return req["kind"] + ":" + req.get("name", "")
    command = req["argv"][0]
    if command == "oracle":
        return "oracle:" + req["argv"][2]
    if command == "check":
        path = Path(req["argv"][1])
        return "check:" + ("bundled" if path.parent == EXAMPLES else path.name.split("-")[0])
    return command


def _write(workdir: Path, name: str, data: Any) -> str:
    path = workdir / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------- fixpoint


def _fixpoint(seed: int, rnd: int, workdir: Path) -> list[dict]:
    out = []
    for i in range(FUZZ_BATCHES):
        s = derive_seed("fixpoint", seed, rnd, "fuzz", i)
        argv = ["fuzz", "--nodes", "16", "--cases", str(FUZZ_CASES), "--seed", str(s)]
        out.append(cli_request(argv, "pass", cases=FUZZ_CASES, mismatches=0))
    for i in range(FLOW_FILES):
        n = FLOW_SIZES[i % len(FLOW_SIZES)]
        graph, insets = search_tree_graph(rng_for("fixpoint", seed, rnd, "flow", i), n)
        path = _write(workdir, f"flow-{i}.json", graph)
        out.append(cli_request(["flow", path], "pass", details=insets))
    bounds = {"max_endpoints": 1, "max_edge_fns": 2}
    out.append(theorem_request("UniqueDecomp", unique_decomp_count(edge_fns=2), bounds))
    return out


def search_tree_graph(rng: random.Random, n: int) -> tuple[dict, list[dict]]:
    """A search tree of n keys as a graph file, with its insets walked here.

    Node ids are a random sample, so edges point down as often as up and an
    ascending-id sweep needs several passes. A sentinel root receives the
    full key range from the external source -1.
    """
    keys = rng.sample(range(1, 8 * n), n)
    ids = rng.sample(range(1, 20 * n), n + 1)
    root = ids[0]
    key_of = {root: None}
    kids: dict[int, dict[str, int]] = {root: {}}
    first = ids[1]
    kids[root]["right"] = first
    for k, x in zip(keys, ids[1:]):
        key_of[x] = k
        kids[x] = {}
        if x == first:
            continue
        y = first
        while True:
            side = "left" if k < key_of[y] else "right"
            if side not in kids[y]:
                kids[y][side] = x
                break
            y = kids[y][side]
    # inset of a node: the open interval its search path admits; inf is
    # included at the top end, so the root sees (-inf, inf]
    inset: dict[int, tuple[Any, Any]] = {root: ("-inf", "inf")}
    stack = [root]
    while stack:
        x = stack.pop()
        lo, hi = inset[x]
        if key_of[x] is None:
            inset[kids[x]["right"]] = (lo, hi)
            stack.append(kids[x]["right"])
            continue
        if "left" in kids[x]:
            inset[kids[x]["left"]] = (lo, key_of[x])
            stack.append(kids[x]["left"])
        if "right" in kids[x]:
            inset[kids[x]["right"]] = (key_of[x], hi)
            stack.append(kids[x]["right"])
    nodes = []
    for x in sorted(key_of):
        k = key_of[x]
        edges = []
        if k is None:
            edges.append({"dst": kids[x]["right"], "fn": {"filter": [["-inf", "inf", True, False]]}})
        else:
            if "left" in kids[x]:
                edges.append({"dst": kids[x]["left"], "fn": {"filter": [["-inf", k, True, True]]}})
            if "right" in kids[x]:
                edges.append({"dst": kids[x]["right"], "fn": {"filter": [[k, "inf", True, False]]}})
        entry: dict[str, Any] = {"id": x}
        if edges:
            entry["edges"] = edges
        nodes.append(entry)
    graph = {
        "endpoints": sorted(keys),
        "nodes": nodes,
        "inflow": [
            {"src": -1, "dst": root, "value": {"intervals": [["-inf", "inf", True, False]]}}
        ],
    }
    details = []
    for x in sorted(inset):
        lo, hi = inset[x]
        details.append(
            {"node": x, "inset": {"intervals": [[lo, hi, True, hi != "inf"]]}}
        )
    return graph, details


def _graph_count(n: int, edge_fns: int, inflow_values: int) -> int:
    # every ordered pair draws an edge function; each source one inflow value
    cases = edge_fns ** (n * (n - 1))
    return cases * inflow_values**ENUM_SOURCES if n else cases


def _split_count(n: int) -> int:
    # splits into a part holding the first node and a rest, each of one or two nodes
    return sum(comb(n - 1, size - 1) for size in (1, 2) if 1 <= n - size <= 2)


def unique_decomp_count(edge_fns: int = 3, nodes: int = 3, inflow_values: int = 4) -> int:
    """Closed-form instance count of UniqueDecomp: one instance per split."""
    return sum(
        _graph_count(n, edge_fns, inflow_values) * _split_count(n) for n in range(nodes + 1)
    )


def conservative_ext_count(edge_fns: int = 3, nodes: int = 3, inflow_values: int = 4) -> int:
    """Closed-form instance count of ConservativeExt: two commands per nonempty graph."""
    return 2 * sum(_graph_count(n, edge_fns, inflow_values) for n in range(1, nodes + 1))


# ---------------------------------------------------------------- estimate


def _estimate(seed: int, rnd: int, workdir: Path) -> list[dict]:
    out = []
    for i in range(GROW_SCENARIOS):
        entries = GROW_ENTRIES[i % len(GROW_ENTRIES)]
        scenario = grow_scenario(rng_for("estimate", seed, rnd, "grow", i), entries)
        path = _write(workdir, f"grow-{i}.json", scenario)
        out.append(cli_request(["check", path], "pass"))
    for i in range(SHAPE_REQUESTS):
        # A ShapeIndependent case enumerates anywhere from 2 to 4096 inflow
        # combinations, and the large ones are rare: over ten seeds, 200 cases
        # took from 39k to 95k fixpoint solves. So these seeds follow the
        # round and the position only, not --seed; each request still has
        # its own seed, and each round runs in a fresh interpreter.
        s = derive_seed("estimate", rnd, "shape", i)
        argv = ["oracle", "--theorem", "ShapeIndependent", "--cases", str(SHAPE_CASES), "--seed", str(s)]
        out.append(cli_request(argv, "pass", checked=SHAPE_CASES))
    bounds = {"max_edge_fns": 2}
    out.append(theorem_request("ConservativeExt", conservative_ext_count(edge_fns=2), bounds))
    framed = json.loads((EXAMPLES / "frame_vs_context.json").read_text())
    out.append(cli_request(["check", str(EXAMPLES / "frame_vs_context.json")], "fail"))
    framed["steps"][0]["rule"] = "context"
    path = _write(workdir, "frame_vs_context-context.json", framed)
    out.append(cli_request(["check", path], "pass"))
    rng = rng_for("estimate", seed, rnd, "cap")
    for endpoints in (6, 8):
        path = _write(workdir, f"cap-{endpoints}.json", top_inflow_scenario(rng, endpoints))
        req = cli_request(["check", path], "inconclusive")
        # The lattice below one Top entry has 2^(2e+1)+2 values, above the
        # default cap of 4096 for e >= 6. The checker builds that list and
        # then reads the inconclusive estimate as a violation.
        req["defect"] = {
            "exit": 1,
            "verdict": "fail",
            "note": "capped estimate reported as a violation",
        }
        out.append(req)
    return out


def intervals_json(endpoints: list[int], bits: int) -> list[list]:
    """Atom bitset over the grid as JSON intervals: atom 2j is the gap below
    endpoint j (the last gap is closed at inf), atom 2j+1 the endpoint itself."""

    def bounds(i: int) -> tuple[Any, Any, bool, bool]:
        if i % 2:
            e = endpoints[i // 2]
            return e, e, False, False
        j = i // 2
        lo = endpoints[j - 1] if j else "-inf"
        return (lo, endpoints[j], True, True) if j < len(endpoints) else (lo, "inf", True, False)

    out, i, n = [], 0, 2 * len(endpoints) + 1
    while i < n:
        if bits >> i & 1:
            j = i
            while j + 1 < n and bits >> (j + 1) & 1:
                j += 1
            lo, _, lo_open, _ = bounds(i)
            _, hi, _, hi_open = bounds(j)
            out.append([lo, hi, lo_open, hi_open])
            i = j + 1
        else:
            i += 1
    return out


def grow_scenario(rng: random.Random, entries: int) -> dict:
    """A context-rule flow step that widens the footprint's edges into the context.

    Three footprint nodes, joined by three random inner edges, share
    `entries` inflow entries from distinct external sources; each of two
    context nodes has one footprint parent, and one context edge. The step
    keeps the footprint's inner edges and grows the filter of every edge into
    the context. Growing a filter only grows a set outflow, and Bot and Top
    pass through unchanged, so under the `simple` estimator the update is
    above the footprint at every inflow and the contextual triple holds:
    the known answer is pass. The checker enumerates 2^entries inflows per
    estimate. No edge leaves the graph, so the whole-graph step stays silent.
    """
    eps = sorted(rng.sample(range(1, 60), 2))
    full = (1 << (2 * len(eps) + 1)) - 1
    foot, ctx = [0, 1, 2], [3, 4]
    filt = lambda bits: {"filter": intervals_json(eps, bits)}  # noqa: E731
    pairs = [(x, y) for x in foot for y in foot if x != y]
    inner = {p: rng.randint(1, full) for p in rng.sample(pairs, 3)}
    outer = {(rng.choice(foot), y): rng.randint(1, full) for y in ctx}
    ctx_edges = {(3, 4): rng.randint(1, full)}
    nodes = []
    for x in foot + ctx:
        edges = [
            {"dst": d, "fn": filt(b)}
            for (s, d), b in sorted({**inner, **outer, **ctx_edges}.items())
            if s == x
        ]
        nodes.append({"id": x, "edges": edges} if edges else {"id": x})
    sources = [-1, -2] + list(range(-4, -entries - 2, -1))
    inflow = [
        {"src": src, "dst": foot[j % len(foot)], "value": {"intervals": intervals_json(eps, rng.randint(1, full))}}
        for j, src in enumerate(sources[:entries])
    ]
    rewrite = [{"src": s, "dst": d, "fn": filt(b)} for (s, d), b in sorted(inner.items())]
    rewrite += [
        {"src": s, "dst": d, "fn": filt(b | rng.randint(0, full))} for (s, d), b in sorted(outer.items())
    ]
    return {
        "algebra": "flow",
        "init": {"endpoints": eps, "nodes": nodes, "inflow": inflow},
        "steps": [
            {
                "label": "widen",
                "command": {"set_edges": rewrite},
                "footprint": foot,
                "estimator": "simple",
                "rule": "context",
            }
        ],
    }


def top_inflow_scenario(rng: random.Random, endpoints: int) -> dict:
    """One flow step on a footprint with a single Top inflow entry."""
    eps = sorted(rng.sample(range(1, 10 * endpoints), endpoints))
    cut, moved = rng.sample(eps, 2)
    return {
        "algebra": "flow",
        "init": {
            "endpoints": eps,
            "nodes": [
                {"id": 0, "edges": [{"dst": 1, "fn": {"filter": [["-inf", cut, True, False]]}}]},
                {"id": 1},
            ],
            "inflow": [{"src": -1, "dst": 0, "value": "top"}],
        },
        "steps": [
            {
                "label": "retarget",
                "command": {
                    "set_edges": [
                        {"src": 0, "dst": 1, "fn": {"filter": [["-inf", moved, True, False]]}}
                    ]
                },
                "footprint": [0],
            }
        ],
    }


# ---------------------------------------------------------------- tree


def _tree(seed: int, rnd: int, workdir: Path) -> list[dict]:
    out = []
    for name, verdict in BUNDLED_TREE:
        out.append(cli_request(["check", str(EXAMPLES / name)], verdict))
    for i in range(TREE_SCENARIOS):
        scenario = tree_scenario(rng_for("tree", seed, rnd, "scenario", i))
        path = _write(workdir, f"tree-{i}.json", scenario)
        out.append(cli_request(["check", path], "pass"))
    out.append(
        theorem_request(
            "Contextualization", None, cases=4, seed=derive_seed("tree", seed, rnd, "ctx")
        )
    )
    out.append(
        theorem_request(
            "KeysetDisjoint", 10, cases=10, seed=derive_seed("tree", seed, rnd, "keyset")
        )
    )
    return out


class MirrorTree:
    """Just enough of the lazy search tree to pick targets whose preconditions hold.

    Ids, keys, links and marks follow the checker's operations, so a picked
    maintenance target is applicable; a drift would only turn a step into a
    skip, which still passes.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, dict[str, Any]] = {0: {"key": None, "left": None, "right": None, "del": False}}

    def find(self, key: int) -> tuple[int, int | None]:
        x, y = 0, self.nodes[0]["right"]
        while y is not None and self.nodes[y]["key"] != key:
            x = y
            y = self.nodes[x]["left"] if key < self.nodes[x]["key"] else self.nodes[x]["right"]
        return x, y

    def insert(self, key: int) -> None:
        x, y = self.find(key)
        if y is None:
            z = max(self.nodes) + 1
            self.nodes[z] = {"key": key, "left": None, "right": None, "del": False}
            side = "right" if x == 0 or key > self.nodes[x]["key"] else "left"
            self.nodes[x][side] = z
        else:
            self.nodes[y]["del"] = False

    def delete(self, key: int) -> None:
        _, y = self.find(key)
        if y is not None:
            self.nodes[y]["del"] = True

    def reachable(self) -> list[int]:
        seen, stack = [], [0]
        while stack:
            x = stack.pop()
            if x is None:
                continue
            seen.append(x)
            stack += [self.nodes[x]["left"], self.nodes[x]["right"]]
        return sorted(seen)

    def simple_targets(self) -> list[int]:
        out = []
        for x in self.reachable():
            y = self.nodes[x]["left"]
            if y is not None and self.nodes[y]["del"]:
                if self.nodes[y]["left"] is None or self.nodes[y]["right"] is None:
                    out.append(x)
        return out

    def remove_simple(self, x: int) -> None:
        y = self.nodes[x]["left"]
        yf = self.nodes[y]
        self.nodes[x]["left"] = yf["left"] if yf["right"] is None else yf["right"]

    def complex_targets(self) -> list[int]:
        out = []
        for x in self.reachable():
            f = self.nodes[x]
            if x and f["del"] and f["left"] is not None and f["right"] is not None:
                if self.nodes[f["right"]]["left"] is not None:
                    out.append(x)
        return out

    def remove_complex(self, x: int) -> None:
        p = self.nodes[x]["right"]
        y = self.nodes[p]["left"]
        while self.nodes[y]["left"] is not None:
            p, y = y, self.nodes[y]["left"]
        yf = self.nodes[y]
        self.nodes[x]["key"] = yf["key"]
        self.nodes[x]["del"] = yf["del"]
        yf["del"] = True
        self.nodes[p]["left"] = yf["right"]

    def rotate_targets(self) -> list[int]:
        out = []
        for x in self.reachable():
            y = self.nodes[x]["left"]
            if y is not None and self.nodes[y]["left"] is not None:
                out.append(x)
        return out

    def rotate(self, x: int) -> None:
        y = self.nodes[x]["left"]
        z = self.nodes[y]["left"]
        yf = self.nodes[y]
        c = max(self.nodes) + 1
        self.nodes[c] = {"key": yf["key"], "left": self.nodes[z]["right"], "right": yf["right"], "del": yf["del"]}
        self.nodes[z]["right"] = c
        self.nodes[x]["left"] = z
        yf["del"] = True

    def to_json(self) -> dict:
        nodes = []
        for x in sorted(self.nodes):
            f = self.nodes[x]
            entry: dict[str, Any] = {"id": x, "key": "-inf" if f["key"] is None else f["key"]}
            for side in ("left", "right"):
                if f[side] is not None:
                    entry[side] = f[side]
            if f["del"]:
                entry["del"] = True
            nodes.append(entry)
        return {"root": 0, "nodes": nodes}


def tree_scenario(rng: random.Random) -> dict:
    """User operations and maintenance steps on a random tree over the 17-key grid."""
    tree = MirrorTree()
    for _ in range(10):
        tree.insert(rng.choice(TREE_GRID))
    init = tree.to_json()
    full = ["casl", "inv", "contents"]
    steps = []
    for _ in range(10):
        kind = rng.choice(("insert", "delete", "contains", "maintain", "maintain"))
        key = rng.choice(TREE_GRID)
        if kind == "insert":
            tree.insert(key)
            steps.append({"command": {"op": "insert", "key": key}, "checks": full})
        elif kind == "delete":
            tree.delete(key)
            steps.append({"command": {"op": "delete", "key": key}, "checks": full})
        elif kind == "contains":
            steps.append({"command": {"op": "contains", "key": key}, "checks": ["contents"]})
        else:
            options = [
                ("remove_simple", tree.simple_targets(), tree.remove_simple),
                ("remove_complex", tree.complex_targets(), tree.remove_complex),
                ("rotate", tree.rotate_targets(), tree.rotate),
            ]
            options = [o for o in options if o[1]]
            if not options:
                live = [x for x in tree.reachable() if x and not tree.nodes[x]["del"]]
                if not live:
                    continue
                # mark a node so a later removal has a target
                key = tree.nodes[rng.choice(live)]["key"]
                tree.delete(key)
                steps.append({"command": {"op": "delete", "key": key}, "checks": full})
                continue
            op, targets, apply = rng.choice(options)
            x = rng.choice(targets)
            apply(x)
            steps.append({"command": {"op": op, "node": x}, "checks": full})
    return {"algebra": "bst", "endpoints": TREE_GRID, "init": init, "steps": steps}


# ---------------------------------------------------------------- registry


def _registry(seed: int, rnd: int, workdir: Path) -> list[dict]:
    out = [cli_request(["check", str(EXAMPLES / "registry_upsert.json")], "pass")]
    for i in range(REGISTRY_SCENARIOS):
        scenario = registry_scenario(rng_for("registry", seed, rnd, "scenario", i))
        path = _write(workdir, f"registry-{i}.json", scenario)
        out.append(cli_request(["check", path], "pass"))
    rng = rng_for("registry", seed, rnd, "sweep")
    for i in range(REGISTRY_SWEEPS):
        # a sweep's size grows with the history, so every round gets the same mix
        history = [list(rng.choice(REG_EVENTS)) for _ in range(1 + i % 3)]
        out.append(
            {"kind": "sweep", "history": history, "expect": {"pairs": sweep_pair_count(len(history))}}
        )
    return out


def registry_scenario(rng: random.Random) -> dict:
    """Search spawns and upserts over a small key/value grid; validity must hold."""
    keys = ["k1", "k2", "k3"]
    values = ["v0", "v1", "v2", "v3"]
    history = [[rng.choice(keys), rng.choice(values)] for _ in range(2)]
    steps = []
    spawned = 0
    for _ in range(18):
        key, value = rng.choice(keys), rng.choice(values)
        if rng.random() < 0.5:
            spawned += 1
            steps.append({"command": {"spawn": [f"t{spawned}", key, value]}, "checks": ["inv"]})
        else:
            steps.append({"command": {"upsert": [key, value]}, "checks": ["casl", "inv"]})
    return {"algebra": "registry", "init": {"history": history, "registry": {}}, "steps": steps}


def status_pool_size(history_len: int, snapshots: int | None = None) -> int:
    snaps = history_len + 1 if snapshots is None else snapshots
    return snaps * len(REG_KEYS) * len(REG_VALUES) * 2


def sweep_pair_count(history_len: int) -> int:
    """Pairs one validity sweep composes: star at the history, ghost_mult one event ahead."""
    pool = status_pool_size(history_len)
    ahead = status_pool_size(history_len + 1, snapshots=1)
    same = status_pool_size(history_len, snapshots=1)
    return pool * pool + pool * (same + len(REG_EVENTS) * ahead)
