"""Context-aware separation-logic checking: triples, contextualization, scenarios."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import InconclusiveError, InputError, InternalInvariantError
from .keyspace import BOT_TAG, TOP_TAG, AtomUniverse, interval_bits, value_to_json
from .flowgraph import (
    FlowGraph,
    NodeId,
    StarFailure,
    _check_tagged,
    check_fresh,
    edge_fn_from_json,
    graph_from_json,
    graph_to_json,
    load_json,
    node_id_from_json,
    star,
)
from .estimator import Estimator, approx_physical_update, ctx_estimate, estimator_from_json
from .frozen import Frozen
from . import bst
from . import registry as reg

State = Any


# ---------------------------------------------------------------- predicates


class Predicate(Frozen):
    """Top or a finite set of instance states, ordered by inclusion."""

    is_top: bool
    state_set: frozenset

    def __new__(cls, is_top: bool, state_set: frozenset = frozenset()) -> "Predicate":
        if is_top and state_set:
            raise InputError("Top carries no state set")
        return cls._make(is_top, state_set)

    @classmethod
    def of(cls, states: Iterable[State]) -> "Predicate":
        return cls(False, frozenset(states))

    def states(self) -> tuple[State, ...]:
        """The states in a deterministic order: by repr."""
        if len(self.state_set) <= 1:
            return tuple(self.state_set)
        return tuple(sorted(self.state_set, key=repr))

    def join(self, other: "Predicate | ClosurePredicate") -> "Predicate | ClosurePredicate":
        if self.is_top or other.is_top:
            return TOP
        if not self.state_set:
            return other
        return Predicate(False, self.state_set | other.state_set)

    def contains(self, state: State) -> bool:
        return self.is_top or state in self.state_set

    # a predicate as a context: the questions a ClosurePredicate answers too

    def compose(self, s: State, events: Iterable[tuple[Any, Any]] = ()) -> list[State]:
        """s starred with each state; undefined pairs are dropped."""
        return [u for t in self.state_set if (u := star_states(s, t)) is not None]

    def splits(self, u: State, post: "Predicate | ClosurePredicate") -> bool:
        """u lies in post ⋆ self: a state splits off u and leaves a post-state."""
        return any(
            (m := _split_off(u, t)) is not None and post.contains(m) for t in self.state_set
        )

    def reclose(self, t: State, est: Estimator | None) -> "Predicate | None":
        """[self]#(t): t closed over each state's domain; None (Top) when closing
        a state over t's domain leaves this set."""
        if not all(m.closure(t.domain, est).inside(self.state_set) for m in self.state_set):
            return None
        return Predicate.of(
            x for m in self.state_set for x in t.closure(m.domain, est).materialize()
        )


TOP = Predicate(True)
EMPTY = Predicate.of(())


class ClosurePredicate(Frozen):
    """A symbolic union of closure families, standing in for unbounded contexts."""

    families: tuple

    @property
    def is_top(self) -> bool:
        return False

    def contains(self, state: State) -> bool:
        return any(f.contains(state) for f in self.families)

    @property
    def state_set(self) -> frozenset:
        raise InputError("a closure predicate has no finite list of states")

    def join(self, other: "Predicate | ClosurePredicate") -> "Predicate | ClosurePredicate":
        return TOP if other.is_top else ClosurePredicate(self.families + other.families)

    def compose(self, s: State, events: Iterable[tuple[Any, Any]] = ()) -> list[State]:
        """s starred with members of each family."""
        return [u for f in self.families for u in f.compose(s, events)]

    def splits(self, u: State, post: "Predicate | ClosurePredicate") -> bool:
        """u lies in post ⋆ self: some family splits it into a post-state and a member."""
        return any(f.splits(u, post) for f in self.families)

    def reclose(self, t: State, est: Estimator | None) -> "Predicate | ClosurePredicate | None":
        """[self]#(t): t closed over each family's region, or t alone where a family
        keeps updated footprints exact; None (Top) when t's closure moves a family."""
        if not all(f.stable_under(t) for f in self.families):
            return None
        fams = tuple(r for f in self.families if (r := f.reclose(t, est)) is not None)
        return ClosurePredicate(fams) if fams else Predicate.of((t,))


def star_states(s: State, t: State) -> State | None:
    """Star of two instance states; None when the pair is undefined."""
    if type(s) is not type(t) or not hasattr(s, "decompose"):
        raise InputError(
            f"no separation structure across {type(s).__name__} and {type(t).__name__}"
        )
    return s.star(t)


def star_with_context(
    a: Predicate,
    c: "Predicate | ClosurePredicate",
    events: Iterable[tuple[Any, Any]] = (),
) -> Predicate:
    """a ⋆ c as a finite predicate, composing through closure families symbolically."""
    if a.is_top or c.is_top:
        return TOP
    return Predicate.of(u for s in a.state_set for u in c.compose(s, events))


def emp_for(state: State) -> State:
    """The unit that composes with a given state: its part on the empty domain."""
    return state.decompose((), state.domain)[0]


def _split_off(u: State, t: State) -> State | None:
    # the unique complement of t inside u, if t embeds as a separate part
    if type(u) is not type(t) or not t.domain <= u.domain:
        return None
    uf, uc = u.decompose(u.domain - t.domain, t.domain)
    return uf if uc == t else None


# ---------------------------------------------------------------- commands


class Command(Frozen):
    """A primitive command: standard semantics plus an optional core update."""

    name: str
    std: Callable[[State], State | None]
    core: Callable[[State], State | None] | None = None
    event: tuple[Any, Any] | None = None

    def __repr__(self) -> str:
        return f"Command({self.name})"


def _rewrite_edges(
    g: FlowGraph,
    new_edges: Mapping[tuple[NodeId, NodeId], int],
    footprint: frozenset[NodeId],
) -> FlowGraph | None:
    # new_edges' sources lie in the footprint, so no kept edge shares their
    # key; their functions are the only parts g does not vouch for
    if not footprint <= g.node_set:
        return None
    full = g.universe.full_bits
    edges = [e for e in g.edges if e[0] not in footprint]
    for (s, d), fn in new_edges.items():
        if fn != BOT_TAG:
            _check_tagged(fn, full, "edge function")
            edges.append((s, d, fn))
    edges.sort()
    return FlowGraph._make(g.universe, g.nodes, tuple(edges), g.inflow)


def _checked_footprint(
    new_edges: Mapping[tuple[NodeId, NodeId], int], footprint: Iterable[NodeId]
) -> frozenset[NodeId]:
    foot = frozenset(footprint)
    for (src, _dst) in new_edges:
        if src not in foot:
            raise InputError(f"edge source {src} escapes the footprint")
    return foot


def flow_update_command(
    name: str,
    new_edges: Mapping[tuple[NodeId, NodeId], int],
    footprint: Iterable[NodeId],
) -> Command:
    """Replace the footprint's out-edges; aborts unless the change is frame-silent,
    and is inconclusive when that guard outgrows the expansion cap."""
    foot = _checked_footprint(new_edges, footprint)

    def core(g: State) -> State | None:
        return _rewrite_edges(g, new_edges, foot)

    def std(g: State) -> State | None:
        return approx_physical_update(core, g, Estimator.eq(), "transfer-equality guard")

    return Command(name, std, core)


def upsert_command(key: Any, value: Any) -> Command:
    """Publish one event: extend the history and settle the obligations it meets."""

    def std(state: State) -> State | None:
        return reg.apply_upsert(state, key, value)

    def core(state: State) -> State | None:
        return reg.core_update_upsert(state, key, value)

    shown = "null" if value is reg.TOMBSTONE else repr(value)
    return Command(f"upsert({key!r},{shown})", std, core, event=(key, value))


def sem(com: Command, a: Predicate) -> Predicate:
    """Strongest-post transformer of one command; strict in Top and
    join-distributive, and Top when the command aborts on any state."""
    if a.is_top:
        return TOP
    out = set()
    for s in a.state_set:
        r = com.std(s)
        if r is None:
            return TOP
        out.add(r)
    return Predicate.of(out)


# ---------------------------------------------------------------- triples


class CheckResult(Frozen):
    """Outcome of one named check, with a witness state when it fails."""

    name: str
    ok: bool
    detail: str = ""
    witness: Any = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


def _least_failing(states: Iterable[State], ok: Callable[[State], bool]) -> State | None:
    """The repr-least state that fails ok, the first a walk in states() order
    meets; None when all pass, and then no repr is taken."""
    bad = [s for s in states if not ok(s)]
    return min(bad, key=repr) if bad else None


def _pred_leq(p: Predicate, q: "Predicate | ClosurePredicate") -> tuple[bool, Any]:
    if q.is_top:
        return True, None
    if p.is_top:
        return False, "top"
    witness = _least_failing(p.state_set, q.contains)
    return witness is None, witness


def check_hoare(a: Predicate, com: Command, b: "Predicate | ClosurePredicate") -> CheckResult:
    """Validity of {a} com {b}: the strongest post stays inside b."""
    result = sem(com, a)
    ok, witness = _pred_leq(result, b)
    if ok:
        return CheckResult("hoare", True)
    if witness == "top":
        return CheckResult("hoare", False, "computation aborts")
    return CheckResult("hoare", False, "reachable state escapes the postcondition", witness)


def check_casl(
    c: "Predicate | ClosurePredicate",
    a: Predicate,
    com: Command,
    b: "Predicate | ClosurePredicate",
) -> CheckResult:
    """Validity of the contextual triple <c>{a} com {b}."""
    events = [com.event] if com.event is not None else []
    result = sem(com, star_with_context(a, c, events))
    if b.is_top or c.is_top:
        return CheckResult("casl", True)
    if result.is_top:
        return CheckResult("casl", False, "computation aborts under the context")
    witness = _least_failing(result.state_set, lambda u: c.splits(u, b))
    if witness is not None:
        return CheckResult("casl", False, "post-composite escapes the contextual post", witness)
    return CheckResult("casl", True)


# ---------------------------------------------------------------- mediation and locality


def induced_transformer(
    com: Command,
    c: "Predicate | ClosurePredicate",
    est: Estimator | None,
) -> Callable[[Predicate], "Predicate | ClosurePredicate"]:
    """The context-aware semantics a context induces for one command."""

    def run(a: Predicate) -> "Predicate | ClosurePredicate":
        if a.is_top:
            return TOP
        out: Predicate | ClosurePredicate = EMPTY
        for s in a.state_set:
            t = s.approx_update(com.core, est)
            piece = None if t is None else c.reclose(t, est)
            if piece is None:
                return TOP
            out = out.join(piece)
        return out

    return run


def check_mediation(
    com: Command,
    c: "Predicate | ClosurePredicate",
    sample_preds: Iterable[Predicate],
    est: Estimator | None,
    ca: Callable[[Predicate], "Predicate | ClosurePredicate"] | None = None,
) -> CheckResult:
    """Standard semantics under the context land inside the induced image times it."""
    ca = ca if ca is not None else induced_transformer(com, c, est)
    events = [com.event] if com.event is not None else []
    for a in sample_preds:
        lhs = sem(com, star_with_context(a, c, events))
        rhs_core = ca(a)
        if rhs_core.is_top:
            continue
        if lhs.is_top:
            return CheckResult(
                "mediation", False, "standard semantics abort but the induced image is finite", a
            )
        witness = _least_failing(lhs.state_set, lambda u: c.splits(u, rhs_core))
        if witness is not None:
            return CheckResult("mediation", False, "mediation inclusion fails", witness)
    return CheckResult("mediation", True)


def check_locality(
    com: Command, sample_pairs: Iterable[tuple[Predicate, Predicate]]
) -> CheckResult:
    """Frame preservation of the standard semantics on sampled pairs."""
    for a, b in sample_pairs:
        lhs = sem(com, star_with_context(a, b))
        rhs_core = sem(com, a)
        rhs = TOP if rhs_core.is_top else star_with_context(rhs_core, b)
        ok, witness = _pred_leq(lhs, rhs)
        if not ok:
            return CheckResult("locality", False, "locality fails on a sampled pair", witness)
    return CheckResult("locality", True)


# ---------------------------------------------------------------- contextualization


def contextualize(
    com: Command,
    a: Predicate,
    d: Predicate,
    est: Estimator | None = None,
) -> tuple["Predicate | ClosurePredicate", "Predicate | ClosurePredicate"]:
    """Split-and-widen: the (b, c) meant to make <c>{a} com {b} valid with d
    below c. The caller validates them: c covers d and check_casl holds."""
    if a.is_top or d.is_top:
        return TOP, TOP
    aprime: list[State] = []
    for s in a.states():
        t = s.approx_update(com.core, est)
        if t is None:
            return TOP, TOP
        aprime.append(t)
    if not aprime or not d.state_set:
        return Predicate.of(aprime), Predicate.of(d.state_set)
    for states, part in ((aprime, "footprint"), (d.state_set, "context")):
        if len({x.domain for x in states}) != 1:
            raise InputError(f"{part} states must share a domain")
    # the context widens to its closure over the footprint, the post to its
    # re-closure over the context
    c = ClosurePredicate(tuple(m.closure(aprime[0].domain, est) for m in d.states()))
    b: Predicate | ClosurePredicate = EMPTY
    for t in aprime:
        b = b.join(c.reclose(t, est))
    return b, c


# ---------------------------------------------------------------- scenario reports


class StepReport(Frozen):
    index: int
    label: str
    ok: bool
    checks: tuple[CheckResult, ...] = ()
    note: str = ""

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "index": self.index,
            "label": self.label,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.note:
            out["note"] = self.note
        return out


class ScenarioReport(Frozen):
    verdict: str
    steps: tuple[StepReport, ...]
    counterexample: dict[str, Any] | None = None


def witness_json(obj: Any) -> Any:
    """Serialize a witness for reports; a type with no JSON form is a bug."""
    if obj is None:
        return None
    if isinstance(obj, FlowGraph):
        return graph_to_json(obj)
    if isinstance(obj, dict):  # already encoded
        return obj
    if isinstance(obj, bst.Heap):
        return bst.heap_to_json(obj)
    if isinstance(obj, reg.RegistryState):
        return reg.state_to_json(obj)
    if isinstance(obj, (list, tuple)):
        return [witness_json(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)):
        return obj
    raise InternalInvariantError(f"witness of type {type(obj).__name__} has no JSON form")


def _counterexample(step: StepReport) -> dict[str, Any]:
    failing = next((c for c in step.checks if not c.ok), None)
    out: dict[str, Any] = {"step": step.index, "label": step.label}
    if failing is not None:
        out["check"] = failing.name
        if failing.detail:
            out["detail"] = failing.detail
        out["witness"] = witness_json(failing.witness)
    return out


# ---------------------------------------------------------------- scenario runner


def run_scenario(source: "dict | str | Path", seed: int = 0) -> ScenarioReport:
    """Check one proof scenario end to end, every search under the run's cap."""
    data = load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict):
        raise InputError("a scenario is a JSON object")
    algebra = data.get("algebra")
    if algebra not in ("flow", "bst", "registry"):
        raise InputError(f"unknown algebra: {algebra!r}")
    if "init" not in data or "steps" not in data:
        raise InputError("a scenario needs init and steps")
    steps = data["steps"]
    if not isinstance(steps, list) or not all(isinstance(raw, dict) for raw in steps):
        raise InputError("scenario steps must be a list of JSON objects")
    _check_keys(data, _TOP_KEYS[algebra], "scenario")
    conc = "concurrent" in data
    for idx, raw in enumerate(steps):
        _check_keys(raw, _STEP_KEYS["concurrent" if conc else algebra], f"step {idx}")
    if conc:
        return _finish(_run_concurrent(data))
    if algebra == "bst":
        return _finish(_run_bst(data, seed))
    return _finish(_run_flow(data) if algebra == "flow" else _run_registry(data))


def _finish(steps: Iterable[StepReport]) -> ScenarioReport:
    """The report of the steps up to the first failing one, which ends the
    run, or up to the one where a search hit its cap."""
    done: list[StepReport] = []
    try:
        for step in steps:
            done.append(step)
            if not step.ok:
                return ScenarioReport("fail", tuple(done), _counterexample(step))
    except InconclusiveError as exc:
        return ScenarioReport("inconclusive", (*done, exc.step))
    return ScenarioReport("pass", tuple(done))


@contextmanager
def _stopping(idx: int, label: str) -> Iterator[None]:
    """Marks an inconclusive search with the step it stops, as that step's report."""
    try:
        yield
    except InconclusiveError as exc:
        exc.step = StepReport(idx, label, False, note=str(exc))
        raise


def _casl_check(
    state: State,
    com: Command,
    post: State | None,
    foot: frozenset,
    est: Estimator | None,
    rule: str,
    label: str,
    parts: str,
) -> CheckResult:
    """One proof step on any algebra's state, moving it to post: split off the
    footprint, apply the frame or context rule and validate it. parts names
    what the context is made of, for the detail."""
    if post is None:
        raise InternalInvariantError("core update undefined on the composite")
    # sets, not sorted lists: thread ids may mix ints and strs
    ctx = state.domain - foot
    s, d = state.decompose(foot, ctx)
    if rule == "frame":
        up = s.approx_update(com.core, est)
        if up is None:
            return _not_estimator_above(s, com, est, label)
        out = star(up, d)
        if isinstance(out, StarFailure):
            detail = f"{label}: frame recomposition fails: {out.reason} at {out.at}"
            return CheckResult("casl", False, detail, d)
        if out != post:
            raise InternalInvariantError("frame recomposition drifted")
        return CheckResult("casl", True, f"{label}: frame rule holds")
    # contextualize makes the step's one footprint estimate; Top means it failed
    a = Predicate.of((s,))
    b, c = contextualize(com, a, Predicate.of((d,)), est)
    if c.is_top:
        return _not_estimator_above(s, com, est, label)
    if not c.contains(d):
        raise InternalInvariantError("context does not cover its seed")
    # the triple fails when the change reaches past the context, as when an edge
    # of a graph leaves it and the guard sees its outflow move; an abort has no
    # witness of its own, so the pre composite stands for it
    triple = check_casl(c, a, com, b)
    if not triple.ok:
        witness = state if triple.witness is None else triple.witness
        return CheckResult("casl", False, f"{label}: {triple.detail}", witness)
    return CheckResult("casl", True, f"{label}: contextual triple holds over {len(ctx)} {parts}")


def _not_estimator_above(s: FlowGraph, com: Command, est: Estimator, label: str) -> CheckResult:
    # the failed estimate again, for the target and inflow that break it
    report = ctx_estimate(s, com.core(s), est)
    witness = [(key, value_to_json(s.universe, v)) for key, v in report.witness]
    detail = f"{label}: update is not estimator-above the footprint at target {report.at}"
    return CheckResult("casl", False, detail, witness)


def _run_flow(data: dict) -> Iterator[StepReport]:
    g = graph_from_json(data["init"])
    u = g.universe
    default_est_raw = data.get("estimator", "eq")
    # a flow update keeps the node set, so every step is decoded against init's
    decoded = []
    for idx, raw in enumerate(data["steps"]):
        label, wanted, rule = _step_head(raw, "flow", idx, f"step{idx}")
        cmd = raw.get("command")
        if not (isinstance(cmd, dict) and isinstance(cmd.get("set_edges"), list)):
            raise InputError(f"flow step {idx} needs a set_edges command")
        if "footprint" not in raw:
            raise InputError(f"flow step {idx} needs a footprint")
        foot = _node_ids(raw["footprint"], "footprint", idx)
        if not foot <= g.node_set:
            outside = sorted(foot - g.node_set)
            raise InputError(f"step {idx}: footprint nodes {outside} are not in the graph")
        est = estimator_from_json(u, raw.get("estimator", default_est_raw))
        new_edges = {}
        for e in cmd["set_edges"]:
            if not isinstance(e, dict) or not {"src", "dst", "fn"} <= set(e):
                raise InputError(f"bad edge rewrite: {e!r}")
            src, dst = (node_id_from_json(e[end], f"edge {end}") for end in ("src", "dst"))
            check_fresh((src, dst), new_edges, "edge")
            new_edges[(src, dst)] = edge_fn_from_json(u, e["fn"])
        com = flow_update_command(label, new_edges, foot)
        decoded.append((idx, label, foot, est, com, rule, wanted))
    for idx, label, foot, est, com, rule, wanted in decoded:
        with _stopping(idx, label):
            post = com.core(g)
            checks = ()
            if "casl" in wanted:
                checks = (_casl_check(g, com, post, foot, est, rule, label, "context nodes"),)
            yield StepReport(idx, label, all(c.ok for c in checks), checks)
            # a failing step ends the run, so post is the next step's state
            g = post


def trace_step_estimator(tstep: bst.OpStep, g_pre: FlowGraph) -> Estimator:
    """The estimator a traced write's hint names, on its pre graph."""
    u = g_pre.universe
    match tstep.estimator:
        case "eq":
            return Estimator.eq()
        case "simple":
            return Estimator.simple()
        case "complex":
            x = tstep.writes[0][0]
            inset = g_pre.flow[x]
            window = interval_bits(u, tstep.pivot, tstep.release_hi, True, False)
            bits = u.full_bits if inset == TOP_TAG else 0 if inset == BOT_TAG else inset
            return Estimator.complex(tstep.pivot, window & bits)
        case _:
            raise InternalInvariantError(f"bad estimator hint {tstep.estimator!r}")


def check_trace_step(
    pre: bst.Heap,
    post: bst.Heap,
    tstep: bst.OpStep,
    universe: AtomUniverse,
    est: Estimator | None,
    rule: str,
    g_pre: FlowGraph | None = None,
) -> tuple[CheckResult, FlowGraph | None]:
    """A traced tree write from pre to post as one graph proof step: the
    update sets the footprint's out-edges to post's, under est or else the
    step's hint. Gives the check and post's graph, None when the check fails;
    g_pre, when given, is pre's graph."""
    if g_pre is None:
        g_pre = bst.derive_flowgraph(pre, universe)
    g_post = bst.derive_flowgraph(post, universe)
    foot = frozenset(tstep.footprint)
    new_edges = {(src, dst): fn for src, dst, fn in g_post.edges if src in foot}
    com = flow_update_command(tstep.label, new_edges, foot)
    if est is None:
        est = trace_step_estimator(tstep, g_pre)
    g = com.core(g_pre)
    check = _casl_check(g_pre, com, g, foot, est, rule, tstep.label, "context nodes")
    if check.ok and g != g_post:
        raise InternalInvariantError("graph recomposition drifted")
    return check, g_post if check.ok else None


def _run_bst(data: dict, seed: int) -> Iterator[StepReport]:
    h = bst.heap_from_json(data["init"])
    endpoints = data.get("endpoints", h.keys_present())
    universe = AtomUniverse.from_endpoints(endpoints)
    decoded = []
    for idx, raw in enumerate(data["steps"]):
        op = bst.op_from_json(raw.get("command"))
        label, wanted, rule = _step_head(raw, "bst", idx, op.name)
        step_seed = raw.get("seed", seed + idx)
        if not _is_int(step_seed):
            raise InputError(f"step {idx}: seed must be an int, got {step_seed!r}")
        declared = _node_ids(raw["footprint"], "footprint", idx) if "footprint" in raw else None
        est = estimator_from_json(universe, raw["estimator"]) if "estimator" in raw else None
        decoded.append((idx, label, op, wanted, rule, step_seed, declared, est))
    model = _live_keys(h)
    # the flow graph of h, once derived; a write's post graph is the next one's pre
    g: FlowGraph | None = None
    for idx, label, op, wanted, rule, step_seed, declared, est in decoded:
        with _stopping(idx, label):
            out = bst.run_op(h, op, seed=step_seed)
            if out.result == bst.SKIPPED:
                yield StepReport(idx, label, True, (), note="skipped")
                continue
            checks: list[CheckResult] = []
            if "casl" in wanted:
                for tstep, pre, post in zip(out.trace, (h, *out.heaps), out.heaps):
                    if tstep.alloc:
                        g = None  # the heap gained a node
                        checks.append(CheckResult("casl", True, f"{tstep.label}: allocation"))
                        continue
                    if declared is not None and not declared.issuperset(tstep.footprint):
                        raise InputError(
                            f"step {idx}: trace footprint {sorted(tstep.footprint)} escapes the "
                            f"declared one"
                        )
                    check, g = check_trace_step(pre, post, tstep, universe, est, rule, g)
                    checks.append(check)
                    if g is None:
                        break
            elif out.trace:
                g = None
            h = out.heap
            if op.name == "insert" and out.result is True:
                model.add(op.key)
            if op.name == "delete" and out.result is True:
                model.discard(op.key)
            if "inv" in wanted and all(c.ok for c in checks):
                if g is None:
                    g = bst.derive_flowgraph(h, universe)
                rep = bst.check_inv(h, graph=g)
                detail = "; ".join(f"{what} at node {x}" for x, what in rep.violations)
                checks.append(CheckResult("inv", rep.ok, detail))
            if "contents" in wanted and all(c.ok for c in checks):
                actual = _live_keys(h)
                okc = actual == model
                checks.append(
                    CheckResult(
                        "contents",
                        okc,
                        "" if okc else f"have {sorted(actual)}, want {sorted(model)}",
                    )
                )
            yield StepReport(idx, label, all(c.ok for c in checks), tuple(checks))


def _live_keys(h: bst.Heap) -> set:
    live = set()
    for x in h.reachable():
        f = h.get(x)
        if x != h.root and not f.deleted:
            live.add(f.key)
    return live


def _run_registry(data: dict) -> Iterator[StepReport]:
    state = reg.state_from_json(data["init"])
    decoded = []
    for idx, raw in enumerate(data["steps"]):
        cmd = raw.get("command")
        if not isinstance(cmd, dict):
            raise InputError(f"bad registry command at step {idx}")
        if raw.get("footprint", []) != []:
            raise InputError("a registry step's footprint is the history alone")
        if "upsert" in cmd:
            key, value = _command_args(cmd, "upsert", 2, idx)
            default, com = f"upsert {key!r}", upsert_command(key, value)
        elif "spawn" in cmd:
            args = _command_args(cmd, "spawn", 3, idx)
            # a spawn registers a thread; with no core update it has no proof step
            default = f"spawn {args[0]}"
            com = Command(default, lambda s, args=args: reg.spawn_search(s, *args))
        else:
            raise InputError(f"unknown registry command: {sorted(cmd)!r}")
        decoded.append((idx, *_step_head(raw, "registry", idx, default), com))
    for idx, label, wanted, rule, com in decoded:
        with _stopping(idx, label):
            post = com.std(state)
            checks: list[CheckResult] = []
            if com.core is None:
                checks.append(CheckResult("spawn", True, f"{label}: search registered"))
            elif "casl" in wanted:
                check = _casl_check(state, com, post, frozenset(), None, rule, label, "threads")
                checks.append(check)
            state = post
            if "inv" in wanted:
                okv = state.is_valid()
                checks.append(CheckResult("inv", okv, "" if okv else "validity broken"))
            yield StepReport(idx, label, all(c.ok for c in checks), tuple(checks))


def _command_args(cmd: dict, name: str, arity: int, idx: int) -> list:
    args = cmd[name]
    if not (
        isinstance(args, list)
        and len(args) == arity
        and all(isinstance(a, reg.SCALARS) for a in args)
    ):
        raise InputError(
            f"step {idx}: {name} takes a list of {arity} JSON scalars, got {args!r}"
        )
    return args


# the checks a step may ask for, and those it runs when it names none
_CHECKS = {"flow": ("casl",), "bst": ("casl", "inv", "contents"), "registry": ("casl", "inv")}
# the keys a scenario, its steps and a concurrent block may hold; any other is an error
_SCENARIO_KEYS = ("algebra", "init", "steps")
_TOP_KEYS = {
    "flow": _SCENARIO_KEYS + ("estimator",),
    "bst": _SCENARIO_KEYS + ("endpoints", "concurrent"),
    "registry": _SCENARIO_KEYS,
}
_STEP_KEYS = {
    "flow": ("label", "command", "checks", "rule", "footprint", "estimator"),
    "bst": ("label", "command", "checks", "rule", "footprint", "estimator", "seed"),
    "registry": ("label", "command", "checks", "footprint"),
    "concurrent": ("label", "command", "thread", "assert"),
}
_CONCURRENT_KEYS = ("threads",)
_CONDITION_KEYS = ("node", "field", "equals")
_DEFAULT_CHECKS = {"flow": ["casl"], "bst": [], "registry": []}
# the proof rules a graph step may name
_RULES = ("context", "frame")


def _check_keys(raw: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = [key for key in raw if key not in allowed]
    if unknown:
        raise InputError(f"{where}: unknown key {unknown[0]!r}; allowed keys are {list(allowed)}")


def _step_head(raw: dict, algebra: str, idx: int, default_label: str) -> tuple[Any, list, str]:
    """The fields every step shares: its label, the checks it runs and its rule."""
    wanted = raw.get("checks", _DEFAULT_CHECKS[algebra])
    known = _CHECKS[algebra]
    if not (isinstance(wanted, list) and all(c in known for c in wanted)):
        raise InputError(
            f"step {idx}: checks must be a list drawn from {list(known)}, got {wanted!r}"
        )
    rule = raw.get("rule", "context")
    if rule not in _RULES:
        raise InputError(f"step {idx}: rule must be one of {list(_RULES)}, got {rule!r}")
    return raw.get("label", default_label), wanted, rule


def _is_int(raw: Any) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _node_ids(raw: Any, field: str, idx: int) -> frozenset[NodeId]:
    if not (isinstance(raw, list) and all(_is_int(x) for x in raw)):
        raise InputError(f"step {idx}: {field} must be a list of node ids, got {raw!r}")
    return frozenset(raw)


# ---------------------------------------------------------------- concurrent scenarios


def _is_field(raw: Any) -> bool:
    return isinstance(raw, str) and raw in bst.FIELD_FROM_JSON


def _concurrent_step(raw: dict, idx: int, h0: bst.Heap) -> tuple[list, list]:
    """A step's writes and assertion conditions as (node, field, value)
    lists, each value decoded as a heap file decodes that field."""
    if raw.get("thread") is None:
        raise InputError(f"concurrent step {idx} needs a thread")
    cmd = raw.get("command", {})
    if not isinstance(cmd, dict) or "writes" not in cmd:
        raise InputError(f"concurrent step {idx} needs a writes command")
    writes = cmd["writes"]
    if not isinstance(writes, list) or not all(
        isinstance(w, (list, tuple)) and len(w) == 3 and _is_int(w[0]) and _is_field(w[1])
        for w in writes
    ):
        raise InputError(
            f"concurrent step {idx}: writes must be a list of [node, field, value], got {writes!r}"
        )
    conds = raw.get("assert", [])
    if not isinstance(conds, list) or not all(isinstance(c, dict) for c in conds):
        raise InputError(f"concurrent step {idx}: assert must be a list of objects, got {conds!r}")
    for c in conds:
        _check_keys(c, _CONDITION_KEYS, f"concurrent step {idx}: assert")
        if not (_is_int(c.get("node")) and _is_field(c.get("field")) and "equals" in c):
            raise InputError(
                f"concurrent step {idx}: an assert condition needs a node id, a field of "
                f"{sorted(bst.FIELD_FROM_JSON)} and equals, got {c!r}"
            )
    for x, _, _ in writes:
        if x not in h0.nodes:
            raise InputError(f"concurrent step {idx}: no heap node {x}")
    try:
        return (
            [(x, f, bst.FIELD_FROM_JSON[f](v)) for x, f, v in writes],
            [(c["node"], c["field"], bst.FIELD_FROM_JSON[c["field"]](c["equals"])) for c in conds],
        )
    except InputError as exc:
        raise InputError(f"concurrent step {idx}: {exc}") from None


def _run_concurrent(data: dict) -> Iterator[StepReport]:
    conc = data["concurrent"]
    if not isinstance(conc, dict):
        raise InputError(f"concurrent must be a JSON object, got {conc!r}")
    _check_keys(conc, _CONCURRENT_KEYS, "concurrent")
    h0 = bst.heap_from_json(data["init"])
    # each thread's (label, writes, conditions) list, in step order
    programs: dict[str, list[tuple[str, list, list]]] = {}
    for idx, raw in enumerate(data["steps"]):
        writes, conds = _concurrent_step(raw, idx, h0)
        tid = str(raw["thread"])
        prog = programs.setdefault(tid, [])
        prog.append((raw.get("label", f"{tid}{len(prog)}"), writes, conds))
    if "threads" in conc and conc["threads"] != len(programs):
        raise InputError("declared thread count does not match the steps")
    og = _og_check(h0, programs)
    yield StepReport(0, "concurrent", og.ok, (og,))


def _og_check(h0: bst.Heap, programs: dict[str, list[tuple[str, list, list]]]) -> CheckResult:
    """Rely/guarantee over constant writes, one cell at a time. With thread t
    just after its step pc, a cell holds t's own last write to it in steps
    0..pc (its initial value if none), or what any one step of another thread
    last writes to it; each is reachable, and no other value is. So an
    assertion breaks exactly when a condition names a missing node or its
    cell can hold another value. The witness runs t's steps 0..pc, then the
    breaking thread's steps up to the breaking one."""
    order = sorted(programs)
    # each cell's (thread, pc, value) for every step that leaves value in it, in order
    writers: dict[tuple[NodeId, str], list[tuple[str, int, Any]]] = {}
    for tid in order:
        for pc, (_, writes, _) in enumerate(programs[tid]):
            for cell, v in {(x, f): v for x, f, v in writes}.items():
                writers.setdefault(cell, []).append((tid, pc, v))

    def broken(detail: str, tid: str, pc: int, *then: tuple[str, int]) -> CheckResult:
        run = [w for u, k in ((tid, pc), *then) for _, ws, _ in programs[u][: k + 1] for w in ws]
        shared = bst.heap_to_json(h0.with_writes(run))
        local = [["pc", pc], ["thread", tid]]
        return CheckResult("og", False, detail, {"shared": shared, "local": local})

    for tid in order:
        own: dict[tuple[NodeId, str], Any] = {}
        for pc, (label, writes, conds) in enumerate(programs[tid]):
            own.update(((x, f), v) for x, f, v in writes)
            for x, f, want in conds:
                attr = "deleted" if f == "del" else f
                if x not in h0.nodes or own.get((x, f), getattr(h0.nodes[x], attr)) != want:
                    return broken(f"assertion broken after {label}", tid, pc)
                for u, k, v in writers.get((x, f), ()):
                    if u != tid and v != want:
                        detail = f"assertion unstable under {programs[u][k][0]}"
                        return broken(detail, tid, pc, (u, k))
    return CheckResult("og", True, "interference-free")
