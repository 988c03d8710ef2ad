"""Acceptance suite: the twelve release criteria, one test and one line each.

Every test prints `criterion NN <name>: PASS/FAIL (t s / budget s)` and enforces
both the stated tolerance (exact unless noted) and the runtime budget.
"""

from __future__ import annotations

import itertools
import json
import time
from importlib.resources import files

from flowcheck import bst, estimator, oracle
from flowcheck import registry as reg
from flowcheck.casl import Predicate, contextualize, run_scenario, upsert_command
from flowcheck.estimator import Estimator, check_estimator_axioms
from flowcheck.flowgraph import compute_flow, graph_from_json
from flowcheck.keyspace import (
    NEG_INF,
    POS_INF,
    AtomUniverse,
    all_values,
    interval_bits,
)

from helpers import (
    iv,
    later_write_block,
    tree_universe,
    worked_heap_pre,
    worked_tree_insets_post,
    worked_tree_insets_pre,
)

EXAMPLES = files("flowcheck") / "examples"


def example(name: str) -> str:
    return str(EXAMPLES / name)


def finish(num: int, name: str, t0: float, budget: float, ok: bool, detail: str = "") -> None:
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} {name}: {verdict} ({elapsed:.2f}s / {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"


# ---------------------------------------------------------------- 1: worked insets


def test_criterion_01_worked_tree_insets_exact() -> None:
    t0 = time.perf_counter()
    g = graph_from_json(json.loads((EXAMPLES / "fig2.json").read_text()))
    u = g.universe
    flow = compute_flow(g)
    expected = worked_tree_insets_pre(u)
    mismatches = [x for x in expected if flow[x] != expected[x]]
    ok = not mismatches and len(flow) == len(expected)
    ok = ok and flow[6] == iv(u, 4, 8) and flow[8] == iv(u, 4, 15)

    scenario = json.loads((EXAMPLES / "remove_complex.json").read_text())
    h = bst.heap_from_json(scenario["init"])
    h2 = bst.run_op(h, bst.Op("remove_complex", node=4)).heap
    flow2 = compute_flow(bst.derive_flowgraph(h2, u))
    post = worked_tree_insets_post(u)
    bad_post = [x for x in post if flow2[x] != post[x]]
    changed = {
        1: iv(u, NEG_INF, 6),
        3: iv(u, 1, 6),
        15: iv(u, 6, POS_INF),
        8: iv(u, 6, 15),
    }
    ok = ok and not bad_post and all(flow2[x] == v for x, v in changed.items())
    finish(1, "worked-tree-insets", t0, 1.0, ok, f"{mismatches} {bad_post}")


# ---------------------------------------------------------------- 2: keyset facts


def test_criterion_02_keyset_facts_exact() -> None:
    t0 = time.perf_counter()
    h = worked_heap_pre()
    u = tree_universe()
    g = bst.derive_flowgraph(h, u)
    flow = compute_flow(g)
    ks8 = bst.derived_quantities(h, g, flow, 8).keyset
    ok = ks8 == iv(u, 8, 8, False, False)
    ks1 = bst.derived_quantities(h, g, flow, 1).keyset
    low = interval_bits(u, NEG_INF, 1, True, False)
    ok = ok and (ks1 & low) == low
    finish(2, "keyset-facts", t0, 1.0, ok, f"KS(8)={ks8} KS(1)={ks1}")


# ---------------------------------------------------------------- 3: engine vs oracle


def test_criterion_03_flow_engine_oracle_equivalence() -> None:
    t0 = time.perf_counter()
    report = oracle.flow_equivalence(cases=1000, seed=0)
    ok = report.ok and report.checked == oracle.count_cases(oracle.EnumBounds()) + 1000
    finish(3, "flow-equivalence", t0, 60.0, ok, str(report.counterexample))


# ---------------------------------------------------------------- 4: unique decomposition


def test_criterion_04_unique_decomposition() -> None:
    t0 = time.perf_counter()
    report = oracle.check_theorem("UniqueDecomp")
    ok = report.ok and report.checked == 35_136
    finish(4, "unique-decomposition", t0, 60.0, ok, str(report.counterexample))


# ---------------------------------------------------------------- 5: estimator axioms


def test_criterion_05_estimator_axioms(monkeypatch) -> None:
    t0 = time.perf_counter()
    failures = []
    for endpoints in ((), (4,)):
        u = AtomUniverse.from_endpoints(endpoints)
        ests = [Estimator.eq(), Estimator.leq(), Estimator.simple()]
        if endpoints:
            ests.append(Estimator.complex(4, interval_bits(u, 4, POS_INF, True, False)))
        for est in ests:
            report = check_estimator_axioms(est, u)
            if not report.ok:
                failures.append((endpoints, est, report.axiom))

    u = AtomUniverse.from_endpoints((4,))
    vals = list(all_values(u))
    a = iv(u, NEG_INF, 4)
    b = iv(u, 4, 4, False, False)
    c = iv(u, 4, POS_INF)
    # plant a relation that is reflexive and relates a to b and b to c, not a to c
    planted = {(m, m) for m in vals} | {(a, b), (b, c)}
    monkeypatch.setattr(estimator, "relates", lambda _u, _est, m, n: (m, n) in planted)
    verdict = check_estimator_axioms(Estimator.eq(), u)
    ok = (
        not failures
        and not verdict.ok
        and verdict.axiom == "E1-transitive"
        and verdict.witness == (a, b, c)
    )
    finish(5, "estimator-axioms", t0, 10.0, ok, f"{failures} {verdict}")


# ---------------------------------------------------------------- 6: shape independence


def test_criterion_06_shape_independent_approximation() -> None:
    t0 = time.perf_counter()
    report = oracle.check_theorem("ShapeIndependent", cases=1000, seed=0)
    ok = report.ok and report.checked == 1000
    finish(6, "shape-independence", t0, 120.0, ok, str(report.counterexample))


# ---------------------------------------------------------------- 7: contextualization


def test_criterion_07_contextualization_on_random_trees() -> None:
    t0 = time.perf_counter()
    report = oracle.check_theorem("Contextualization", cases=200, seed=0)
    ok = (
        report.ok
        and report.checked > 0
        and any("remove_simple" in n for n in report.notes)
        and any("remove_complex" in n for n in report.notes)
    )
    finish(7, "contextualization", t0, 120.0, ok, str(report.counterexample))


# ---------------------------------------------------------------- 8: conservative extension


def test_criterion_08_conservative_extension() -> None:
    t0 = time.perf_counter()
    report = oracle.check_theorem("ConservativeExt")
    want = (oracle.count_cases(oracle.EnumBounds()) - 1) * 2
    ok = report.ok and report.checked == want
    finish(8, "conservative-extension", t0, 30.0, ok, str(report.counterexample))


# ---------------------------------------------------------------- 9: tree correctness


def _live_keys(h: bst.Heap) -> set[int]:
    return {
        h.get(x).key for x in h.reachable() if x != h.root and not h.get(x).deleted
    }


def test_criterion_09_bst_functional_correctness() -> None:
    t0 = time.perf_counter()
    universe = AtomUniverse.from_endpoints(oracle.TREE_KEY_GRID)
    bad: list[tuple[int, int, str]] = []
    for i in range(500):
        rng = oracle.rng_for("accept-bst", i, 0)
        h = bst.singleton_heap()
        model: set[int] = set()
        for step in range(50):
            r = rng.random()
            if r < 0.35:
                k = rng.choice(oracle.TREE_KEY_GRID)
                h = bst.run_op(h, bst.Op("insert", key=k)).heap
                model.add(k)
            elif r < 0.55:
                k = rng.choice(oracle.TREE_KEY_GRID)
                h = bst.run_op(h, bst.Op("delete", key=k)).heap
                model.discard(k)
            elif r < 0.65:
                k = rng.choice(oracle.TREE_KEY_GRID)
                if bst.run_op(h, bst.Op("contains", key=k)).result != (k in model):
                    bad.append((i, step, "contains"))
            else:
                name = rng.choice(("remove_simple", "remove_complex", "rotate"))
                h = bst.run_op(h, bst.Op(name), seed=rng.randrange(1 << 30)).heap
            if _live_keys(h) != model:
                bad.append((i, step, "contents"))
            rep = bst.check_inv(h, universe=universe)
            if not rep.ok:
                bad.append((i, step, f"inv: {rep.violations}"))
            if bad:
                break
        if bad:
            break
    finish(9, "bst-correctness", t0, 120.0, not bad, str(bad[:1]))


# ---------------------------------------------------------------- 10: frame vs context


def test_criterion_10_frame_vs_context_demo() -> None:
    t0 = time.perf_counter()
    data = json.loads((EXAMPLES / "frame_vs_context.json").read_text())
    framed = run_scenario(data)
    framed_again = run_scenario(data)
    ok = (
        framed.verdict == "fail"
        and "interface-mismatch" in framed.counterexample["detail"]
        and framed == framed_again
    )
    relaxed = json.loads((EXAMPLES / "frame_vs_context.json").read_text())
    relaxed["steps"][0]["rule"] = "context"
    ok = ok and run_scenario(relaxed).verdict == "pass"
    finish(10, "frame-vs-context", t0, 5.0, ok, framed.verdict)


# ---------------------------------------------------------------- 11: registry algebra


_KEYS = ("k1", "k2")
_VALUES = ("v1", "v2", None)
_EVENTS = tuple((k, v) for k in _KEYS for v in _VALUES)


def _histories(max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product(_EVENTS, repeat=n)


def _status_pool(h, snapshots=None) -> list[reg.Status]:
    # every valid status over the key/value grid; the non-settled tag is
    # forced by the history, so the pool is exhaustive per snapshot
    snaps = [h[i:] for i in range(len(h) + 1)] if snapshots is None else snapshots
    history = reg.History.of(h)
    out = []
    for snap in snaps:
        for k in _KEYS:
            for v in _VALUES:
                tag = reg.OBL if reg.latest(history, k, v) < len(snap) else reg.FUL
                out.append(reg.Status(tag, snap, k, v))
                out.append(reg.Status(reg.SLT, snap, k, v))
    return out


def test_criterion_11_registry_algebra() -> None:
    t0 = time.perf_counter()
    bad: list[str] = []
    all_h = list(_histories(3))

    # star preserves validity: single-thread pairs over the full suffix pool,
    # including the settled-overlap merge
    for h in all_h:
        pool = _status_pool(h)
        for s1 in pool:
            a = reg.RegistryState.of(h, {"A": s1})
            for s2 in pool:
                c = reg.star(a, reg.RegistryState.of(h, {"B": s2}))
                if not (isinstance(c, reg.RegistryState) and c.is_valid()):
                    bad.append(f"star {h} {s1} {s2}")
            if s1.tag == reg.SLT:
                dup = reg.star(a, reg.RegistryState.of(h, {"A": s1}))
                if not (isinstance(dup, reg.RegistryState) and dup.is_valid()):
                    bad.append(f"star-settled {h} {s1}")
        if bad:
            break

    # mult preserves validity: the second operand runs at the same history or
    # one event ahead (both extension directions live inside ghost_mult)
    for h in all_h:
        if bad:
            break
        pool = _status_pool(h)
        for ext in [h] + [(e,) + h for e in _EVENTS]:
            pool2 = _status_pool(ext, snapshots=[ext])
            for s1 in pool:
                a = reg.RegistryState.of(h, {"A": s1})
                for s2 in pool2:
                    c = reg.ghost_mult(a, reg.RegistryState.of(ext, {"B": s2}))
                    if c is None or not c.is_valid():
                        bad.append(f"mult {h} {ext} {s1} {s2}")
                        break

    # three-thread shapes, exhaustive over histories of at most one event
    for h in list(_histories(1)):
        if bad:
            break
        pool = _status_pool(h)
        two = [
            reg.RegistryState.of(h, {"A": s1, "B": s2})
            for s1 in pool
            for s2 in pool
        ]
        singles = [reg.RegistryState.of(h, {"C": s}) for s in pool]
        for ab in two:
            for c1 in singles:
                out = reg.star(ab, c1)
                if not (isinstance(out, reg.RegistryState) and out.is_valid()):
                    bad.append(f"star-3 {h}")
                    break
        ext = (_EVENTS[0],) + h
        ext_singles = [
            reg.RegistryState.of(ext, {"C": s})
            for s in _status_pool(ext, snapshots=[ext])
        ]
        for ab in two:
            for c1 in ext_singles:
                out = reg.ghost_mult(ab, c1)
                if out is None or not out.is_valid():
                    bad.append(f"mult-3 {h}")
                    break

    # the worked insert example: context keeps the registered search, the
    # footprint result is the bare extended history
    h = (("k1", "a"),)
    obl = reg.Status(reg.OBL, snapshot=h, key="k1", value="b")
    a_state = reg.RegistryState.of(h)
    d_state = reg.RegistryState.of(h, {"t1": obl})
    b, c = contextualize(
        upsert_command("k1", "b"), Predicate.of([a_state]), Predicate.of([d_state])
    )
    h2 = (("k1", "b"),) + h
    ful = reg.Status(reg.FUL, snapshot=h, key="k1", value="b")
    exact = (
        b == Predicate.of([reg.RegistryState.of(h2)])
        and c.contains(d_state)
        and c.contains(reg.RegistryState.of(h2, {"t1": ful}))
    )
    if not exact:
        bad.append("worked example drifted")
    finish(11, "registry-algebra", t0, 60.0, not bad, str(bad[:1]))


# ---------------------------------------------------------------- 12: interference


def test_criterion_12_owicki_gries() -> None:
    t0 = time.perf_counter()

    def og(scenario) -> tuple:
        rep = run_scenario(scenario)
        return rep.verdict, [(c.name, c.ok, c.detail) for s in rep.steps for c in s.checks]

    stable, planted = og(example("og_two_thread.json")), og(example("og_unstable.json"))
    # b's assertion holds right after b's step, but a's last write breaks it
    later = og(later_write_block())
    ok = (
        stable == ("pass", [("og", True, "interference-free")])
        and planted == ("fail", [("og", False, "assertion unstable under mark(6)")])
        and later == ("fail", [("og", False, "assertion unstable under a6")])
    )
    finish(12, "owicki-gries", t0, 60.0, ok, f"{stable} {planted} {later}")
