"""History ghost state: validity, composition, ghost multiplication, closure."""

from __future__ import annotations

import copy
import gc
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcheck.cli import main

from flowcheck.errors import InputError
from flowcheck.bst import Heap, NodeFields
from flowcheck.flowgraph import StarFailure, make_graph, restrict
from flowcheck.keyspace import NEG_INF, TOP_TAG, AtomUniverse
from flowcheck.registry import (
    FUL,
    OBL,
    SLT,
    TOMBSTONE,
    History,
    RegistryClosure,
    RegistryState,
    Status,
    apply_upsert,
    core_update_upsert,
    ghost_mult,
    is_suffix,
    latest,
    m_of,
    spawn_search,
    star,
    state_from_json,
    state_to_json,
    transported,
    unique_decompose,
    valid_status,
    witness_suffix,
)

SRC = Path(__file__).resolve().parent.parent / "src"
KEYS = ("k1", "k2")
VALUES = ("a", "b", TOMBSTONE)
EVENTS = tuple((k, v) for k in KEYS for v in VALUES)
H = History.of


def random_history(rng: random.Random, max_len: int = 3) -> tuple:
    return tuple(rng.choice(EVENTS) for _ in range(rng.randrange(max_len + 1)))


def random_valid_entry(rng: random.Random, h: tuple) -> Status:
    """A status the validity predicate accepts at h, any tag."""
    snapshot = h[rng.randrange(len(h) + 1):]
    k, v = rng.choice(EVENTS)
    if rng.random() < 0.2:
        return Status(SLT, snapshot, k, v)
    tag = OBL if latest(H(h), k, v) < len(snapshot) else FUL
    return Status(tag, snapshot, k, v)


def random_valid_state(rng: random.Random, h=None, tids=("t1", "t2")) -> RegistryState:
    h = random_history(rng) if h is None else h
    registry = {
        tid: random_valid_entry(rng, h) for tid in tids if rng.random() < 0.7
    }
    return RegistryState.of(h, registry)


# ---------------------------------------------------------------- maps and timestamps


def test_m_of_examples():
    assert m_of(H(()), "k1") is TOMBSTONE
    assert m_of(H((("k1", "a"),)), "k1") == "a"
    assert m_of(H((("k2", "a"),)), "k1") is TOMBSTONE
    # newest event wins
    assert m_of(H((("k1", "b"), ("k1", "a"))), "k1") == "b"


def test_latest_base_cases():
    assert latest(H(()), "k1", TOMBSTONE) == 0
    assert latest(H(()), "k1", "a") == -1


def test_latest_positions_count_from_oldest_end():
    h = H((("k1", "a"),))
    assert latest(h, "k1", "a") == 1
    h = H((("k2", "b"), ("k1", "a")))
    assert latest(h, "k1", "a") == 1
    assert latest(h, "k2", "b") == 2
    # newest match wins over older ones
    h = H((("k1", "a"), ("k2", "b"), ("k1", "a")))
    assert latest(h, "k1", "a") == 3


def test_witness_suffix_heads_at_match():
    h = H((("k2", "b"), ("k1", "a")))
    assert tuple(witness_suffix(h, "k1", "a")) == (("k1", "a"),)
    assert witness_suffix(h, "k2", "b") is h
    assert tuple(witness_suffix(h, "k1", TOMBSTONE)) == ()
    assert witness_suffix(h, "k2", "a") is None


# ---------------------------------------------------------------- validity


def test_settled_entries_always_valid():
    assert valid_status(H(()), Status(SLT, (("k1", "a"),), "k1", "a"))


def test_obligation_valid_before_matching_event():
    h = (("k2", "b"),)
    assert valid_status(H(h), Status(OBL, h, "k1", "a"))
    # the event lands: the obligation tag is now wrong, fulfilled is right
    h2 = H((("k1", "a"),) + h)
    assert not valid_status(h2, Status(OBL, h, "k1", "a"))
    assert valid_status(h2, Status(FUL, h, "k1", "a"))


def test_validity_requires_snapshot_suffix():
    assert not valid_status(H(()), Status(OBL, (("k1", "a"),), "k1", "a"))


def test_tombstone_baseline_counts_as_fulfilled():
    # value never written: absence is observable from the empty snapshot
    assert valid_status(H(()), Status(FUL, (), "k1", TOMBSTONE))
    assert not valid_status(H(()), Status(OBL, (), "k1", TOMBSTONE))


# ---------------------------------------------------------------- star


def test_star_empty_registry_is_unit():
    rng = random.Random(7)
    for _ in range(20):
        s = random_valid_state(rng)
        unit = RegistryState.of(s.history)
        assert star(unit, s) == s
        assert star(s, unit) == s


def test_star_requires_equal_histories():
    a = RegistryState.of((("k1", "a"),))
    b = RegistryState.of(())
    out = star(a, b)
    assert isinstance(out, StarFailure) and out.reason == "history-mismatch"


def test_star_overlapping_non_settled_entries_undefined():
    h = (("k1", "a"),)
    a = RegistryState.of(h, {"t1": Status(FUL, h, "k1", "a")})
    b = RegistryState.of(h, {"t1": Status(FUL, h, "k1", "a")})
    out = star(a, b)
    assert isinstance(out, StarFailure) and out.reason == "registry-overlap"


def test_star_settled_entry_absorbs_same_payload():
    h = (("k1", "a"),)
    ful = Status(FUL, h, "k1", "a")
    slt = Status(SLT, h, "k1", "a")
    a = RegistryState.of(h, {"t1": ful})
    b = RegistryState.of(h, {"t1": slt})
    assert star(a, b).registry["t1"] == ful
    assert star(b, a).registry["t1"] == ful
    assert star(b, b).registry["t1"] == slt


def test_star_settled_entry_with_other_payload_does_not_absorb():
    h = (("k1", "a"),)
    a = RegistryState.of(h, {"t1": Status(FUL, h, "k1", "a")})
    b = RegistryState.of(h, {"t1": Status(SLT, (), "k1", "a")})
    assert isinstance(star(a, b), StarFailure)


def test_star_preserves_validity():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        h = random_history(rng)
        a = random_valid_state(rng, h, tids=("t1", "t2"))
        b = random_valid_state(rng, h, tids=("t3", "t4"))
        out = star(a, b)
        assert isinstance(out, RegistryState)
        assert out.is_valid()
        checked += 1
    assert checked == 300


def test_star_cancellative_on_equal_domains():
    # modulo settled padding: with matching registry domains the frame pins b
    rng = random.Random(13)
    for _ in range(300):
        h = random_history(rng)
        a = random_valid_state(rng, h, tids=("t1",))
        b1 = random_valid_state(rng, h, tids=("t2",))
        b2 = random_valid_state(rng, h, tids=("t2",))
        if set(b1.registry) != set(b2.registry):
            continue
        c1, c2 = star(a, b1), star(a, b2)
        if c1 == c2 and isinstance(c1, RegistryState):
            assert b1 == b2


# ---------------------------------------------------------------- ghost multiplication


def test_ghost_mult_flips_matching_obligation():
    h = (("k2", "b"),)
    a = RegistryState.of((("k1", "a"),) + h)
    b = RegistryState.of(h, {"t1": Status(OBL, h, "k1", "a")})
    out = ghost_mult(a, b)
    assert out == RegistryState.of(a.history, {"t1": Status(FUL, h, "k1", "a")})
    assert ghost_mult(b, a) == out


def test_ghost_mult_equal_histories_merges_literally():
    h = (("k1", "a"),)
    a = RegistryState.of(h, {"t1": Status(OBL, h, "k2", "b")})
    b = RegistryState.of(h, {"t2": Status(SLT, h, "k1", "a")})
    out = ghost_mult(a, b)
    assert set(out.registry) == {"t1", "t2"}
    # no flips happen without a history extension
    assert out.registry["t1"].tag == OBL


def test_ghost_mult_leaves_nonmatching_obligations():
    h = ()
    a = RegistryState.of((("k2", "b"),))
    b = RegistryState.of(h, {"t1": Status(OBL, h, "k1", "a")})
    assert ghost_mult(a, b).registry["t1"].tag == OBL


def test_ghost_mult_undefined_beyond_one_event():
    a = RegistryState.of((("k1", "a"), ("k2", "b")))
    b = RegistryState.of(())
    assert ghost_mult(a, b) is None
    # unrelated histories of adjacent lengths are also out
    c = RegistryState.of((("k1", "a"),))
    d = RegistryState.of((("k2", "b"), ("k1", "b")))
    assert ghost_mult(c, d) is None


def test_ghost_mult_overlapping_thread_ids_undefined():
    h = ()
    slt = Status(SLT, h, "k1", "a")
    a = RegistryState.of(h, {"t1": slt})
    b = RegistryState.of(h, {"t1": slt})
    assert ghost_mult(a, b) is None


def test_ghost_mult_preserves_validity():
    rng = random.Random(17)
    hits = 0
    while hits < 200:
        h = random_history(rng, max_len=2)
        longer = (rng.choice(EVENTS),) + h if rng.random() < 0.7 else h
        a = random_valid_state(rng, longer, tids=("t1", "t2"))
        b = random_valid_state(rng, h, tids=("t3", "t4"))
        out = ghost_mult(a, b)
        assert out is not None
        assert out.is_valid()
        hits += 1


def test_curried_transformers_reconstruct_ghost_mult():
    # a (x) d equals the star of both sides carried to the joint history
    rng = random.Random(19)
    hits = 0
    while hits < 200:
        h = random_history(rng, max_len=2)
        longer = (rng.choice(EVENTS),) + h if rng.random() < 0.7 else h
        a = random_valid_state(rng, longer, tids=("t1", "t2"))
        d = random_valid_state(rng, h, tids=("t3", "t4"))
        out = ghost_mult(a, d)
        ta, td = transported(a, H(longer)), transported(d, H(longer))
        assert ta is not None and td is not None
        assert star(ta, td) == out
        hits += 1


# ---------------------------------------------------------------- decomposition


def test_unique_decompose_trivial_split():
    rng = random.Random(23)
    s = random_valid_state(rng)
    left, right = unique_decompose(s, set(s.registry), set())
    assert left == s
    assert right == RegistryState.of(s.history)


def test_unique_decompose_projects_entries():
    h = (("k1", "a"),)
    s = RegistryState.of(
        (("k1", "a"),),
        {"t1": Status(FUL, (), "k1", "a"), "t2": Status(OBL, h, "k2", "b")},
    )
    left, right = unique_decompose(s, {"t1"}, {"t2"})
    assert set(left.registry) == {"t1"}
    assert set(right.registry) == {"t2"}
    assert star(left, right) == s


def test_unique_decompose_round_trips_random_states():
    rng = random.Random(29)
    for _ in range(100):
        s = random_valid_state(rng, tids=("t1", "t2", "t3"))
        tids = sorted(s.registry, key=str)
        split = rng.randrange(len(tids) + 1)
        left, right = unique_decompose(s, tids[:split], tids[split:])
        assert star(left, right) == s


def test_unique_decompose_requires_partition():
    s = RegistryState.of((), {"t1": Status(SLT, (), "k1", "a")})
    with pytest.raises(InputError):
        unique_decompose(s, {"t1"}, {"t1"})
    with pytest.raises(InputError):
        unique_decompose(s, set(), set())


# ---------------------------------------------------------------- updates


def test_core_update_prepends_event():
    a = RegistryState.of((("k2", "b"),))
    out = core_update_upsert(a, "k1", "a")
    assert tuple(out.history) == (("k1", "a"), ("k2", "b"))
    out2 = core_update_upsert(out, "k2", TOMBSTONE)
    assert tuple(out2.history) == (("k2", TOMBSTONE), ("k1", "a"), ("k2", "b"))


def test_core_update_requires_empty_registry():
    s = RegistryState.of((), {"t1": Status(SLT, (), "k1", "a")})
    with pytest.raises(InputError):
        core_update_upsert(s, "k1", "a")


def test_apply_upsert_matches_core_plus_ghost_mult():
    rng = random.Random(31)
    for _ in range(100):
        s = random_valid_state(rng)
        k, v = rng.choice(EVENTS)
        core = core_update_upsert(RegistryState.of(s.history), k, v)
        assert apply_upsert(s, k, v) == ghost_mult(core, s)


def test_spawn_search_fulfils_when_value_current():
    h = (("k2", "b"), ("k1", "a"))
    s = RegistryState.of(h)
    out = spawn_search(s, "t1", "k1", "a")
    entry = out.registry["t1"]
    assert entry.tag == FUL
    assert tuple(entry.snapshot) == (("k1", "a"),)
    assert out.is_valid()


def test_spawn_search_obliges_when_value_not_current():
    h = (("k1", "a"),)
    s = RegistryState.of(h)
    entry = spawn_search(s, "t1", "k1", "b").registry["t1"]
    assert entry.tag == OBL
    assert tuple(entry.snapshot) == h


def test_spawn_search_stale_tid_rejected():
    s = RegistryState.of((), {"t1": Status(SLT, (), "k1", "a")})
    with pytest.raises(InputError):
        spawn_search(s, "t1", "k1", "a")


def test_spawn_search_always_valid():
    rng = random.Random(37)
    for _ in range(100):
        s = random_valid_state(rng, tids=("t1",))
        k, v = rng.choice(EVENTS)
        assert spawn_search(s, "t9", k, v).is_valid()


# ---------------------------------------------------------------- closure


def test_closure_contains_base_state():
    rng = random.Random(41)
    s = random_valid_state(rng)
    assert RegistryClosure(s).contains(s)


def test_closure_contains_one_upsert_successor():
    h = (("k2", "b"),)
    d = RegistryState.of(h, {"t1": Status(OBL, h, "k1", "a")})
    c = RegistryClosure(d)
    assert c.contains(apply_upsert(d, "k1", "a"))
    assert c.contains(apply_upsert(d, "k2", TOMBSTONE))


def test_closure_rejects_missed_flip():
    h = (("k2", "b"),)
    d = RegistryState.of(h, {"t1": Status(OBL, h, "k1", "a")})
    stale = RegistryState.of(
        (("k1", "a"),) + h, {"t1": Status(OBL, h, "k1", "a")}
    )
    assert not RegistryClosure(d).contains(stale)


def test_closure_rejects_foreign_settled_entry():
    d = RegistryState.of((("k1", "a"),))
    injected = RegistryState.of(
        d.history, {"t9": Status(SLT, (), "k1", "a")}
    )
    assert not RegistryClosure(d).contains(injected)


def test_closure_accepts_spawned_entries_at_any_point():
    d = RegistryState.of(())
    c = RegistryClosure(d)
    # spawn after the event: fulfilled with the witness snapshot
    h1 = (("k1", "a"),)
    assert c.contains(RegistryState.of(h1, {"t1": Status(FUL, h1, "k1", "a")}))
    # spawn before the event: obligation that flipped when it landed
    assert c.contains(RegistryState.of(h1, {"t1": Status(FUL, (), "k1", "a")}))
    # obligation spawned before an event that never matched it
    assert c.contains(RegistryState.of(h1, {"t1": Status(OBL, (), "k1", "b")}))
    # snapshot no spawn point could have produced
    assert not c.contains(
        RegistryState.of(h1, {"t1": Status(OBL, (("k9", "z"),), "k1", "b")})
    )


def test_closure_rejects_dropped_entries():
    h = ()
    d = RegistryState.of(h, {"t1": Status(OBL, h, "k1", "a")})
    assert not RegistryClosure(d).contains(RegistryState.of(h))


def test_closure_membership_agrees_with_exploration():
    d = RegistryState.of((), {"t1": Status(OBL, (), "k1", "a")})
    c = RegistryClosure(d)
    members = c.explore(EVENTS[:2], ("t2",), depth=2)
    assert members[0] == d
    assert all(c.contains(m) for m in members)


def test_closure_is_fixed_point_of_upsert_updates():
    # one more ghost update never escapes the closure
    d = RegistryState.of((), {"t1": Status(OBL, (), "k1", "a")})
    c = RegistryClosure(d)
    for m in c.explore(EVENTS[:3], ("t2",), depth=2):
        for k, v in EVENTS:
            assert c.contains(apply_upsert(m, k, v))


def ref_compose(c: RegistryClosure, s: RegistryState, events=()) -> list[RegistryState]:
    """compose as it was: one exploration step from the base over the pooled
    events, every member built, then those not sharing s's history dropped."""
    taken = s.domain | c.base.domain
    tids = [t for t in (f"aux{i}" for i in range(len(taken) + 2)) if t not in taken][:2]
    pool = set(c.base.history) | set(s.history) | set(events)
    out = []
    for m in c.explore(sorted(pool, key=repr), tids, 1):
        if m.history is s.history and (comp := s.star(m)) is not None:
            out.append(comp)
    return out


def test_compose_builds_only_what_the_exploration_kept():
    rng = random.Random(61)
    # thread ids named like compose's fresh ones, so that the two it picks
    # can sort apart from the order they are made in (aux10 before aux9)
    tids = ("t1", "t2") + tuple(f"aux{i}" for i in range(10))
    seen = {"same": 0, "one event on": 0, "unrelated": 0}
    nonempty = dict.fromkeys(seen, 0)
    apart = 0
    for _ in range(600):
        base = random_valid_state(rng, tids=rng.sample(tids, rng.randrange(len(tids) + 1)))
        h = tuple(base.history)
        relation = rng.choice(tuple(seen))
        if relation == "one event on":
            h = (rng.choice(EVENTS),) + h
        elif relation == "unrelated":
            h = random_history(rng, 4)
            relation = "same" if h == tuple(base.history) else relation
            if len(h) == len(base.history) + 1 and h[1:] == tuple(base.history):
                relation = "one event on"
        s = random_valid_state(rng, h, tids=rng.sample(tids, rng.randrange(4)))
        events = rng.sample(EVENTS + (("k3", "c"),), rng.randrange(4))
        got = RegistryClosure(base).compose(s, events)
        ref = ref_compose(RegistryClosure(base), s, events)
        assert got == ref and [repr(x) for x in got] == [repr(x) for x in ref]
        seen[relation] += 1
        nonempty[relation] += bool(got)
        taken = s.domain | base.domain
        fresh = [t for t in (f"aux{i}" for i in range(12)) if t not in taken][:2]
        apart += relation == "same" and fresh == ["aux9", "aux10"]
    assert min(seen.values()) > 100 and nonempty["same"] > 100 and nonempty["one event on"] > 100
    assert nonempty["unrelated"] == 0 and apart > 0


def test_contextualization_example_memberships():
    # footprint (h, empty), context (h, R): the closure admits both the context
    # itself and its image under the update, and the updated footprint is exact
    h = (("k2", "b"),)
    r = {"t1": Status(OBL, h, "k1", "a")}
    a = RegistryState.of(h)
    d = RegistryState.of(h, r)
    a_prime = core_update_upsert(a, "k1", "a")
    assert a_prime == RegistryState.of((("k1", "a"), ("k2", "b")))
    c = RegistryClosure(d)
    flipped = RegistryState.of(
        a_prime.history, {"t1": Status(FUL, h, "k1", "a")}
    )
    assert c.contains(flipped)
    assert c.contains(d)
    # an exact context {d} would miss the successor the update produces
    assert flipped != d
    assert star(a_prime, flipped) == ghost_mult(a_prime, d)


# ---------------------------------------------------------------- suffixes and JSON


def test_is_suffix_examples():
    h = H((("k1", "a"), ("k2", "b")))
    assert is_suffix(H(()), h)
    assert is_suffix(H((("k2", "b"),)), h)
    assert is_suffix(h, h)
    assert not is_suffix(H((("k1", "a"),)), h)


def test_state_json_round_trip():
    rng = random.Random(43)
    for _ in range(20):
        s = random_valid_state(rng)
        assert state_from_json(state_to_json(s)) == s


def test_state_json_rejects_garbage():
    with pytest.raises(InputError):
        state_from_json({"registry": {}})
    with pytest.raises(InputError):
        state_from_json({"history": [["k1"]]})
    with pytest.raises(InputError):
        state_from_json({"history": [], "registry": {"t1": {"snapshot": []}}})


# ---------------------------------------------------------------- histories against plain tuples


def ref_m_of(h: tuple, key):
    for k, v in h:
        if k == key:
            return v
    return TOMBSTONE


def ref_latest(h: tuple, key, value) -> int:
    for i, event in enumerate(h):
        if event == (key, value):
            return len(h) - i
    return 0 if value == TOMBSTONE else -1


def ref_is_suffix(older: tuple, h: tuple) -> bool:
    return len(older) <= len(h) and h[len(h) - len(older):] == older


def ref_witness_suffix(h: tuple, key, value) -> tuple | None:
    n = ref_latest(h, key, value)
    return None if n < 0 else h[len(h) - n:]


def ref_valid_status(h: tuple, s: Status) -> bool:
    if s.tag == SLT:
        return True
    snapshot = tuple(s.snapshot)
    if not ref_is_suffix(snapshot, h):
        return False
    return (s.tag == OBL) == (ref_latest(h, s.key, s.value) < len(snapshot))


GRID = tuple((k, v) for k in ("k1", "k2", "k3") for v in ("a", "b", TOMBSTONE))
EVENT_LISTS = st.lists(st.sampled_from(GRID), max_size=40)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(EVENT_LISTS, EVENT_LISTS, st.data())
def test_histories_agree_with_plain_tuples(events, other, data):
    events, other = tuple(events), tuple(other)
    h = History.of(events)
    # one object however the sequence is built, printed as the tuple
    chain = RegistryState.of(())
    for k, v in reversed(events):
        chain = apply_upsert(chain, k, v)
    as_json = [list(e) for e in events]
    assert chain.history is h
    assert state_from_json({"history": as_json}).history is h
    assert Status(SLT, events, "k1", "a").snapshot is h
    assert RegistryState(as_json, ()).history is h
    assert repr(h) == repr(events) and tuple(h) == events and len(h) == len(events)
    assert (History.of(other) == h) == (other == events)
    assert state_to_json(chain)["history"] == as_json
    for key in ("k1", "k2", "k3", "k9"):
        assert m_of(h, key) == ref_m_of(events, key)
    for key, value in GRID + (("k9", "a"),):
        assert latest(h, key, value) == ref_latest(events, key, value)
        w, ref = witness_suffix(h, key, value), ref_witness_suffix(events, key, value)
        assert (w is None) if ref is None else w is History.of(ref)
    # every suffix, one of the other list's suffixes, and the other list itself
    cut = data.draw(st.integers(0, len(other)))
    olders = [events[i:] for i in range(len(events) + 1)] + [other[cut:], other]
    for older in olders:
        assert is_suffix(History.of(older), h) == ref_is_suffix(older, events)
    for snapshot in data.draw(st.lists(st.sampled_from(olders), min_size=1, max_size=3)):
        for key, value in GRID:
            for tag in (OBL, FUL, SLT):
                s = Status(tag, snapshot, key, value)
                assert valid_status(h, s) == ref_valid_status(events, s)
                assert RegistryState.of(events, {"t": s}).is_valid() == ref_valid_status(events, s)


def test_long_histories_compare_by_identity():
    # equal histories are one object, so equality walks no cells: a history
    # of one event repeated 1,400 times differs from its tail at once
    h = History.of([("k1", "a")] * 1400)
    assert h == History.of([("k1", "a")] * 1400) and h != h.tail
    assert Status(SLT, h, "k1", "a") != Status(SLT, h.tail, "k1", "a")
    assert RegistryState.of(h) != RegistryState.of(h.tail)


def test_a_list_is_walked_again_after_a_change():
    events = [("k1", "a"), ("k2", "b")]
    assert tuple(History.of(events)) == (("k1", "a"), ("k2", "b"))
    events[0] = ("k3", "a")
    assert tuple(History.of(events)) == (("k3", "a"), ("k2", "b"))


def test_a_tuple_of_list_events_is_walked_again_after_a_change():
    first = ["k1", "a"]
    events = (first, ("k2", "b"))
    assert tuple(History.of(events)) == (("k1", "a"), ("k2", "b"))
    first[1] = "b"
    assert tuple(History.of(events)) == (("k1", "b"), ("k2", "b"))


def test_a_remembered_tuple_gives_the_cell_an_equal_tuple_builds():
    events = (("k1", "a"), ("k2", TOMBSTONE))
    h = History.of(events)
    assert History.of(events) is h
    assert History.of(tuple(list(events))) is h and History.of(list(events)) is h


def test_a_replaced_tuple_frees_its_history():
    h = History.of((("memo", 1), ("memo", 2)))
    gone = weakref.ref(h)
    del h
    History.of((("memo", 3),))
    gc.collect()
    assert gone() is None


# ---------------------------------------------------------------- constructors against the old way


def c11_pool(h: tuple, snapshots=None) -> list[Status]:
    # every valid status over the key/value grid, as acceptance criterion 11 builds it
    snaps = [h[i:] for i in range(len(h) + 1)] if snapshots is None else snapshots
    out = []
    for snap in snaps:
        for k, v in EVENTS:
            tag = OBL if latest(H(h), k, v) < len(snap) else FUL
            out.extend((Status(tag, snap, k, v), Status(SLT, snap, k, v)))
    return out


def ref_state(h, items) -> RegistryState:
    """A state built the way every state once was: events made tuples,
    entries sorted by str id, and the constructor's check."""
    return RegistryState(
        tuple(tuple(e) for e in h), tuple(sorted(items, key=lambda kv: str(kv[0])))
    )


def ref_flip(entries, key, value) -> list:
    return [
        (t, Status(FUL, s.snapshot, s.key, s.value) if s.tag == OBL and (s.key, s.value) == (key, value) else s)
        for t, s in entries
    ]


def ref_star(a: RegistryState, b: RegistryState) -> RegistryState | None:
    if a.history != b.history:
        return None
    merged = dict(a.entries)
    for tid, s in b.entries:
        other = merged.get(tid)
        if other is None:
            merged[tid] = s
        elif s.payload() != other.payload() or SLT not in (s.tag, other.tag):
            return None
        elif s.tag != SLT:
            merged[tid] = s
    return ref_state(a.history, merged.items())


def ref_ghost_mult(a: RegistryState, b: RegistryState) -> RegistryState | None:
    if a.history == b.history:
        long, short = a, list(b.entries)
    elif len(a.history) == len(b.history) + 1 and is_suffix(b.history, a.history):
        long, short = a, ref_flip(b.entries, *tuple(a.history)[0])
    elif len(b.history) == len(a.history) + 1 and is_suffix(a.history, b.history):
        long, short = b, ref_flip(a.entries, *tuple(b.history)[0])
    else:
        return None
    merged = dict(long.entries)
    for tid, s in short:
        if tid in merged:
            return None
        merged[tid] = s
    return ref_state(long.history, merged.items())


def ref_spawn(s: RegistryState, tid, key, value) -> RegistryState:
    h = s.history
    if m_of(h, key) == value:
        entry = Status(FUL, witness_suffix(h, key, value), key, value)
    else:
        entry = Status(OBL, h, key, value)
    return ref_state(h, list(s.entries) + [(tid, entry)])


def assert_same(out, ref) -> None:
    if ref is None:
        assert out is None or isinstance(out, StarFailure)
        return
    assert out == ref and hash(out) == hash(ref) and repr(out) == repr(ref)


def test_constructors_match_the_old_way():
    histories = [h for n in range(3) for h in itertools.product(EVENTS, repeat=n)]
    for h in histories:
        pool = c11_pool(h)
        ahead = [(e,) + h for e in EVENTS]
        lists = [list(e) for e in h]
        singles = [RegistryState.of(lists, {"A": s}) for s in pool]
        for s, a in zip(pool, singles):
            assert_same(a, ref_state(h, [("A", s)]))
        for i, (s1, a) in enumerate(zip(pool, singles)):
            # each status meets a quarter of the pool and one history of the
            # next, so every pair shape turns up without the full product
            for s2 in pool[i % 4 :: 4]:
                b, same_id = RegistryState.of(h, {"B": s2}), RegistryState.of(h, {"A": s2})
                assert_same(star(a, b), ref_star(a, b))
                assert_same(star(b, a), ref_star(b, a))
                assert_same(star(a, same_id), ref_star(a, same_id))
            for ext in ([h] + ahead)[i % 7 :: 7]:
                for s2 in c11_pool(ext, snapshots=[ext]):
                    b = RegistryState.of(ext, {"B": s2})
                    assert_same(ghost_mult(a, b), ref_ghost_mult(a, b))
                    assert_same(ghost_mult(b, a), ref_ghost_mult(b, a))
            # states of two and three threads, one per first status
            s2 = pool[(7 * i + 3) % len(pool)]
            pair = RegistryState.of(lists, {"C": s1, "A": s2})
            assert_same(pair, ref_state(h, [("C", s1), ("A", s2)]))
            b = RegistryState.of(h, {"B": s2})
            assert_same(star(pair, b), ref_star(pair, b))
            assert_same(ghost_mult(pair, b), ref_ghost_mult(pair, b))
            k, v = EVENTS[i % len(EVENTS)]
            assert_same(apply_upsert(pair, k, v), ref_state(((k, v),) + h, ref_flip(pair.entries, k, v)))
            for tid in ("0", "B", "Z"):
                assert_same(spawn_search(pair, tid, k, v), ref_spawn(pair, tid, k, v))
            for later in ahead:
                assert_same(
                    transported(pair, H(later)), ref_state(later, ref_flip(pair.entries, *later[0]))
                )
            for d1 in ((), ("A",), ("C",), ("A", "C")):
                d2 = {"A", "C"} - set(d1)
                left, right = unique_decompose(pair, d1, d2)
                assert_same(left, ref_state(h, [e for e in pair.entries if e[0] in d1]))
                assert_same(right, ref_state(h, [e for e in pair.entries if e[0] in d2]))


def test_ids_equal_as_strings_are_an_input_error(tmp_path):
    s = Status(SLT, (), "k1", "a")
    with pytest.raises(InputError):
        RegistryState.of((), {1: s, "1": s})
    one, other = RegistryState.of((), {1: s}), RegistryState.of((), {"1": s})
    with pytest.raises(InputError):
        star(one, other)
    with pytest.raises(InputError):
        ghost_mult(one, other)
    with pytest.raises(InputError):
        spawn_search(one, "1", "k1", "a")
    scenario = {
        "algebra": "registry",
        "init": {"history": []},
        "steps": [{"command": {"spawn": [1, "k1", "a"]}}, {"command": {"spawn": ["1", "k1", "a"]}}],
    }
    path = tmp_path / "spawn.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", str(path)]) == 2


def test_history_of_any_event_sequence_is_the_consed_cell():
    # History.of walks a tuple or list in place and turns other events and
    # sequences into tuples; each form ends at the one cell apply_upsert conses
    events = (("k1", "a"), ("k2", None), ("k1", "b"))
    chain = RegistryState.of(())
    for k, v in reversed(events):
        chain = apply_upsert(chain, k, v)
    forms = [
        events,
        list(events),
        (e for e in events),
        [list(e) for e in events],
        tuple(list(e) for e in events),
        iter([iter(e) for e in events]),
    ]
    for form in forms:
        assert History.of(form) is chain.history
    assert History.of([]) is History.of(()) is RegistryState.of(()).history


# thread ids with the str collision (1 and "1") and an id equal to another
# with a different str form (1.0 == 1), beside plain ones
COMPOSE_IDS = ("A", "B", "C", 1, "1", 1.0)


def _drawn_state(data, history: tuple):
    """A state over history with up to three entries drawn by hypothesis, or
    InputError where its ids collide; entries need not be valid."""
    snapshots = [history[i:] for i in range(len(history) + 1)]
    statuses = st.builds(
        Status,
        st.sampled_from((OBL, FUL, SLT)),
        st.sampled_from(snapshots),
        st.sampled_from(KEYS),
        st.sampled_from(VALUES),
    )
    registry = data.draw(st.dictionaries(st.sampled_from(COMPOSE_IDS), statuses, max_size=3))
    return _outcome(RegistryState.of, history, registry)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError:
        return InputError


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_star_and_ghost_mult_agree_with_a_reference_merge(data):
    # small registries, shared ids with settled entries among them (absorbed
    # or not), colliding ids, and histories equal, one event apart or neither;
    # a spawn's fresh id may collide with a registered one too
    h = tuple(data.draw(st.lists(st.sampled_from(EVENTS), max_size=2)))
    a = _drawn_state(data, h)
    same = _drawn_state(data, h)
    other = data.draw(st.sampled_from([(e,) + h for e in EVENTS] + [h[1:], (("k9", "a"),)]))
    near = _drawn_state(data, other)
    tid, key, value = (data.draw(st.sampled_from(pool)) for pool in (COMPOSE_IDS, KEYS, VALUES))
    calls = [(spawn_search, ref_spawn, (a, tid, key, value))] if a is not InputError else []
    for b in (same, near):
        if InputError not in (a, b):
            calls += [(star, ref_star, (x, y)) for x, y in ((a, b), (b, a))]
            calls += [(ghost_mult, ref_ghost_mult, (x, y)) for x, y in ((a, b), (b, a))]
    for fn, ref, args in calls:
        out, want = _outcome(fn, *args), _outcome(ref, *args)
        if want is InputError:
            assert out is InputError
        else:
            assert_same(out, want)


def _frozen_values() -> dict:
    # a value of each immutable class, the fields a frozen dataclass of it
    # would hash, and the attributes it builds on first use
    h = (("k1", "a"), ("k2", None))
    status = Status(OBL, h, "k1", "b")
    state = RegistryState.of(h, {"t1": status, "t2": Status(SLT, (), "k2", "a")})
    # a history longer than the recursion limit, which copies walk link by link
    long = [(f"k{i % 50}", f"v{i}") for i in range(1400)]
    long_state = RegistryState.of(long, {"t1": Status(FUL, long[700:], "k1", "v700")})
    u = AtomUniverse.from_endpoints([1, 5])
    graph = make_graph(u, [0, 1], {(0, 1): 3}, {(9, 0): TOP_TAG})
    graph_fields = ("universe", "nodes", "edges", "inflow")
    graph_lazy = ("_hash", "node_set", "edge_map", "inflow_map", "flow")
    heap = Heap.of(0, {0: NodeFields(key=NEG_INF, right=1), 1: NodeFields(key=5)})
    return {
        "AtomUniverse": (u, ("finite_endpoints",), ()),
        "FlowGraph": (graph, graph_fields, graph_lazy),
        # built through FlowGraph._make, which checks nothing; a copy does
        "FlowGraphMade": (restrict(graph, [1]), graph_fields, graph_lazy),
        "Heap": (heap, ("root", "entries"), ("_hash", "nodes")),
        "NodeFields": (
            heap.nodes[0],
            ("key", "left", "right", "deleted", "dup"),
            (),
        ),
        "History": (long_state.history, ("head", "tail"), ("_stamps", "_current", "_suffixes")),
        "LongRegistryState": (long_state, ("history", "entries"), ("_hash", "registry", "domain")),
        "RegistryState": (state, ("history", "entries"), ("_hash", "registry", "domain")),
        "Status": (status, ("tag", "snapshot", "key", "value"), ()),
    }


@pytest.mark.parametrize(
    "name",
    [
        "AtomUniverse",
        "FlowGraph",
        "FlowGraphMade",
        "Heap",
        "History",
        "LongRegistryState",
        "NodeFields",
        "RegistryState",
        "Status",
    ],
)
def test_copies_and_pickles_hash_afresh(name):
    value, fields, lazy = _frozen_values()[name]
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
    for attr in lazy:
        getattr(value, attr)  # fill the caches a copy must not carry
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        # an interned history comes back as itself, caches and all
        if isinstance(value, History):
            assert copied is value
        else:
            assert copied is not value
            assert not set(lazy) & set(getattr(copied, "__dict__", ()))
        assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)
    # str hashes differ between processes: a carried hash would not match
    check = (
        "import pickle, sys; v, fields = pickle.loads(sys.stdin.buffer.read()); "
        "assert hash(v) == hash(tuple(getattr(v, f) for f in fields))"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c", check], input=pickle.dumps((value, fields)), env=env, check=True
        )
