"""Linearizability ghost state: upsert histories, per-thread status registries,
validity, ghost multiplication, and the upward-closure membership test."""

from __future__ import annotations

import weakref
from functools import partial
from typing import Any, Iterable, Iterator

from .errors import InputError, InternalInvariantError
from .flowgraph import StarFailure
from .frozen import Frozen, cached

TOMBSTONE = None

ThreadId = Any

# the JSON values that may stand for keys, values and thread ids: the hashable ones
SCALARS = (str, int, float, bool, type(None))

OBL = "OBL"
FUL = "FUL"
SLT = "SLT"


class History(Frozen):
    """An upsert history, newest event first: a (key, value) event consed
    onto an older history, or the empty history, whose fields are None.

    Cells are hash-consed (Ershov 1958; Filliatre and Conchon 2006): each
    history keeps a weak table of the cells built on it, so equal event
    sequences are one object while they live and equality is identity. A
    cell's length and hash are built once, from its tail's; its timestamp,
    current-value and suffix indexes, and its repr, on first use. The
    tables take no lock: build histories on one thread. History.of turns
    pairs into a history.
    """

    __slots__ = ("head", "tail", "_len", "_hash", "_kids", "__weakref__", "__dict__")
    _interned = True

    head: tuple[Any, Any] | None
    tail: History | None

    def __new__(cls, head: tuple[Any, Any] | None, tail: History | None) -> History:
        return EMPTY_HISTORY if tail is None else _cons(head, tail)

    @classmethod
    def of(cls, events: Iterable) -> History:
        """The history of events given newest first, as pairs (JSON gives lists)."""
        if isinstance(events, History):
            return events
        h = EMPTY_HISTORY
        # a tuple or list is walked in place and a tuple event kept; the
        # lookup is _cons's, inline, so a cell already built costs no call
        for e in reversed(events if events.__class__ in (tuple, list) else tuple(events)):
            e = e if e.__class__ is tuple else tuple(e)
            if (ref := h._kids.get(e)) is None or (cell := ref()) is None:
                cell = _cons(e, h)
            h = cell
        return h

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        h = self
        while h._len:
            yield h.head
            h = h.tail

    def __repr__(self) -> str:
        return self._repr

    @cached
    def _repr(self) -> str:
        """The tuple form's repr; states are sorted and compared by repr."""
        return repr(tuple(self))

    # the indexes fill their dicts oldest event first, so the newest one wins

    @cached
    def _stamps(self) -> dict[tuple[Any, Any], int]:
        """Each event's newest timestamp, counted from the oldest end."""
        return dict(zip(reversed(tuple(self)), range(1, self._len + 1)))

    @cached
    def _current(self) -> dict[Any, Any]:
        """Each upserted key's newest value."""
        return dict(reversed(tuple(self)))

    @cached
    def _suffixes(self) -> list[History]:
        """The proper suffixes, indexed by length; self is not among them, so
        no cell refers to itself and each is freed when its last user goes."""
        out = []
        h = self
        while h._len:
            h = h.tail
            out.append(h)
        out.reverse()
        return out


def _forget(kids: dict, event: tuple[Any, Any], ref: weakref.ref) -> None:
    if kids.get(event) is ref:
        del kids[event]


def _cell(head: tuple[Any, Any] | None, tail: History | None, length: int) -> History:
    cell = History._make(head, tail)
    History._len.__set__(cell, length)
    History._kids.__set__(cell, {})
    return cell


def _cons(event: tuple[Any, Any], tail: History) -> History:
    """The interned history event :: tail."""
    kids = tail._kids
    ref = kids.get(event)
    if ref is not None and (cell := ref()) is not None:
        return cell
    cell = _cell(event, tail, tail._len + 1)
    kids[event] = weakref.ref(cell, partial(_forget, kids, event))
    return cell


EMPTY_HISTORY = _cell(None, None, 0)


def _suffix(h: History, n: int) -> History:
    """The suffix of h of length n, for 0 <= n <= len(h)."""
    return h if n == h._len else h._suffixes[n]


def m_of(h: History, key: Any) -> Any:
    """Newest upserted value for key; tombstone when none (events newest first)."""
    return h._current.get(key, TOMBSTONE)


def latest(h: History, key: Any, value: Any) -> int:
    """Timestamp of the newest matching event, counted from the oldest end;
    0 stands for the tombstone baseline and -1 for no match at all."""
    stamp = h._stamps.get((key, value))
    if stamp is not None:
        return stamp
    return 0 if value == TOMBSTONE else -1


def is_suffix(older: History, h: History) -> bool:
    n = older._len
    return older is h or n < h._len and h._suffixes[n] is older


class Status(Frozen):
    """One thread's registry entry: tag plus the (snapshot, key, value) payload.

    The snapshot may be given as a sequence of pairs. Its hash is computed
    once, when it is built (_make does it for the _hash slot).
    """

    __slots__ = ("tag", "snapshot", "key", "value", "_hash")

    tag: str
    snapshot: History
    key: Any
    value: Any

    def __new__(cls, tag: str, snapshot: History, key: Any, value: Any) -> "Status":
        if tag not in (OBL, FUL, SLT):
            raise InputError(f"bad status tag: {tag!r}")
        return cls._make(tag, History.of(snapshot), key, value)

    def payload(self) -> tuple[History, Any, Any]:
        return (self.snapshot, self.key, self.value)


def valid_status(h: History, s: Status) -> bool:
    """Settled entries are always valid; others need a snapshot suffix and the
    obligation tag to track whether the matching event is still missing."""
    if s.tag == SLT:
        return True
    if not is_suffix(s.snapshot, h):
        return False
    return (s.tag == OBL) == (latest(h, s.key, s.value) < s.snapshot._len)


class RegistryState(Frozen):
    """A shared history with a finite thread registry; entries sorted by id.

    Ids are distinct, and sorted and kept distinct by their str form too, so
    thread ids 1 and "1" collide. Its hash is computed on first use.
    RegistryState(...) takes the history as pairs and checks the ids; the
    algebra's operations build through _make, which checks nothing, from a
    History and entries in that order, and sort only when they merge two
    non-empty registries.
    """

    history: History
    entries: tuple[tuple[ThreadId, Status], ...]

    def __new__(cls, history: History, entries: tuple[tuple[ThreadId, Status], ...]) -> "RegistryState":
        ids = [str(t) for t, _ in entries]
        if ids != sorted(set(ids)) or len({t for t, _ in entries}) != len(entries):
            raise InputError("registry entries must be sorted and distinct")
        return cls._make(History.of(history), entries)

    @classmethod
    def of(cls, history: Iterable, registry: dict[ThreadId, Status] | None = None) -> "RegistryState":
        """The public constructor: events may be any pairs (JSON gives lists)
        and the registry a dict in any order."""
        entries = tuple(registry.items()) if registry else ()
        if len(entries) > 1:
            entries = _by_id(entries)
        return cls._make(History.of(history), entries)

    @cached
    def registry(self) -> dict[ThreadId, Status]:
        return dict(self.entries)

    def is_valid(self) -> bool:
        h = self.history
        for _, s in self.entries:
            if s.tag != SLT and not valid_status(h, s):
                return False
        return True

    # ------------------------------------------------------------- separation algebra

    @cached
    def domain(self) -> frozenset[ThreadId]:
        """The registered thread ids; decompositions split along them."""
        return frozenset(self.registry)

    def star(self, other: "RegistryState") -> "RegistryState | None":
        """Star composition; None when it is undefined."""
        out = star(self, other)
        return None if isinstance(out, StarFailure) else out

    def decompose(
        self, dom1: Iterable[ThreadId], dom2: Iterable[ThreadId]
    ) -> tuple["RegistryState", "RegistryState"]:
        return unique_decompose(self, dom1, dom2)

    def closure(self, region: Any, est: Any) -> "RegistryClosure":
        """The upward closure; a region and an estimator play no part in it."""
        return RegistryClosure(self)

    def approx_update(self, core: Any, est: Any) -> "RegistryState | None":
        """Ghost updates are exact: the core update itself, None signalling Top."""
        return core(self)


def _str_id(entry: tuple[ThreadId, Status]) -> str:
    return str(entry[0])


def _by_id(entries: Iterable[tuple[ThreadId, Status]]) -> tuple[tuple[ThreadId, Status], ...]:
    """Entries in str-id order; two ids with one str form (1 and "1") collide."""
    out = tuple(sorted(entries, key=_str_id))
    if len({str(t) for t, _ in out}) != len(out):
        raise InputError("registry entries must be sorted and distinct")
    return out


def _merged(e1: tuple, e2: tuple) -> tuple[tuple[ThreadId, Status], ...] | None:
    """The entries of two non-empty id-sorted registries in id order when one
    side's ids all come first and no id is in both; None otherwise. Ids apart
    in str order may still be equal (1 and 1.0), so they are compared too."""
    if str(e1[-1][0]) < str(e2[0][0]):
        out = e1 + e2
    elif str(e2[-1][0]) < str(e1[0][0]):
        out = e2 + e1
    else:
        return None
    distinct = out[0][0] != out[1][0] if len(out) == 2 else len(dict(out)) == len(out)
    return out if distinct else None


def _flip(entries: tuple[tuple[ThreadId, Status], ...], key: Any, value: Any):
    """Reestablish validity after the event (key, value): matching obligations
    settle; the entries keep their order, and are given back when none flips."""
    out = None
    for i, (tid, s) in enumerate(entries):
        if s.tag == OBL and s.key == key and s.value == value:
            out = out or list(entries)
            out[i] = (tid, Status._make(FUL, s.snapshot, s.key, s.value))
    return entries if out is None else tuple(out)


def star(a: RegistryState, b: RegistryState) -> RegistryState | StarFailure:
    """Composition: equal histories, registries merged with settled entries as
    per-payload units."""
    if a.history is not b.history:
        return StarFailure("history-mismatch")
    e1, e2 = a.entries, b.entries
    if not e1 or not e2:
        return RegistryState._make(a.history, e1 or e2)
    if (apart := _merged(e1, e2)) is not None:
        return RegistryState._make(a.history, apart)
    merged = dict(e1)
    for tid, s in e2:
        if tid not in merged:
            merged[tid] = s
            continue
        other = merged[tid]
        if s.tag == SLT and s.payload() == other.payload():
            continue
        if other.tag == SLT and s.payload() == other.payload():
            merged[tid] = s
            continue
        return StarFailure("registry-overlap", tid)
    return RegistryState._make(a.history, _by_id(merged.items()))


def ghost_mult(a: RegistryState, b: RegistryState) -> RegistryState | None:
    """Merge across at most one event of history extension; the shorter side's
    matching obligations flip to fulfilled. None when undefined."""
    if a.history is b.history:
        long_side, short_entries = a, b.entries
    elif a.history.tail is b.history:
        long_side, short_entries = a, _flip(b.entries, *a.history.head)
    elif b.history.tail is a.history:
        long_side, short_entries = b, _flip(a.entries, *b.history.head)
    else:
        return None
    long_entries = long_side.entries
    if not long_entries or not short_entries:
        return RegistryState._make(long_side.history, long_entries or short_entries)
    merged = _merged(long_entries, short_entries)
    if merged is None:
        registered = long_side.registry
        for tid, _ in short_entries:
            if tid in registered:
                return None
        merged = _by_id(long_entries + short_entries)
    return RegistryState._make(long_side.history, merged)


def transported(s: RegistryState, history: History) -> RegistryState | None:
    """The curried ghost transformer: s carried to a history at most one event
    ahead, with the induced flips; None when out of reach."""
    if s.history is history:
        return s
    if history.tail is s.history:
        return RegistryState._make(history, _flip(s.entries, *history.head))
    return None


def unique_decompose(
    c: RegistryState, dom1: Iterable[ThreadId], dom2: Iterable[ThreadId]
) -> tuple[RegistryState, RegistryState]:
    """Split the registry along a thread-id partition; the parts star back to c."""
    d1, d2 = set(dom1), set(dom2)
    if d1 & d2 or d1 | d2 != c.domain:
        raise InputError("thread ids must partition the registry")
    if not d1 or not d2:
        empty = RegistryState._make(c.history, ())
        return (empty, c) if d2 else (c, empty)
    r1 = tuple(e for e in c.entries if e[0] in d1)
    r2 = tuple(e for e in c.entries if e[0] in d2)
    return RegistryState._make(c.history, r1), RegistryState._make(c.history, r2)


def core_update_upsert(a: RegistryState, key: Any, value: Any) -> RegistryState:
    """The core update of an upsert: prepend the event to a registry-free state."""
    if a.entries:
        raise InputError("core update needs an empty registry")
    return RegistryState._make(_cons((key, value), a.history), ())


def apply_upsert(s: RegistryState, key: Any, value: Any) -> RegistryState:
    """Full upsert semantics: extend the history and settle matching obligations."""
    return RegistryState._make(_cons((key, value), s.history), _flip(s.entries, key, value))


def witness_suffix(h: History, key: Any, value: Any) -> History | None:
    """Suffix of h headed by the newest matching event; empty for the tombstone
    baseline; None when the value was never current."""
    n = latest(h, key, value)
    return None if n < 0 else _suffix(h, n)


def spawn_search(s: RegistryState, tid: ThreadId, key: Any, value: Any) -> RegistryState:
    """Register a fresh search thread: fulfilled when the value is current,
    an obligation otherwise."""
    if tid in s.registry:
        raise InputError(f"thread id {tid!r} already registered")
    if m_of(s.history, key) == value:
        snapshot = witness_suffix(s.history, key, value)
        entry = Status(FUL, snapshot, key, value)
    else:
        entry = Status(OBL, s.history, key, value)
    if not valid_status(s.history, entry):
        raise InternalInvariantError("spawned entry is not valid")
    fresh = ((tid, entry),)
    merged = _merged(s.entries, fresh) if s.entries else fresh
    return RegistryState._make(s.history, merged or _by_id(s.entries + fresh))


# ---------------------------------------------------------------- upward closure


class RegistryClosure(Frozen):
    """States reachable from a base by search spawns and upsert ghost updates.

    Membership is decided directly against that shape: the candidate's history
    must extend the base's, carried entries must flip exactly as the extension
    dictates, and every fresh entry must be spawnable at some point along it.
    """

    base: RegistryState

    def contains(self, s: RegistryState) -> bool:
        base = self.base
        if not is_suffix(base.history, s.history):
            return False
        # an event of the extension has timestamp above the base's length
        start = base.history._len
        candidate = s.registry
        for tid, st in base.entries:
            got = candidate.get(tid)
            # a carried obligation settles when the extension holds its event
            settled = st.tag == OBL and latest(s.history, st.key, st.value) > start
            if got is None or got.tag != (FUL if settled else st.tag) or got.payload() != st.payload():
                return False
        for tid, st in s.entries:
            if tid in base.registry:
                continue
            if not self._spawnable(st, s.history):
                return False
        return True

    def _spawnable(self, st: Status, now: History) -> bool:
        """st was spawned at some history between the base's and now."""
        if st.tag == SLT:
            return False
        for n in range(self.base.history._len, now._len + 1):
            h = _suffix(now, n)
            if m_of(h, st.key) == st.value:
                if st.tag == FUL and st.snapshot is witness_suffix(h, st.key, st.value):
                    return True
            else:
                flips = latest(now, st.key, st.value) > n
                tag = FUL if flips else OBL
                if st.tag == tag and st.snapshot is h:
                    return True
        return False

    def explore(
        self,
        events: Iterable[tuple[Any, Any]],
        tids: Iterable[ThreadId],
        depth: int,
    ) -> list[RegistryState]:
        """Enumerate members reachable within a ghost-update budget."""
        events = sorted(events, key=repr)
        tids = sorted(tids, key=str)
        seen = {self.base}
        frontier = [self.base]
        order = [self.base]
        for _ in range(depth):
            nxt = []
            for state in frontier:
                steps = [apply_upsert(state, k, v) for k, v in events]
                for tid in tids:
                    if tid in state.registry:
                        continue
                    steps.extend(spawn_search(state, tid, k, v) for k, v in events)
                for out in steps:
                    if out not in seen:
                        seen.add(out)
                        order.append(out)
                        nxt.append(out)
            frontier = nxt
        return order

    # ------------------------------------------------------------- as a context

    def compose(
        self, s: RegistryState, events: Iterable[tuple[Any, Any]] = ()
    ) -> list[RegistryState]:
        """s starred with the members of explore(pool, tids, 1) that share its
        history, for the pooled events and two fresh thread ids, in that order:
        the base and its spawns, or the base carried one event on to s's
        history (None when out of reach). Only those members are built; they
        grow linearly with the pool, so the sample takes no cap."""
        if not isinstance(s, RegistryState):
            raise InputError("registry closure composed with a non-registry state")
        base = self.base
        members = [transported(base, s.history)]
        if members[0] is base:
            taken = s.domain | base.domain
            tids = [t for t in (f"aux{i}" for i in range(len(taken) + 2)) if t not in taken][:2]
            pool = sorted(set(s.history) | set(events), key=repr)
            members += [spawn_search(base, t, k, v) for t in sorted(tids, key=str) for k, v in pool]
        return [comp for m in members if m is not None and (comp := s.star(m)) is not None]

    def splits(self, u: RegistryState, post: Any) -> bool:
        """u is some state of the finite predicate post starred with a member."""
        for sb in post.state_set:
            dom = sb.domain
            if not dom <= u.domain:
                continue
            uf, uc = u.decompose(dom, u.domain - dom)
            if uf == sb and self.contains(uc):
                return True
        return False

    def stable_under(self, t: RegistryState) -> bool:
        """Ghost updates never move the context's closure."""
        return True

    def reclose(self, t: RegistryState, est: Any) -> None:
        """None: an updated registry footprint stays exact."""
        return None

    def inside(self, states: frozenset) -> bool:
        """False: an upward closure outgrows every finite set."""
        return False


# ---------------------------------------------------------------- JSON


def _event_from_json(raw: Any) -> tuple[Any, Any]:
    if not (
        isinstance(raw, (list, tuple))
        and len(raw) == 2
        and all(isinstance(x, SCALARS) for x in raw)
    ):
        raise InputError(f"bad history event: {raw!r}")
    return (raw[0], raw[1])


def _events_from_json(raw: Any, what: str) -> History:
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list of events: {raw!r}")
    return History.of([_event_from_json(e) for e in raw])


def state_from_json(raw: Any) -> RegistryState:
    """Decode {"history": [[k,v],...] newest first, "registry": {tid: entry}}."""
    if not isinstance(raw, dict) or "history" not in raw:
        raise InputError("registry state needs a history")
    history = _events_from_json(raw["history"], "history")
    entries = raw.get("registry", {})
    if not isinstance(entries, dict):
        raise InputError(f"registry must be an object of thread entries: {entries!r}")
    registry: dict[ThreadId, Status] = {}
    for tid, entry in entries.items():
        if (
            not isinstance(entry, dict)
            or "tag" not in entry
            or not isinstance(entry.get("key"), SCALARS)
            or not isinstance(entry.get("value"), SCALARS)
        ):
            raise InputError(f"bad registry entry for {tid!r}")
        registry[tid] = Status(
            tag=entry["tag"],
            snapshot=_events_from_json(entry.get("snapshot", []), "snapshot"),
            key=entry.get("key"),
            value=entry.get("value"),
        )
    return RegistryState.of(history, registry)


def state_to_json(s: RegistryState) -> dict[str, Any]:
    return {
        "history": [list(e) for e in s.history],
        "registry": {
            str(tid): {
                "tag": st.tag,
                "snapshot": [list(e) for e in st.snapshot],
                "key": st.key,
                "value": st.value,
            }
            for tid, st in s.entries
        },
    }
