"""Per-layer tracing from outside the program: wrap the public functions of
flowcheck's eight modules and record spans, counts and self time.

Each wrapped function is rebound in every flowcheck module namespace that
holds it, so calls through `from .flowgraph import compute_flow` are seen
too; the listed class methods are patched on their class. Private helpers
and generator functions are not wrapped, so their time counts as their
caller's self time. The one exception is the oracle's naive twin
`_naive_flow_raw`, which every twin solve goes through: it is traced under
the name `oracle.naive_flow`, and its one-line public adapter is not.

Spans of `keyspace` and `registry` functions are not kept. Both are leaf
layers (they call no other traced layer) whose functions run hundreds of
thousands of times a round, so they are folded into per-function counts and
self time and memory stays bounded. Every other call keeps a span (id, name,
start, end, parent id, request id) in memory until `write_spans`.

A repeat is a call whose arguments, defaults filled in, equal those of an
earlier call of the same function in the same request.

Self time of a call is its duration minus the time its child calls cover.
Children on the same thread run one after another, so their durations add
up; children that the fuzz pool runs on worker threads are attributed to the
main thread's innermost open call and covered as the union of their
intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable

MODULES = ("keyspace", "flowgraph", "estimator", "bst", "registry", "casl", "oracle", "cli")
AGGREGATED = frozenset({"keyspace", "registry"})
METHODS = {
    ("estimator", "ClosureFamily"): {"contains": "closure_contains", "materialize": "materialize"},
    ("registry", "RegistryState"): {"is_valid": "is_valid"},
    ("registry", "RegistryClosure"): {"contains": "closure_contains", "explore": "closure_explore"},
}
PRIVATE = {("oracle", "_naive_flow_raw"): "naive_flow"}
SKIPPED = {("oracle", "naive_flow")}
REPEATS = ("flowgraph.compute_flow", "estimator.ctx_estimate")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "repeats")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.repeats = 0


class Tracer:
    """Wraps flowcheck in place; one instance per interpreter."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.stats: list[_Stat] = []
        self.spans: list[tuple] = []
        self.request_id = -1
        self.ctx_solves = 0
        self.members = 0
        self.instances = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._seen: dict[int, set] = {}
        self._ctx_idx = -1

    # ------------------------------------------------------------ install

    def install(self) -> None:
        mods = {m: importlib.import_module(f"flowcheck.{m}") for m in MODULES}
        wrapped: dict[int, Callable] = {}
        for mod_name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj) or (mod_name, attr) in SKIPPED:
                    continue
                if attr.startswith("_"):
                    if (mod_name, attr) not in PRIVATE:
                        continue
                    attr = PRIVATE[(mod_name, attr)]
                wrapped[id(obj)] = self._wrap(obj, f"{mod_name}.{attr}", mod_name)
        for mod in list(mods.values()) + [importlib.import_module("flowcheck")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(mods[mod_name], cls_name)
            for attr, short in methods.items():
                setattr(cls, attr, self._wrap(getattr(cls, attr), f"{mod_name}.{short}", mod_name))
        self._ctx_idx = self.names.index("estimator.ctx_estimate")

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
            self._local.active = {}
        return stack

    def _wrap(self, fn: Callable, name: str, module: str) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        stat = _Stat()
        self.stats.append(stat)
        keep_span = module not in AGGREGATED
        signature = inspect.signature(fn) if name in REPEATS else None
        counts_solve = name == "flowgraph.compute_flow"
        post = {
            "estimator.materialize": self._count_members,
            "oracle.check_theorem": self._count_instances,
            "oracle.flow_equivalence": self._count_instances,
        }.get(name)
        clock = time.perf_counter
        ids = self._ids
        spans = self.spans
        local = self._local
        main_stack = self._main_stack
        seen = self._seen

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            active = local.active
            if stack:
                parent = stack[-1]
                cross = False
            else:
                # a fuzz-pool thread: its caller is the main thread's open call
                parent = main_stack[-1] if main_stack and stack is not main_stack else None
                cross = parent is not None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
                bucket = seen.setdefault(idx, set())
                if key in bucket:
                    stat.repeats += 1
                else:
                    bucket.add(key)
            if counts_solve and active.get(self._ctx_idx, 0):
                self.ctx_solves += 1
            depth = active.get(idx, 0)
            active[idx] = depth + 1
            sid = next(ids) if keep_span else -1
            frame = [sid, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[idx] = depth
                dur = end - start
                covered = frame[1]
                if frame[2]:
                    covered += _union_length(frame[2])
                stat.calls += 1
                stat.self_s += max(0.0, dur - covered)
                if not depth:
                    stat.total_s += dur
                if parent is not None:
                    if cross:
                        if parent[2] is None:
                            parent[2] = []
                        parent[2].append((start, end))
                    else:
                        parent[1] += dur
                if keep_span:
                    psid = parent[0] if parent is not None else -1
                    spans.append((sid, idx, start, end, psid, self.request_id))
            if post is not None:
                post(result)
            return result

        return wrapper

    def _count_members(self, result: Any) -> None:
        self.members += len(result)

    def _count_instances(self, result: Any) -> None:
        self.instances += result.checked

    # ------------------------------------------------------------ requests

    def begin_request(self, request_id: int) -> None:
        """Start a request: repeats are counted within one request only."""
        self.request_id = request_id
        self._seen.clear()

    # ------------------------------------------------------------ output

    def metrics(self) -> dict[str, float]:
        """Per-function and per-module aggregates, named `<module>.<function>.<kind>`."""
        out: dict[str, float] = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = 0.0
        for name, stat in zip(self.names, self.stats):
            mod = name.split(".", 1)[0]
            out[f"{mod}.self_s"] += stat.self_s
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.total_s"] = stat.total_s
            if name in REPEATS:
                out[f"{name}.repeat_ratio"] = stat.repeats / stat.calls if stat.calls else 0.0
        ctx_calls = out.get("estimator.ctx_estimate.calls", 0)
        out["estimator.ctx_estimate.solves_per_call"] = (
            self.ctx_solves / ctx_calls if ctx_calls else 0.0
        )
        out["estimator.materialize.members"] = self.members
        out["oracle.instances"] = self.instances
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, name, start, end, parent id, request id."""
        with open(path, "w") as fh:
            for sid, idx, start, end, psid, rid in sorted(self.spans):
                fh.write(json.dumps([sid, self.names[idx], start, end, psid, rid]))
                fh.write("\n")
