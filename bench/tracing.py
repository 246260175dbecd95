"""Span tracer that wraps the public functions of ``robust_thresholds``.

Nothing in the library is edited: ``Tracer.install`` replaces every public
function of each module (in every module namespace that imported it) and
every public method of each public class by a timing wrapper, and
``uninstall`` puts the originals back.  The system callables (dynamics,
stage constraints, terminal constraint) are wrapped on their classes, so
systems built later, for instance by the CLI, are traced too.

Each call opens a frame on a per-thread stack.  When it returns, its
duration is added to its parent's covered time, and its self time is the
duration minus what its children covered.  A call that starts in a pool
thread with an empty stack is linked to the innermost open call of the main
thread (the call that started the pool); after the run the union of such
children's intervals is taken off that parent's self time, so waiting for
the pool is not counted as work.

Spans are kept in memory as tuples and written out once, by ``dump``.
Frequent leaf calls (the model layer and the oracle's budget counter) are
only aggregated, and every name keeps at most ``max_spans_per_name`` spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

# layer of each module; config is negligible and folded into cli
MODULE_LAYERS = {
    "model": "model", "fishery": "model", "mesh": "mesh", "dp": "dp",
    "pareto": "pareto", "oracle": "oracle", "config": "cli", "cli": "cli",
}
LAYERS = ("model", "mesh", "dp", "pareto", "oracle", "cli")
AGGREGATE_ONLY = ("oracle.OracleBudget.spend",)


class Tracer:
    def __init__(self, max_spans_per_name: int = 20000):
        self.max_spans_per_name = max_spans_per_name
        self.phase = "idle"
        self.calls = defaultdict(int)        # (phase, name) -> calls
        self.total = defaultdict(float)      # (phase, name) -> inclusive s
        self.layer_self = defaultdict(float)  # (phase, layer) -> self s
        self.spans = []  # (id, parent id, phase, layer, name, thread, t0, t1)
        self.chain_w_solves = defaultdict(int)  # phase -> W solves in chains
        self.cell_updates = defaultdict(int)    # phase -> rows*controls*scenarios
        self.gather_bytes = defaultdict(int)    # phase -> computed bytes read
        self.cpu = defaultdict(float)           # phase -> CPU s in weak_front
        self.hooks = {}  # name -> callable(args, kwargs), run before timing
        self._stacks = {}
        self._kept = defaultdict(int)
        self._next_id = 0
        self._lock = threading.Lock()  # guards counters and ids across threads
        self._spawners = {}   # span id -> (phase, layer, t0, t1) once closed
        self._pool_children = defaultdict(list)  # parent id -> [(t0, t1)]
        self._restore = []
        self._main = threading.main_thread().ident

    # -- wrapping ---------------------------------------------------------

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, layer: str, name: str, fn):
        aggregate = layer == "model" or name in AGGREGATE_ONLY
        hook = self.hooks.get(name)
        is_front = name == "pareto.weak_front"
        is_solve = name == "dp.backward_recursion"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            tid = threading.get_ident()
            stack = self._stacks.get(tid)
            if stack is None:
                stack = self._stacks[tid] = []
            parent = stack[-1] if stack else None
            pool_parent = None
            if parent is None and tid != self._main:
                main_stack = self._stacks.get(self._main)
                if main_stack:
                    pool_parent = main_stack[-1]
                    pool_parent[5] = True
            phase = self.phase
            if is_solve and any(f[0] == "pareto.strong_pareto_point" for f in stack):
                with self._lock:
                    self.chain_w_solves[phase] += 1
            # frame: name, layer, t0, covered, id, spawned pool children
            frame = [name, layer, 0.0, 0.0, 0 if aggregate else self._new_id(), False]
            stack.append(frame)
            cpu0 = time.process_time() if is_front else 0.0
            frame[2] = t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if is_front:
                    self.cpu[phase] += time.process_time() - cpu0
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[3] += dur
                pid = parent[4] if parent is not None else (
                    pool_parent[4] if pool_parent is not None else 0)
                key = (phase, name)
                with self._lock:
                    self.calls[key] += 1
                    self.total[key] += dur
                    self.layer_self[(phase, layer)] += dur - frame[3]
                    if frame[5]:
                        self._spawners[frame[4]] = (phase, layer, t0, t1)
                    if pool_parent is not None:
                        self._pool_children[pool_parent[4]].append((t0, t1))
                    if not aggregate and self._kept[name] < self.max_spans_per_name:
                        self._kept[name] += 1
                        self.spans.append((frame[4], pid, phase, layer, name, tid,
                                           t0, t1))

        return traced

    def _swap(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package, modules: dict, callables=()) -> None:
        """Wrap the public functions and class methods of ``modules``
        (module name -> module) and the ``__call__`` of each class of
        system callable in ``callables``."""
        namespaces = [package, *modules.values()]
        for mod_name, mod in modules.items():
            layer = MODULE_LAYERS[mod_name]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self.wrap(layer, f"{mod_name}.{attr}", obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._swap(ns, key, new)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, f"{mod_name}.{attr}", obj)
        for cls in {type(c) for c in callables}:
            if "__call__" in vars(cls):
                self._swap(cls, "__call__", self.wrap(
                    "model", "model.callable", vars(cls)["__call__"]))

    def _wrap_class(self, layer: str, prefix: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, staticmethod):
                self._swap(cls, attr, staticmethod(
                    self.wrap(layer, f"{prefix}.{attr}", val.__func__)))
            elif inspect.isfunction(val):
                self._swap(cls, attr, self.wrap(layer, f"{prefix}.{attr}", val))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def finish(self) -> None:
        """Take the pool children's covered time off their parents' self time."""
        for pid, kids in self._pool_children.items():
            if pid not in self._spawners:
                continue
            phase, layer, p0, p1 = self._spawners[pid]
            covered, end = 0.0, p0
            for t0, t1 in sorted(kids):
                t0, t1 = max(t0, end), min(t1, p1)
                if t1 > t0:
                    covered += t1 - t0
                    end = t1
            self.layer_self[(phase, layer)] -= covered
        self._pool_children.clear()

    def durations(self, phase: str, name: str) -> list:
        return [s[7] - s[6] for s in self.spans if s[2] == phase and s[4] == name]

    def dump(self, path) -> None:
        fields = ("id", "parent", "phase", "layer", "name", "thread", "t0", "t1")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
