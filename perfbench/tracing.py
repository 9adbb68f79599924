"""Tracing from outside the program: spans, call counts and a stack sampler.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces
public entry points of each layer with wrappers that record a span per
call (and restores them on :meth:`Tracer.uninstall`); it counts
prefetcher training calls; and :class:`StackSampler` attributes CPU time
to layers by module, because the vector tier inlines the memory-system
and core-timing work that spans around ``repro.memsys``/``repro.cpu``
calls would need.

Spans live in memory.  Given a ``sink_dir``, every finished span is
also appended to ``<sink_dir>/spans-<pid>.jsonl`` and flushed at once:
forked job children leave through ``os._exit`` and run no exit
handlers, so nothing may wait for the end of the process.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# module -> layer map
# ---------------------------------------------------------------------------

#: longest prefix wins; ``None`` charges the frame to its caller
LAYER_PREFIXES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("repro.sim.vector.replay", "vector.replay"),
    ("repro.sim.vector.classify", "vector.classify"),
    ("repro.sim.vector.misspath", "vector.misspath"),
    ("repro.sim.vector", "vector.replay"),
    ("repro.sim.engine", "engine"),
    ("repro.sim.compile", "compile"),
    ("repro.sim.executor", "executor"),
    ("repro.memsys", "memsys"),
    ("repro.prefetchers", "prefetchers"),
    ("repro.core", "prefetchers"),
    ("repro.cpu", "cpu"),
    ("repro.workloads", "workloads"),
    ("repro.common", None),
    ("importlib", "import"),
    ("perfbench", "harness"),
    ("__main__", "harness"),
)

HARNESS = "harness"
IMPORT = "import"


def module_layer(module: str) -> Optional[str]:
    """The layer a module's frames are charged to, or ``None`` to charge
    them to the calling frame (``repro.common.*``, the standard library,
    numpy's Python-level wrappers)."""
    best: Optional[Tuple[str, Optional[str]]] = None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    if best is not None:
        return best[1]
    if module.startswith("repro."):
        return module[len("repro."):]
    return None


_MISSING = object()


class LayerMap:
    """Frame -> layer, memoised per code object."""

    def __init__(self) -> None:
        self._by_code: Dict[Any, Optional[str]] = {}

    def layer_of(self, frame) -> str:
        while frame is not None:
            code = frame.f_code
            layer = self._by_code.get(code, _MISSING)
            if layer is _MISSING:
                if code.co_name == "<module>":
                    layer = IMPORT  # module-level code runs only on import
                else:
                    layer = module_layer(frame.f_globals.get("__name__", "") or "")
                self._by_code[code] = layer
            if layer is not None:
                return layer  # type: ignore[return-value]
            frame = frame.f_back
        return HARNESS


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class SpanRecorder:
    """Spans with parent links (per thread), optionally streamed to disk."""

    def __init__(self, sink_dir: Optional[str] = None) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.sink_dir = sink_dir
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._sink = None
        self._sink_pid = -1
        # a child forked while another thread held the lock would
        # deadlock on its first span
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._sink = None

    def _stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> Tuple[str, Optional[str], float]:
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        return span_id, parent, time.time()

    def end(self, token, name: str, attrs: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        span_id, parent, start = token
        end = time.time()
        stack = self._stack()
        if stack and stack[-1][0] == span_id:
            stack.pop()
        span = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "attrs": attrs or {},
        }
        self.spans.append(span)
        if self.sink_dir is not None:
            self._write(span)
        return span

    def _write(self, span: Dict[str, Any]) -> None:
        line = json.dumps(span) + "\n"
        with self._lock:
            pid = os.getpid()
            if self._sink is None or self._sink_pid != pid:
                path = os.path.join(self.sink_dir, f"spans-{pid}.jsonl")
                self._sink = open(path, "a", encoding="utf-8")
                self._sink_pid = pid
            self._sink.write(line)
            self._sink.flush()



def read_spans(sink_dir: str) -> List[Dict[str, Any]]:
    """Every span written under ``sink_dir`` by any process."""
    spans = []
    for name in sorted(os.listdir(sink_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(sink_dir, name), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span["id"], [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# the stack sampler
# ---------------------------------------------------------------------------


#: CPU seconds between samples
SAMPLE_INTERVAL = 0.001


class StackSampler:
    """CPU-time-weighted stack sampling on ``SIGPROF``.

    Python runs a signal handler only between bytecodes, so the timer
    ticks that fall inside one long numpy call arrive as a single
    handler call after it returns.  Each sample is therefore weighted by
    the process CPU time since the previous one and charged to the frame
    that made the long call.  Samples are keyed by ``(innermost open
    span, layer)`` so callers can ask for e.g. the layer split inside
    ``engine.run`` only.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.layers = LayerMap()
        self.table: Dict[Tuple[Optional[str], str], float] = {}
        self.samples = 0
        self._last = 0.0
        self._previous_handler = None

    def _on_signal(self, signum, frame) -> None:
        now = time.process_time()
        weight = now - self._last
        self._last = now
        key = (self.recorder.current(), self.layers.layer_of(frame))
        self.table[key] = self.table.get(key, 0.0) + weight
        self.samples += 1

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGPROF, self._previous_handler)

    def snapshot(self) -> Dict[Tuple[Optional[str], str], float]:
        return dict(self.table)


def table_delta(after: Dict, before: Dict) -> Dict:
    return {
        key: value - before.get(key, 0.0)
        for key, value in after.items()
        if value - before.get(key, 0.0) > 0.0
    }


def by_layer(table: Dict[Tuple[Optional[str], str], float], context: str) -> Dict[str, float]:
    """Seconds per layer among samples taken inside spans named ``context``."""
    out: Dict[str, float] = {}
    for (ctx, layer), seconds in table.items():
        if ctx == context:
            out[layer] = out.get(layer, 0.0) + seconds
    return out


# ---------------------------------------------------------------------------
# wrappers around each layer's public entry points
# ---------------------------------------------------------------------------

#: (module, attribute path, span name)
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.compile", "compile_workload", "compile.workload"),
    ("repro.sim.compile.workload", "compile_workload", "compile.workload"),
    ("repro.sim.engine", "SimulationEngine.__init__", "engine.build"),
    ("repro.sim.engine", "SimulationEngine.run", "engine.run"),
    ("repro.sim.executor", "execute_job", "executor.execute"),
    ("repro.sim.executor", "Executor.run_job_guarded", "executor.guarded"),
    ("repro.sim.executor", "ResultCache.load", "executor.cache_load"),
    ("repro.sim.executor", "ResultCache.store", "executor.cache_store"),
    ("repro.serve.cluster.shard", "ClusterCacheClient.load", "cluster.shard_load"),
    ("repro.serve.cluster.shard", "ClusterCacheClient.store", "cluster.shard_store"),
    ("repro.serve.client", "ServiceClient.cluster_report", "cluster.report"),
)


class Tracer:
    """Installs and removes the wrappers; owns the span recorder.

    ``sample_execute`` runs a :class:`StackSampler` for the length of
    every ``execute_job`` call and attaches its layer table (and the
    prefetcher training calls made) to that call's span — the per-job
    view used inside forked service children.
    """

    def __init__(
        self,
        recorder: Optional[SpanRecorder] = None,
        sample_execute: bool = False,
    ) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self.sample_execute = sample_execute
        self.train_calls = 0
        self._train_depth = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall -----------------------------------------------
    def install(self) -> "Tracer":
        for module_name, path, span_name in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            owner: Any = module
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))
        self._wrap_training()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_training(self) -> None:
        from repro.prefetchers.base import Prefetcher
        from repro.prefetchers.registry import available_prefetchers

        available_prefetchers()  # imports and registers the whole zoo
        seen = set()
        pending = [Prefetcher]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            original = cls.__dict__.get("on_access")
            if original is not None:
                self._restore.append((cls, "on_access", original))
                setattr(cls, "on_access", self._count_training(original))

    def _count_training(self, original: Callable) -> Callable:
        depth = self._train_depth
        tracer = self

        @functools.wraps(original)
        def on_access(self, info):
            level = getattr(depth, "level", 0)
            if level == 0:
                tracer.train_calls += 1
            depth.level = level + 1
            try:
                return original(self, info)
            finally:
                depth.level = level

        return on_access

    def _wrap(self, original: Callable, name: str) -> Callable:
        recorder = self.recorder
        tracer = self

        if name == "compile.workload":
            from repro.sim.compile import compile_counters

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                misses = compile_counters()["trace_compile_misses"]
                token = recorder.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    cold = compile_counters()["trace_compile_misses"] > misses
                    recorder.end(token, name, {"cold": cold})

            return wrapper

        if name == "executor.execute":
            from repro.sim.engine import engine_tier_counters

            @functools.wraps(original)
            def wrapper(job, *args, **kwargs):
                sampler = None
                before_train = tracer.train_calls
                before_tiers = engine_tier_counters()
                if tracer.sample_execute:
                    sampler = StackSampler(recorder)
                    sampler.start()
                token = recorder.begin(name)
                try:
                    return original(job, *args, **kwargs)
                finally:
                    after_tiers = engine_tier_counters()
                    attrs: Dict[str, Any] = {
                        "digest": job.digest(),
                        "train_calls": tracer.train_calls - before_train,
                        "tiers": {
                            key: after_tiers[key] - before_tiers[key]
                            for key in after_tiers
                        },
                    }
                    if sampler is not None:
                        sampler.stop()
                        attrs["samples"] = [
                            [ctx, layer, seconds]
                            for (ctx, layer), seconds in sampler.table.items()
                        ]
                    recorder.end(token, name, attrs)

            return wrapper

        if name == "executor.guarded":

            @functools.wraps(original)
            def wrapper(self, job, *args, **kwargs):
                hits = self.stats.get("cache_hits")
                executed = self.stats.get("executed")
                token = recorder.begin(name)
                try:
                    return original(self, job, *args, **kwargs)
                finally:
                    recorder.end(token, name, {
                        "digest": job.digest(),
                        "cached": self.stats.get("cache_hits") > hits,
                        "executed": self.stats.get("executed") > executed,
                    })

            return wrapper

        if name in ("executor.cache_load", "cluster.shard_load"):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                token = recorder.begin(name)
                hit = False
                try:
                    result = original(*args, **kwargs)
                    hit = result is not None
                    return result
                finally:
                    recorder.end(token, name, {"hit": hit})

            return wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = recorder.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(token, name)

        return wrapper


def spans_named(spans: Iterable[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [span for span in spans if span["name"] == name]


def duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]
