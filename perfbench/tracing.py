"""Host-time tracing of ``src/repro`` from outside the program.

:func:`install` replaces the public functions listed in :data:`LAYERS`
with thin wrappers that record one span per call (function, start, end,
parent) on the host's ``perf_counter`` clock.  Nothing in ``src/repro`` is
edited: the wrappers are set on the classes and modules at run time, and
on every already-imported ``repro`` module that bound a wrapped function
by name (``from repro.crypto.seal import seal``).

A wrapper only times and counts; it returns the callee's result and
re-raises its exceptions unchanged, so a traced run must reproduce the
untraced run's simulated-result fingerprint exactly.  That equality is
checked on every traced run.

Self time: a span's duration minus the part of it covered by its child
spans.  A layer's ``self_s`` is the sum of its functions' self times, so
the layers' self times never double count a host second.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> (module, function patterns).  A pattern is ``name`` for a
#: module-level function or ``Class.method`` (``fnmatch`` wildcards on the
#: method).  ``ContinuousBatcher`` lives in ``repro.serve.batcher`` but is
#: timed with ``serve.llm``, the only engine that drives it, so that
#: ``serve.batcher`` stays the deadline batcher of the request engines.
LAYERS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "serve.frontend": (
        ("repro.serve.frontend", ("ServingSystem.run", "ServingSystem.offer")),
    ),
    "serve.admission": (
        ("repro.serve.admission",
         ("AdmissionController.offer", "AdmissionController.settle")),
    ),
    "serve.placement": (("repro.serve.placement", ("SpatialPlacer.place",)),),
    "serve.batcher": (
        ("repro.serve.batcher", (
            "DeadlineBatcher.add", "DeadlineBatcher.flush",
            "DeadlineBatcher.due_partitions", "DeadlineBatcher.earliest_due",
            "DeadlineBatcher.depth",
        )),
    ),
    "serve.slo": (("repro.serve.slo", ("SLOTracker.record_*",)),),
    "serve.loadgen": (("repro.serve.loadgen", ("generate_trace",)),),
    "cluster.serve": (
        ("repro.cluster.serve", (
            "ClusterServingSystem.run", "ClusterServingSystem.offer",
            "ClusterServingSystem.route", "ClusterRouter.route",
            "ClusterRouter.home", "rendezvous_score",
        )),
    ),
    "cluster.cluster": (
        ("repro.cluster.cluster", ("Cluster.__init__", "Cluster.attest_mesh")),
    ),
    "crypto.keys": (("repro.crypto.keys", ("PublicKey.verify", "KeyPair.sign")),),
    "cluster.migrate": (
        ("repro.cluster.migrate", (
            "MigrationManager.ensure_session", "MigrationManager.restore",
            "MigrationManager.audit_scrub",
        )),
    ),
    "crypto.seal": (("repro.crypto.seal", ("seal", "unseal")),),
    "rpc.channel": (("repro.rpc.channel", ("SRPCChannel.call",)),),
    "rpc.ringbuffer": (
        ("repro.rpc.ringbuffer", ("SharedRingBuffer.push", "SharedRingBuffer.pop")),
    ),
    "enclave.menclave": (("repro.enclave.menclave", ("MEnclave.mecall_trusted",)),),
    "dispatch.partitioner": (
        ("repro.dispatch.partitioner", ("PartitionedRuntime.cuda*",)),
    ),
    "accel.gpu": (
        ("repro.accel.gpu", (
            "GpuContext.alloc", "GpuContext.free",
            "GpuContext.memcpy_h2d", "GpuContext.memcpy_d2h",
        )),
    ),
    "secure.partition": (
        ("repro.secure.partition", ("Partition.read", "Partition.write")),
    ),
    "secure.spm": (
        ("repro.secure.spm", (
            "SPM.allocate_pages", "SPM.free_pages",
            "SPM.report_panic", "SPM.recover_partitions",
        )),
    ),
    "hw.pagetable": (("repro.hw.pagetable", ("PageTable.translate", "PageTable.map")),),
    "hw.memory": (
        ("repro.hw.memory", ("PhysicalMemory.page_view", "PhysicalMemory.zero_range")),
    ),
    "workloads.llm": (
        ("repro.workloads.llm", ("PagedKVCache.append_token", "PagedKVCache.release")),
    ),
    "serve.llm": (
        ("repro.serve.llm", ("LLMEngine.run", "LLMEngine.offer")),
        ("repro.serve.batcher", ("ContinuousBatcher.admit", "ContinuousBatcher.finish")),
    ),
    "obs.telemetry": (("repro.obs.telemetry", ("TelemetryPipeline.scrape",)),),
    "obs.alerts": (("repro.obs.alerts", ("AlertEngine.evaluate",)),),
    "obs.sampling": (("repro.obs.sampling", ("TailSampler.observe",)),),
    "obs.span": (
        ("repro.obs.span", ("SpanRecorder.begin", "SpanRecorder.end", "SpanRecorder.record")),
    ),
}

#: Functions whose per-call host durations are kept for a p99.
DURATION_KEYS = ("SpatialPlacer.place", "SRPCChannel.call")

#: Spans kept for the Chrome trace.  Self times and counts cover every
#: call; only the span *records* stop at the cap.  A call is recorded only
#: under a recorded parent, so every parent in the written trace resolves.
SPAN_CAP = 50_000


class Tracer:
    """In-memory span recorder and per-function host-time accounting."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.span_cap = span_cap
        self.phase = "setup"
        self.keys: List[str] = []
        self.key_layer: List[str] = []
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        self.root_s: Dict[str, float] = {}
        """phase -> host seconds covered by top-level (root) spans."""
        self.raised: Dict[Tuple[str, str], int] = {}
        self.durations: Dict[str, List[float]] = {k: [] for k in DURATION_KEYS}
        self.state: Dict[str, object] = {}
        # [key index, start, child seconds, span index or -1]
        self._stack: List[list] = []
        self.span_key: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.spans_dropped = 0

    # -- registration ----------------------------------------------------
    def key_index(self, key: str, layer: str) -> int:
        self.keys.append(key)
        self.key_layer.append(layer)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.keys) - 1

    # -- the hot path ------------------------------------------------------
    def enter(self, index: int) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        if len(self.span_key) < self.span_cap and (parent >= 0 or not stack):
            span = self._new_span(index, parent)
        else:
            span = -1
            self.spans_dropped += 1
        frame = [index, 0.0, 0.0, span]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _new_span(self, index: int, parent: int) -> int:
        self.span_key.append(index)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        return len(self.span_key) - 1

    def exit(self, frame: list) -> float:
        end = self.clock()
        index, start, child, span = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        self.calls[index] += 1
        self.total_s[index] += duration
        self.self_s[index] += duration - child
        if stack:
            stack[-1][2] += duration
        else:
            root = self.root_s
            root[self.phase] = root.get(self.phase, 0.0) + duration
        if span >= 0:
            self.span_start[span] = start
            self.span_end[span] = end
        return duration

    def note_raised(self, key: str, exc: BaseException) -> None:
        name = (key, type(exc).__name__)
        self.raised[name] = self.raised.get(name, 0) + 1

    # -- reading it back ---------------------------------------------------
    def by_key(self, key: str) -> Tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one wrapped function."""
        i = self.keys.index(key)
        return self.calls[i], self.total_s[i], self.self_s[i]

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds)."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for i, layer in enumerate(self.key_layer):
            totals = out.setdefault(layer, [0, 0.0])
            totals[0] += self.calls[i]
            totals[1] += self.self_s[i]
        return {layer: (c, s) for layer, (c, s) in out.items()}

    def chrome_trace(self) -> Dict[str, object]:
        """The recorded spans as Chrome trace-event JSON (host microseconds)."""
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "perfbench"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "simulator"}},
        ]
        roots: List[int] = []
        for span in range(len(self.span_key)):
            parent = self.span_parent[span]
            roots.append(span if parent < 0 else roots[parent])
            key = self.span_key[span]
            events.append({
                "name": self.keys[key],
                "cat": self.key_layer[key],
                "ph": "X",
                "ts": round((self.span_start[span] - self.origin) * 1e6, 3),
                "dur": round((self.span_end[span] - self.span_start[span]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {
                    "trace_id": roots[span] + 1,
                    "span_id": span + 1,
                    "parent_id": parent + 1 if parent >= 0 else None,
                    "seq": span,
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "host perf_counter",
                "spans_recorded": len(self.span_key),
                "spans_not_recorded": self.spans_dropped,
            },
        }


Hook = Callable[[Tracer, tuple, dict, object], None]


def _wrap(tracer: Tracer, index: int, key: str, fn, hook: Optional[Hook]):
    enter, exit_ = tracer.enter, tracer.exit
    durations = tracer.durations.get(key)

    def wrapper(*args, **kwargs):
        frame = enter(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            exit_(frame)
            tracer.note_raised(key, exc)
            raise
        duration = exit_(frame)
        if durations is not None:
            durations.append(duration)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return functools.update_wrapper(wrapper, fn)


def _targets(module, pattern: str):
    """(owner, attribute name, key) for every function ``pattern`` names."""
    if "." not in pattern:
        return [(module, pattern, pattern)]
    cls_name, method = pattern.split(".", 1)
    cls = getattr(module, cls_name)
    names = [n for n in vars(cls) if fnmatch.fnmatchcase(n, method)]
    if not names:
        raise LookupError(f"{module.__name__}.{pattern} matches nothing")
    return [(cls, n, f"{cls_name}.{n}") for n in sorted(names)]


def install(tracer: Tracer, hooks: Optional[Dict[str, Hook]] = None) -> int:
    """Wrap every function in :data:`LAYERS`; returns how many were wrapped.

    ``hooks`` maps a key (``"Class.method"`` or ``"function"``) to a
    callable run after each successful call with the call's arguments and
    result, for the counts that need them.
    """
    hooks = hooks or {}
    replaced: Dict[int, Tuple[object, object]] = {}
    wrapped = 0
    for layer, groups in LAYERS.items():
        for module_name, patterns in groups:
            module = importlib.import_module(module_name)
            for pattern in patterns:
                for owner, name, key in _targets(module, pattern):
                    original = vars(owner)[name]
                    if not callable(original):
                        raise TypeError(f"{module_name}.{key} is not a function")
                    index = tracer.key_index(key, layer)
                    wrapper = _wrap(tracer, index, key, original, hooks.get(key))
                    setattr(owner, name, wrapper)
                    if owner is module:
                        replaced[id(original)] = (original, wrapper)
                    wrapped += 1
    # Rebind module-level functions that other repro modules imported by
    # name, so every call site goes through the wrapper.
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return wrapped
