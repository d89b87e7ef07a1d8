"""The traced repeat: layer wrappers, the counts they feed, the metrics.

:func:`traced_repeat` installs :mod:`tracing` around the ``src/repro``
layers, runs one repeat of a workload through
:func:`workloads.execute`, and turns the tracer's totals into the
``per_layer`` metrics of ``BENCHMARK.json`` (all but
``trace.overhead_ratio``, which needs the untraced repeats and is added by
``run.py``).  The Chrome trace of the recorded spans is written and
validated here, after the measured window.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

import tracing
import workloads

#: Extra metrics beyond ``<layer>.calls`` and ``<layer>.self_s``, with units.
EXTRA_UNITS = {
    "serve.placement.p99_us": "us",
    "serve.placement.parked": "count",
    "serve.batcher.depth_calls": "count",
    "serve.batcher.depth_per_place": "ratio",
    "serve.batcher.mean_batch": "count",
    "serve.loadgen.generate_s": "s",
    "cluster.serve.loop_self_s": "s",
    "cluster.serve.hash_per_route": "ratio",
    "cluster.serve.steal_ratio": "ratio",
    "cluster.cluster.attest_s": "s",
    "cluster.cluster.verifications": "count",
    "crypto.keys.verify_calls": "count",
    "crypto.keys.verify_distinct_ratio": "ratio",
    "cluster.migrate.restores": "count",
    "cluster.migrate.scrub_pages": "count",
    "rpc.channel.p99_us": "us",
    "rpc.ringbuffer.bytes": "B",
    "secure.partition.read_calls": "count",
    "secure.partition.read_self_s": "s",
    "secure.partition.write_calls": "count",
    "secure.partition.write_self_s": "s",
    "secure.spm.pages_allocated": "count",
    "secure.spm.pages_scrubbed": "count",
    "hw.pagetable.tlb_hit_ratio": "ratio",
    "hw.memory.zeroed_bytes": "B",
    "serve.llm.iterations": "count",
    "obs.sampling.retained_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    return units


def _count(tracer, name: str, amount=1) -> None:
    state = tracer.state
    state[name] = state.get(name, 0) + amount


def _remember(tracer, name: str, obj) -> None:
    tracer.state.setdefault(name, {})[id(obj)] = obj


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _on_flush(tracer, args, kwargs, batch) -> None:
    if batch is not None:
        _count(tracer, "batches")
        _count(tracer, "batched", len(batch))


def _on_verify(tracer, args, kwargs, result) -> None:
    if tracer.phase != "setup":
        return
    key = args[0]
    message = _arg(args, kwargs, 1, "message")
    signature = _arg(args, kwargs, 2, "signature")
    _count(tracer, "verify_setup")
    tracer.state.setdefault("verify_triples", set()).add(
        (key.element, bytes(message), signature.e, signature.s)
    )


HOOKS = {
    "DeadlineBatcher.flush": _on_flush,
    "ClusterRouter.route": lambda t, a, k, r: _remember(t, "routers", a[0]),
    "Cluster.attest_mesh": lambda t, a, k, r: _count(t, "verifications", r),
    "PublicKey.verify": _on_verify,
    "MigrationManager.audit_scrub": lambda t, a, k, r: _count(t, "scrub_pages", r),
    "SharedRingBuffer.push": lambda t, a, k, r: _count(
        t, "ring_bytes", len(_arg(a, k, 1, "record"))
    ),
    "SPM.allocate_pages": lambda t, a, k, r: _count(t, "pages_allocated", len(r)),
    "SPM.report_panic": lambda t, a, k, r: _count(
        t, "pages_scrubbed", r.smem_pages_scrubbed
    ),
    "SPM.recover_partitions": lambda t, a, k, r: _count(
        t, "pages_scrubbed", sum(rep.smem_pages_scrubbed for rep in r)
    ),
    "PageTable.map": lambda t, a, k, r: _remember(t, "pagetables", a[0]),
    "PageTable.translate": lambda t, a, k, r: _remember(t, "pagetables", a[0]),
    "PhysicalMemory.zero_range": lambda t, a, k, r: _count(
        t, "zeroed_bytes", _arg(a, k, 2, "length")
    ),
    "LLMEngine.run": lambda t, a, k, r: _count(t, "llm_iterations", r.iterations),
    "TailSampler.observe": lambda t, a, k, r: (
        _count(t, "observed"), _count(t, "retained", int(bool(r)))
    ),
}


def _p99_us(durations) -> float:
    """Nearest-rank p99 of host durations (seconds in, microseconds out)."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-99 * len(ordered) // 100))
    return ordered[rank - 1] * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, window_s: float) -> Dict[str, float]:
    """Per-layer metrics from one traced repeat (no overhead ratio)."""
    state = tracer.state
    out: Dict[str, float] = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    places = tracer.by_key("SpatialPlacer.place")[0]
    depth_calls = tracer.by_key("DeadlineBatcher.depth")[0]
    routes = tracer.by_key("ClusterRouter.route")[0]
    reads, _, read_self = tracer.by_key("Partition.read")
    writes, _, write_self = tracer.by_key("Partition.write")
    tables = state.get("pagetables", {}).values()
    hits = sum(t.tlb_stats["hits"] for t in tables)
    misses = sum(t.tlb_stats["misses"] for t in tables)
    verify_setup = state.get("verify_setup", 0)
    covered = tracer.root_s.get("setup", 0.0) + tracer.root_s.get("run", 0.0)
    out.update({
        "serve.placement.p99_us": _p99_us(tracer.durations["SpatialPlacer.place"]),
        "serve.placement.parked": tracer.raised.get(
            ("SpatialPlacer.place", "NoReadyPartition"), 0
        ),
        "serve.batcher.depth_calls": depth_calls,
        "serve.batcher.depth_per_place": _ratio(depth_calls, places),
        "serve.batcher.mean_batch": _ratio(state.get("batched", 0), state.get("batches", 0)),
        "serve.loadgen.generate_s": tracer.by_key("generate_trace")[1],
        "cluster.serve.loop_self_s": tracer.by_key("ClusterServingSystem.run")[2],
        "cluster.serve.hash_per_route": _ratio(
            tracer.by_key("rendezvous_score")[0], routes
        ),
        "cluster.serve.steal_ratio": _ratio(
            sum(r.steals for r in state.get("routers", {}).values()), routes
        ),
        "cluster.cluster.attest_s": tracer.by_key("Cluster.attest_mesh")[1],
        "cluster.cluster.verifications": state.get("verifications", 0),
        "crypto.keys.verify_calls": verify_setup,
        "crypto.keys.verify_distinct_ratio": _ratio(
            len(state.get("verify_triples", ())), verify_setup
        ),
        "cluster.migrate.restores": tracer.by_key("MigrationManager.restore")[0],
        "cluster.migrate.scrub_pages": state.get("scrub_pages", 0),
        "rpc.channel.p99_us": _p99_us(tracer.durations["SRPCChannel.call"]),
        "rpc.ringbuffer.bytes": state.get("ring_bytes", 0),
        "secure.partition.read_calls": reads,
        "secure.partition.read_self_s": read_self,
        "secure.partition.write_calls": writes,
        "secure.partition.write_self_s": write_self,
        "secure.spm.pages_allocated": state.get("pages_allocated", 0),
        "secure.spm.pages_scrubbed": state.get("pages_scrubbed", 0),
        "hw.pagetable.tlb_hit_ratio": _ratio(hits, hits + misses),
        "hw.memory.zeroed_bytes": state.get("zeroed_bytes", 0),
        "serve.llm.iterations": state.get("llm_iterations", 0),
        "obs.sampling.retained_ratio": _ratio(
            state.get("retained", 0), state.get("observed", 0)
        ),
        "trace.unattributed_share": 1.0 - _ratio(covered, window_s),
    })
    return out


def traced_repeat(
    name: str, seed: int, size: str, trace_out: Optional[Path]
) -> Dict[str, object]:
    """One repeat with every layer wrapped; returns the repeat's record."""
    tracer = tracing.Tracer()
    wrapped = tracing.install(tracer, HOOKS)
    result = workloads.execute(name, seed, size, tracer=tracer)
    window = result["setup_s"] + result["run_s"]
    result["wrapped_functions"] = wrapped
    result["layers"] = layer_metrics(tracer, window)
    problems, spans = _write_trace(tracer, trace_out)
    result["trace_problems"] = problems
    result["trace_spans"] = spans
    return result


def _write_trace(tracer, path: Optional[Path]) -> Tuple[list, int]:
    from repro.obs.export import validate_chrome_trace

    trace = tracer.chrome_trace()
    problems = validate_chrome_trace(trace)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    return problems[:5], len(trace["traceEvents"])
