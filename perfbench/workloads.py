"""The four benchmark workloads, and one measured repeat of one of them.

Each workload is open loop on the simulated clock: its arrival schedule is
generated from the workload seed outside the timed phases, the system is
built (``setup_s``) and the whole schedule is served (``run_s``).  On
the host each repeat is one batch job in a fresh process.

Run one repeat (``perfbench/run.py`` does this once per repeat)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload serve-burst --seed 2022

It prints one JSON object: timings, the time of the host-speed yardstick
(:func:`reference_loop`), peak RSS, arrivals offered, arrivals that broke
an audit, and the simulated-result fingerprint.  With
``--trace 1`` the layer wrappers of :mod:`tracing` are installed first and
the object also carries the per-layer counts and self times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
SIZES = ("full", "tiny")

#: Imported before anything is timed: ``setup_s`` excludes imports.
PROGRAM_MODULES = (
    "repro.cluster", "repro.faults", "repro.obs", "repro.obs.telemetry",
    "repro.serve", "repro.serve.llm", "repro.systems", "repro.workloads",
)


def _digest(*parts: object) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()


class _LoadgenWorkload:
    """A workload fed by the seeded ``repro.serve.loadgen`` trace."""

    arrivals_by_size: Dict[str, int] = {}
    profile: Dict[str, object] = {}

    def inputs(self, seed: int, size: str):
        from repro.serve import loadgen

        return loadgen.generate_trace(
            loadgen.LoadProfile(
                seed=seed, requests=self.arrivals_by_size[size], **self.profile
            )
        )

    def arrivals(self, engine, inputs) -> list:
        return inputs[1]


class ServeBurst(_LoadgenWorkload):
    """One 14-GPU node, synthetic service model, the ``BENCH_scale`` trace
    shape at 200k rps: host time is admission, placement, batching and SLO
    accounting."""

    arrivals_by_size = {"full": 60_000, "tiny": 2_000}
    profile = {"mean_rate_rps": 200_000.0}

    def setup(self, inputs):
        from repro.faults import make_figure9_system
        from repro.serve import ServingSystem
        from repro.serve.loadgen import synthetic_service_model

        specs, _ = inputs
        serving = ServingSystem(
            make_figure9_system(num_gpus=14),
            max_batch=128,
            max_delay_us=10_000.0,
            service_model=synthetic_service_model(),
        )
        for spec in specs:
            serving.add_tenant(spec)
        return serving

    def run(self, engine, arrivals):
        return engine.run(arrivals)

    def check(self, engine, report) -> Tuple[int, str]:
        failed = len(report.audit_exactly_once()) + report.wrong_results
        return failed, report.fingerprint


class ClusterFailover(_LoadgenWorkload):
    """8 nodes x 2 GPUs behind the rendezvous router at 600k rps with a
    100 ms deadline; ``node1`` dies 40% into the trace; the telemetry
    pipeline scrapes every 10 ms.  The only workload whose costs grow with
    fleet width (mesh attestation, routing, migration, telemetry)."""

    arrivals_by_size = {"full": 20_000, "tiny": 1_500}
    rate_rps = 600_000.0
    profile = {"mean_rate_rps": rate_rps, "deadline_us": 100_000.0}
    killed = "node1"

    def setup(self, inputs):
        from repro.cluster import Cluster, ClusterServingSystem
        from repro.obs.telemetry import TelemetryPipeline
        from repro.serve.loadgen import synthetic_service_model

        specs, _ = inputs
        serving = ClusterServingSystem(
            Cluster(num_nodes=8, gpus_per_node=2),
            max_batch=64,
            max_delay_us=2_000.0,
            service_model=synthetic_service_model(),
            steal_threshold=64,
            telemetry=TelemetryPipeline(scrape_interval_us=10_000.0),
        )
        serving.add_tenants(specs)
        return serving

    def run(self, engine, arrivals):
        kill_at_us = round(0.4 * len(arrivals) / self.rate_rps * 1e6, 1)
        return engine.run(arrivals, node_kill_events=[(kill_at_us, self.killed)])

    def check(self, engine, report) -> Tuple[int, str]:
        failed = (
            len(report.audit_exactly_once())
            + report.scrub_violations
            + report.restore_mismatches
        )
        if not report.migrations or not report.scrub_pages_audited:
            failed += 1  # the kill must have driven migration and the scrub audit
        return failed, _digest(report.fingerprint, engine.telemetry.fingerprint())


class EnclaveRpc(_LoadgenWorkload):
    """The figure-9 2-GPU system with real enclave execution: every request
    runs its matmul through the sRPC ring buffers into a GPU partition,
    and one partition crash halfway through the trace forces scrub,
    recovery and requeue."""

    arrivals_by_size = {"full": 6_000, "tiny": 300}
    profile = {"tenants": 64, "mean_rate_rps": 4_000.0}

    def setup(self, inputs):
        from repro.faults import make_figure9_system
        from repro.serve import ServingSystem

        specs, _ = inputs
        serving = ServingSystem(
            make_figure9_system(num_gpus=2), max_batch=8, max_delay_us=2_000.0
        )
        for spec in specs:
            serving.add_tenant(spec)
        return serving

    def run(self, engine, arrivals):
        crash_at_us = arrivals[len(arrivals) // 2].arrival_us
        return engine.run(arrivals, crash_events=[(crash_at_us, "gpu0")])

    def check(self, engine, report) -> Tuple[int, str]:
        failed = len(report.audit_exactly_once()) + report.wrong_results
        if report.crashes != ("gpu0",):
            failed += 1
        return failed, _digest(report.fingerprint, repr(engine.system.clock.now))


class LlmDecode:
    """``LLMEngine`` continuous batching on 4 GPUs, 2 tenants, paged KV in
    SPM pages, and two partition crashes mid-decode: a KV stamp per token,
    block alloc/free and scrub audits."""

    sequences_by_size = {"full": 300, "tiny": 40}
    tenants = 2

    def inputs(self, seed: int, size: str):
        return seed, self.sequences_by_size[size]

    def setup(self, inputs):
        from repro.serve import LLMEngine, MODE_CONTINUOUS, TenantSpec
        from repro.systems import CronusSystem, TestbedConfig

        engine = LLMEngine(
            CronusSystem(TestbedConfig(num_gpus=4)),
            max_running=8,
            mode=MODE_CONTINUOUS,
        )
        for i in range(self.tenants):
            engine.add_tenant(
                TenantSpec(
                    f"llm-{i:02d}",
                    rate_limit_rps=1e9,
                    burst=1 << 20,
                    memory_quota_bytes=1 << 40,
                    max_queue_depth=1 << 20,
                    deadline_us=1e9,
                )
            )
        return engine

    def arrivals(self, engine, inputs) -> list:
        from repro.serve.llm import llm_arrivals

        seed, sequences = inputs
        out = []
        for i in range(self.tenants):
            out += llm_arrivals(
                engine.registry.get(f"llm-{i:02d}"),
                engine.config,
                count=sequences,
                seed=seed + i,
                mean_interarrival_us=60.0,
                prompt_tokens=(8, 48),
                max_new_tokens=(8, 48),
            )
        return out

    def run(self, engine, arrivals):
        # bench_llm's two crashes: gpu0 early, gpu1 while gpu0 recovers.
        half = max(a.arrival_us for a in arrivals) / 2
        return engine.run(arrivals, crash_events=((3_000.0, "gpu0"), (half, "gpu1")))

    def check(self, engine, report) -> Tuple[int, str]:
        failed = len(report.audit()) + report.scrub_violations + report.kv_leaks
        if report.reprefills != report.sequences_preempted or not report.reprefills:
            failed += 1
        return failed, _digest(report.token_fingerprint, report.slo_fingerprint)


WORKLOADS = {
    "serve-burst": ServeBurst(),
    "cluster-failover": ClusterFailover(),
    "enclave-rpc": EnclaveRpc(),
    "llm-decode": LlmDecode(),
}


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python job: dicts, sorting and a heap.

    The speed of a shared host drifts, by up to 2x over tens of minutes,
    and the simulator's host time moves with it.  ``run.py`` reports each
    repeat's times at a reference host speed, scaled by this yardstick
    timed in the same process once the engine is freed.
    """
    rng = random.Random(7)
    start = time.perf_counter()
    items = [{"value": i, "key": str(rng.random())} for i in range(8_000)]
    total = 0
    for _ in range(12):
        for item in items:
            total += item["value"]
        items.sort(key=lambda item: item["key"])
        heap: List[Tuple[str, int]] = []
        for item in items:
            heapq.heappush(heap, (item["key"], item["value"]))
        while heap:
            heapq.heappop(heap)
        rng.shuffle(items)
    return time.perf_counter() - start


def execute(name: str, seed: int, size: str = "full", tracer=None) -> Dict[str, object]:
    """One repeat: generate inputs, time set-up and the run, audit.

    ``peak_rss_mb`` is read right after the audit.  Then the engine is
    freed and ``reference_s`` is taken: the median of three timed calls
    of :func:`reference_loop` after one warm-up call.  With a ``tracer``
    the phase boundaries are marked on it, so that its root-span time can
    be split into inputs, set-up, arrivals and run.
    """
    workload = WORKLOADS[name]
    clock = time.perf_counter
    for module in PROGRAM_MODULES:
        importlib.import_module(module)

    def phase(label: str) -> float:
        if tracer is not None:
            tracer.phase = label
        return clock()

    phase("inputs")
    inputs = workload.inputs(seed, size)
    t0 = phase("setup")
    engine = workload.setup(inputs)
    t1 = phase("arrivals")
    arrivals = workload.arrivals(engine, inputs)
    t2 = phase("run")
    report = workload.run(engine, arrivals)
    t3 = phase("check")
    failed, fingerprint = workload.check(engine, report)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    offered = len(arrivals)
    del engine, report, arrivals
    gc.collect()
    reference_loop()
    reference_s = statistics.median(reference_loop() for _ in range(3))
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "arrivals": offered,
        "failed": failed,
        "fingerprint": fingerprint,
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "reference_s": reference_s,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="with --trace 1: write the Chrome trace of the spans here",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))
    import repro  # noqa: F401  (fails fast when the sources are missing)

    if args.trace:
        import probes

        result = probes.traced_repeat(args.workload, args.seed, args.size, args.trace_out)
    else:
        result = execute(args.workload, args.seed, args.size)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
