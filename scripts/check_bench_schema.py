#!/usr/bin/env python
"""CI gate: validate a benchmark JSON document against its contract.

This checker is deliberately self-contained — it is the published schema
*contract*, independent of the generators — and dispatches on the
document's ``schema`` tag:

``cronus.bench_scale/v1`` (``benchmarks/bench_scale.py``):

* the envelope (schema tag, config, rows, equivalence, speedup) with
  required keys and sane types throughout;
* every measured row carries positive wall-clock/throughput numbers and a
  64-hex SLO fingerprint;
* every scale point both engines ran has **byte-identical** fingerprints
  (``fingerprints_equal`` recorded true, and the row fingerprints agree);
* the heap engine's rows cover every legacy row's scale point, and the
  speedup block references a point that was actually measured.

``cronus.bench_autoscale/v1`` (``benchmarks/bench_autoscale.py``):

* the envelope (schema tag, config+policy, rows, savings, p99, replay);
* exactly one ``static`` and one ``autoscaled`` row plus at least one
  ``replay-N`` row, each with positive device-seconds and 64-hex SLO and
  scale fingerprints;
* every replay row's SLO *and* scale fingerprints byte-equal the
  autoscaled row's (and the recorded equality flags say so);
* the savings block is consistent with the static/autoscaled rows.

``cronus.bench_llm/v1`` (``benchmarks/bench_llm.py``):

* the envelope (schema tag, model/paging config, rows, speedup, replay,
  recovery) with required keys and sane types;
* exactly one ``continuous``, ``static``, ``replay`` and ``crash`` row,
  each with positive token counts and 64-hex token/SLO fingerprints;
* the replay row's fingerprints byte-equal the continuous row's (and the
  recorded equality flag says so);
* the speedup block is consistent with the continuous/static rows and
  shows continuous ahead;
* the recovery block reports real crashes with zero scrub violations,
  zero cross-sequence KV leaks, exactly-once re-prefill and no lost
  sequences.

``cronus.bench_cluster/v1`` (``benchmarks/bench_cluster.py``):

* the envelope (schema tag, config, rows, scaling, failover, replay,
  workflow) with required keys and sane types;
* every scale row carries positive throughput numbers, a positive
  ``setup_wall_s`` (cluster build + tenant registration) and a 64-hex
  cluster fingerprint;
* the scaling ratio honours its recorded floor (and a full-mode floor
  must be >= the 4x acceptance bar);
* the failover block reports a real kill with **zero** lost, duplicated,
  orphaned or unscrubbed outcomes and a positive migration count;
* the replay fingerprint byte-equals the failover run's;
* the gateway workflow spans >= 2 nodes with a validated Chrome trace
  and at least one cross-node causal span link.

``cronus.bench_obs/v1`` (``benchmarks/bench_obs_pipeline.py``):

* the envelope (schema tag, config, overhead, node_kill, noisy, replay,
  sampler) with required keys and sane types;
* the pipeline-over-instrumented overhead ratio honours its recorded
  ceiling (and a full-mode ceiling must be <= the 1.10x acceptance
  bar), with the cluster report fingerprints byte-identical across the
  off / instrumented / pipeline runs (recording is inert);
* the node-death page fired within one scrape interval of the kill and
  carries a non-empty recovery Chrome trace that passed the trace
  schema after alert annotation and was dumped to disk;
* the noisy-neighbour rejection spike was detected inside the slow
  window with zero false pages on the victim tenant;
* the telemetry replay's store *and* alert fingerprints byte-equal the
  first run's;
* the tail sampler retained a non-empty subset of the considered traces.

Usage: ``python scripts/check_bench_schema.py [BENCH_*.json]``
Exit status 0 = the document honours its contract.
"""

from __future__ import annotations

import json
import sys

SCHEMA = "cronus.bench_scale/v1"
ENGINES = ("heap", "legacy")
ROW_FIELDS = {
    "engine": str,
    "arrivals": int,
    "tenants": int,
    "devices": int,
    "wall_s": (int, float),
    "req_per_s": (int, float),
    "completed": int,
    "expired": int,
    "fingerprint": str,
}
CONFIG_FIELDS = {
    "devices": int,
    "max_batch": int,
    "max_delay_us": (int, float),
    "mean_rate_rps": (int, float),
    "tenants": int,
    "seed": int,
    "service_model": str,
}
SPEEDUP_FIELDS = {
    "arrivals": int,
    "heap_req_per_s": (int, float),
    "legacy_req_per_s": (int, float),
    "ratio": (int, float),
}


def _check_fields(obj, fields, where, failures):
    if not isinstance(obj, dict):
        failures.append(f"{where}: expected an object, got {type(obj).__name__}")
        return False
    for key, types in fields.items():
        if key not in obj:
            failures.append(f"{where}: missing key {key!r}")
        elif not isinstance(obj[key], types) or isinstance(obj[key], bool):
            failures.append(
                f"{where}: {key!r} has type {type(obj[key]).__name__}"
            )
    return True


def _is_fingerprint(value) -> bool:
    return (
        isinstance(value, str)
        and len(value) == 64
        and all(c in "0123456789abcdef" for c in value)
    )


def validate(doc) -> list:
    """All contract violations in ``doc`` (empty list = valid)."""
    failures = []
    if not isinstance(doc, dict):
        return [f"document root must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA:
        failures.append(f"schema tag {doc.get('schema')!r} != {SCHEMA!r}")
    if doc.get("mode") not in ("full", "smoke"):
        failures.append(f"mode {doc.get('mode')!r} must be 'full' or 'smoke'")
    _check_fields(doc.get("config"), CONFIG_FIELDS, "config", failures)

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        failures.append("rows must be a non-empty list")
        rows = []
    by_key = {}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check_fields(row, ROW_FIELDS, where, failures):
            continue
        if row.get("engine") not in ENGINES:
            failures.append(f"{where}: engine {row.get('engine')!r} not in {ENGINES}")
        if not _is_fingerprint(row.get("fingerprint")):
            failures.append(f"{where}: fingerprint is not 64 hex chars")
        for key in ("arrivals", "wall_s", "req_per_s"):
            value = row.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                failures.append(f"{where}: {key} must be positive, got {value}")
        by_key[(row.get("engine"), row.get("arrivals"))] = row

    legacy_points = sorted(a for (e, a) in by_key if e == "legacy")
    for arrivals in legacy_points:
        if ("heap", arrivals) not in by_key:
            failures.append(f"legacy row at {arrivals} arrivals has no heap row")

    equivalence = doc.get("equivalence")
    if not isinstance(equivalence, list) or not equivalence:
        failures.append("equivalence must be a non-empty list")
        equivalence = []
    for i, point in enumerate(equivalence):
        where = f"equivalence[{i}]"
        if not isinstance(point, dict):
            failures.append(f"{where}: expected an object")
            continue
        arrivals = point.get("arrivals")
        if point.get("fingerprints_equal") is not True:
            failures.append(f"{where}: engines diverged at {arrivals} arrivals")
        heap = by_key.get(("heap", arrivals))
        legacy = by_key.get(("legacy", arrivals))
        if heap is None or legacy is None:
            failures.append(f"{where}: no measured row pair at {arrivals} arrivals")
        elif heap.get("fingerprint") != legacy.get("fingerprint"):
            failures.append(
                f"{where}: recorded equal but row fingerprints differ at "
                f"{arrivals} arrivals"
            )

    speedup = doc.get("speedup")
    if _check_fields(speedup, SPEEDUP_FIELDS, "speedup", failures):
        point = speedup.get("arrivals")
        if ("heap", point) not in by_key or ("legacy", point) not in by_key:
            failures.append(f"speedup references unmeasured point {point!r}")
        ratio = speedup.get("ratio")
        if isinstance(ratio, (int, float)) and ratio <= 0:
            failures.append(f"speedup ratio must be positive, got {ratio}")
    return failures


AUTOSCALE_SCHEMA = "cronus.bench_autoscale/v1"
AUTOSCALE_ROW_FIELDS = {
    "config": str,
    "arrivals": int,
    "devices": int,
    "wall_s": (int, float),
    "makespan_us": (int, float),
    "device_seconds": (int, float),
    "completed": int,
    "expired": int,
    "boots": int,
    "retires": int,
    "fingerprint": str,
    "scale_fingerprint": str,
}
AUTOSCALE_CONFIG_FIELDS = {
    "devices": int,
    "max_batch": int,
    "max_delay_us": (int, float),
    "arrivals": int,
    "tenants": int,
    "seed": int,
    "mean_rate_rps": (int, float),
    "service_model": str,
    "policy": dict,
}
AUTOSCALE_POLICY_FIELDS = {
    "window_us": (int, float),
    "eval_interval_us": (int, float),
    "headroom": (int, float),
    "min_devices": int,
    "boot_delay_us": (int, float),
    "scale_down_ticks": int,
    "scale_down_cooldown_us": (int, float),
}
AUTOSCALE_SAVINGS_FIELDS = {
    "static_device_seconds": (int, float),
    "autoscaled_device_seconds": (int, float),
    "saving_fraction": (int, float),
    "floor": (int, float),
}
AUTOSCALE_P99_FIELDS = {
    "tenants_gated": int,
    "tenants_ungated": int,
    "min_samples": int,
    "worst_ratio": (int, float),
    "worst_tenant": str,
    "ceiling": (int, float),
}


def validate_autoscale(doc) -> list:
    """All ``cronus.bench_autoscale/v1`` violations (empty list = valid)."""
    failures = []
    if not isinstance(doc, dict):
        return [f"document root must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != AUTOSCALE_SCHEMA:
        failures.append(f"schema tag {doc.get('schema')!r} != {AUTOSCALE_SCHEMA!r}")
    if doc.get("mode") not in ("full", "smoke"):
        failures.append(f"mode {doc.get('mode')!r} must be 'full' or 'smoke'")
    config = doc.get("config")
    if _check_fields(config, AUTOSCALE_CONFIG_FIELDS, "config", failures):
        _check_fields(
            config.get("policy"), AUTOSCALE_POLICY_FIELDS, "config.policy", failures
        )

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        failures.append("rows must be a non-empty list")
        rows = []
    by_config = {}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check_fields(row, AUTOSCALE_ROW_FIELDS, where, failures):
            continue
        for key in ("fingerprint", "scale_fingerprint"):
            if not _is_fingerprint(row.get(key)):
                failures.append(f"{where}: {key} is not 64 hex chars")
        for key in ("arrivals", "device_seconds", "makespan_us"):
            value = row.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                failures.append(f"{where}: {key} must be positive, got {value}")
        by_config[row.get("config")] = row

    static = by_config.get("static")
    auto = by_config.get("autoscaled")
    replays = [r for c, r in sorted(by_config.items()) if c.startswith("replay")]
    if static is None:
        failures.append("rows: no 'static' baseline row")
    if auto is None:
        failures.append("rows: no 'autoscaled' row")
    if not replays:
        failures.append("rows: no replay rows")
    if auto is not None:
        for replay in replays:
            name = replay["config"]
            if replay.get("fingerprint") != auto.get("fingerprint"):
                failures.append(f"{name}: SLO fingerprint differs from autoscaled row")
            if replay.get("scale_fingerprint") != auto.get("scale_fingerprint"):
                failures.append(
                    f"{name}: scale fingerprint differs from autoscaled row"
                )

    savings = doc.get("savings")
    if _check_fields(savings, AUTOSCALE_SAVINGS_FIELDS, "savings", failures):
        if static is not None and auto is not None:
            recorded = savings.get("saving_fraction")
            derived = 1.0 - auto["device_seconds"] / static["device_seconds"]
            if isinstance(recorded, (int, float)) and abs(recorded - derived) > 1e-3:
                failures.append(
                    f"savings: saving_fraction {recorded} inconsistent with the "
                    f"rows (derived {derived:.4f})"
                )

    _check_fields(doc.get("p99"), AUTOSCALE_P99_FIELDS, "p99", failures)

    replay_block = doc.get("replay")
    if not isinstance(replay_block, dict):
        failures.append("replay block missing")
    else:
        for key in ("slo_fingerprints_equal", "scale_fingerprints_equal"):
            if replay_block.get(key) is not True:
                failures.append(f"replay: {key} is not true")
    return failures


LLM_SCHEMA = "cronus.bench_llm/v1"
LLM_ROW_CONFIGS = ("continuous", "static", "replay", "crash")
LLM_ROW_FIELDS = {
    "config": str,
    "mode": str,
    "sequences": int,
    "devices": int,
    "max_running": int,
    "wall_s": (int, float),
    "makespan_us": (int, float),
    "tokens": int,
    "tokens_per_s": (int, float),
    "finished": int,
    "expired": int,
    "preempted": int,
    "reprefills": int,
    "ttft_p50_us": (int, float),
    "ttft_p99_us": (int, float),
    "itl_p50_us": (int, float),
    "itl_p99_us": (int, float),
    "token_fingerprint": str,
    "slo_fingerprint": str,
}
LLM_CONFIG_FIELDS = {
    "devices": int,
    "max_running": int,
    "tenants": int,
    "sequences_per_tenant": int,
    "seed": int,
    "mean_interarrival_us": (int, float),
    "n_layers": int,
    "d_model": int,
    "kv_dtype_bytes": int,
    "block_tokens": int,
    "kv_bytes_per_token": int,
    "pages_per_block": int,
}
LLM_SPEEDUP_FIELDS = {
    "continuous_tokens_per_s": (int, float),
    "static_tokens_per_s": (int, float),
    "ratio": (int, float),
}
# "exactly_once_reprefill" is a bool, which _check_fields rejects by
# design (bools pass isinstance against int); it gets its own `is True`
# check in the validator instead.
LLM_RECOVERY_FIELDS = {
    "crashes": list,
    "preempted": int,
    "reprefills": int,
    "scrub_violations": int,
    "kv_leaks": int,
    "sequences_lost": int,
}


def validate_llm(doc) -> list:
    """All ``cronus.bench_llm/v1`` violations (empty list = valid)."""
    failures = []
    if not isinstance(doc, dict):
        return [f"document root must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != LLM_SCHEMA:
        failures.append(f"schema tag {doc.get('schema')!r} != {LLM_SCHEMA!r}")
    if doc.get("mode") not in ("full", "smoke"):
        failures.append(f"mode {doc.get('mode')!r} must be 'full' or 'smoke'")
    _check_fields(doc.get("config"), LLM_CONFIG_FIELDS, "config", failures)

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        failures.append("rows must be a non-empty list")
        rows = []
    by_config = {}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check_fields(row, LLM_ROW_FIELDS, where, failures):
            continue
        if row.get("config") not in LLM_ROW_CONFIGS:
            failures.append(
                f"{where}: config {row.get('config')!r} not in {LLM_ROW_CONFIGS}"
            )
        for key in ("token_fingerprint", "slo_fingerprint"):
            if not _is_fingerprint(row.get(key)):
                failures.append(f"{where}: {key} is not 64 hex chars")
        for key in ("sequences", "tokens", "tokens_per_s", "makespan_us"):
            value = row.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                failures.append(f"{where}: {key} must be positive, got {value}")
        by_config[row.get("config")] = row
    for config in LLM_ROW_CONFIGS:
        if config not in by_config:
            failures.append(f"rows: no {config!r} row")

    continuous = by_config.get("continuous")
    static = by_config.get("static")
    replay = by_config.get("replay")
    crash = by_config.get("crash")

    speedup = doc.get("speedup")
    if _check_fields(speedup, LLM_SPEEDUP_FIELDS, "speedup", failures):
        ratio = speedup.get("ratio")
        if isinstance(ratio, (int, float)) and ratio <= 1.0:
            failures.append(
                f"speedup ratio {ratio} does not beat the static baseline"
            )
        if continuous is not None and static is not None:
            if speedup.get("continuous_tokens_per_s") != continuous.get(
                "tokens_per_s"
            ) or speedup.get("static_tokens_per_s") != static.get("tokens_per_s"):
                failures.append("speedup block inconsistent with the rows")

    replay_block = doc.get("replay")
    if not isinstance(replay_block, dict):
        failures.append("replay block missing")
    else:
        if replay_block.get("fingerprints_equal") is not True:
            failures.append("replay: fingerprints_equal is not true")
        if continuous is not None and replay is not None:
            for key in ("token_fingerprint", "slo_fingerprint"):
                if replay.get(key) != continuous.get(key):
                    failures.append(
                        f"replay row {key} differs from the continuous row"
                    )

    recovery = doc.get("recovery")
    if _check_fields(recovery, LLM_RECOVERY_FIELDS, "recovery", failures):
        if not recovery.get("crashes"):
            failures.append("recovery: no crashes recorded")
        if recovery.get("scrub_violations"):
            failures.append(
                f"recovery: {recovery['scrub_violations']} unscrubbed KV bytes"
            )
        if recovery.get("kv_leaks"):
            failures.append(
                f"recovery: {recovery['kv_leaks']} cross-sequence KV leaks"
            )
        if recovery.get("exactly_once_reprefill") is not True:
            failures.append("recovery: exactly_once_reprefill is not true")
        if recovery.get("sequences_lost"):
            failures.append(
                f"recovery: {recovery['sequences_lost']} sequences lost"
            )
        if crash is not None and recovery.get("reprefills") != crash.get(
            "reprefills"
        ):
            failures.append("recovery block inconsistent with the crash row")
    return failures


CLUSTER_SCHEMA = "cronus.bench_cluster/v1"
CLUSTER_ROW_FIELDS = {
    "nodes": int,
    "devices": int,
    "setup_wall_s": (int, float),
    "wall_s": (int, float),
    "makespan_us": (int, float),
    "completed": int,
    "deadline_met": int,
    "expired": int,
    "throughput_rps": (int, float),
    "steals": int,
    "migrations": int,
    "fingerprint": str,
}
CLUSTER_CONFIG_FIELDS = {
    "gpus_per_node": int,
    "max_batch": int,
    "max_delay_us": (int, float),
    "mean_rate_rps": (int, float),
    "requests": int,
    "tenants": int,
    "seed": int,
    "steal_threshold": int,
    "service_model": str,
}
CLUSTER_SCALING_FIELDS = {
    "low_nodes": int,
    "high_nodes": int,
    "low_rps": (int, float),
    "high_rps": (int, float),
    "ratio": (int, float),
    "floor": (int, float),
}
# "exactly_once" is a bool and gets its own `is True` check (bools pass
# isinstance against int, which _check_fields rejects by design).
CLUSTER_FAILOVER_FIELDS = {
    "nodes": int,
    "killed_node": str,
    "kill_t_us": (int, float),
    "migrations": int,
    "migrated_requests": int,
    "orphaned": int,
    "scrub_pages_audited": int,
    "scrub_violations": int,
    "restore_mismatches": int,
    "lost": int,
    "duplicated": int,
    "completed": int,
    "expired": int,
    "fingerprint": str,
}
CLUSTER_WORKFLOW_FIELDS = {
    "name": str,
    "stages": int,
    "nodes": list,
    "nodes_spanned": int,
    "cross_node_transfers": int,
    "transfer_us": (int, float),
    "makespan_us": (int, float),
    "trace_events": int,
    "trace_problems": list,
    "causal_cross_node_links": int,
}


def validate_cluster(doc) -> list:
    """All ``cronus.bench_cluster/v1`` violations (empty list = valid)."""
    failures = []
    if not isinstance(doc, dict):
        return [f"document root must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != CLUSTER_SCHEMA:
        failures.append(f"schema tag {doc.get('schema')!r} != {CLUSTER_SCHEMA!r}")
    if doc.get("mode") not in ("full", "smoke"):
        failures.append(f"mode {doc.get('mode')!r} must be 'full' or 'smoke'")
    _check_fields(doc.get("config"), CLUSTER_CONFIG_FIELDS, "config", failures)

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        failures.append("rows must be a non-empty list")
        rows = []
    by_nodes = {}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check_fields(row, CLUSTER_ROW_FIELDS, where, failures):
            continue
        if not _is_fingerprint(row.get("fingerprint")):
            failures.append(f"{where}: fingerprint is not 64 hex chars")
        for key in ("nodes", "setup_wall_s", "wall_s", "makespan_us",
                    "throughput_rps"):
            value = row.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                failures.append(f"{where}: {key} must be positive, got {value}")
        by_nodes[row.get("nodes")] = row

    scaling = doc.get("scaling")
    if _check_fields(scaling, CLUSTER_SCALING_FIELDS, "scaling", failures):
        for key in ("low_nodes", "high_nodes"):
            if scaling.get(key) not in by_nodes:
                failures.append(f"scaling references unmeasured point {key}")
        ratio = scaling.get("ratio")
        floor = scaling.get("floor")
        if isinstance(ratio, (int, float)) and isinstance(floor, (int, float)):
            if ratio < floor:
                failures.append(
                    f"scaling ratio {ratio}x below the recorded {floor}x floor"
                )
        if doc.get("mode") == "full" and isinstance(floor, (int, float)):
            if floor < 4.0:
                failures.append(
                    f"full-mode scaling floor must be >= 4.0, got {floor}"
                )

    failover = doc.get("failover")
    if _check_fields(failover, CLUSTER_FAILOVER_FIELDS, "failover", failures):
        if not _is_fingerprint(failover.get("fingerprint")):
            failures.append("failover: fingerprint is not 64 hex chars")
        if failover.get("exactly_once") is not True:
            failures.append("failover: exactly_once is not true")
        for key in ("lost", "duplicated", "orphaned", "scrub_violations",
                    "restore_mismatches"):
            if failover.get(key):
                failures.append(f"failover: {key} = {failover[key]} (must be 0)")
        for key in ("migrations", "migrated_requests", "scrub_pages_audited"):
            value = failover.get(key)
            if isinstance(value, int) and value <= 0:
                failures.append(f"failover: {key} must be positive, got {value}")

    replay = doc.get("replay")
    if not isinstance(replay, dict):
        failures.append("replay block missing")
    else:
        if replay.get("fingerprints_equal") is not True:
            failures.append("replay: fingerprints_equal is not true")
        if failover is not None and isinstance(failover, dict):
            if replay.get("fingerprint") != failover.get("fingerprint"):
                failures.append("replay fingerprint differs from the failover row")

    workflow = doc.get("workflow")
    if _check_fields(workflow, CLUSTER_WORKFLOW_FIELDS, "workflow", failures):
        if workflow.get("schema_ok") is not True:
            failures.append("workflow: schema_ok is not true")
        if workflow.get("trace_problems"):
            failures.append(
                f"workflow: trace has problems {workflow['trace_problems'][:3]}"
            )
        spanned = workflow.get("nodes_spanned")
        if isinstance(spanned, int) and spanned < 2:
            failures.append(
                f"workflow spans {spanned} node(s); must cross the boundary"
            )
        for key in ("cross_node_transfers", "causal_cross_node_links"):
            value = workflow.get(key)
            if isinstance(value, int) and value < 1:
                failures.append(f"workflow: {key} must be >= 1, got {value}")
    return failures


OBS_SCHEMA = "cronus.bench_obs/v1"
OBS_CONFIG_FIELDS = {
    "nodes": int,
    "gpus_per_node": int,
    "max_batch": int,
    "max_delay_us": (int, float),
    "mean_rate_rps": (int, float),
    "deadline_us": (int, float),
    "scrape_interval_us": (int, float),
    "requests": int,
    "tenants": int,
    "seed": int,
    "service_model": str,
}
# The equality flags ("makespans_equal", "report_fingerprints_equal",
# "within_one_interval", ...) are bools and get their own `is True`
# checks (bools pass isinstance against int, which _check_fields
# rejects by design).
OBS_OVERHEAD_FIELDS = {
    "off_wall_s": (int, float),
    "instrumented_wall_s": (int, float),
    "pipeline_wall_s": (int, float),
    "repeats": int,
    "ratio": (int, float),
    "ceiling": (int, float),
    "instrumentation_ratio": (int, float),
    "makespan_us": (int, float),
    "fingerprint": str,
}
OBS_NODE_KILL_FIELDS = {
    "killed_node": str,
    "kill_t_us": (int, float),
    "alert_t_us": (int, float),
    "detection_us": (int, float),
    "scrape_interval_us": (int, float),
    "severity": str,
    "recovery_trace_events": int,
    "trace_problems": list,
    "dumped_traces": int,
    "alerts_total": int,
}
OBS_NOISY_FIELDS = {
    "trace_us": (int, float),
    "ramp_start_us": (int, float),
    "alert_t_us": (int, float),
    "detection_us": (int, float),
    "slow_window_us": (int, float),
    "value": (int, float),
    "threshold": (int, float),
    "victim_false_pages": int,
}
OBS_REPLAY_FIELDS = {
    "scrapes": int,
    "series": int,
    "alerts": int,
    "fingerprint": str,
}
OBS_SAMPLER_FIELDS = {
    "considered": int,
    "retained": int,
    "retained_bytes": int,
    "byte_budget": int,
    "budget_rejected": int,
    "discarded_traces": int,
    "discarded_spans": int,
}


def validate_obs(doc) -> list:
    """All ``cronus.bench_obs/v1`` violations (empty list = valid)."""
    failures = []
    if not isinstance(doc, dict):
        return [f"document root must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != OBS_SCHEMA:
        failures.append(f"schema tag {doc.get('schema')!r} != {OBS_SCHEMA!r}")
    if doc.get("mode") not in ("full", "smoke"):
        failures.append(f"mode {doc.get('mode')!r} must be 'full' or 'smoke'")
    _check_fields(doc.get("config"), OBS_CONFIG_FIELDS, "config", failures)

    overhead = doc.get("overhead")
    if _check_fields(overhead, OBS_OVERHEAD_FIELDS, "overhead", failures):
        if not _is_fingerprint(overhead.get("fingerprint")):
            failures.append("overhead: fingerprint is not 64 hex chars")
        for key in ("off_wall_s", "instrumented_wall_s", "pipeline_wall_s",
                    "ratio", "instrumentation_ratio", "makespan_us"):
            value = overhead.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                failures.append(f"overhead: {key} must be positive, got {value}")
        ratio = overhead.get("ratio")
        ceiling = overhead.get("ceiling")
        if isinstance(ratio, (int, float)) and isinstance(ceiling, (int, float)):
            if ratio > ceiling:
                failures.append(
                    f"overhead ratio {ratio}x exceeds the recorded "
                    f"{ceiling}x ceiling"
                )
        if doc.get("mode") == "full" and isinstance(ceiling, (int, float)):
            if ceiling > 1.10:
                failures.append(
                    f"full-mode overhead ceiling must be <= 1.10, got {ceiling}"
                )
        for key in ("report_fingerprints_equal", "makespans_equal"):
            if overhead.get(key) is not True:
                failures.append(f"overhead: {key} is not true (recording perturbed the run)")

    node_kill = doc.get("node_kill")
    if _check_fields(node_kill, OBS_NODE_KILL_FIELDS, "node_kill", failures):
        if node_kill.get("within_one_interval") is not True:
            failures.append("node_kill: page fired later than one scrape interval")
        if node_kill.get("schema_ok") is not True:
            failures.append("node_kill: schema_ok is not true")
        if node_kill.get("trace_problems"):
            failures.append(
                f"node_kill: trace has problems {node_kill['trace_problems'][:3]}"
            )
        detection = node_kill.get("detection_us")
        if isinstance(detection, (int, float)) and detection < 0:
            failures.append(f"node_kill: detection_us negative ({detection})")
        for key in ("recovery_trace_events", "dumped_traces", "alerts_total"):
            value = node_kill.get(key)
            if isinstance(value, int) and value < 1:
                failures.append(f"node_kill: {key} must be >= 1, got {value}")

    noisy = doc.get("noisy")
    if _check_fields(noisy, OBS_NOISY_FIELDS, "noisy", failures):
        if noisy.get("within_slow_window") is not True:
            failures.append("noisy: rejection spike missed the slow window")
        if noisy.get("victim_false_pages"):
            failures.append(
                f"noisy: {noisy['victim_false_pages']} false pages on the victim"
            )
        detection = noisy.get("detection_us")
        if isinstance(detection, (int, float)) and detection < 0:
            failures.append("noisy: ramp was never detected")
        value = noisy.get("value")
        threshold = noisy.get("threshold")
        if isinstance(value, (int, float)) and isinstance(threshold, (int, float)):
            if value <= threshold:
                failures.append(
                    f"noisy: fired value {value} does not breach threshold "
                    f"{threshold}"
                )

    replay = doc.get("replay")
    if _check_fields(replay, OBS_REPLAY_FIELDS, "replay", failures):
        for key in ("store_fingerprints_equal", "alert_fingerprints_equal"):
            if replay.get(key) is not True:
                failures.append(f"replay: {key} is not true")
        if not _is_fingerprint(replay.get("fingerprint")):
            failures.append("replay: fingerprint is not 64 hex chars")
        for key in ("scrapes", "series", "alerts"):
            value = replay.get(key)
            if isinstance(value, int) and value < 1:
                failures.append(f"replay: {key} must be >= 1, got {value}")

    sampler = doc.get("sampler")
    if _check_fields(sampler, OBS_SAMPLER_FIELDS, "sampler", failures):
        retained = sampler.get("retained")
        considered = sampler.get("considered")
        if isinstance(retained, int) and isinstance(considered, int):
            if considered < 1:
                failures.append("sampler: considered no traces")
            elif not 0 < retained <= considered:
                failures.append(
                    f"sampler: retained {retained} of {considered} "
                    "(tail sampling kept nothing or over-counted)"
                )
    return failures


VALIDATORS = {
    SCHEMA: validate,
    AUTOSCALE_SCHEMA: validate_autoscale,
    LLM_SCHEMA: validate_llm,
    CLUSTER_SCHEMA: validate_cluster,
    OBS_SCHEMA: validate_obs,
}


def main(argv) -> int:
    path = argv[1] if len(argv) > 1 else "BENCH_scale.json"
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot read {path}: {exc}", file=sys.stderr)
        return 1

    tag = doc.get("schema") if isinstance(doc, dict) else None
    validator = VALIDATORS.get(tag, validate)
    failures = validator(doc)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    if tag == OBS_SCHEMA:
        overhead = doc["overhead"]
        node_kill = doc["node_kill"]
        sampler = doc["sampler"]
        print(
            f"bench schema ok: pipeline overhead {overhead['ratio']}x "
            f"(ceiling {overhead['ceiling']}x), node-death page in "
            f"{node_kill['detection_us'] / 1e3:.1f}ms with "
            f"{node_kill['recovery_trace_events']} recovery events, "
            f"{sampler['retained']}/{sampler['considered']} traces retained, "
            f"replay byte-identical"
        )
        return 0
    rows = doc["rows"]
    if tag == AUTOSCALE_SCHEMA:
        savings = doc["savings"]
        p99 = doc["p99"]
        print(
            f"bench schema ok: {len(rows)} rows, "
            f"{savings['saving_fraction']:.1%} device-seconds saved, "
            f"worst gated p99 ratio {p99['worst_ratio']}x, replays byte-identical"
        )
        return 0
    if tag == LLM_SCHEMA:
        speed = doc["speedup"]
        recovery = doc["recovery"]
        print(
            f"bench schema ok: {len(rows)} rows, continuous "
            f"{speed['continuous_tokens_per_s']:,.0f} tok/s = "
            f"{speed['ratio']}x static, {len(recovery['crashes'])} crashes "
            f"with exactly-once re-prefill, replay byte-identical"
        )
        return 0
    if tag == CLUSTER_SCHEMA:
        scaling = doc["scaling"]
        failover = doc["failover"]
        workflow = doc["workflow"]
        print(
            f"bench schema ok: {len(rows)} rows, "
            f"{scaling['low_nodes']}->{scaling['high_nodes']} nodes = "
            f"{scaling['ratio']}x, failover lost {failover['lost']} of "
            f"{failover['migrated_requests']} migrated, workflow spans "
            f"{workflow['nodes_spanned']} nodes, replay byte-identical"
        )
        return 0
    heap_max = max(r["arrivals"] for r in rows if r["engine"] == "heap")
    speed = doc["speedup"]
    print(
        f"bench schema ok: {len(rows)} rows to {heap_max:,} arrivals, "
        f"{len(doc['equivalence'])} equivalence points, "
        f"{speed['ratio']}x at {speed['arrivals']:,}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
