"""Tests of the repo benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at its tiny size, untraced and traced, through the
same ``run.py`` entry point the full benchmark uses.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import compare
import probes
import run
import tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
RECORDED_SEED = json.loads(run.FINGERPRINTS.read_text())["seed"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(tmp_path, workload, trace, seed=RECORDED_SEED):
    """One tiny run through the benchmark's command line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--out", str(tmp_path)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (tmp_path / f"{workload}.tiny.seed{seed}.trace{trace}.json").read_text()
    )
    return result, record


def test_benchmark_json_names_every_metric_the_run_reports():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(probes.metric_units())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    assert {m["name"] for m in SPEC["end_to_end"]} == {"req_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_untraced_and_traced(tmp_path, workload):
    plain, plain_record = bench(tmp_path, workload, 0)
    assert plain["correct"] is True and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain_record["recorded_fingerprint"] == plain_record["fingerprint"]
    assert {"host_req_per_s", "host_setup_s", "reference_s"} <= set(plain_record["summary"])
    env = plain_record["env"]
    assert {"python", "numpy", "platform", "nproc", "git_sha", "git_dirty", "seed",
            "trace.overhead_ratio"} <= set(env)

    traced, record = bench(tmp_path, workload, 1)
    assert traced["correct"] is True and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # The wrappers are inert: the traced repeat reproduces the fingerprint.
    assert {r["fingerprint"] for r in record["traced_repeats"]} == {record["fingerprint"]}
    assert record["fingerprint"] == plain_record["fingerprint"]
    assert record["env"]["trace.overhead_ratio"] > 1.0
    chrome = json.loads(Path(record["files"]["chrome_trace"]).read_text())
    from repro.obs.export import validate_chrome_trace

    assert validate_chrome_trace(chrome) == []
    table = Path(record["files"]["layer_table"]).read_text()
    assert table.startswith("layer") and "total" in table


def test_recorded_counts_on_the_tiny_sizes(tmp_path):
    _, record = bench(tmp_path, "serve-burst", 1)
    layers = record["traced_repeats"][0]["layers"]
    assert layers["serve.batcher.depth_per_place"] == 14.0
    _, record = bench(tmp_path, "cluster-failover", 1)
    layers = record["traced_repeats"][0]["layers"]
    assert layers["crypto.keys.verify_calls"] == 616
    assert layers["crypto.keys.verify_distinct_ratio"] == 8 / 616
    assert layers["cluster.cluster.verifications"] == 56
    assert 7.0 < layers["cluster.serve.hash_per_route"] < 8.0


def test_wrong_recorded_fingerprint_fails_every_arrival(tmp_path, monkeypatch):
    recorded = json.loads(run.FINGERPRINTS.read_text())
    recorded["tiny"]["enclave-rpc"] = "0" * 64
    fake = tmp_path / "fingerprints.json"
    fake.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "FINGERPRINTS", fake)
    args = Namespace(workload="enclave-rpc", seed=RECORDED_SEED, seconds=0.0,
                     trace=0, size="tiny", out=tmp_path)
    record = run.measure(args)
    assert record["correct"] is False
    assert record["failed"] == record["attempted"] > 0


def test_other_seed_is_compared_between_repeats_only():
    assert run.recorded_fingerprint("serve-burst", 7, "full") is None
    same = {"fingerprint": "a", "arrivals": 10, "failed": 0}
    other = {"fingerprint": "b", "arrivals": 10, "failed": 0}
    broken = {"fingerprint": "a", "arrivals": 10, "failed": 2}
    assert run.audit([same, same, broken], "a") == 2
    assert run.audit([same, other], "a") == 10


def test_times_are_reported_at_the_reference_speed():
    # On a host where the yardstick takes twice its reference time, a
    # repeat's measured seconds are reported halved.
    rec = {"run_s": 2.0, "setup_s": 0.5, "reference_s": 2 * run.REFERENCE_S}
    assert run.at_reference(rec, "run_s") == 1.0
    assert run.at_reference(rec, "setup_s") == 0.25


def test_tracer_self_time_and_inert_wrappers():
    ticks = iter(range(100))
    tracer = tracing.Tracer(span_cap=2)
    tracer.clock = lambda: float(next(ticks))
    outer_i = tracer.key_index("outer", "a")
    inner_i = tracer.key_index("inner", "b")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    inner_w = tracing._wrap(tracer, inner_i, "inner", inner, None)
    outer_w = tracing._wrap(tracer, outer_i, "outer", lambda: inner_w(1) + inner_w(2), None)
    assert outer_w() == 6
    with pytest.raises(ValueError):
        inner_w(-1)
    totals = tracer.layer_totals()
    # outer: ticks 0..5 = 5s, of which the inner calls cover (2-1)+(4-3) = 2s.
    assert totals["a"] == (1, 3.0)
    assert totals["b"] == (3, 3.0)
    assert tracer.raised == {("inner", "ValueError"): 1}
    # The cap keeps the first two spans; the second inner call and the
    # failing root call are counted but not recorded.
    assert tracer.span_parent == [-1, 0] and tracer.spans_dropped == 2
    trace = tracer.chrome_trace()
    from repro.obs.export import validate_chrome_trace

    assert validate_chrome_trace(trace) == []


def test_compare_names_the_layer_that_moved(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for directory, placement in ((base, 0.5), (change, 0.2)):
        directory.mkdir()
        for trace, metrics in (
            (0, {"req_per_s": 1000.0 if directory is base else 1300.0,
                 "setup_s": 0.1, "peak_rss_mb": 80.0}),
            (1, {"serve.placement.self_s": placement, "serve.slo.self_s": 0.1,
                 "serve.placement.calls": 5, "serve.slo.calls": 5}),
        ):
            record = {"workload": "serve-burst", "trace": trace,
                      "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
            (directory / f"serve-burst.full.seed1.trace{trace}.json").write_text(json.dumps(record))
    text = compare.compare(base, change, SPEC)
    assert "moved most: serve.placement (-0.3000 s" in text
    assert "req_per_s" in text and "+30.0% (better" in text


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-burst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
