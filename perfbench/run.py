"""The repo benchmark: simulator speed, set-up and memory, per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-burst --seed 2022 --seconds 30 --trace 0

Runs repeats of one workload, each in a fresh process
(``perfbench/workloads.py``), until ``--seconds`` of host time is used, and
prints one JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the untraced repeats and reports the end-to-end
metrics (medians over the repeats).  Times are reported at a reference
host speed (``REFERENCE_S``); the record keeps the plain host figures
too.  ``--trace 1`` alternates untraced and traced repeats and reports
the per-layer metrics, the traced run's overhead against the untraced
one, and writes a Chrome trace and a per-layer self-time table.  Every run also writes its full record (each
repeat, the spreads and the environment) to ``--out``; ``compare.py``
reads two such directories.

Correctness, on every repeat: arrivals that break an audit count as
failed; every repeat must reproduce the same simulated-result fingerprint;
on the recorded seed that fingerprint must equal the one in
``perfbench/fingerprints.json`` (else the repeat's arrivals all count as
failed); and a traced repeat must reproduce the untraced fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKER = HERE / "workloads.py"
FINGERPRINTS = HERE / "fingerprints.json"

MIN_REPEATS = 3
"""Untraced repeats per run, at least, however short ``--seconds`` is."""
REFERENCE_S = 0.1
"""Seconds of ``workloads.reference_loop`` at the reference host speed.
Measured times are reported at that speed: a repeat's seconds are scaled
by ``REFERENCE_S / reference_s``, its own reading of the yardstick."""
REPEAT_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not measure (missing sources, a repeat died)."""


def repeat(workload: str, seed: int, size: str, trace: bool, trace_out: Optional[Path]):
    """One repeat in a fresh process; returns its JSON record."""
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--size", size, "--trace", "1" if trace else "0",
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # One thread per repeat: the simulator is single-threaded, and an idle
    # BLAS thread pool would only add noise on a small host.
    env = dict(
        os.environ, PYTHONPATH=str(REPO / "src"),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            cmd, cwd=REPO, env=env, capture_output=True, text=True,
            timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repeat exceeded {REPEAT_TIMEOUT_S:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} repeat exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count (quartiles equal the median below n=2)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def environment(seed: int) -> Dict[str, object]:
    """Where and what was measured (the ROADMAP's ``env`` record)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = dirty = None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=REPO, capture_output=True, text=True, timeout=10,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def recorded_fingerprint(workload: str, seed: int, size: str) -> Optional[str]:
    recorded = json.loads(FINGERPRINTS.read_text())
    if seed != recorded["seed"]:
        return None
    return recorded[size][workload]


def audit(records: List[dict], expected: str) -> int:
    """Failed arrivals over ``records``: audit breaks, plus every arrival
    of a repeat whose fingerprint is not ``expected``."""
    return sum(
        rec["failed"] if rec["fingerprint"] == expected else rec["arrivals"]
        for rec in records
    )


def at_reference(rec: dict, key: str) -> float:
    """A repeat's measured seconds, scaled to the reference host speed."""
    return rec[key] * REFERENCE_S / rec["reference_s"]


def measure(args) -> Dict[str, object]:
    """Run the repeats and build the run's full record."""
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {REPO / 'src'}")
    metric_spec = json.loads((REPO / "BENCHMARK.json").read_text())
    out_dir = args.out if args.out.is_absolute() else REPO / args.out
    stem = f"{args.workload}.{args.size}.seed{args.seed}"
    trace_path = out_dir / f"{stem}.trace.json" if args.trace else None
    start = time.perf_counter()
    plain: List[dict] = []
    traced: List[dict] = []
    while True:
        plain.append(repeat(args.workload, args.seed, args.size, False, None))
        if args.trace:
            traced.append(repeat(args.workload, args.seed, args.size, True, trace_path))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if len(plain) >= (1 if args.trace else MIN_REPEATS) and (
            elapsed + per_round > args.seconds
        ):
            break
    reference = plain[0]["fingerprint"]
    expected = recorded_fingerprint(args.workload, args.seed, args.size)
    records = plain + traced
    failed = audit(records, expected or reference)
    trace_problems = [p for rec in traced for p in rec["trace_problems"]]
    summary = {
        "req_per_s": quartiles([r["arrivals"] / at_reference(r, "run_s") for r in plain]),
        "setup_s": quartiles([at_reference(r, "setup_s") for r in plain]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in plain]),
        "host_req_per_s": quartiles([r["arrivals"] / r["run_s"] for r in plain]),
        "host_setup_s": quartiles([r["setup_s"] for r in plain]),
        "reference_s": quartiles([r["reference_s"] for r in plain]),
    }
    env = environment(args.seed)
    env["trace.overhead_ratio"] = None
    if args.trace:
        window = statistics.median(r["setup_s"] + r["run_s"] for r in plain)
        traced_window = statistics.median(r["setup_s"] + r["run_s"] for r in traced)
        layers = {
            name: statistics.median(rec["layers"][name] for rec in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_ratio"] = traced_window / window
        env["trace.overhead_ratio"] = layers["trace.overhead_ratio"]
        wanted = metric_spec["per_layer"]
        values = layers
    else:
        wanted = metric_spec["end_to_end"]
        values = {name: q["median"] for name, q in summary.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "env": env,
        "fingerprint": reference,
        "recorded_fingerprint": expected,
        "correct": failed == 0 and not trace_problems,
        "attempted": sum(r["arrivals"] for r in records),
        "failed": failed,
        "trace_problems": trace_problems[:5],
        "summary": summary,
        "metrics": metrics,
        "repeats": plain,
        "traced_repeats": traced,
        "files": {
            "record": str(out_dir / f"{stem}.trace{int(bool(args.trace))}.json"),
            "chrome_trace": str(trace_path) if trace_path else None,
            "layer_table": str(out_dir / f"{stem}.layers.txt") if args.trace else None,
        },
    }


def layer_table(metrics: Dict[str, dict]) -> str:
    """The per-layer self-time table, largest self time first."""
    rows = []
    total = 0.0
    for name, metric in metrics.items():
        if name.endswith(".self_s") and name.count(".") == 2:
            layer = name[: -len(".self_s")]
            calls = metrics[f"{layer}.calls"]["value"]
            rows.append((metric["value"], layer, calls))
            total += metric["value"]
    rows.sort(reverse=True)
    lines = [f"{'layer':<22} {'calls':>10} {'self_s':>10} {'share':>7}"]
    for self_s, layer, calls in rows:
        share = self_s / total if total else 0.0
        lines.append(f"{layer:<22} {int(calls):>10} {self_s:>10.4f} {share:>6.1%}")
    lines.append(f"{'total':<22} {'':>10} {total:>10.4f}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=SIZES, default="full",
        help="tiny: the test-suite size of each workload",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("perfbench/out"),
        help="directory for the run record, Chrome trace and layer table",
    )
    args = parser.parse_args(argv)
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    files = record["files"]
    out = Path(files["record"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if files["layer_table"]:
        Path(files["layer_table"]).write_text(layer_table(record["metrics"]))
    expected = record["recorded_fingerprint"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"fingerprint={record['fingerprint']} "
        + ("(matches recorded)" if expected == record["fingerprint"]
           else "(not the recorded seed)" if expected is None else "(DIFFERS from recorded)")
    )
    for name, q in record["summary"].items():
        print(
            f"  {name}: median {q['median']:.6g} (q1 {q['q1']:.6g}, "
            f"q3 {q['q3']:.6g}, n={q['n']})"
        )
    print(f"  record: {out}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
