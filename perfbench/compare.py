"""Compare two result sets of the repo benchmark.

A result set is the ``--out`` directory of ``perfbench/run.py`` runs
(default ``perfbench/out``): one ``<workload>.<size>.seed<N>.trace<0|1>.json``
record per run.  Typical use, one set per commit::

    python3 perfbench/run.py --workload serve-burst --seed 1 --seconds 30 --trace 0 --out /tmp/base
    ...                                                                  --out /tmp/change
    python3 perfbench/compare.py /tmp/base /tmp/change

For each workload in both sets it prints, per end-to-end metric, each
side's median and quartiles over its runs and the change of the median
against the bound in ``BENCHMARK.json``; then the per-layer ``self_s``
deltas of the traced runs, largest first, and names the layer that moved
most.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from run import quartiles

HERE = Path(__file__).resolve().parent


def load(directory: Path) -> Dict[str, Dict[int, List[dict]]]:
    """workload -> trace flag -> run records."""
    runs: Dict[str, Dict[int, List[dict]]] = {}
    for path in sorted(directory.glob("*.trace[01].json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], {}).setdefault(int(record["trace"]), []).append(record)
    return runs


def _values(records: List[dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def compare(base: Path, change: Path, spec: Optional[dict] = None) -> str:
    spec = spec or json.loads((HERE.parent / "BENCHMARK.json").read_text())
    a, b = load(base), load(change)
    lines: List[str] = []
    for workload in sorted(set(a) & set(b)):
        lines.append(f"== {workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = _values(a[workload].get(0, []), name), _values(b[workload].get(0, []), name)
            if not va or not vb:
                continue
            sa, sb = quartiles(va), quartiles(vb)
            delta = (sb["median"] - sa["median"]) / sa["median"]
            worse = delta < 0 if metric["better"] == "higher" else delta > 0
            if abs(delta) <= (sa["q3"] - sa["q1"]) / sa["median"]:
                verdict = "within the base spread"
            elif not worse:
                verdict = "better"
            elif abs(delta) > metric["bound"]:
                verdict = "WORSE beyond bound"
            else:
                verdict = "worse within bound"
            lines.append(
                f"  {name:<12} base {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] n={sa['n']}"
                f"  change {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] n={sb['n']}"
                f"  {delta:+.1%} ({verdict}, bound {metric['bound']:.0%})"
            )
        ta, tb = a[workload].get(1, []), b[workload].get(1, [])
        if not ta or not tb:
            lines.append("  (no traced runs on both sides: no per-layer deltas)")
            continue
        deltas = []
        for name in ta[0]["metrics"]:
            if name.endswith(".self_s") and name.count(".") == 2:
                ma = statistics.median(_values(ta, name))
                mb = statistics.median(_values(tb, name))
                deltas.append((mb - ma, name[: -len(".self_s")], ma, mb))
        deltas.sort(key=lambda d: -abs(d[0]))
        lines.append(f"  {'layer':<22} {'base self_s':>12} {'change':>12} {'delta':>10}")
        for delta, layer, ma, mb in deltas:
            if ma or mb:
                lines.append(f"  {layer:<22} {ma:>12.4f} {mb:>12.4f} {delta:>+10.4f}")
        delta, layer, ma, mb = deltas[0]
        share = f"{delta / ma:+.1%}" if ma else "new"
        lines.append(f"  moved most: {layer} ({delta:+.4f} s self time, {share})")
    if not lines:
        lines.append("no workload has runs in both result sets")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="result set of the parent commit")
    parser.add_argument("change", type=Path, help="result set of the change")
    args = parser.parse_args(argv)
    for directory in (args.base, args.change):
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
    sys.stdout.write(compare(args.base, args.change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
