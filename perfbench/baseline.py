"""Record a baseline: every gated workload on several seeds, plus one
traced run each, into ``perfbench/baseline.json``.

Usage: ``python3 perfbench/baseline.py [--seeds 0-9] [--workloads a,b]``

For each end-to-end metric it stores the ten values, their median and
quartiles and the spread (inter-quartile distance over the median) next
to the metric's bound, the way the acceptance check computes them.  Runs
go one at a time: anything running beside a run slows it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, ROOT, work_dir  # noqa: E402
from stats import relative_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = os.path.join(work_dir(), f"baseline-{workload}-{seed}-{trace}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", out], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-3000:]}"
                         f"\n{proc.stderr[-3000:]}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9",
                        help="first-last seed, inclusive")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"run_seconds": bench["run_seconds"], "seeds": seeds,
                "workloads": {}}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"], 0)
            baseline["environment"] = result["environment"]
            for name in bounds:
                values[name].append(result["result"]["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = relative_spread(series)
            summary[name] = {"values": series, "median": median, "q1": q1,
                             "q3": q3, "spread": spread, "bound": bounds[name]}
            print(f"  {name}: median {median:.6g} spread {spread:.3f} "
                  f"bound {bounds[name]}", flush=True)
        traced = run_once(workload, seeds[0], bench["run_seconds"], 1)
        baseline["workloads"][workload] = {
            "end_to_end": summary,
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in
                          traced["result"]["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
