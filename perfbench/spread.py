"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--trace]
                                [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median of the runs,
the quartile distance as a share of the median (``statistics.quantiles``
with ``n=4``) and the metric's bound from ``BENCHMARK.json``; ``ok`` marks a
spread below a third of the bound.  ``--trace`` adds one traced run per
workload.  ``--out`` writes every value to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"provenance": json.loads(lines[-2])["provenance"], "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "seeds": list(range(args.seeds)),
              "workloads": {}}
    for workload in names:
        runs = [run_once(bench, workload, seed, 0) for seed in range(args.seeds)]
        entry = {"provenance": runs[0]["provenance"], "metrics": {},
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs)}
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed")
        for r in runs:
            print("  passes", [round(v, 3) for v in r["provenance"]["pass_wall_s"]])
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                                      "median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "values": values}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:12s} median {median:12.6g}  spread {spread:7.2%}  "
                  f"bound {bound:.0%}  {flag}  {[round(v, 4) for v in values]}")
        if args.trace:
            traced = run_once(bench, workload, 0, 1)["result"]
            entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
            print(f"  trace.overhead_frac {entry['per_layer_seed0']['trace.overhead_frac']:.3f}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
