"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/prove.py --runs 10 [--workloads optimize grid] [--out FILE]

For every workload this runs ``run.py --seed k`` for k = 1..runs (``--seconds``
from BENCHMARK.json) and prints, per end-to-end metric, the median of the
run values and the spread (third quartile minus first, from
``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound.  ``--out`` writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results = [
            run_once(workload, seed, spec["run_seconds"], 0)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            rows[name] = {"median": med, "spread": rel, "bound": bound, "values": values}
            flag = "ok" if rel < bound / 3 or name == "setup_s" else "WIDE"
            print(f"{workload:11s} {name:12s} median {med:10.4f}  spread {rel:7.4f}  bound {bound:5.2f}  {flag}")
        rows["failed"] = [r["failed"] for r in results]
        rows["attempted"] = [r["attempted"] for r in results]
        rows["correct"] = all(r["correct"] for r in results)
        summary[workload] = rows
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
