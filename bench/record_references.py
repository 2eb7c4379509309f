"""Record the reference values that the benchmark's checks compare against.

    python3 bench/record_references.py [--workers 2]

For every input a seed can pick (see ``inputs.py``) this evaluates the
optimize points (``optimize_angles``) and the large-spin point below eta=1
(``LossyEngine.mermin_sides``) and writes their violations to
``references.json``.  The file in the repository was recorded from the
package before any performance change; re-record it only when an output
change is intended and stays inside the gate tolerances.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from inputs import (  # noqa: E402
    ETA_OFFSETS,
    R_OFFSETS,
    THETA_FACTORS,
    large_spin_points,
    optimize_points,
    reference_key,
)


def _evaluate(job: tuple[str, dict]) -> tuple[str, str, float, float]:
    import merminbell

    kind, p = job
    t0 = time.perf_counter()
    if kind == "optimize":
        _, rec = merminbell.optimize_angles(p["s"], p["r"], merminbell.LossConfig(*p["etas"]))
    else:
        eng = merminbell.LossyEngine(p["r"], merminbell.LossConfig.equal_eta(p["eta"]))
        rec = eng.mermin_sides(p["s"], merminbell.theta_triple(p["theta"]))
    if rec.error or not rec.converged:
        raise RuntimeError(f"reference point {p} did not converge cleanly")
    return kind, reference_key(p), rec.violation, time.perf_counter() - t0


def jobs() -> list[tuple[str, dict]]:
    out = []
    for r_off, eta_off in itertools.product(R_OFFSETS, ETA_OFFSETS):
        out += [("optimize", p) for p in optimize_points(r_off, eta_off)]
    for r_off, eta_off, tf in itertools.product(R_OFFSETS, ETA_OFFSETS, THETA_FACTORS):
        out += [("large-spin", p) for p in large_spin_points(r_off, eta_off, tf) if p["eta"] < 1.0]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    refs: dict[str, dict[str, float]] = {"optimize": {}, "large-spin": {}}
    times: dict[str, list[float]] = {"optimize": [], "large-spin": []}
    with multiprocessing.get_context("spawn").Pool(args.workers) as pool:
        for kind, key, violation, seconds in pool.imap(_evaluate, jobs()):
            refs[kind][key] = violation
            times[kind].append(seconds)
    for kind in refs:
        refs[kind] = dict(sorted(refs[kind].items()))
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    for kind, ts in times.items():
        print(f"{kind}: {len(ts)} points, {min(ts):.2f}..{max(ts):.2f} s each")


if __name__ == "__main__":
    main()
