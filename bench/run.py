"""merminbell benchmark: one workload, run in fresh processes, reported as medians.

    python3 bench/run.py --workload optimize --seed 1 --seconds 30 --trace 0

The load is a closed loop: one caller, one call at a time.  Every repetition
of the workload runs in a new child process (``child.py``), so the Wigner
``lru_cache`` and the engine caches start cold, as they do for each CLI
invocation.  Each repetition is preceded by a few import-only children that
time set-up; repetitions continue until ``--seconds`` would be exceeded.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced child and reports the per-layer metrics of
``tracer.py`` plus the tracing overhead.  ``--quick`` makes one repetition
(a smoke run).  The last stdout line is the result object; the line before
it and ``.bench_out/<workload>-seed<n>-trace<t>.json`` hold the details:
chosen inputs, every sample, failed operations and the run fingerprint.

``correct`` is true when every child finished and every operation was
checked.  An operation whose output fails its check is counted in
``failed`` and lowers ``ok_frac``; it does not hide the rest of the run.
A child that crashes or times out stops the run with exit code 1 and no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from inputs import DEFAULT_SEED, WORKLOADS, expected_ops, make_inputs  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

PROBES_PER_REPETITION = 3
CHILD_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0  # no child is started that would be expected to end later
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one child to completion; adds setup_s and elapsed_s to its result."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(job)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {exc.timeout:.0f} s") from exc
    elapsed = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["setup_done"] - t_spawn
    res["elapsed_s"] = elapsed
    return res


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, inputs: dict, seconds: float, trace: bool, quick: bool) -> dict:
    """Repetitions (each after its set-up probes) until the time is used up; raw samples."""
    start = time.monotonic()
    job = {"workload": workload, "inputs": inputs, "trace": False, "out_dir": OUT_DIR}
    probes: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t0 = time.monotonic()
        if not trace:
            # probes are spread over the run so that set-up sees the same host as the workload
            probes += [spawn({"probe": True}) for _ in range(1 if quick else PROBES_PER_REPETITION)]
        plain.append(spawn(job))
        if trace:
            traced.append(spawn(dict(job, trace=True)))
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if quick or elapsed + last > min(seconds, RUN_LIMIT_S):
            break
    return {"probes": probes, "plain": plain, "traced": traced}


def summarize(samples: dict, trace: bool) -> tuple[dict, int, int, list[str]]:
    """(metrics, attempted, failed, distinct failure reasons)."""
    plain, traced = samples["plain"], samples["traced"]
    children = plain + traced
    verdicts = [v for c in children for v in c["verdicts"]]
    attempted = len(verdicts)
    failed = sum(not v["ok"] for v in verdicts)
    reasons = sorted({f"{v['op']}: {v['why']}" for v in verdicts if not v["ok"]})

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if not trace:
        metrics = {
            "wall_s": (med(plain, "wall_s"), "s"),
            "cpu_s": (med(plain, "cpu_s"), "s"),
            "setup_s": (med(samples["probes"] + plain, "setup_s"), "s"),
            "peak_rss_mb": (med(plain, "peak_rss_mb"), "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    else:
        layer = {k: statistics.median(c["per_layer"][k] for c in traced) for k in traced[0]["per_layer"]}
        layer["trace.overhead_s"] = layer["trace.wall_s"] - med(plain, "wall_s")
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out, attempted, failed, reasons


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one repetition and one set-up probe")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "merminbell", "__init__.py")):
        sys.stderr.write(f"merminbell sources not found under {ROOT}/src\n")
        return 2
    inputs = make_inputs(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        samples = measure(args.workload, inputs, args.seconds, bool(args.trace), args.quick)
    except ChildFailed as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    metrics, attempted, failed, reasons = summarize(samples, bool(args.trace))
    n_ops = expected_ops(args.workload, inputs)
    correct = all(len(c["verdicts"]) == n_ops for c in samples["plain"] + samples["traced"])

    first = samples["plain"][0]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "inputs": inputs,
        "repetitions": len(samples["plain"]),
        "traced_repetitions": len(samples["traced"]),
        "setup_samples": len(samples["probes"]) + len(samples["plain"]),
        "failures": reasons,
        "fingerprint": {
            "nproc": os.cpu_count(),
            "python": first["python"],
            "numpy": first["numpy"],
            "blas": first["blas"],
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "git_sha": git_sha(),
        },
        "calibration_s": [c["calibration_s"] for c in samples["plain"] + samples["traced"]],
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(detail, samples=samples, metrics=metrics), fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
