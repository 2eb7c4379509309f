"""One fresh process: import merminbell, run one workload once, check it.

Started by ``run.py``; not meant to be run by hand.  The single argument is
a JSON object with ``workload``, ``inputs``, ``trace``, ``out_dir`` (or just
``probe`` to stop right after the import).  The last stdout line is a JSON
object with the measurements and one verdict per operation.
"""

import json
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(_ROOT, "src"))

import merminbell  # noqa: E402  (the import is what setup_s times)

SETUP_DONE = time.monotonic()

CALIBRATION_LOOPS = 400_000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: a host-speed diagnostic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def blas_info(np) -> str:
    """numpy's BLAS build: name, version and (for OpenBLAS) its thread limit."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip()


def _cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    job = json.loads(sys.argv[1])
    if job.get("probe"):
        print(json.dumps({"setup_done": SETUP_DONE}))
        return

    import numpy as np

    import workloads
    from tracer import Tracer

    workload, inputs = job["workload"], job["inputs"]
    calibration_s = calibrate()
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
    out = workloads.run(workload, inputs, job["out_dir"])
    if tracer is not None:
        tracer.enabled = False
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    verdicts = workloads.check(workload, inputs, out)
    result = {
        "setup_done": SETUP_DONE,
        "wall_s": wall_s,
        "cpu_s": _cpu_s(ru1) - _cpu_s(ru0),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "calibration_s": calibration_s,
        "verdicts": verdicts,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(np),
    }
    if tracer is not None:
        layer = tracer.metrics()
        out_path = out.get("out_path") if isinstance(out, dict) else None
        layer["cli.bytes_out"] = os.path.getsize(out_path) if out_path and os.path.exists(out_path) else 0
        layer["trace.wall_s"] = wall_s
        result["per_layer"] = layer
        result["traced_missing"] = tracer.missing
        tracer.write_spans(os.path.join(job["out_dir"], f"spans-{workload}.jsonl"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
