"""Schema and smoke tests of the benchmark; nothing here asserts on timing.

    python -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import (  # noqa: E402
    ETA_OFFSETS,
    R_OFFSETS,
    THETA_FACTORS,
    WORKLOADS,
    large_spin_points,
    make_inputs,
    optimize_points,
    reference_key,
)
from tracer import PER_LAYER  # noqa: E402

END_TO_END = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_schema():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"][1].startswith("bench/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_inputs_depend_only_on_seed_and_stay_in_range():
    for workload in WORKLOADS:
        assert make_inputs(workload, 7) == make_inputs(workload, 7)
    for seed in range(50):
        pts = make_inputs("large-spin", seed)["points"]
        assert [p["s"] for p in pts] == [10, 20, 30, 15]
        assert [p["eta"] for p in pts[:3]] == [1.0, 1.0, 1.0]
        assert abs(pts[3]["eta"] - 0.9) <= 0.01 + 1e-12
        assert all(abs(p["r"] - 0.3) <= 0.02 + 1e-12 for p in pts)
        assert all(abs(p["theta"] * p["s"] / 0.3 - 1.0) <= 0.05 + 1e-9 for p in pts)
        grid = make_inputs("grid", seed)
        assert grid["s"] == [1, 2] and grid["eta"][0] == 1.0 and len(grid["eta"]) == 3


def test_every_selectable_input_has_a_reference():
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    for r_off, eta_off in itertools.product(R_OFFSETS, ETA_OFFSETS):
        for p in optimize_points(r_off, eta_off):
            assert reference_key(p) in refs["optimize"]
        for tf in THETA_FACTORS:
            for p in large_spin_points(r_off, eta_off, tf):
                if p["eta"] < 1.0:
                    assert reference_key(p) in refs["large-spin"]


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_the_contract_result(trace):
    proc = _run(ROOT, "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--quick")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
