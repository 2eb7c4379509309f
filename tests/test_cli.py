import csv
import json
import subprocess
import sys

import pytest

import merminbell.oracle as oracle_mod
from merminbell.cli import main
from merminbell.validation import eta1_reduction_report, exponent_adjudication_report


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "merminbell"] + args,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_fock_weights_zero_squeezing_single_row(tmp_path):
    out = tmp_path / "w.csv"
    res = _run_cli(["fock-weights", "--r", "0", "--out", str(out)])
    assert res.returncode == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert rows[0]["n"] == "0"
    assert float(rows[0]["probability"]) == 1.0


def test_fock_weights_jsonl(tmp_path):
    out = tmp_path / "w.jsonl"
    res = _run_cli(["fock-weights", "--r", "0.5", "--n-max", "3", "--format", "jsonl", "--out", str(out)])
    assert res.returncode == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["n"] for row in lines] == [0, 1, 2, 3]


def test_empty_theta_grid_usage_error(tmp_path):
    out = tmp_path / "never.csv"
    res = _run_cli(
        ["sweep-theta", "--s", "1", "--r", "0.4", "--eta", "1.0",
         "--theta-steps", "0", "--out", str(out)]
    )
    assert res.returncode == 2
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    res = _run_cli(["frobnicate"])
    assert res.returncode == 2


def test_sweep_theta_rows_and_ordering(tmp_path):
    out = tmp_path / "sweep.csv"
    res = _run_cli(
        ["sweep-theta", "--s", "1", "--r", "0.5", "--eta", "1.0", "0.9",
         "--theta-min", "0.1", "--theta-max", "0.4", "--theta-steps", "4",
         "--out", str(out)]
    )
    assert res.returncode == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 8
    assert [float(r["eta"]) for r in rows] == [1.0] * 4 + [0.9] * 4
    assert all(r["converged"] == "true" for r in rows)
    assert all(r["error"] == "" for r in rows)
    # decreasing efficiency gives decreasing violation at matching theta
    for i in range(4):
        assert float(rows[i]["violation"]) > float(rows[i + 4]["violation"])


@pytest.mark.parametrize(
    "args, workers",
    [
        (["sweep-theta", "--s", "1", "--r", "0.4", "--eta", "1.0", "0.85",
          "--theta-steps", "5", "--theta-max", "0.5"], "8"),
        (["surface", "--s", "0.5", "1", "--r", "0.3", "--eta", "1.0", "0.85"], "2"),
    ],
    ids=["sweep-theta", "surface"],
)
def test_worker_determinism(tmp_path, args, workers):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run_cli(args + ["--workers", "1", "--out", str(a)]).returncode == 0
    assert _run_cli(args + ["--workers", workers, "--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_surface_cross_section_equals_sweep_eta(tmp_path):
    surf = tmp_path / "surface.csv"
    line = tmp_path / "line.csv"
    common = ["--s", "0.5", "1", "--eta", "1.0", "0.9"]
    assert _run_cli(["surface", "--r", "0.2", "0.4"] + common + ["--out", str(surf)]).returncode == 0
    assert _run_cli(["sweep-eta", "--r", "0.2"] + common + ["--out", str(line)]).returncode == 0
    surf_rows = [
        r for r in csv.DictReader(surf.read_text().splitlines()) if r["r"] == "0.20000000000000001"
    ]
    line_rows = list(csv.DictReader(line.read_text().splitlines()))
    assert surf_rows == line_rows


def _main_rows(tmp_path, argv, name="rows.csv"):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    return list(csv.DictReader(out.read_text().splitlines()))


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-theta", "--s", "1", "--r", "0.4", "--eta", "1.0", "0.9", "--theta-steps", "3"],
        ["sweep-eta", "--s", "0.5", "1", "--r", "0.4", "--eta", "1.0", "0.9", "0.8"],
    ],
    ids=["sweep-theta", "sweep-eta"],
)
def test_conventions_both_interleaves_single_runs(tmp_path, argv):
    # theta- or eta-major, conditioned first: row 2k and 2k + 1 are row k of
    # the two single-convention runs
    cond = _main_rows(tmp_path, argv + ["--conventions", "conditioned"], "c.csv")
    uncond = _main_rows(tmp_path, argv + ["--conventions", "unconditioned"], "u.csv")
    both = _main_rows(tmp_path, argv + ["--conventions", "both"], "b.csv")
    assert len(both) == 2 * len(cond) == 2 * len(uncond)
    for k, (c, u) in enumerate(zip(cond, uncond)):
        assert both[2 * k] == {**c, "convention": "conditioned"}
        assert both[2 * k + 1] == {**u, "convention": "unconditioned"}


def test_one_kernel_serves_both_conventions(tmp_path, monkeypatch):
    from merminbell.lossy import LossyEngine

    engines = []
    init = LossyEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(LossyEngine, "__init__", recording_init)
    argv = ["sweep-theta", "--s", "1", "--r", "0.4", "--eta", "1.0", "0.9",
            "--theta-steps", "5", "--conventions", "both"]
    assert len(_main_rows(tmp_path, argv)) == 20
    # one post-selected kernel per efficiency, whatever the conventions
    assert sum(len(eng._kernel_cache) for eng in engines) == 2


def test_eta1_row_reads_the_optimized_kernel(tmp_path, monkeypatch):
    from merminbell.lossy import LossyEngine

    argv = ["surface", "--s", "1", "--r", "0.3", "--eta", "1", "0.9"]
    before = _main_rows(tmp_path, argv, "before.csv")
    engines = []
    init = LossyEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(LossyEngine, "__init__", recording_init)
    assert _main_rows(tmp_path, argv, "after.csv") == before
    # the eta=1 optimization and the eta=0.9 row; the eta=1 row reuses the first
    assert [eng.loss.eta_a1 for eng in engines] == [1.0, 0.9]


def test_dispatch_starts_no_more_workers_than_payloads(tmp_path, monkeypatch):
    import merminbell.cli as cli_mod

    started = []

    class RecordingPool(cli_mod.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    argv = ["sweep-theta", "--s", "1", "--r", "0.4", "--theta-steps", "3"]
    serial = _main_rows(tmp_path, argv + ["--eta", "1.0", "0.9"], "serial.csv")
    assert _main_rows(tmp_path, argv + ["--eta", "1.0", "0.9", "--workers", "4"], "pool.csv") == serial
    assert started == [2]
    _main_rows(tmp_path, argv + ["--eta", "0.9", "--workers", "4"], "one.csv")
    assert started == [2]


def test_failed_eta1_optimum_flags_only_its_rows(tmp_path):
    # at r=0 the post-selected sector is empty, so its eta=1 optimum fails;
    # the rest of the grid must still be evaluated
    rows = _main_rows(tmp_path, ["surface", "--s", "1", "--r", "0", "0.3", "--eta", "1", "0.9"], "a.csv")
    alone = _main_rows(tmp_path, ["surface", "--s", "1", "--r", "0.3", "--eta", "1", "0.9"], "b.csv")
    assert [row for row in rows if row["r"] != "0"] == alone
    failed = [row for row in rows if row["r"] == "0"]
    assert [row["eta"] for row in failed] == ["1", "0.90000000000000002"]
    for row in failed:
        assert row["error"].startswith("DegenerateSectorError")
        assert row["converged"] == "false"
        assert row["alpha"] == row["violation"] == "nan"


def test_overflowing_squeezing_flags_only_its_rows(tmp_path):
    # cosh(711) overflows a float: the r=711 sector is empty, and the r=0.3 rows come out unchanged
    out, alone = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["surface", "--s", "1", "--r", "0.3", "711", "--eta", "1.0", "0.9", "--out", str(out)]) == 0
    assert main(["surface", "--s", "1", "--r", "0.3", "--eta", "1.0", "0.9", "--out", str(alone)]) == 0
    lines = out.read_text().splitlines()
    assert [line for line in lines if not line.startswith("1,711,")] == alone.read_text().splitlines()
    failed = [row for row in csv.DictReader(lines) if row["r"] == "711"]
    assert [row["eta"] for row in failed] == ["1", "0.90000000000000002"]
    assert all(row["error"].startswith("DegenerateSectorError") for row in failed)


def test_smaller_violation_window_for_higher_spin(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["--r", "0.5", "--eta", "0.95", "--theta-min", "0.02",
            "--theta-max", "1.2", "--theta-steps", "24"]
    assert _run_cli(["sweep-theta", "--s", "1"] + args + ["--out", str(out1)]).returncode == 0
    assert _run_cli(["sweep-theta", "--s", "2"] + args + ["--out", str(out2)]).returncode == 0
    win1 = sum(float(r["violation"]) > 0 for r in csv.DictReader(out1.read_text().splitlines()))
    win2 = sum(float(r["violation"]) > 0 for r in csv.DictReader(out2.read_text().splitlines()))
    assert 0 < win2 < win1


def test_sweep_eta_spin_ordering_unconditioned(tmp_path):
    # raw sector-restricted (weight-scaled) violations order by spin at
    # moderate loss: lower spins violate more strongly
    out = tmp_path / "eta.csv"
    res = _run_cli(
        ["sweep-eta", "--s", "0.5", "1", "1.5", "2", "--r", "0.4",
         "--eta", "1.0", "0.9", "--conventions", "unconditioned", "--out", str(out)]
    )
    assert res.returncode == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    by_eta = {}
    for row in rows:
        by_eta.setdefault(row["eta"], []).append((float(row["s"]), float(row["violation"])))
    for eta, pairs in by_eta.items():
        pairs.sort()
        vals = [v for _, v in pairs]
        assert all(b < a for a, b in zip(vals, vals[1:])), (eta, vals)


def test_optimize_reports_triple(tmp_path):
    out = tmp_path / "opt.json"
    res = _run_cli(["optimize", "--s", "0.5", "--r", "0.3", "--eta", "1.0", "--out", str(out)])
    assert res.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["violation"] == pytest.approx(0.125, abs=1e-6)
    assert rep["converged"] is True


def test_validate_fast_passes(tmp_path):
    out = tmp_path / "report.json"
    res = _run_cli(["validate", "--fast", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    names = {s["name"]: s for s in rep["suites"]}
    assert names["exponent_adjudication"]["confirmed"] == "sector_energy_form"


def test_validate_conventions_table(tmp_path):
    out = tmp_path / "report.json"
    res = _run_cli(["validate", "--fast", "--conventions", "both", "--out", str(out)])
    assert res.returncode == 0
    rep = json.loads(out.read_text())
    convs = {row["convention"] for row in rep["convention_comparison"]}
    assert convs == {"conditioned", "unconditioned"}


def test_mutated_bob_sign_fails_reduction(monkeypatch, request):
    # flipping Bob's readout convention must break the anticorrelation
    # structure that the reduction suite checks; the readout cells cached
    # under the flipped convention are dropped again afterwards
    oracle_mod._readout_cells.cache_clear()
    request.addfinalizer(oracle_mod._readout_cells.cache_clear)
    monkeypatch.setattr(oracle_mod, "_bob_projection", lambda n3, n4: n3 - n4)
    from merminbell.validation import oracle_equivalence_report
    from merminbell.numerics import HalfInt

    rep = oracle_equivalence_report(r_values=(0.4,), eta_values=(1.0,), sector_max=HalfInt(3))
    assert not rep["passed"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimize", "--s", "0", "--r", "0.3"], "is not"),
        (["optimize", "--s", "1.3", "--r", "0.3"], "is not"),
        (["optimize", "--s", "1", "--r", "0.3", "--eta", "1.3"], "is not"),
        (["optimize", "--s", "1", "--r", "-1"], "is not"),
        (["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--base-angle", "nan"], "is not"),
        (["optimize", "--s", "1", "--r", "0.3", "--policy-tol", "nan"], "is not"),
        (["optimize", "--s", "1", "--r", "0.3", "--policy-max-s", "0.3"], "is not"),
        (["fock-weights", "--r", "0.3", "--n-max", "-1"], "is not"),
        (["fock-weights", "--r", "0.3", "--n-max", "401"], "is not"),
        (["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--workers", "-2"], "is not"),
        (["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--theta-steps", "0"], "is not"),
        (["optimize", "--s", "1", "--r", "0.3", "--conventions", "both"], "invalid choice: 'both'"),
        (["validate", "--conventions", "unconditioned"], "invalid choice: 'unconditioned'"),
        (["optimize", "--s", "1000", "--r", "0.3"], "is not"),
        (["sweep-theta", "--s", "1000", "--r", "0.3", "--eta", "0.9"], "is not"),
        (["optimize", "--s", "1", "--r", "0.3", "--policy-max-s", "300"], "is not"),
        # a small --policy-max-s does not lift the cap; at r = 0 the sector is empty, so a regression stays fast
        (["surface", "--s", "201", "--r", "0", "--eta", "1", "--policy-max-s", "1"], "capped at s = 200"),
        (["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--theta-min", "1e308",
          "--theta-max=-1e308", "--theta-steps", "3"], "not finite"),
        (["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--base-angle", "1e308",
          "--theta-min", "1e308", "--theta-max", "1e308", "--theta-steps", "1"], "not finite"),
        # an angle above 2^15 rad in magnitude loses the rotation phase alpha * m to rounding
        (["sweep-theta", "--s", "3", "--r", "0.3", "--eta", "0.9", "--base-angle", "1e308",
          "--theta-steps", "2"], "exceeds 2^15 rad"),
        (["sweep-theta", "--s", "3", "--r", "0.3", "--eta", "0.9", "--base-angle", "1e15",
          "--theta-steps", "2"], "exceeds 2^15 rad"),
        (["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--theta-min", "-40000",
          "--theta-max", "0.5", "--theta-steps", "1"], "exceeds 2^15 rad"),
        (["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--theta-max", "40000",
          "--theta-steps", "1"], "exceeds 2^15 rad"),
    ],
    ids=[
        "s-zero", "s-not-half-integer", "eta-above-one", "r-negative", "base-angle-nan",
        "policy-tol-nan", "policy-max-s-not-half-integer", "n-max-negative", "n-max-above-cap",
        "workers-negative", "theta-steps-zero", "optimize-both-conventions", "validate-unconditioned",
        "optimize-s-above-cap",
        "sweep-theta-s-above-cap", "policy-max-s-above-cap", "policy-max-s-below-s-above-cap",
        "theta-grid-overflows", "angle-triple-overflows", "base-angle-huge", "base-angle-above-bound",
        "theta-min-above-bound", "unused-theta-max-above-bound",
    ],
)
def test_bad_input_exits_2_with_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: merminbell {argv[0]}")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--s", "1", "--r", "0.3", "--workers", "2"],
        ["validate", "--format", "jsonl"],
        ["fock-weights", "--r", "0.3", "--policy-tol", "1e-6"],
    ],
    ids=["optimize-workers", "validate-format", "fock-weights-policy-tol"],
)
def test_flag_a_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: merminbell {argv[0]}")
    assert "unrecognized arguments" in err


def test_main_inprocess_exit_codes(tmp_path, capsys):
    assert main(["fock-weights", "--r", "0.2"]) == 0
    capsys.readouterr()


def test_adjudication_report_values():
    rep = exponent_adjudication_report()
    assert rep["passed"]
    assert rep["sector_energy_form_max_error"] < 1e-9
    assert rep["projection_dependent_form_max_error"] > 1e-3


def test_reduction_report_small():
    from merminbell.numerics import HalfInt

    rep = eta1_reduction_report(s_values=(HalfInt(1),), r_values=(0.3,))
    assert rep["passed"]
    assert rep["max_lhs_error"] < 1e-10


def test_worst_error_locations_name_evaluated_settings():
    from merminbell.ideal import ideal_mermin_sides
    from merminbell.loss import LossConfig
    from merminbell.lossy import LossyEngine, TruncationPolicy
    from merminbell.numerics import HalfInt
    from merminbell.oracle import simulate_joint
    from merminbell.validation import ORACLE_TRIPLES, REDUCTION_TRIPLES, oracle_equivalence_report

    triples = REDUCTION_TRIPLES[:3]
    rep = eta1_reduction_report(s_values=(HalfInt(1), HalfInt(2)), r_values=(0.3,), triples=triples)
    for side in ("lhs", "rhs"):
        where = rep[f"worst_{side}"]
        s = HalfInt.of(where["s"])
        angles = next(a for a in triples if (a.alpha, a.beta, a.gamma)
                      == (where["alpha"], where["beta"], where["gamma"]))
        assert where["r"] == 0.3 and s in (HalfInt(1), HalfInt(2))
        got = LossyEngine(0.3, LossConfig.equal_eta(1.0)).mermin_sides(s, angles)
        err = abs(getattr(got, side) - getattr(ideal_mermin_sides(s, angles), side))
        assert err == rep[f"max_{side}_error"]

    cap = HalfInt(3)
    policy = TruncationPolicy(cap, 0.0)
    triples = ORACLE_TRIPLES[:2]
    rep = oracle_equivalence_report(r_values=(0.4,), eta_values=(0.8,), triples=triples, sector_max=cap)
    configs = {(0.8,) * 4, (0.9, 0.7, 0.8, 0.6)}
    for name in ("worst_joint", "worst_correlation"):
        where = rep[name]
        assert where["r"] == 0.4 and tuple(where["etas"]) in configs
        assert (where["alpha"], where["beta"]) in {(a.alpha, a.beta) for a in triples}
    where = rep["worst_joint"]
    loss = LossConfig(*where["etas"])
    want = simulate_joint(0.4, loss, where["alpha"], where["beta"], 3, sector_max=cap)
    got = LossyEngine(0.4, loss, policy).joint(where["alpha"], where["beta"])
    assert want.largest_difference(got) == (rep["max_joint_error"], tuple(where["key"]))
    where = rep["worst_correlation"]
    loss = LossConfig(*where["etas"])
    s = HalfInt.of(where["s"])
    want = simulate_joint(0.4, loss, where["alpha"], where["beta"], 3, sector_max=cap)
    got, _, _, _ = LossyEngine(0.4, loss, policy).correlation(where["alpha"], where["beta"], s)
    err = abs(want.correlation(sector=(s, s), conditioned=True) - got)
    assert err == rep["max_correlation_error"]
