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


def test_mutated_bob_sign_fails_reduction(monkeypatch):
    # flipping Bob's readout convention must break the anticorrelation
    # structure that the reduction suite checks
    monkeypatch.setattr(oracle_mod, "_bob_projection", lambda n3, n4: n3 - n4)
    from merminbell.validation import oracle_equivalence_report
    from merminbell.numerics import HalfInt

    rep = oracle_equivalence_report(
        r_values=(0.4,), eta_values=(1.0,), cutoff=3, sector_max=HalfInt(3)
    )
    assert not rep["passed"]


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--s", "0", "--r", "0.3"],
        ["optimize", "--s", "1.3", "--r", "0.3"],
        ["optimize", "--s", "1", "--r", "0.3", "--eta", "1.3"],
        ["optimize", "--s", "1", "--r", "-1"],
        ["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--base-angle", "nan"],
        ["optimize", "--s", "1", "--r", "0.3", "--policy-tol", "nan"],
        ["optimize", "--s", "1", "--r", "0.3", "--policy-max-s", "0.3"],
        ["fock-weights", "--r", "0.3", "--n-max", "-1"],
        ["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--workers", "-2"],
        ["sweep-theta", "--s", "1", "--r", "0.3", "--eta", "0.9", "--theta-steps", "0"],
        ["optimize", "--s", "1", "--r", "0.3", "--conventions", "both"],
        ["optimize", "--s", "1000", "--r", "0.3"],
        ["sweep-theta", "--s", "1000", "--r", "0.3", "--eta", "0.9"],
        ["optimize", "--s", "1", "--r", "0.3", "--policy-max-s", "300"],
    ],
    ids=[
        "s-zero", "s-not-half-integer", "eta-above-one", "r-negative", "base-angle-nan",
        "policy-tol-nan", "policy-max-s-not-half-integer", "n-max-negative", "workers-negative",
        "theta-steps-zero", "optimize-both-conventions", "optimize-s-above-cap",
        "sweep-theta-s-above-cap", "policy-max-s-above-cap",
    ],
)
def test_bad_input_exits_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: merminbell")
    assert "is not" in err


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
    assert "unrecognized arguments" in capsys.readouterr().err


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
        policy = TruncationPolicy(s_start=s, max_s=s + HalfInt(4))
        got = LossyEngine(0.3, LossConfig.equal_eta(1.0)).mermin_sides(s, angles, policy)
        err = abs(getattr(got, side) - getattr(ideal_mermin_sides(s, angles), side))
        assert err == rep[f"max_{side}_error"]

    cap = HalfInt(3)
    policy = TruncationPolicy(s_start=cap, max_s=cap)
    triples = ORACLE_TRIPLES[:2]
    rep = oracle_equivalence_report(
        r_values=(0.4,), eta_values=(0.8,), triples=triples, cutoff=3, sector_max=cap
    )
    configs = {(0.8,) * 4, (0.9, 0.7, 0.8, 0.6)}
    for name in ("worst_joint", "worst_correlation"):
        where = rep[name]
        assert where["r"] == 0.4 and tuple(where["etas"]) in configs
        assert (where["alpha"], where["beta"]) in {(a.alpha, a.beta) for a in triples}
    where = rep["worst_joint"]
    loss = LossConfig(*where["etas"])
    want = simulate_joint(0.4, loss, where["alpha"], where["beta"], 3, sector_max=cap)
    got = LossyEngine(0.4, loss).joint(where["alpha"], where["beta"], policy)
    assert want.largest_difference(got) == (rep["max_joint_error"], tuple(where["key"]))
    where = rep["worst_correlation"]
    loss = LossConfig(*where["etas"])
    s = HalfInt.of(where["s"])
    want = simulate_joint(0.4, loss, where["alpha"], where["beta"], 3, sector_max=cap)
    got, _, _, _ = LossyEngine(0.4, loss).correlation(where["alpha"], where["beta"], s, policy)
    err = abs(want.correlation(sector=(s, s), conditioned=True) - got)
    assert err == rep["max_correlation_error"]
