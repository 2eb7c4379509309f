"""A seeded sweep of edge inputs through every subcommand and the public engine calls.

Every printed number is correct or flagged: a command exits 0 with rows that are finite or flagged
(a non-empty ``error`` and ``converged`` false), 2 with its usage line, or 1 with one JSON ``error``
line; a library call returns finite values or raises ``ValueError``, ``DegenerateSectorError`` or
``InternalConsistencyError``.  Nothing may warn.

r = 177.8 is drawn with every spin: there tanh r rounds to 1 and no source-sector weight underflows,
so a post-selected sector at s = 185 is found empty from its source weights before any build.
"""

import csv
import io
import json
import math
import warnings

import numpy as np

from merminbell import AngleTriple, LossConfig, LossyEngine, TruncationPolicy, optimize_angles, sweep
from merminbell.cli import main
from merminbell.lossy import DegenerateSectorError, InternalConsistencyError

# edge values; each draw takes the first, ordinary one half the time and an edge value otherwise
R = [0.3, 0.0, 1e-300, 177.8, 709.0, 711.0]
ETA = [0.9, 0.0, 1e-300, 0.5, 1.0]
ANGLE = [0.3, 0.0, math.pi, -math.pi, 1e-300, 1e15]
SMALL_SPINS = [1.0, 0.5]
SPINS = SMALL_SPINS + [185.0, 185.5]  # the default source-sum cap, s + 15, reaches the limit s = 200 at 185
POLICY_MAX_S = [None, 0.5, 2.0, 200.0, 200.5]
POLICY_TOL = [None, 1e-6, 1e-300, 0.5, 0.0]
N_CASES = 100


def _pick(rng, values):
    return values[0] if rng.random() < 0.5 else values[int(rng.integers(1, len(values)))]


def _spin_and_r(rng):
    r = _pick(rng, R)
    return _pick(rng, SPINS), r


def _policy_flags(rng) -> list[str]:
    flags = []
    max_s, tol = _pick(rng, POLICY_MAX_S), _pick(rng, POLICY_TOL)
    if max_s is not None:
        flags += ["--policy-max-s", repr(max_s)]
    if tol is not None:
        flags += ["--policy-tol", repr(tol)]
    return flags


def _argv(rng, command: str) -> list[str]:
    """One drawn command line of ``command``."""
    s, r = _spin_and_r(rng)
    etas = [repr(_pick(rng, ETA)) for _ in range(int(rng.integers(1, 3)))]
    if command == "sweep-theta":
        argv = ["--s", repr(s), "--r", repr(r), "--eta", *etas, "--theta-steps", str(int(rng.integers(1, 4)))]
        for flag in ("--theta-min", "--theta-max", "--base-angle"):
            argv += [flag, repr(_pick(rng, ANGLE))]
        argv += _policy_flags(rng) + ["--conventions", _pick(rng, ["conditioned", "unconditioned", "both"])]
    elif command in ("sweep-eta", "surface"):
        rs = [repr(r)] if command == "sweep-eta" else sorted({repr(r), repr(_spin_and_r(rng)[1])})
        argv = ["--s", repr(s), "--r", *rs, "--eta", *etas, *_policy_flags(rng)]
        argv += ["--conventions", _pick(rng, ["conditioned", "unconditioned", "both"])]
    elif command == "optimize":
        argv = ["--s", repr(s), "--r", repr(r), "--eta", etas[0], *_policy_flags(rng)]
        argv += ["--conventions", _pick(rng, ["conditioned", "unconditioned"])]
    else:  # fock-weights
        argv = ["--r", repr(r)] + (["--n-max", str(_pick(rng, [3, 0, 400]))] if rng.integers(2) else [])
    if command != "optimize" and rng.integers(2):
        argv += ["--format", "jsonl"]
    return [command] + argv


def _cli_cases():
    rng = np.random.default_rng(16)
    commands = ["sweep-theta", "sweep-eta", "surface", "optimize", "fock-weights"]
    cases = [_argv(rng, commands[k % len(commands)]) for k in range(N_CASES)]
    return cases + [["validate", "--fast"], ["validate", "--fast", "--conventions", "both"]]


def _finite_or_flagged(row: dict) -> bool:
    numbers = [v for k, v in row.items() if k not in ("error", "converged", "convention")]
    if all(math.isfinite(float(v)) for v in numbers):
        return True
    return bool(row.get("error")) and row.get("converged") in (False, "false")


def _json_numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _json_numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _json_numbers(v)
    elif isinstance(value, float):
        yield value


def _cli_problem(argv: list[str], out, capsys) -> str | None:
    """What is wrong with one command's outcome, or None."""
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    if code == 2:
        return None if err.startswith(f"usage: merminbell {argv[0]}") else f"exit 2 without usage: {err}"
    if code == 1:
        lines = err.splitlines()
        error = json.loads(lines[0]).get("error", "") if len(lines) == 1 else ""
        clean = ("DegenerateSectorError", "InternalConsistencyError", "ValueError")
        return None if error.split(":")[0] in clean else f"exit 1: {err}"
    if code != 0:
        return f"exit {code}: {err}"
    text = out.read_text()
    if argv[0] == "validate":
        return None if all(math.isfinite(v) for v in _json_numbers(json.loads(text))) else text
    if argv[0] == "optimize":
        rows = [json.loads(text)]
    elif "jsonl" in argv:
        rows = [json.loads(line) for line in text.splitlines()]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    return None if rows and all(_finite_or_flagged(row) for row in rows) else text


def _library_cases():
    rng = np.random.default_rng(17)
    cases = []
    for k in range(N_CASES):
        s, r = _spin_and_r(rng)
        if k % 8 == 0:
            s = _pick(rng, [1.5, math.inf, math.nan, -0.5, 0.0])
        loss = LossConfig(*(_pick(rng, ETA) for _ in range(4)))
        if rng.integers(2):
            loss = LossConfig(loss.eta_a1, loss.eta_a1, loss.eta_b1, loss.eta_b1)
        policy = TruncationPolicy(
            _pick(rng, [m for m in POLICY_MAX_S if m is None or m <= 200]), _pick(rng, [1e-6, 1e-300, 0.0])
        )
        angles = AngleTriple(*(_pick(rng, ANGLE) for _ in range(3)))
        sectors = _pick(rng, [(s, s), None, (0.5, s), (-1, 1), (1,)])
        if k % 6 == 3 and sectors is None:  # every sector pair up to the cap: keep the cap small
            policy = TruncationPolicy(_pick(rng, [0.5, 2.0]), policy.rel_tol)
        cases.append((k % 6, s, r, loss, policy, angles, sectors, _pick(rng, ["conditioned", "unconditioned"])))
    return cases


def _library_problem(case) -> str | None:
    """What is wrong with one public engine call's outcome, or None."""
    call, s, r, loss, policy, angles, sectors, convention = case
    try:
        if call == 0:
            rec = LossyEngine(r, loss, policy).mermin_sides(s, angles, convention)
            values = (rec.lhs, rec.rhs, rec.violation, rec.sector_probability)
        elif call in (1, 2):
            s_star = s if call == 1 else None
            values = LossyEngine(r, loss, policy).correlation(angles.alpha, angles.beta, s_star)[:2]
        elif call == 3:
            dist = LossyEngine(r, loss, policy).joint(angles.alpha, angles.beta, sectors)
            values = (dist.tail_bound, *dist.blocks.values())
        elif call == 4:
            got, rec = optimize_angles(s, r, loss, policy, convention)
            values = (got.alpha, got.beta, got.gamma, rec.lhs, rec.rhs, rec.violation)
        else:
            (rec,) = sweep([s], [r], [loss.eta_a1], [angles.alpha], policy, convention)
            values = () if rec.error and not rec.converged else (rec.lhs, rec.rhs, rec.violation)
    except (ValueError, DegenerateSectorError, InternalConsistencyError):
        return None
    return None if all(np.isfinite(v).all() for v in values) else "not finite"


def test_seeded_edge_inputs_print_correct_or_flagged_numbers(tmp_path, capsys):
    problems = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, argv in enumerate(_cli_cases()):
            try:
                problem = _cli_problem(argv, tmp_path / f"out-{k}", capsys)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                problems.append((" ".join(argv), problem))
        for case in _library_cases():
            try:
                problem = _library_problem(case)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                problems.append((case, problem))
    assert not problems
