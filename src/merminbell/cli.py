"""Command-line front end: sweep drivers, optimizer, validator, emitters.

Output is CSV (RFC-4180, header row, full %.17g precision) or JSON lines;
plotting is left to external tools.  Sweep points are pure, independent
evaluations, dispatched to a worker pool in deterministic grid order, so a
given configuration produces byte-identical files for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

from .loss import LossConfig
from .lossy import (
    DegenerateSectorError,
    InternalConsistencyError,
    LossyEngine,
    TruncationPolicy,
    ViolationRecord,
    _failure_record,
    optimize_angles,
    sweep,
)
from .numerics import HalfInt
from .source import fock_weight_distribution
from .validation import convention_comparison_rows, run_all

SWEEP_COLUMNS = [
    "s",
    "r",
    "eta",
    "theta",
    "alpha",
    "beta",
    "gamma",
    "lhs",
    "rhs",
    "violation",
    "converged",
    "s_cutoff_used",
    "sector_probability",
    "error",
]

ETA_COLUMNS = [c for c in SWEEP_COLUMNS if c != "theta"]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def _write_rows(columns: list[str], rows: list[dict], out_path: str | None, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        data = buf.getvalue()
    else:
        lines = []
        for row in rows:
            obj = {c: row.get(c) for c in columns}
            lines.append(json.dumps(obj, allow_nan=True, sort_keys=False))
        data = "\n".join(lines) + "\n"
    _emit(data, out_path)


def _write_report(report: dict, out_path: str | None) -> None:
    _emit(json.dumps(report, indent=2) + "\n", out_path)


def _emit(data: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _record_row(rec: ViolationRecord, eta: float, theta: float | None = None) -> dict:
    row = {
        "s": rec.s_star.value,
        "r": rec.r,
        "eta": eta,
        "alpha": rec.angles.alpha,
        "beta": rec.angles.beta,
        "gamma": rec.angles.gamma,
        "lhs": rec.lhs,
        "rhs": rec.rhs,
        "violation": rec.violation,
        "converged": rec.converged,
        "s_cutoff_used": rec.s_cutoff_used.value,
        "sector_probability": rec.sector_probability,
        "error": rec.error,
    }
    if theta is not None:
        row["theta"] = theta
    row["convention"] = rec.convention
    return row


def _policy_for(s_star: HalfInt, tol: float, max_s: float | None) -> TruncationPolicy:
    if max_s is None:
        return TruncationPolicy.for_sector(s_star, rel_tol=tol)
    t_max = HalfInt.of(max_s).twice
    t_start = min(s_star.twice + 4, t_max)
    return TruncationPolicy(s_start=HalfInt(t_start), max_s=HalfInt(t_max), rel_tol=tol)


# ------------------------------------------------------------- worker tasks


def _theta_task(payload: dict) -> list[dict]:
    s_star = HalfInt(payload["ts"])
    r, eta = payload["r"], payload["eta"]
    rows = []
    for conv in payload["conventions"]:
        recs = sweep(
            [s_star], [r], [eta], payload["thetas"],
            policy=payload["policy"], convention=conv, base_angle=payload["base"],
        )
        for theta, rec in zip(payload["thetas"], recs):
            rows.append(_record_row(rec, eta, theta))
    if len(payload["conventions"]) > 1:
        # interleave so rows stay grouped per theta
        half = len(rows) // 2
        rows = [row for pair in zip(rows[:half], rows[half:]) for row in pair]
    return rows


def _eta_task(payload: dict) -> list[dict]:
    s_star = HalfInt(payload["ts"])
    r, policy = payload["r"], payload["policy"]
    angles, _ = optimize_angles(s_star, r, LossConfig.equal_eta(1.0), policy)
    rows = []
    for eta in payload["etas"]:
        eng = LossyEngine(r, LossConfig.equal_eta(eta))
        for conv in payload["conventions"]:
            try:
                rec = eng.mermin_sides(s_star, angles, policy, conv)
            except (DegenerateSectorError, InternalConsistencyError) as exc:
                rec = _failure_record(s_star, r, eng.loss, angles, conv, exc)
            rows.append(_record_row(rec, eta))
    return rows


def _dispatch(task, payloads: list[dict], workers: int) -> list[dict]:
    """Rows of every payload, in payload order (``pool.map`` keeps submission order)."""
    if workers <= 1 or len(payloads) <= 1:
        return [row for payload in payloads for row in task(payload)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(task, payloads) for row in rows]


def _conventions(arg: str) -> list[str]:
    if arg == "both":
        return ["conditioned", "unconditioned"]
    return [arg]


# --------------------------------------------------------------- subcommands


def _cmd_sweep_theta(args) -> int:
    step = (args.theta_max - args.theta_min) / max(args.theta_steps - 1, 1)
    thetas = [args.theta_min + i * step for i in range(args.theta_steps)]
    convs = _conventions(args.conventions)
    payloads = [
        {
            "ts": HalfInt.of(args.s).twice,
            "r": args.r,
            "eta": eta,
            "thetas": thetas,
            "base": args.base_angle,
            "policy": args.policies[HalfInt.of(args.s)],
            "conventions": convs,
        }
        for eta in args.eta
    ]
    rows = _dispatch(_theta_task, payloads, args.workers)
    columns = SWEEP_COLUMNS + (["convention"] if len(convs) > 1 else [])
    _write_rows(columns, rows, args.out, args.format)
    return 0


def _cmd_eta_grid(args) -> int:
    convs = _conventions(args.conventions)
    payloads = [
        {
            "ts": HalfInt.of(s).twice,
            "r": r,
            "etas": list(args.eta),
            "policy": args.policies[HalfInt.of(s)],
            "conventions": convs,
        }
        for s in args.s
        for r in args.r
    ]
    rows = _dispatch(_eta_task, payloads, args.workers)
    columns = ETA_COLUMNS + (["convention"] if len(convs) > 1 else [])
    _write_rows(columns, rows, args.out, args.format)
    return 0


def _cmd_optimize(args) -> int:
    s_star = HalfInt.of(args.s)
    loss = LossConfig.equal_eta(args.eta)
    angles, rec = optimize_angles(s_star, args.r, loss, args.policies[s_star], args.conventions)
    report = {
        "s": s_star.value,
        "r": args.r,
        "eta": args.eta,
        "alpha": angles.alpha,
        "beta": angles.beta,
        "gamma": angles.gamma,
        "lhs": rec.lhs,
        "rhs": rec.rhs,
        "violation": rec.violation,
        "sector_probability": rec.sector_probability,
        "converged": rec.converged,
        "s_cutoff_used": rec.s_cutoff_used.value,
    }
    _write_report(report, args.out)
    return 0


def _cmd_validate(args) -> int:
    ok, report = run_all(fast=args.fast)
    if args.conventions in ("unconditioned", "both"):
        report["convention_comparison"] = convention_comparison_rows()
    _write_report(report, args.out)
    if not ok:
        sys.stderr.write("validation FAILED\n")
        return 1
    return 0


def _cmd_fock_weights(args) -> int:
    weights = fock_weight_distribution(args.r, args.n_max)
    rows = [{"n": n, "probability": p} for n, p in sorted(weights.probabilities.items())]
    sys.stderr.write(f"tail mass beyond window: {weights.tail_mass:.6e}\n")
    _write_rows(["n", "probability"], rows, args.out, args.format)
    return 0


def _checked(convert, accept, what: str):
    """argparse ``type=`` for a value that ``convert`` parses and ``accept`` approves."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


def _is_positive_half_integer(value: float) -> bool:
    try:
        return HalfInt.of(value).twice > 0
    except (ValueError, OverflowError):
        return False


_spin = _checked(float, _is_positive_half_integer, "a positive half-integer")
_efficiency = _checked(float, lambda v: 0.0 <= v <= 1.0, "an efficiency in [0, 1]")
_squeezing = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite nonnegative squeezing")
_angle = _checked(float, math.isfinite, "a finite angle")
_tolerance = _checked(float, lambda v: 0.0 < v < math.inf, "a positive tolerance")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")


_COMMON_FLAGS = {
    "--format": dict(choices=("csv", "jsonl"), default="csv"),
    "--workers": dict(type=_positive_int, default=1, help="parallel worker processes"),
    "--policy-tol": dict(
        type=_tolerance,
        default=1e-6,
        help="stop the source sum when a step changes the probability of the computed "
        "outcome sectors by at most this relative amount",
    ),
    "--policy-max-s": dict(type=_spin, default=None, help="hard cap on the source spin sum"),
    "--conventions": dict(
        choices=("conditioned", "unconditioned", "both"),
        default="conditioned",
        help="sector post-selection convention(s) to evaluate",
    ),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """``--out`` and the named ``_COMMON_FLAGS`` that the subcommand reads."""
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    for flag in flags:
        p.add_argument(flag, **_COMMON_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merminbell",
        description="High-spin Bell-inequality evaluation under detection loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-theta", help="violation vs analyzer angle, one curve per efficiency")
    p.add_argument("--s", type=_spin, required=True)
    p.add_argument("--r", type=_squeezing, required=True)
    p.add_argument("--eta", type=_efficiency, nargs="+", required=True)
    p.add_argument("--theta-min", type=_angle, default=0.02)
    p.add_argument("--theta-max", type=_angle, default=1.2)
    p.add_argument("--theta-steps", type=_positive_int, default=32)
    p.add_argument("--base-angle", type=_angle, default=0.0)
    _add_common(p, *_COMMON_FLAGS)
    p.set_defaults(func=_cmd_sweep_theta)

    p = sub.add_parser("sweep-eta", help="violation vs efficiency at the eta=1 optimal angles")
    p.add_argument("--s", type=_spin, nargs="+", required=True)
    p.add_argument("--r", type=_squeezing, nargs=1, required=True)
    p.add_argument("--eta", type=_efficiency, nargs="+", required=True)
    _add_common(p, *_COMMON_FLAGS)
    p.set_defaults(func=_cmd_eta_grid)

    p = sub.add_parser("surface", help="violation on a full (s, r, eta) grid")
    p.add_argument("--s", type=_spin, nargs="+", required=True)
    p.add_argument("--r", type=_squeezing, nargs="+", required=True)
    p.add_argument("--eta", type=_efficiency, nargs="+", required=True)
    _add_common(p, *_COMMON_FLAGS)
    p.set_defaults(func=_cmd_eta_grid)

    p = sub.add_parser("optimize", help="maximize the violation over the analyzer triple")
    p.add_argument("--s", type=_spin, required=True)
    p.add_argument("--r", type=_squeezing, required=True)
    p.add_argument("--eta", type=_efficiency, default=1.0)
    _add_common(p, "--policy-tol", "--policy-max-s", "--conventions")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("validate", help="run the reduction, oracle, and bookkeeping suites")
    p.add_argument("--fast", action="store_true", help="smaller validation grids")
    _add_common(p, "--conventions")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fock-weights", help="photon-number weights of one squeezed pair")
    p.add_argument("--r", type=_squeezing, required=True)
    p.add_argument("--n-max", type=_nonnegative_int, default=None)
    _add_common(p, "--format")
    p.set_defaults(func=_cmd_fock_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "optimize" and args.conventions == "both":
        parser.error("argument --conventions: 'both' is not accepted by optimize, "
                     "which maximizes one convention")
    if "policy_tol" in args:
        spins = [HalfInt.of(s) for s in (args.s if isinstance(args.s, list) else [args.s])]
        try:
            args.policies = {s: _policy_for(s, args.policy_tol, args.policy_max_s) for s in spins}
        except ValueError as exc:
            parser.error(f"argument --s/--policy-max-s: that source sum is not allowed ({exc})")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # computation failure
        sys.stderr.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
