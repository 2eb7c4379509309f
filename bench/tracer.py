"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions of each ``merminbell``
module with timing wrappers.  A function is replaced wherever it is looked
up: in the module that defines it and in every ``merminbell`` module that
imported it by name (``lossy.wigner_d_matrix``, ``ideal.wigner_d``,
``validation.simulate_joint``, ``cli.optimize_angles``, ...).  Engine
methods are replaced on the ``LossyEngine`` class.

Each call becomes a span ``[name, start, end, parent index]`` kept in
memory; ``write_spans`` writes them out when the run ends.  Self time is a
span's duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (layer, module, attribute): a function whose calls become spans
TRACED_FUNCTIONS = (
    ("numerics", "merminbell.numerics", "wigner_d_matrix"),
    ("numerics", "merminbell.numerics", "wigner_d"),
    ("source", "merminbell.source", "sector_weight_tail"),
    ("ideal", "merminbell.ideal", "ideal_mermin_sides"),
    ("lossy", "merminbell.lossy", "optimize_angles"),
    ("lossy", "merminbell.lossy", "correlation_alt_bookkeeping"),
    ("oracle", "merminbell.oracle", "simulate_joint"),
    ("oracle", "merminbell.oracle", "build_epr2"),
    ("oracle", "merminbell.oracle", "apply_loss"),
    ("oracle", "merminbell.oracle", "apply_analyzer"),
    ("oracle", "merminbell.oracle", "measure_joint"),
    ("validation", "merminbell.validation", "eta1_reduction_report"),
    ("validation", "merminbell.validation", "oracle_equivalence_report"),
    ("validation", "merminbell.validation", "exponent_adjudication_report"),
    ("validation", "merminbell.validation", "convention_comparison_rows"),
    ("cli", "merminbell.cli", "main"),
)
TRACED_METHODS = ("joint", "correlation", "mermin_sides")

# (metric name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("numerics.wigner_d_matrix.calls", "count", "lower"),
    ("numerics.wigner_d_matrix.distinct", "count", "lower"),
    ("numerics.wigner_d_matrix.self_s", "s", "lower"),
    ("numerics.wigner_d.calls", "count", "lower"),
    ("numerics.wigner_d.self_s", "s", "lower"),
    ("source.sector_weight_tail.calls", "count", "lower"),
    ("source.sector_weight_tail.self_s", "s", "lower"),
    ("ideal.ideal_mermin_sides.calls", "count", "lower"),
    ("ideal.ideal_mermin_sides.self_s", "s", "lower"),
    ("lossy.engines", "count", "lower"),
    ("lossy.joint.calls", "count", "lower"),
    ("lossy.joint.self_s", "s", "lower"),
    ("lossy.joint.wigner_per_call", "ratio", "lower"),
    ("lossy.correlation.calls", "count", "lower"),
    ("lossy.correlation.self_s", "s", "lower"),
    ("lossy.mermin_sides.calls", "count", "lower"),
    ("lossy.mermin_sides.self_s", "s", "lower"),
    ("lossy.optimize_angles.calls", "count", "lower"),
    ("lossy.optimize_angles.self_s", "s", "lower"),
    ("lossy.correlation_alt_bookkeeping.self_s", "s", "lower"),
    ("lossy.cutoff_2s_mean", "2s", "lower"),
    ("lossy.unconverged", "count", "lower"),
    ("oracle.simulate_joint.calls", "count", "lower"),
    ("oracle.build_epr2.self_s", "s", "lower"),
    ("oracle.apply_loss.self_s", "s", "lower"),
    ("oracle.apply_analyzer.self_s", "s", "lower"),
    ("oracle.measure_joint.self_s", "s", "lower"),
    ("oracle.basis_max", "count", "lower"),
    ("validation.eta1_reduction_report.s", "s", "lower"),
    ("validation.oracle_equivalence_report.s", "s", "lower"),
    ("validation.exponent_adjudication_report.s", "s", "lower"),
    ("validation.convention_comparison_rows.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Spans and counters of one traced workload run."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[list] = []  # [span index, time of wrapped children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.engines = 0
        self.wigner_blocks: set[tuple[int, float]] = set()
        self.wigner_under_joint = 0
        self.joint_depth = 0
        self.cutoffs_2s: list[int] = []
        self.unconverged = 0
        self.basis_max = 0
        self.missing: list[str] = []
        self._half_int = None

    # --------------------------------------------------------------- wrappers

    def _span(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [idx, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            span = [name, t0, t0, parent]
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span[2] = t1
                self._stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.incl_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            if after is not None:
                after(out)
            return out

        return wrapper

    def _on_wigner(self, args, kwargs):
        s, alpha = args if len(args) == 2 else (args[0], kwargs["alpha"])
        self.wigner_blocks.add((self._half_int.of(s).twice, float(alpha)))
        if self.joint_depth:
            self.wigner_under_joint += 1

    def _on_record(self, rec):
        self.cutoffs_2s.append(rec.s_cutoff_used.twice)
        if not rec.converged:
            self.unconverged += 1

    def _on_loss(self, dm):
        self.basis_max = max(self.basis_max, len(dm.basis))

    def _joint_wrapper(self, fn):
        span = self._span("lossy.joint", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.joint_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                self.joint_depth -= 1

        return wrapper

    def _counted_init(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.engines += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        """Wrap every traced name in every loaded merminbell module."""
        self._half_int = sys.modules["merminbell.numerics"].HalfInt
        hooks = {
            "numerics.wigner_d_matrix": {"before": self._on_wigner},
            "oracle.apply_loss": {"after": self._on_loss},
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("merminbell") and m]
        for layer, modname, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            name = f"{layer}.{attr}"
            wrapped = self._span(name, original, **hooks.get(name, {}))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        engine = sys.modules["merminbell.lossy"].LossyEngine
        for attr in TRACED_METHODS:
            original = engine.__dict__.get(attr)
            if original is None:
                self.missing.append(f"LossyEngine.{attr}")
                continue
            if attr == "joint":
                wrapped = self._joint_wrapper(original)
            elif attr == "mermin_sides":
                wrapped = self._span("lossy.mermin_sides", original, after=self._on_record)
            else:
                wrapped = self._span(f"lossy.{attr}", original)
            setattr(engine, attr, wrapped)
        engine.__init__ = self._counted_init(engine.__init__)

    # --------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded while enabled."""
        c, own, incl = self.calls, self.self_s, self.incl_s
        joint_calls = c["lossy.joint"]
        out = {
            "numerics.wigner_d_matrix.calls": c["numerics.wigner_d_matrix"],
            "numerics.wigner_d_matrix.distinct": len(self.wigner_blocks),
            "numerics.wigner_d_matrix.self_s": own["numerics.wigner_d_matrix"],
            "numerics.wigner_d.calls": c["numerics.wigner_d"],
            "numerics.wigner_d.self_s": own["numerics.wigner_d"],
            "source.sector_weight_tail.calls": c["source.sector_weight_tail"],
            "source.sector_weight_tail.self_s": own["source.sector_weight_tail"],
            "ideal.ideal_mermin_sides.calls": c["ideal.ideal_mermin_sides"],
            "ideal.ideal_mermin_sides.self_s": own["ideal.ideal_mermin_sides"],
            "lossy.engines": self.engines,
            "lossy.joint.calls": joint_calls,
            "lossy.joint.self_s": own["lossy.joint"],
            "lossy.joint.wigner_per_call": self.wigner_under_joint / joint_calls if joint_calls else 0.0,
            "lossy.correlation.calls": c["lossy.correlation"],
            "lossy.correlation.self_s": own["lossy.correlation"],
            "lossy.mermin_sides.calls": c["lossy.mermin_sides"],
            "lossy.mermin_sides.self_s": own["lossy.mermin_sides"],
            "lossy.optimize_angles.calls": c["lossy.optimize_angles"],
            "lossy.optimize_angles.self_s": own["lossy.optimize_angles"],
            "lossy.correlation_alt_bookkeeping.self_s": own["lossy.correlation_alt_bookkeeping"],
            "lossy.cutoff_2s_mean": (
                sum(self.cutoffs_2s) / len(self.cutoffs_2s) if self.cutoffs_2s else 0.0
            ),
            "lossy.unconverged": self.unconverged,
            "oracle.simulate_joint.calls": c["oracle.simulate_joint"],
            "oracle.build_epr2.self_s": own["oracle.build_epr2"],
            "oracle.apply_loss.self_s": own["oracle.apply_loss"],
            "oracle.apply_analyzer.self_s": own["oracle.apply_analyzer"],
            "oracle.measure_joint.self_s": own["oracle.measure_joint"],
            "oracle.basis_max": self.basis_max,
            "validation.eta1_reduction_report.s": incl["validation.eta1_reduction_report"],
            "validation.oracle_equivalence_report.s": incl["validation.oracle_equivalence_report"],
            "validation.exponent_adjudication_report.s": incl["validation.exponent_adjudication_report"],
            "validation.convention_comparison_rows.s": incl["validation.convention_comparison_rows"],
            "cli.main.self_s": own["cli.main"],
            "trace.spans": len(self.spans),
        }
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: [name, start, end, parent index]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
