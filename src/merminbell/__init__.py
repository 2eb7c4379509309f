"""High-spin Bell-inequality evaluation for photon-number-encoded spins.

Two two-mode squeezers produce a pair of effective spins in a singlet
state; photon-number-resolving detection behind lossy paths measures
rotated spin components.  This package evaluates the resulting
counterfactual inequality exactly, under arbitrary loss on each of the
four optical paths, and validates every closed form against a
brute-force Fock simulation.  The loss sits on the source modes before
the analyzers (see ``LossConfig``); it equals detector inefficiency after
the analyzer only when it is equal within each side.
"""

from .ideal import (
    AngleTriple,
    ChshRecord,
    InequalitySides,
    chsh_spin_s,
    chsh_threshold_spin,
    ideal_correlation,
    ideal_mermin_sides,
    ideal_pair_probability,
    theta_triple,
)
from .loss import (
    LossConfig,
    SpinOperatorTerm,
    decohere_fock,
    decohere_single,
    decohere_spin_op,
    min_output_spin,
)
from .lossy import (
    DegenerateSectorError,
    InternalConsistencyError,
    JointOutcomeDistribution,
    LossyEngine,
    TruncationPolicy,
    ViolationRecord,
    optimize_angles,
    sweep,
)
from .numerics import HalfInt, half, wigner_d, wigner_d_matrix
from .schwinger import ModePair, SpinLabel, ladder_coeff, modes_to_spin, spin_to_modes
from .source import (
    fock_weight_distribution,
    sector_amplitude,
    sector_weight,
    sector_weight_tail,
    singlet_sign,
)

__version__ = "0.1.0"

__all__ = [
    "AngleTriple",
    "ChshRecord",
    "DegenerateSectorError",
    "HalfInt",
    "InequalitySides",
    "InternalConsistencyError",
    "JointOutcomeDistribution",
    "LossConfig",
    "LossyEngine",
    "ModePair",
    "SpinLabel",
    "SpinOperatorTerm",
    "TruncationPolicy",
    "ViolationRecord",
    "chsh_spin_s",
    "chsh_threshold_spin",
    "decohere_fock",
    "decohere_single",
    "decohere_spin_op",
    "fock_weight_distribution",
    "half",
    "ideal_correlation",
    "ideal_mermin_sides",
    "ideal_pair_probability",
    "ladder_coeff",
    "min_output_spin",
    "modes_to_spin",
    "optimize_angles",
    "sector_amplitude",
    "sector_weight",
    "sector_weight_tail",
    "singlet_sign",
    "spin_to_modes",
    "sweep",
    "theta_triple",
    "wigner_d",
    "wigner_d_matrix",
]
