"""The squeezing trade-off: photon yield against loss resilience.

Stronger pumping makes high photon-number (high spin) events common, but
it also flattens the sector distribution, so inefficient detectors mix
neighboring sectors more strongly and the post-selected violation drops.
Weak pumping protects the violation but the interesting sectors become
rare.  Both faces of the trade-off are tabulated here.
"""

import numpy as np

from merminbell import (
    HalfInt,
    LossConfig,
    LossyEngine,
    fock_weight_distribution,
    optimize_angles,
    sector_weight,
)

# %% photon-number weights of one squeezed mode pair: the geometric ladder
# steepens as r drops
print("per-pair photon-number weights:")
print("  n   " + "   ".join(f"r={r}" for r in (0.2, 0.5, 0.8, 1.2)))
tables = {r: fock_weight_distribution(r, n_max=6).probabilities for r in (0.2, 0.5, 0.8, 1.2)}
for n in range(7):
    print(f"  {n}  " + "  ".join(f"{tables[r][n]:.4f}" for r in (0.2, 0.5, 0.8, 1.2)))

# %% how often each spin sector fires
print("\nsector weights (probability of a joint spin-s event):")
for r in (0.2, 0.4, 0.8):
    row = [sector_weight(HalfInt(t), r) for t in range(0, 6)]
    print(f"  r={r}: " + " ".join(f"{w:.4f}" for w in row))

# %% the violation surface cross-sections: same spin, same detector, the
# weakly squeezed source wins on violation, the strongly squeezed one on rate
s = HalfInt(2)
angles, _ = optimize_angles(s, 0.3, LossConfig.equal_eta(1.0))
print(f"\nspin s={s} at eta=0.85: violation vs squeezing, and event rate")
for r in (0.1, 0.2, 0.4, 0.6, 0.9):
    eng = LossyEngine(r, LossConfig.equal_eta(0.85))
    rec = eng.mermin_sides(s, angles)
    print(
        f"  r={r}: violation {rec.violation:+.4f}   sector probability {rec.sector_probability:.5f}"
    )
print("\nhigh violation or high rate -- pick one, or buy better detectors.")
