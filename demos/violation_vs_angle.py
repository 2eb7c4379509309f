"""Violation vs analyzer angle for a range of detector efficiencies.

Reproduces the angle-sweep workflow: one curve per efficiency at fixed
spin and squeezing.  Lower efficiency pushes every curve down and narrows
the window of angles with positive violation; higher spin narrows it
further.  Writes the table to out/violation_vs_angle.csv as well.
"""

import csv
import os

import numpy as np

from merminbell import HalfInt, LossConfig, LossyEngine, theta_triple

S_STAR = HalfInt(2)  # spin 1
R = 0.5
ETAS = (1.0, 0.95, 0.9, 0.85, 0.8, 0.7)
THETAS = np.linspace(0.02, 1.0, 25)

curves = {}
for eta in ETAS:
    eng = LossyEngine(R, LossConfig.equal_eta(eta))
    curves[eta] = [eng.mermin_sides(S_STAR, theta_triple(float(t))).violation for t in THETAS]

# %% print the table, one efficiency per column
print(f"violation vs theta at s={S_STAR}, r={R}")
print("theta  " + "  ".join(f"eta={e:<4}" for e in ETAS))
for i, theta in enumerate(THETAS):
    print(f"{theta:5.2f} " + "  ".join(f"{curves[e][i]:+8.4f}" for e in ETAS))

# %% the positive window per efficiency
print("\npositive-violation window (grid points):")
for eta in ETAS:
    n = sum(v > 0 for v in curves[eta])
    print(f"  eta={eta}: {n} of {len(THETAS)} grid points violate")

os.makedirs("out", exist_ok=True)
with open("out/violation_vs_angle.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["theta"] + [f"eta_{e}" for e in ETAS])
    for i, theta in enumerate(THETAS):
        w.writerow([f"{theta:.6f}"] + [f"{curves[e][i]:.12f}" for e in ETAS])
print("\nwrote out/violation_vs_angle.csv")
