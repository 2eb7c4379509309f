"""Brute force vs closed form: the package's core correctness argument.

The analytic route sums weighted binomial ladders contracted with rotation
matrix elements; the oracle route simulates the four optical modes photon by
photon (state preparation, Kraus loss channels, analyzer beamsplitters,
counting).  The two share no algebra, so their agreement to machine
precision on a matched source truncation validates every convention choice:
Bob's readout sign, the analyzer rotation direction, and the loss-exponent
bookkeeping.
"""

from merminbell import HalfInt, LossConfig, LossyEngine, TruncationPolicy
from merminbell.lossy import correlation_alt_bookkeeping
from merminbell.oracle import simulate_joint

R = 0.5
CAP = HalfInt(4)  # sectors up to s = 2, exactly representable by both routes
POLICY = TruncationPolicy(CAP, 0.0)  # one pass through every sector up to the cap

# %% joint readout distributions, equal and unequal detector efficiencies
print("max |closed form - oracle| over all joint outcomes:")
for loss in (LossConfig.equal_eta(0.8), LossConfig(0.9, 0.7, 0.8, 0.6)):
    eng = LossyEngine(R, loss, POLICY)
    for alpha, beta in ((0.0, 0.0), (0.7, -0.4), (1.3, 2.1)):
        oracle = simulate_joint(R, loss, alpha, beta, cutoff=4, sector_max=CAP)
        closed = eng.joint(alpha, beta)
        diff, _ = oracle.largest_difference(closed)
        print(f"  etas={loss.etas()} angles=({alpha:+.1f},{beta:+.1f}): {diff:.2e}")

# %% sector-conditioned correlations
print("\nsector-conditioned correlations (oracle | closed form):")
loss = LossConfig.equal_eta(0.75)
eng = LossyEngine(R, loss, POLICY)
oracle = simulate_joint(R, loss, 0.6, -0.9, cutoff=4, sector_max=CAP)
for t in (1, 2, 3, 4):
    s_star = HalfInt(t)
    c_or = oracle.correlation(sector=(s_star, s_star), conditioned=True)
    c_cl, _, _, _ = eng.correlation(0.6, -0.9, s_star)
    print(f"  s*={s_star}: {c_or:+.12f} | {c_cl:+.12f}")

# %% the bookkeeping adjudication: only one candidate survives the oracle
print("\nfull-trace correlation, three routes (eta = 0.5):")
loss = LossConfig.equal_eta(0.5)
ref = simulate_joint(0.4, loss, 0.7, -0.4, cutoff=4, sector_max=HalfInt(2)).correlation()
derived = LossyEngine(0.4, loss, TruncationPolicy(HalfInt(2), 0.0)).joint(0.7, -0.4).correlation()
alt = correlation_alt_bookkeeping(0.4, 0.5, 0.7, -0.4, HalfInt(2))
print(f"  oracle:                      {ref:+.12f}")
print(f"  sector-energy bookkeeping:   {derived:+.12f}   <- confirmed")
print(f"  projection-dependent variant:{alt:+.12f}   <- rejected")
