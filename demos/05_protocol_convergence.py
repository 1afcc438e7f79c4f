"""Finite-copy behavior of the randomized Markovianization protocol.

Two copies of the uniform GHZ state are projected onto the typical region
and hit with sampled block unitaries.  The sample average approaches the
exact ensemble average (a Markov state) at the Monte Carlo rate 1/sqrt(N),
and the typical region captures exponentially more weight as the number
of copies grows.
"""

import numpy as np

from qmarkov import (
    TypicalSpec,
    build_example,
    ki_tripartite,
    qcmi,
    simulate,
    typical_mass,
)
from qmarkov.linalg import DensityOp
from qmarkov.reference import (
    a_side_labels,
    average_markov_state,
    b_side_labels,
    build_protocol_state,
    c_side_labels,
    min_eig_lower_bound,
    min_nonzero_eigenvalue,
)

ghz = build_example("VIC", lam=(0.5, 0.5))
tki = ki_tripartite(ghz, rng=np.random.default_rng(0))

print("typical mass captured vs number of copies (window 1.0):")
for n in (2, 3, 4, 5, 6, 8):
    d = typical_mass(tki, TypicalSpec(n, 1.0))
    print(f"  n={n}:  D = {d:.6f}   (deficit {1-d:.3e})")
print()

spec = TypicalSpec(2, 1.0)
bar = average_markov_state(tki, spec)
_, _, d2 = build_protocol_state(tki, spec)
lay = bar.layout
rho = DensityOp(lay, bar.mat / d2)
print("ensemble average at n=2:")
print(f"  conditional information across the split: "
      f"{qcmi(rho, a_side_labels(lay), b_side_labels(lay), c_side_labels(lay)):.2e}")
print(f"  smallest nonzero eigenvalue {min_nonzero_eigenvalue(bar.mat):.4f} "
      f">= closed-form bound {min_eig_lower_bound(tki, 2, 1.0, d_a=2):.3e}")
print()

print("sample-average error vs number of unitaries (3 trials each):")
print(f"{'N':>6} {'err to average':>16} {'err full state':>16} {'Chernoff N':>14}")
for i, rate in enumerate((2.0, 3.0, 4.0, 5.0, 6.0)):
    res = simulate(ghz, n=2, delta=1.0, rate=rate, trials=3, seed=40 + i, tki=tki)
    print(f"{res.n_unitaries:>6} {res.err_to_average:>16.5f} "
          f"{res.err_full:>16.5f} {res.chernoff_n:>14.3e}")
print()
print("Doubling the sample size cuts the error by roughly sqrt(2); the")
print("full-state error floors at the weight the projection discarded,")
print("which itself vanishes exponentially in the number of copies.")
