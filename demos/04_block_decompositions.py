"""Koashi-Imoto block structure of bipartite states.

The decomposition splits the A side into a classical block index, a
redundant factor (invisible to the partner), and an irreducible quantum
factor per block.  The structure is computed from the commutant of the
Kraus family of the recovery-and-discard channel and verified by
reconstruction and irreducibility residuals.
"""

import numpy as np

from qmarkov import (
    DensityOp,
    build_example,
    ki_decompose,
    layout,
    marginal,
    random_density,
    validate_ki,
    vn_entropy,
)

rng = np.random.default_rng(2024)


def residual(x):
    """A residual at round-off reads as a bound, so the output does not move
    when floating-point work is reordered."""
    return "< 1e-12" if x < 1e-12 else f"{x:.2e}"


def report(name, state, a=("A",), c=("C",)):
    dec = ki_decompose(state, a, c, rng=rng)
    val = validate_ki(dec, state)
    print(f"{name}")
    print(f"  blocks (p, dim_redundant, dim_quantum): "
          f"{[(round(b.p, 6), b.dim_l, b.dim_r) for b in dec.blocks]}")
    per_block = [round(vn_entropy(b.phi_ar), 6) for b in dec.blocks]
    print(f"  quantum-factor entropies: {per_block}")
    print(f"  residuals: reconstruction {residual(val.reconstruction_residual)}, "
          f"irreducibility {residual(val.irreducibility_residual)}, "
          f"cross-block {residual(val.cross_block_residual)}")
    print()


# a product state: everything is redundant, nothing is quantum
rho = random_density(layout(("A", 3)), rng)
sig = random_density(layout(("C", 2)), rng)
report("product state (rank-3 marginal)",
       DensityOp(layout(("A", 3), ("C", 2)), np.kron(rho.mat, sig.mat)))

# a maximally entangled pair: one block, all of it quantum
v = np.zeros(9)
for k in range(3):
    v[k * 3 + k] = 1 / np.sqrt(3)
report("maximally entangled pair, d=3",
       DensityOp(layout(("A", 3), ("C", 3)), np.outer(v, v)))

# the asymmetric family: a classical bit deciding between a pinned level
# and an entangled sector
report("asymmetric family AC marginal (d=2, lam=0.5)",
       marginal(build_example("VIB", d=2, lam=0.5), ["A", "C"]))

# GHZ weights: purely classical correlation, one block per branch
report("GHZ AC marginal, weights (0.25, 0.75)",
       marginal(build_example("VIC", lam=(0.25, 0.75)), ["A", "C"]))

# a generic pure-state marginal: a single irreducible quantum block
from qmarkov import random_pure

psi = random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng)
report("generic tripartite pure state, AC marginal", marginal(psi, ["A", "C"]))
