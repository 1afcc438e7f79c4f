"""Numerics for quantum Markov chains and Markovianization.

Computes the randomness cost of turning many copies of a tripartite pure
state into a quantum Markov chain, by two independent routes: a block
formula on the Koashi-Imoto decomposition of the AC marginal, and a
spectral algorithm built on the Petz recovery channel.  Also provides the
underlying labeled tensor linear algebra, entropic functionals, channel
tools, Markov-state tests and decompositions, and a finite-copy Monte
Carlo simulator of the randomized protocol.
"""

from .channels import (
    KrausChannel,
    apply_channel,
    cesaro_average,
    channel_E,
    commutant_basis,
    ergodic_projector,
    petz_channel,
    reshuffle,
    transfer_matrices,
)
from .entropy import (
    ProbDist,
    binary_entropy,
    fannes_eta,
    qcmi,
    qmi,
    shannon,
    trace_distance,
    vn_entropy,
)
from .kidec import (
    KIBlock,
    KIDecomposition,
    TripartiteKI,
    ki_decompose,
    ki_tripartite,
    steered_states,
    validate_ki,
)
from .linalg import (
    DensityOp,
    IsometryOp,
    PureVec,
    SystemLayout,
    ValidationError,
    eigh,
    haar_unitary,
    layout,
    marginal,
    partial_trace,
    permute_op,
    permute_vec,
    pinv_sqrt,
    psd_sqrt,
    purify,
    random_density,
    random_pure,
)
from .markov import (
    CostReport,
    MarkovDecomposition,
    bounds_check,
    build_example,
    is_markov_state,
    markov_cost_algorithm,
    markov_cost_formula,
    markov_decomposition,
    mixed_with_product,
    recovery_check,
    cost_matches_qcmi,
)
from .protocol import (
    BlockStructure,
    SimResult,
    TypicalSpec,
    average_markov_state,
    build_protocol_state,
    min_eig_lower_bound,
    sample_block_unitary,
    simulate,
    strongly_typical_set,
    typical_mass,
    weakly_typical_set,
)

__version__ = "0.1.0"
