"""Dense references: the n-copy protocol state and the Cesaro average.

``simulate`` never forms the n-copy state; this module does, capped by its
dimension D (``DEFAULT_DIM_CAP``): the typically projected vector, block
unitaries applied to it, the exact ensemble average as a D x D operator,
and the closed-form lower bound on that average's smallest nonzero
eigenvalue.  ``cesaro_average`` is the finite-N reference for
``channels.ergodic_projector``.  The self-test, the demos and the tests
compare against this code; importing ``qmarkov`` does not load it.

The dense objects live on a per-copy labeled layout with the factors
grouped by role ("a0.1", ..., "a0.n", "aR.1", ..., "C.n"); factors of
dimension one are dropped.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .entropy import shannon, vn_entropy
from .kidec import KIDecomposition, TripartiteKI
from .linalg import (
    DensityOp,
    DimensionError,
    PureVec,
    SystemLayout,
    ValidationError,
    permute_vec,
)
from .protocol import (
    DEFAULT_DIM_CAP,
    TypicalSpec,
    _base,
    _checked_weight,
    _smallest_above,
    _typical_blocks,
    _typical_windows,
)


@dataclass(frozen=True, eq=False)
class BlockEntry:
    """One typical block sequence with its weight and an orthonormal basis
    (as columns) of its typical quantum subspace."""

    seq: tuple[int, ...]
    prob: float
    basis: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True)
class BlockStructure:
    """All typical blocks of the projected n-copy state."""

    spec: TypicalSpec
    entries: tuple[BlockEntry, ...]


def build_blocks(tki: TripartiteKI | KIDecomposition, spec: TypicalSpec) -> BlockStructure:
    """Typical block sequences with their conditional projectors.

    The projector of a block sequence j1..jn lives on the n-fold padded
    quantum factor; it selects, for every symbol j, the weakly typical
    eigenvalue patterns of that symbol's state on the copies where the
    symbol occurs.  Sequences whose projector is empty are dropped; an
    entirely empty typical region raises.
    """
    base = _base(tki)
    d_ar = base.dims[2]
    padded = []  # eigenvectors, largest eigenvalue first, in the padded factor
    for blk in base.blocks:
        vecs = np.zeros((d_ar, blk.dim_r), dtype=np.complex128)
        vecs[:blk.dim_r] = np.linalg.eigh(blk.phi_ar.mat)[1][:, ::-1]
        padded.append(vecs)
    entries = []
    for seq, prob, positions, windows in _typical_blocks(_typical_windows(base, spec)):
        vectors = []
        for combo in itertools.product(*windows):
            pattern = np.empty(spec.n, dtype=int)
            for pos_j, (subseq, _) in zip(positions, combo):
                pattern[pos_j] = subseq
            vectors.append(functools.reduce(
                np.kron, (padded[j][:, x] for j, x in zip(seq, pattern))))
        entries.append(BlockEntry(seq, prob, np.array(vectors).T))
    return BlockStructure(spec, tuple(entries))


def protocol_layout(tki: TripartiteKI, n: int) -> SystemLayout:
    """Grouped n-copy layout; factors of dimension one are dropped."""
    d_a0, d_al, d_ar = tki.base.dims
    d_b0, d_bl, d_br = tki.b_dims
    d_c = tki.base.c_layout.dim
    groups = [("a0", d_a0), ("aL", d_al), ("aR", d_ar),
              ("b0", d_b0), ("bL", d_bl), ("bR", d_br), ("C", d_c)]
    factors = []
    for name, dim in groups:
        if dim == 1:
            continue
        factors.extend((f"{name}.{i+1}", dim) for i in range(n))
    return SystemLayout(factors)


def _group_labels(lay: SystemLayout, names: tuple[str, ...]) -> list[str]:
    return [l for l in lay.labels if l.split(".")[0] in names]


def a_side_labels(lay: SystemLayout) -> list[str]:
    return _group_labels(lay, ("a0", "aL", "aR"))


def b_side_labels(lay: SystemLayout) -> list[str]:
    return _group_labels(lay, ("b0", "bL", "bR"))


def c_side_labels(lay: SystemLayout) -> list[str]:
    return _group_labels(lay, ("C",))


def _ki_power(tki: TripartiteKI, n: int) -> PureVec:
    """n-fold tensor power of the decomposed state on the grouped layout."""
    single = tki.ki_pure_state()
    total = single.layout.dim ** n
    if total > DEFAULT_DIM_CAP:
        raise DimensionError(
            f"the n-copy state has dimension {total} > cap {DEFAULT_DIM_CAP}")
    vec = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        vec = np.kron(vec, single.vec)
    factors = []
    for i in range(n):
        factors.extend((f"{name}.{i+1}", dim)
                       for name, dim in single.layout.factors if dim > 1)
    psi = PureVec(SystemLayout(factors), vec)
    return permute_vec(psi, protocol_layout(tki, n).labels)


def _project(psi_n: PureVec, tki: TripartiteKI,
             blocks: BlockStructure) -> PureVec:
    """The n-copy state projected onto the typical region, unnormalized."""
    projected = _apply_blockwise(psi_n, tki, blocks.spec.n,
                                 {e.seq: e.projector for e in blocks.entries})
    return PureVec(psi_n.layout, projected, normalized=False)


def build_protocol_state(tki: TripartiteKI, spec: TypicalSpec,
                         ) -> tuple[PureVec, BlockStructure, float]:
    """Project the n-copy state onto the typical region.

    Returns the (subnormalized) projected vector on the grouped layout,
    the block structure, and the captured weight (its squared norm).
    """
    blocks = build_blocks(tki, spec)
    projected = _project(_ki_power(tki, spec.n), tki, blocks)
    return projected, blocks, _checked_weight(float(np.vdot(projected.vec, projected.vec).real))


def _block_view(psi: PureVec, tki: TripartiteKI, n: int) -> np.ndarray:
    """A grouped vector as a (block sequence, aL^n, aR^n, rest) tensor; the
    sequence axis is the C-order flattening of the a0 indices."""
    d_a0, _, d_ar = tki.base.dims
    al = _group_labels(psi.layout, ("aL",))
    daln = psi.layout.dim_of(al) if al else 1
    return psi.vec.reshape(d_a0 ** n, daln, d_ar ** n, -1)


def _apply_blockwise(psi: PureVec, tki: TripartiteKI, n: int,
                     per_seq: dict[tuple[int, ...], np.ndarray],
                     default_identity: bool = False) -> np.ndarray:
    """Apply one matrix per classical block sequence to the quantum factor
    of a grouped vector.  Sequences absent from the map get zero (or the
    identity when ``default_identity``)."""
    tens = _block_view(psi, tki, n)
    # a real vector under complex matrices gives a complex result
    dtype = np.result_type(tens, *per_seq.values())
    out = tens.astype(dtype) if default_identity else np.zeros(tens.shape, dtype)
    seq_shape = (tki.base.dims[0],) * n
    for seq, m in per_seq.items():
        flat = np.ravel_multi_index(seq, seq_shape)
        out[flat] = np.einsum("pq,lqr->lpr", m, tens[flat])
    return out.reshape(-1)


def _average_factor(tki: TripartiteKI, blocks: BlockStructure,
                    projected: PureVec) -> np.ndarray:
    """A factor Y of the exact ensemble average, Y Y^dagger = average.

    Block s of the average is (P_s / r_s) tensor Tr_{aR^n} |M_s><M_s|; with
    F_s the (aL^n rest) x aR^n reshaping of M_s, F_s F_s^dagger is the
    partial trace, and P_s / r_s = (basis_s / sqrt r_s)(...)^dagger, so
    block s contributes the columns F_s tensor basis_s / sqrt(r_s) on the
    rows of sequence s.
    """
    tens = _block_view(projected, tki, blocks.spec.n)
    _, daln, darn, rest = tens.shape
    widths = [darn * e.rank for e in blocks.entries]
    y = np.zeros(tens.shape + (sum(widths),), dtype=np.complex128)
    seq_shape = (tki.base.dims[0],) * blocks.spec.n
    start = 0
    for entry, width in zip(blocks.entries, widths):
        flat = np.ravel_multi_index(entry.seq, seq_shape)
        y[flat, ..., start:start + width] = np.einsum(
            "lkx,rj->lrxkj", tens[flat], entry.basis / np.sqrt(entry.rank),
        ).reshape(daln, darn, rest, width)
        start += width
    return y.reshape(projected.dim, -1)


def average_markov_state(tki: TripartiteKI, spec: TypicalSpec,
                         blocks: BlockStructure | None = None) -> DensityOp:
    """Exact ensemble average of the randomized protocol output.

    The Haar twirl of the projected state: the unitaries of different
    block sequences are independent, so cross terms vanish, and block s
    becomes (P_s / r_s) tensor Tr_{aR^n} |M_s><M_s|, where M_s is the
    projected vector restricted to s.  The result is a subnormalized
    Markov state conditioned on the B side, built densely from the
    factor that ``simulate`` works with.
    """
    if blocks is None:
        blocks = build_blocks(tki, spec)
    projected = _project(_ki_power(tki, spec.n), tki, blocks)
    y = _average_factor(tki, blocks, projected)
    return DensityOp(projected.layout, y @ y.conj().T, trace_of_one=False)


def min_nonzero_eigenvalue(mat: np.ndarray) -> float:
    return _smallest_above(np.linalg.eigvalsh((mat + mat.conj().T) / 2))


def min_eig_lower_bound(tki: TripartiteKI, n: int, delta: float, d_a: int) -> float:
    """Closed-form lower bound on the smallest nonzero eigenvalue of the
    averaged Markov state."""
    probs = tki.base.probs
    h = shannon(probs)
    h_prime = -float(np.mean(np.log2(probs[probs > 0])))
    s_sum = sum(blk.p * vn_entropy(blk.phi_ar) for blk in tki.blocks)
    exponent = n * (h + 2 * s_sum + delta * (h_prime + 2 * np.log2(4 * d_a)))
    return float(2.0 ** (-exponent))


def cesaro_average(tm: np.ndarray, n: int) -> np.ndarray:
    """(1/N) sum_{k=1..N} T^k, the finite Cesaro average."""
    if n < 1:
        raise ValidationError(f"N = {n} < 1")
    tm = np.asarray(tm)
    acc = np.zeros_like(tm)
    power = np.eye(tm.shape[0], dtype=tm.dtype)
    for _ in range(n):
        power = power @ tm
        acc += power
    return acc / n
