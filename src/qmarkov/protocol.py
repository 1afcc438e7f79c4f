"""Finite-copy Monte Carlo simulation of randomized Markovianization.

Works in the decomposed coordinates of a tripartite pure state: n copies
are projected onto the jointly typical region (strongly typical block
sequences, weakly typical subspaces inside each block), then hit with
random block unitaries that are Haar on each typical quantum factor and
trivial elsewhere.  The ensemble average of the projected state is its
Haar twirl, an exactly computable (subnormalized) Markov state; the
simulator measures how fast finite samples of unitaries approach it.

All dense objects live on a per-copy labeled layout with the factors
grouped by role ("a0.1", ..., "a0.n", "aR.1", ..., "C.n"); factors of
dimension one are dropped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .entropy import ProbDist, factored_trace_norm, shannon, vn_entropy
from .kidec import TripartiteKI
from .linalg import (
    HERM_TOL,
    DensityOp,
    DimensionError,
    PureVec,
    SystemLayout,
    ValidationError,
    haar_unitary,
    partial_trace,
    permute_vec,
)

# Largest n-copy dimension D the simulator accepts by default; simulate
# also bounds its N x D sampled amplitudes by the square of the cap.
DEFAULT_DIM_CAP = 4096
# Largest number of classical block sequences enumerated exactly.
DEFAULT_SEQUENCE_CAP = 1 << 20
# Round-off level of a trace distance between unit-trace states; a sample
# error at or below it predicts no finite Chernoff sample count.
ERR_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class TypicalSpec:
    """Number of copies, window width, and the sequence-set flavor."""

    n: int
    delta: float
    mode: str = "strong"

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n = {self.n} < 1")
        if not self.delta > 0:
            raise ValidationError(f"delta = {self.delta} must be positive")
        if self.mode not in ("strong", "weak"):
            raise ValidationError(f"mode {self.mode!r} not in ('strong', 'weak')")


@dataclass(frozen=True)
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
    dim_r_total: int


@dataclass(frozen=True)
class SimResult:
    """Averaged outcome of the finite-sample protocol runs."""

    n: int
    delta: float
    rate: float
    n_unitaries: int
    err_to_average: float
    err_full: float
    typical_mass: float
    chernoff_n: float
    seed: int | None


def strongly_typical_set(p, n: int, delta: float,
                         max_sequences: int = DEFAULT_SEQUENCE_CAP,
                         ) -> list[tuple[tuple[int, ...], float]]:
    """All length-n sequences with empirical frequencies within delta/|J|
    of the distribution, zero-probability symbols excluded."""
    w = p.weights if isinstance(p, ProbDist) else ProbDist(p).weights
    k = len(w)
    if k ** n > max_sequences:
        raise ValidationError(f"{k}^{n} sequences exceed the cap {max_sequences}")
    window = delta / k
    out = []
    for seq in itertools.product(range(k), repeat=n):
        counts = np.bincount(seq, minlength=k)
        if any(counts[s] > 0 and w[s] <= 0 for s in range(k)):
            continue
        if all(abs(counts[s] / n - w[s]) < window for s in range(k)):
            prob = float(np.prod(w[np.array(seq)]))
            out.append((seq, prob))
    return out


def weakly_typical_set(p, n: int, delta: float,
                       max_sequences: int = DEFAULT_SEQUENCE_CAP,
                       ) -> list[tuple[tuple[int, ...], float]]:
    """All length-n sequences whose probability lies in the entropy window
    [2^(-n(H+delta)), 2^(-n(H-delta))]."""
    w = p.weights if isinstance(p, ProbDist) else ProbDist(p).weights
    k = len(w)
    if k ** n > max_sequences:
        raise ValidationError(f"{k}^{n} sequences exceed the cap {max_sequences}")
    h = shannon(w)
    lo, hi = 2.0 ** (-n * (h + delta)), 2.0 ** (-n * (h - delta))
    out = []
    for seq in itertools.product(range(k), repeat=n):
        prob = float(np.prod(w[np.array(seq)]))
        if lo <= prob <= hi and prob > 0:
            out.append((seq, prob))
    return out


def _weak_window(spectrum, m: int, delta: float,
                 ) -> list[tuple[tuple[int, ...], float]]:
    """Weakly typical eigenvalue patterns for m copies of a spectrum; the
    empty pattern qualifies when m = 0."""
    if m == 0:
        return [((), 1.0)]
    return weakly_typical_set(_renormalize(spectrum), m, delta)


def _renormalize(spectrum) -> ProbDist:
    s = np.clip(np.asarray(spectrum, dtype=np.float64), 0.0, None)
    return ProbDist(s / np.sum(s))


def _per_block_bases(tki: TripartiteKI) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per block: spectrum of the quantum-factor marginal and its
    eigenvectors embedded in the padded per-copy space."""
    d_ar = tki.base.dims[2]
    out = []
    for blk in tki.blocks:
        phi_ar = partial_trace(blk.phi, ["aR"]).mat
        vals, vecs = np.linalg.eigh(phi_ar)
        vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
        padded = np.zeros((d_ar, blk.dim_r), dtype=np.complex128)
        padded[:blk.dim_r, :] = vecs
        out.append((np.clip(vals, 0.0, None), padded))
    return out


def build_blocks(tki: TripartiteKI, spec: TypicalSpec,
                 max_sequences: int = DEFAULT_SEQUENCE_CAP) -> BlockStructure:
    """Typical block sequences with their conditional projectors.

    The projector of a block sequence j1..jn lives on the n-fold padded
    quantum factor; it selects, for every symbol j, the weakly typical
    eigenvalue patterns of that symbol's state on the copies where the
    symbol occurs.  Sequences whose projector is empty are dropped; an
    entirely empty typical region raises.
    """
    pick = strongly_typical_set if spec.mode == "strong" else weakly_typical_set
    seqs = pick(_renormalize(tki.base.probs), spec.n, spec.delta, max_sequences)
    bases = _per_block_bases(tki)
    d_ar = tki.base.dims[2]
    dim_total = d_ar ** spec.n
    entries = []
    for seq, prob in seqs:
        positions: dict[int, list[int]] = {}
        for pos, j in enumerate(seq):
            positions.setdefault(j, []).append(pos)
        per_symbol = {}
        for j, pos in positions.items():
            window = _weak_window(bases[j][0][:tki.blocks[j].dim_r],
                                  len(pos), spec.delta)
            if not window:
                per_symbol = None
                break
            per_symbol[j] = window
        if per_symbol is None:
            continue
        vectors = []
        symbols = sorted(per_symbol)
        for combo in itertools.product(*(per_symbol[j] for j in symbols)):
            pattern: dict[int, int] = {}
            for j, (subseq, _) in zip(symbols, combo):
                for pos, x in zip(positions[j], subseq):
                    pattern[pos] = x
            vec = np.ones(1, dtype=np.complex128)
            for pos in range(spec.n):
                vec = np.kron(vec, bases[seq[pos]][1][:, pattern[pos]])
            vectors.append(vec)
        if not vectors:
            continue
        entries.append(BlockEntry(seq, prob, np.array(vectors).T))
    if not entries:
        raise ValidationError(
            "typical region is empty for these (n, delta); enlarge delta or n")
    return BlockStructure(spec, tuple(entries), dim_total)


def typical_mass(tki: TripartiteKI, spec: TypicalSpec,
                 max_sequences: int = DEFAULT_SEQUENCE_CAP) -> float:
    """Weight of the projected n-copy state, computed combinatorially."""
    pick = strongly_typical_set if spec.mode == "strong" else weakly_typical_set
    seqs = pick(_renormalize(tki.base.probs), spec.n, spec.delta, max_sequences)
    bases = _per_block_bases(tki)
    total = 0.0
    for seq, prob in seqs:
        counts: dict[int, int] = {}
        for j in seq:
            counts[j] = counts.get(j, 0) + 1
        cond = 1.0
        for j, m in counts.items():
            spectrum = bases[j][0][:tki.blocks[j].dim_r]
            cond *= sum(w for _, w in _weak_window(spectrum, m, spec.delta))
        total += prob * cond
    return float(total)


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


def _ki_power(tki: TripartiteKI, n: int, dim_cap: int) -> PureVec:
    """n-fold tensor power of the decomposed state on the grouped layout."""
    single = tki.ki_pure_state()
    total = single.layout.dim ** n
    if total > dim_cap:
        raise DimensionError(
            f"the n-copy state has dimension {total} > cap {dim_cap}")
    vec = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        vec = np.kron(vec, single.vec)
    factors = []
    for i in range(n):
        factors.extend((f"{name}.{i+1}", dim)
                       for name, dim in single.layout.factors if dim > 1)
    psi = PureVec(SystemLayout(factors), vec)
    return permute_vec(psi, protocol_layout(tki, n).labels)


def _project(tki: TripartiteKI, spec: TypicalSpec, blocks: BlockStructure,
             dim_cap: int) -> PureVec:
    """The n-copy state projected onto the typical region, unnormalized."""
    psi_n = _ki_power(tki, spec.n, dim_cap)
    projected = _apply_blockwise(psi_n, tki, spec.n,
                                 {e.seq: e.projector for e in blocks.entries})
    return PureVec(psi_n.layout, projected, normalized=False)


def build_protocol_state(tki: TripartiteKI, spec: TypicalSpec,
                         dim_cap: int = DEFAULT_DIM_CAP,
                         max_sequences: int = DEFAULT_SEQUENCE_CAP,
                         ) -> tuple[PureVec, BlockStructure, float]:
    """Project the n-copy state onto the typical region.

    Returns the (subnormalized) projected vector on the grouped layout,
    the block structure, and the captured weight (its squared norm).
    """
    blocks = build_blocks(tki, spec, max_sequences)
    projected = _project(tki, spec, blocks, dim_cap)
    d = float(np.real(np.vdot(projected.vec, projected.vec)))
    if d <= 1e-15:
        raise ValidationError("projected state has vanishing weight")
    return projected, blocks, d


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
    out = tens.copy() if default_identity else np.zeros_like(tens)
    seq_shape = (tki.base.dims[0],) * n
    for seq, m in per_seq.items():
        flat = np.ravel_multi_index(seq, seq_shape)
        out[flat] = np.einsum("pq,lqr->lpr", m, tens[flat])
    return out.reshape(-1)


def sample_block_unitary(blocks: BlockStructure, tki: TripartiteKI,
                         rng: np.random.Generator,
                         ) -> dict[tuple[int, ...], np.ndarray]:
    """One random block unitary: per typical sequence, Haar on the typical
    quantum subspace and identity on its complement.

    Returned as a map from block sequence to the unitary on the n-fold
    quantum factor; non-typical sequences act as the identity.
    """
    darn = tki.base.dims[2] ** blocks.spec.n
    out = {}
    for entry in blocks.entries:
        if darn == 1:
            out[entry.seq] = np.exp(2j * np.pi * rng.random()) * np.ones((1, 1))
            continue
        b = entry.basis
        u = haar_unitary(entry.rank, rng)
        out[entry.seq] = np.eye(darn) + b @ (u - np.eye(entry.rank)) @ b.conj().T
    return out


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
                         dim_cap: int = DEFAULT_DIM_CAP,
                         max_sequences: int = DEFAULT_SEQUENCE_CAP,
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
        blocks = build_blocks(tki, spec, max_sequences)
    projected = _project(tki, spec, blocks, dim_cap)
    y = _average_factor(tki, blocks, projected)
    return DensityOp(projected.layout, y @ y.conj().T, trace_of_one=False)


def _smallest_above(vals: np.ndarray, rtol: float) -> float:
    """Smallest of ascending eigenvalues above rtol times the largest."""
    return float(np.min(vals[vals > float(vals[-1]) * rtol]))


def min_nonzero_eigenvalue(mat: np.ndarray, rtol: float = 1e-12) -> float:
    return _smallest_above(np.linalg.eigvalsh((mat + mat.conj().T) / 2), rtol)


def _factor_min_eigenvalue(y: np.ndarray, trace: float, rtol: float = 1e-12) -> float:
    """Smallest nonzero eigenvalue of Y Y^dagger, read from the Gram matrix
    Y^dagger Y (same nonzero spectrum).  Checks what a factor can get wrong:
    its squared Frobenius norm must be ``trace`` and the Gram matrix PSD."""
    norm2 = float(np.vdot(y, y).real)
    if abs(norm2 - trace) > 1e-10:
        raise ValidationError(f"average factor has trace {norm2} != {trace}")
    vals = np.linalg.eigvalsh(y.conj().T @ y)
    if vals[0] < -HERM_TOL:
        raise ValidationError(f"average factor Gram matrix has eigenvalue {vals[0]}")
    return _smallest_above(vals, rtol)


def min_eig_lower_bound(tki: TripartiteKI, n: int, delta: float, d_a: int) -> float:
    """Closed-form lower bound on the smallest nonzero eigenvalue of the
    averaged Markov state."""
    probs = tki.base.probs
    h = shannon(probs)
    h_prime = -float(np.mean(np.log2(probs[probs > 0])))
    s_sum = sum(blk.p * vn_entropy(partial_trace(blk.phi, ["aR"]))
                for blk in tki.blocks)
    exponent = n * (h + 2 * s_sum + delta * (h_prime + 2 * np.log2(4 * d_a)))
    return float(2.0 ** (-exponent))


def simulate(psi: PureVec, n: int, delta: float, rate: float, trials: int,
             seed: int | None = None,
             a: Sequence[str] = ("A",), b: Sequence[str] = ("B",),
             c: Sequence[str] = ("C",), dim_cap: int = DEFAULT_DIM_CAP,
             rng: np.random.Generator | None = None,
             tki: TripartiteKI | None = None) -> SimResult:
    """Run the finite-sample protocol and measure convergence.

    Draws ceil(2^(n*rate)) block unitaries per trial; err_to_average
    compares the sample average of the projected state against the exact
    ensemble average, err_full compares the randomized full n-copy state
    against the normalized Markov target.  Both are trace distances
    between normalized states, averaged over trials.  Both are taken in
    the span of the sampled rows and of a factor of the exact average, so
    no D x D matrix is formed.  chernoff_n is inf when err_to_average is
    at most ERR_ROUNDOFF, the round-off level of the distance.  Raises
    ValidationError, before any work, when trials < 1 or when 2^(n*rate)
    is not a finite double, and DimensionError, before the first draw,
    when the N x D sampled amplitudes of one stack exceed dim_cap^2.
    """
    if trials < 1:
        raise ValidationError(f"trials = {trials} < 1")
    try:
        n_unitaries = math.ceil(2.0 ** (n * rate))
    except (OverflowError, ValueError):  # ceil of inf or nan
        raise ValidationError(f"2^(n*rate) = 2^{n * rate:g} unitaries is not a finite "
                              "double") from None
    if rng is None:
        rng = np.random.default_rng(seed)
    from .kidec import ki_tripartite

    if tki is None:
        tki = ki_tripartite(psi, a, b, c)
    dim = protocol_layout(tki, n).dim
    if n_unitaries * dim > dim_cap ** 2:
        raise DimensionError(
            f"{n_unitaries:.4g} unitaries at dimension {dim} need "
            f"{n_unitaries * dim:.4g} sampled amplitudes > dim_cap^2 = {dim_cap ** 2}")
    spec = TypicalSpec(n, delta)
    psi_prime, blocks, d_mass = build_protocol_state(tki, spec, dim_cap)
    y = _average_factor(tki, blocks, psi_prime)
    lam_min = _factor_min_eigenvalue(y, d_mass)
    y_unit = y / np.sqrt(d_mass)
    psi_unit = PureVec(psi_prime.layout, psi_prime.vec / np.sqrt(d_mass))
    psi_full = _ki_power(tki, n, dim_cap)

    err_avg_trials, err_full_trials = [], []
    # rows V_i psi / sqrt(N): the sample average is X X^dagger with X = rows^T
    rows_avg = np.empty((n_unitaries, dim), dtype=np.complex128)
    rows_full = np.empty_like(rows_avg)
    scale = 1.0 / np.sqrt(n_unitaries)
    for _ in range(trials):
        for i in range(n_unitaries):
            v = sample_block_unitary(blocks, tki, rng)
            rows_avg[i] = _apply_blockwise(psi_unit, tki, n, v)
            rows_full[i] = _apply_blockwise(psi_full, tki, n, v, default_identity=True)
        err_avg_trials.append(factored_trace_norm(rows_avg.T * scale, y_unit))
        err_full_trials.append(factored_trace_norm(rows_full.T * scale, y_unit))

    err_avg = float(np.mean(err_avg_trials))
    err_full = float(np.mean(err_full_trials))
    d_a = psi.layout.dim_of(a)
    chernoff = math.inf
    if err_avg > ERR_ROUNDOFF:
        eps1 = err_avg / 2.0
        chernoff = float(np.ceil(2.0 * np.log(2.0 * float(d_a) ** (3 * n))
                                 / (lam_min * eps1 ** 2)))
    return SimResult(n, delta, rate, n_unitaries, err_avg, err_full,
                     d_mass, chernoff, seed)
