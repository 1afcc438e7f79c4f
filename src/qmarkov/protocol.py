"""Finite-copy Monte Carlo simulation of randomized Markovianization.

Works in the decomposed coordinates of a tripartite pure state: n copies
are projected onto the jointly typical region (strongly typical block
sequences, weakly typical subspaces inside each block), then hit with
random block unitaries that are Haar on each typical quantum factor and
trivial elsewhere.  The ensemble average of the projected state is its
Haar twirl, an exactly computable (subnormalized) Markov state; the
simulator measures how fast finite samples of unitaries approach it.

The simulator needs only the A-side block data: the weights p_j and the
spectra of the quantum-factor marginals phi_j^aR.  In their eigenbases a
block of the n-copy state is diagonal (it is its own Schmidt form across
aR^n and the rest), so a sampled block is an r_s x r_s matrix on the
typical eigenvalue patterns of its sequence, and everything the
unitaries leave fixed is one direction.  The simulator's cap bounds the
entries of the arrays it fills, not the n-copy dimension D.

The dense objects of the reference path, capped by D, live on a
per-copy labeled layout with the factors grouped by role ("a0.1", ...,
"a0.n", "aR.1", ..., "C.n"); factors of dimension one are dropped.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .entropy import ProbDist, shannon, vn_entropy
from .kidec import KIDecomposition, TripartiteKI, ki_decompose
from .linalg import (
    DensityOp,
    DimensionError,
    PureVec,
    SystemLayout,
    ValidationError,
    haar_from_normals,
    haar_unitary,
    marginal,
    permute_vec,
)

# Largest n-copy dimension D the dense reference path accepts; simulate's
# default cap, by whose square it bounds the entries of the arrays it fills.
DEFAULT_DIM_CAP = 4096
# Largest number of classical block sequences enumerated exactly.
SEQUENCE_CAP = 1 << 20
# Eigenvalues up to this fraction of the largest count as zero in
# min_nonzero_eigenvalue and in the lam_min of simulate.
EIGEN_FLOOR_RTOL = 1e-12
# Round-off level of a trace distance between unit-trace states; a sample
# error at or below it predicts no finite Chernoff sample count.
ERR_ROUNDOFF = 1e-12
# Weight of the typically projected state at or below which it counts as
# vanishing.
PROJECTED_WEIGHT_FLOOR = 1e-15


@dataclass(frozen=True)
class TypicalSpec:
    """Number of copies and window width."""

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n = {self.n} < 1")
        if not self.delta > 0:
            raise ValidationError(f"delta = {self.delta} must be positive")


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


def strongly_typical_set(p, n: int, delta: float) -> list[tuple[tuple[int, ...], float]]:
    """All length-n sequences with empirical frequencies within delta/|J|
    of the distribution, zero-probability symbols excluded."""
    return list(_strongly_typical(p, n, delta))


def _strongly_typical(p, n: int, delta: float):
    """``strongly_typical_set`` one sequence at a time, in lexicographic order."""
    w = p.weights if isinstance(p, ProbDist) else ProbDist(p).weights
    k = len(w)
    if k ** n > SEQUENCE_CAP:
        raise ValidationError(f"{k}^{n} sequences exceed the cap {SEQUENCE_CAP}")
    window = delta / k
    for seq in itertools.product(range(k), repeat=n):
        counts = np.bincount(seq, minlength=k)
        if any(counts[s] > 0 and w[s] <= 0 for s in range(k)):
            continue
        if all(abs(counts[s] / n - w[s]) < window for s in range(k)):
            yield seq, float(np.prod(w[np.array(seq)]))


def weakly_typical_set(p, n: int, delta: float) -> list[tuple[tuple[int, ...], float]]:
    """All length-n sequences whose probability lies in the entropy window
    [2^(-n(H+delta)), 2^(-n(H-delta))]."""
    w = p.weights if isinstance(p, ProbDist) else ProbDist(p).weights
    k = len(w)
    if k ** n > SEQUENCE_CAP:
        raise ValidationError(f"{k}^{n} sequences exceed the cap {SEQUENCE_CAP}")
    h = shannon(w)
    lo, hi = 2.0 ** (-n * (h + delta)), 2.0 ** (-n * (h - delta))
    out = []
    for seq in itertools.product(range(k), repeat=n):
        prob = float(np.prod(w[np.array(seq)]))
        if lo <= prob <= hi and prob > 0:
            out.append((seq, prob))
    return out


def _renormalize(spectrum) -> ProbDist:
    s = np.clip(np.asarray(spectrum, dtype=np.float64), 0.0, None)
    return ProbDist(s / np.sum(s))


def _base(ki: TripartiteKI | KIDecomposition) -> KIDecomposition:
    return ki.base if isinstance(ki, TripartiteKI) else ki


def _typical_windows(base: KIDecomposition, spec: TypicalSpec):
    """Typical block sequences with their typical eigenvalue windows, lazily.

    Yields (seq, prob, positions, windows) for every typical sequence
    j_1..j_n that keeps a pattern.  Per symbol j of seq, positions holds
    the copies where j occurs and windows the weakly typical patterns of
    phi_j^aR's spectrum (indexed largest first) on them, with their
    conditional probabilities; the sequence's patterns are their product.
    """
    spectra = [_renormalize(blk.phi_ar.spectrum[::-1]) for blk in base.blocks]
    cache: dict[tuple[int, int], list] = {}  # window of symbol j on m copies
    for seq, prob in _strongly_typical(_renormalize(base.probs), spec.n, spec.delta):
        symbols = sorted(set(seq))
        positions = [[i for i, s in enumerate(seq) if s == j] for j in symbols]
        windows = []
        for j, pos_j in zip(symbols, positions):
            key = (j, len(pos_j))
            if key not in cache:
                cache[key] = weakly_typical_set(spectra[j], key[1], spec.delta)
            windows.append(cache[key])
        if all(windows):
            yield seq, prob, positions, windows


def _window_weights(windows) -> np.ndarray:
    """Conditional probability of each pattern of ``itertools.product(*windows)``,
    in its order: the product of its renormalized eigenvalues."""
    return functools.reduce(np.kron, (np.array([w for _, w in win]) for win in windows),
                            np.ones(1))


def _typical_blocks(blocks) -> list:
    """The typical blocks as a list; an entirely empty region raises."""
    out = list(blocks)
    if not out:
        raise ValidationError(
            "typical region is empty for these (n, delta); enlarge delta or n")
    return out


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


def typical_mass(tki: TripartiteKI | KIDecomposition, spec: TypicalSpec) -> float:
    """Weight of the projected n-copy state, computed combinatorially."""
    base = _base(tki)
    return float(sum(prob * np.sum(_window_weights(windows)) for _, prob, _, windows in
                     _typical_windows(base, spec)))


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


def _checked_weight(d: float) -> float:
    """The weight of the projected state; a vanishing one raises."""
    if d <= PROJECTED_WEIGHT_FLOOR:
        raise ValidationError("projected state has vanishing weight")
    return d


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
    quantum factor; non-typical sequences act as the identity.  Draws the
    sequences one at a time; ``simulate`` draws its N unitaries in one
    batch that consumes the generator exactly as N calls of this function.
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


def _draw_block_unitaries(ranks: Sequence[int], darn: int,
                          rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` random block unitaries at once, per typical sequence (of
    typical rank r_s, in ``ranks``) a stack (count, r_s, r_s) of Haar
    unitaries on its typical subspace; when darn = 1 each is a stack
    (count, 1, 1) of phases.

    One generator call draws them all: row i holds, sequence by sequence,
    the real and then the imaginary parts of draw i, the order in which
    ``sample_block_unitary`` consumes them.
    """
    if darn == 1:
        phases = np.exp(2j * np.pi * rng.random((count, len(ranks))))
        return list(phases.T[:, :, None, None])
    normals = rng.standard_normal((count, 2 * sum(r * r for r in ranks)))
    out, start = [], 0
    for r in ranks:
        re, im = np.split(normals[:, start:start + 2 * r * r], 2, axis=1)
        out.append(haar_from_normals(re.reshape(count, r, r), im.reshape(count, r, r)))
        start += 2 * r * r
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


def _spectral_average(base: KIDecomposition, spec: TypicalSpec, n_unitaries: int = 1,
                      dim_cap: int = DEFAULT_DIM_CAP,
                      ) -> tuple[list[np.ndarray], np.ndarray]:
    """Per typical sequence s, the squared amplitudes a_s^2 of its typical
    patterns; and the diagonal of the exact average in ``simulate``'s
    coordinates, where entry (t, t') of sequence s is a_s[t']^2 / r_s.
    Raises DimensionError as soon as the R = sum_s r_s^2 coordinates counted
    so far make (R + 1)(N + R + 1) > dim_cap^2 for N unitaries."""
    amp2, n_typical = [], 0
    for _, prob, _, windows in _typical_windows(base, spec):
        rank = math.prod(len(win) for win in windows)
        n_typical += rank * rank
        entries = (n_typical + 1) * (n_unitaries + n_typical + 1)
        if entries > dim_cap ** 2:
            raise DimensionError(f"{n_unitaries:.4g} unitaries at the {n_typical} typical "
                                 f"coordinates counted so far need {entries:.4g} array "
                                 f"entries > dim_cap^2 = {dim_cap ** 2}")
        amp2.append(prob * _window_weights(windows))
    _typical_blocks(amp2)
    return amp2, np.concatenate([np.tile(w / len(w), len(w)) for w in amp2])


def _smallest_above(vals: np.ndarray) -> float:
    """Smallest ascending eigenvalue above EIGEN_FLOOR_RTOL times the largest."""
    return float(np.min(vals[vals > float(vals[-1]) * EIGEN_FLOOR_RTOL]))


def min_nonzero_eigenvalue(mat: np.ndarray) -> float:
    return _smallest_above(np.linalg.eigvalsh((mat + mat.conj().T) / 2))


def _trace_norm_with_diagonal(h: np.ndarray, diagonal: np.ndarray) -> float:
    """Trace norm of the Hermitian h with the given diagonal; overwrites h."""
    h[np.diag_indices_from(h)] = diagonal
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def min_eig_lower_bound(tki: TripartiteKI, n: int, delta: float, d_a: int) -> float:
    """Closed-form lower bound on the smallest nonzero eigenvalue of the
    averaged Markov state."""
    probs = tki.base.probs
    h = shannon(probs)
    h_prime = -float(np.mean(np.log2(probs[probs > 0])))
    s_sum = sum(blk.p * vn_entropy(blk.phi_ar) for blk in tki.blocks)
    exponent = n * (h + 2 * s_sum + delta * (h_prime + 2 * np.log2(4 * d_a)))
    return float(2.0 ** (-exponent))


def simulate(psi: PureVec, n: int, delta: float, rate: float, trials: int,
             seed: int | None = None,
             a: Sequence[str] = ("A",), b: Sequence[str] = ("B",),
             c: Sequence[str] = ("C",), dim_cap: int = DEFAULT_DIM_CAP,
             rng: np.random.Generator | None = None,
             tki: TripartiteKI | KIDecomposition | None = None) -> SimResult:
    """Run the finite-sample protocol and measure convergence.

    Draws ceil(2^(n*rate)) block unitaries per trial; err_to_average
    compares the sample average of the projected state against the exact
    ensemble average, err_full compares the randomized full n-copy state
    against the normalized Markov target.  Both are trace distances
    between normalized states, averaged over trials.

    Only the A-side decomposition is used (``tki`` may be either kind; by
    default it is computed from the AC marginal, which splits the vector as
    ki_tripartite does, and the B side, which the unitaries never touch, is
    not built, so ``b`` is not read).  In the eigenbases of the
    phi_j^aR, block s of the n-copy state is diagonal with amplitudes
    a_s[x] = sqrt(prob_s prod_i lambda_{j_i}[x_i]) over the patterns x, and
    P_s keeps the typical ones.  A sample is then, per sequence, the
    r_s x r_s matrix U_s diag(a_s) on the typical patterns; everything the
    unitaries leave fixed (the other patterns and sequences) is one
    coordinate of norm sqrt(1 - typical_mass).  The exact average is
    diagonal with entries a_s[x]^2 / r_s, and its smallest nonzero
    eigenvalue is the smallest entry above EIGEN_FLOOR_RTOL times the
    largest.  With X the R (+1) x N matrix of the samples over sqrt(N), R = sum_s r_s^2,
    the sample average is G = X X^dagger, and each trace norm is the sum of
    |eigenvalues| of G minus a diagonal: err_to_average on the R x R typical
    block of G minus the average, over the typical mass; err_full on all
    of G minus the normalized average.  No D x D matrix, no N x D array and
    no n-copy vector is formed.  Each trial draws its N unitaries in one
    generator call, in the order of N ``sample_block_unitary`` calls.

    An err_to_average of at most ERR_ROUNDOFF, the round-off level of the
    distance, is reported as 0.0, and chernoff_n is then inf.  Raises
    ValidationError, before any work, when trials < 1, when rate < 0
    (rate 0 is one unitary), when n < 1, when delta is not positive (nan
    included) or when 2^(n*rate) is not a finite double.  Raises
    DimensionError, before the first draw and while it counts the typical
    coordinates, when X and G would hold (R + 1)(N + R + 1) > dim_cap^2
    entries.  The cap counts only those two; a draw's 2RN normals, its Haar
    stacks and eigvalsh's copy of G are of the same order, so the peak is a
    few times that count.
    """
    if trials < 1:
        raise ValidationError(f"trials = {trials} < 1")
    if rate < 0:
        raise ValidationError(f"rate = {rate} < 0")
    spec = TypicalSpec(n, delta)
    try:
        n_unitaries = math.ceil(2.0 ** (n * rate))
    except (OverflowError, ValueError):  # ceil of inf or nan
        raise ValidationError(f"2^(n*rate) = 2^{n * rate:g} unitaries is not a finite "
                              "double") from None
    if rng is None:
        rng = np.random.default_rng(seed)
    base = ki_decompose(marginal(psi, [*a, *c]), a, c) if tki is None else _base(tki)
    amp2, avg = _spectral_average(base, spec, n_unitaries, dim_cap)
    n_typical = len(avg)
    d_mass = _checked_weight(float(sum(np.sum(w) for w in amp2)))
    ranks = [len(w) for w in amp2]
    scale = 1.0 / np.sqrt(n_unitaries)
    amps = [np.sqrt(w) * scale for w in amp2]
    lam_min = _smallest_above(np.sort(avg))
    rest = 1.0 - d_mass  # squared norm of what the unitaries leave fixed
    target = np.append(avg, [0.0] if rest > 0 else []) / d_mass

    err_avg_trials, err_full_trials = [], []
    # columns V_i psi / sqrt(N) in the coordinates: the sample average is X X^dagger
    x = np.empty((len(target), n_unitaries), dtype=np.complex128)
    x[n_typical:] = np.sqrt(max(rest, 0.0)) * scale
    darn = base.dims[2] ** n
    for _ in range(trials):
        draws = _draw_block_unitaries(ranks, darn, rng, n_unitaries)
        start = 0
        for u, a_s, r in zip(draws, amps, ranks):
            x[start:start + r * r] = (u * a_s).reshape(n_unitaries, r * r).T
            start += r * r
        gram = x @ x.conj().T
        gram_diag = gram.diagonal().real.copy()  # the two norms overwrite it
        err_avg_trials.append(_trace_norm_with_diagonal(
            gram[:n_typical, :n_typical], gram_diag[:n_typical] - avg) / d_mass)
        err_full_trials.append(_trace_norm_with_diagonal(gram, gram_diag - target))

    err_avg = float(np.mean(err_avg_trials))
    err_full = float(np.mean(err_full_trials))
    d_a = psi.layout.dim_of(a)
    chernoff = math.inf
    if err_avg <= ERR_ROUNDOFF:
        err_avg = 0.0  # an exact zero, seen through round-off
    else:
        eps1 = err_avg / 2.0
        chernoff = float(np.ceil(2.0 * np.log(2.0 * float(d_a) ** (3 * n))
                                 / (lam_min * eps1 ** 2)))
    return SimResult(n, delta, rate, n_unitaries, err_avg, err_full,
                     d_mass, chernoff, seed)
