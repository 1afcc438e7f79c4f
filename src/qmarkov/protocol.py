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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entropy import ProbDist, shannon
from .kidec import KIDecomposition, TripartiteKI, ki_decompose
from .linalg import (
    DimensionError,
    PureVec,
    ValidationError,
    haar_from_normals,
    marginal,
)

# Largest n-copy dimension D the dense path of qmarkov.reference accepts;
# simulate's default cap, by whose square it bounds the entries of the
# arrays it fills.
DEFAULT_DIM_CAP = 4096
# Largest number of classical block sequences enumerated exactly.
SEQUENCE_CAP = 1 << 20
# Eigenvalues up to this fraction of the largest count as zero in the
# lam_min of simulate and in reference.min_nonzero_eigenvalue.
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


def _sequences(p, n: int):
    """The weights of p, and its length-n sequences in lexicographic order;
    more than SEQUENCE_CAP of them raise."""
    w = p.weights if isinstance(p, ProbDist) else ProbDist(p).weights
    k = len(w)
    if k ** n > SEQUENCE_CAP:
        raise ValidationError(f"{k}^{n} sequences exceed the cap {SEQUENCE_CAP}")
    return w, itertools.product(range(k), repeat=n)


def _strongly_typical(p, n: int, delta: float):
    """The length-n sequences with empirical frequencies within delta/|J|
    of the distribution, zero-probability symbols excluded, with their
    probabilities, one at a time in lexicographic order."""
    w, sequences = _sequences(p, n)
    k = len(w)
    window = delta / k
    for seq in sequences:
        counts = np.bincount(seq, minlength=k)
        if any(counts[s] > 0 and w[s] <= 0 for s in range(k)):
            continue
        if all(abs(counts[s] / n - w[s]) < window for s in range(k)):
            yield seq, float(np.prod(w[np.array(seq)]))


def weakly_typical_set(p, n: int, delta: float) -> list[tuple[tuple[int, ...], float]]:
    """All length-n sequences whose probability lies in the entropy window
    [2^(-n(H+delta)), 2^(-n(H-delta))]."""
    w, sequences = _sequences(p, n)
    h = shannon(w)
    lo, hi = 2.0 ** (-n * (h + delta)), 2.0 ** (-n * (h - delta))
    out = []
    for seq in sequences:
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


def typical_mass(tki: TripartiteKI | KIDecomposition, spec: TypicalSpec) -> float:
    """Weight of the projected n-copy state, computed combinatorially."""
    base = _base(tki)
    return float(sum(prob * np.sum(_window_weights(windows)) for _, prob, _, windows in
                     _typical_windows(base, spec)))


def _checked_weight(d: float) -> float:
    """The weight of the projected state; a vanishing one raises."""
    if d <= PROJECTED_WEIGHT_FLOOR:
        raise ValidationError("projected state has vanishing weight")
    return d


def _draw_block_unitaries(ranks: Sequence[int], darn: int,
                          rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` random block unitaries at once, per typical sequence (of
    typical rank r_s, in ``ranks``) a stack (count, r_s, r_s) of Haar
    unitaries on its typical subspace; when darn = 1 each is a stack
    (count, 1, 1) of phases.

    One generator call draws them all: row i holds, sequence by sequence,
    the real and then the imaginary parts of draw i (its phases when
    darn = 1), so the stream is consumed as by ``count`` draws made one
    after another.
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


def _trace_norm_with_diagonal(h: np.ndarray, diagonal: np.ndarray) -> float:
    """Trace norm of the Hermitian h with the given diagonal; overwrites h."""
    h[np.diag_indices_from(h)] = diagonal
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def simulate(psi: PureVec, n: int, delta: float, rate: float, trials: int,
             seed: int | None = None,
             a: Sequence[str] = ("A",), c: Sequence[str] = ("C",),
             dim_cap: int = DEFAULT_DIM_CAP,
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
    ki_tripartite does; the B side, which the unitaries never touch, is
    not built).  In the eigenbases of the
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
    generator call, which consumes the stream as N draws made one after
    another: per draw, sequence by sequence, the r_s^2 real and then the
    r_s^2 imaginary normals of U_s (or one uniform for its phase when aR^n
    is trivial).

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
