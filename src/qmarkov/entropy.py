"""Entropic and distance functionals on states and spectra.

All entropies are in bits (base-2 logarithms).  Trace distance follows
the convention without the 1/2 prefactor, so it ranges over [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .linalg import (
    LOG_EPS,
    DensityOp,
    PureVec,
    ValidationError,
    marginal,
    partial_trace,
)

LOG2E = float(np.log2(np.e))
# Most negative weight a distribution may hold, as round-off of zero.
NEGATIVE_WEIGHT_TOL = 1e-12
# Largest deviation of a distribution's sum from 1.
PROB_SUM_TOL = 1e-9
# Largest entry of m - m†, relative to max(1, largest entry of m), at which
# trace_norm takes m as Hermitian and sums |eigenvalues|.
TRACE_NORM_HERM_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Probability distribution: non-negative weights summing to one."""

    weights: np.ndarray = field(repr=False)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size == 0:
            raise ValidationError("empty distribution")
        if np.min(w) < -NEGATIVE_WEIGHT_TOL:
            raise ValidationError(f"negative weight {np.min(w)}")
        if abs(np.sum(w) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"weights sum to {np.sum(w)} != 1")
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))

    def __len__(self) -> int:
        return int(self.weights.size)


def shannon(p) -> float:
    """Shannon entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    w = p.weights if isinstance(p, ProbDist) else np.asarray(p, dtype=np.float64)
    if np.min(w) < -NEGATIVE_WEIGHT_TOL:
        raise ValidationError(f"negative weight {np.min(w)}")
    w = w[w > LOG_EPS]
    if w.size == 0:
        return 0.0
    return float(max(0.0, -np.sum(w * np.log2(w))))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x)."""
    return shannon([x, 1.0 - x])


def vn_entropy(rho: DensityOp) -> float:
    """Von Neumann entropy in bits: Shannon entropy of the spectrum that
    validating ``rho`` computed.

    Eigenvalues below 1e-12 are dropped to avoid kernel-noise logs;
    small negatives within tolerance are clamped to zero.
    """
    return shannon(np.clip(rho.spectrum, 0.0, None))


def _entropy_of(state: DensityOp | PureVec, labels: Iterable[str]) -> float:
    """Entropy of the marginal on ``labels``.  A pure state's marginals on
    ``labels`` and on its complement are the Gram matrices ``M M†`` and
    ``M^T M̄`` of one reshaped vector, so they share their nonzero spectrum;
    the smaller of the two is taken."""
    if not isinstance(state, PureVec):
        return vn_entropy(partial_trace(state, labels))
    labels = set(labels)
    rest = set(state.layout.labels) - labels
    if state.layout.dim_of(rest) < state.layout.dim_of(labels):
        labels = rest
    return vn_entropy(marginal(state, labels))


def qmi(rho: DensityOp | PureVec, a: Iterable[str], b: Iterable[str]) -> float:
    """Quantum mutual information I(A:B) = S(A) + S(B) - S(AB) in bits."""
    a, b = set(a), set(b)
    if a & b:
        raise ValidationError(f"label sets overlap: {sorted(a & b)}")
    return _entropy_of(rho, a) + _entropy_of(rho, b) - _entropy_of(rho, a | b)


def qcmi(rho: DensityOp | PureVec, a: Iterable[str], b: Iterable[str],
         c: Iterable[str]) -> float:
    """Conditional mutual information I(A:C|B) = S(AB)+S(BC)-S(B)-S(ABC)."""
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise ValidationError("label sets overlap")
    return (_entropy_of(rho, a | b) + _entropy_of(rho, b | c)
            - _entropy_of(rho, b) - _entropy_of(rho, a | b | c))


def trace_distance(rho: DensityOp, sigma: DensityOp) -> float:
    """Trace norm of rho - sigma (no 1/2 prefactor), in [0, 2]."""
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch {rho.dim} != {sigma.dim}")
    return trace_norm(rho.mat - sigma.mat)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    m = np.asarray(m)
    # a new buffer for a real m too, whose conj() is m itself
    herm = np.conj(m).T
    if np.max(np.abs(m - herm)) <= TRACE_NORM_HERM_RTOL * max(1.0, float(np.max(np.abs(m))) or 1.0):
        # the Hermitian part (m + m†) / 2, in the adjoint's own buffer
        herm += m
        herm /= 2
        return float(np.sum(np.abs(np.linalg.eigvalsh(herm))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def factored_trace_norm(x: np.ndarray, y: np.ndarray) -> float:
    """Trace norm of X X† - Y Y† for factors with equal row counts, computed
    in the span of their columns: with [X, Y] = Q R (thin QR) and
    J = diag(I, -I), the difference is Q (R J R†) Q†, so its nonzero
    eigenvalues are those of R J R†, of size min(rows, cols X + cols Y)."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape[0] != y.shape[0]:
        raise ValidationError(f"factor row counts differ: {x.shape[0]} != {y.shape[0]}")
    r = np.linalg.qr(np.hstack([x, y]), mode="r")
    rx, ry = r[:, :x.shape[1]], r[:, x.shape[1]:]
    diff = rx @ rx.conj().T - ry @ ry.conj().T
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def eta0(x: float) -> float:
    """-x log2 x for x <= 1/e, capped at its maximum value beyond."""
    if x < 0:
        raise ValidationError(f"negative argument {x}")
    if x <= 1.0 / np.e:
        return float(-x * np.log2(x)) if x > 0 else 0.0
    return LOG2E / np.e


def fannes_eta(x: float, d: int) -> float:
    """Continuity bound coefficient: (x + eta0(x)) * log2 d.

    With eps the trace distance (no 1/2 factor) between two states on a
    d-dimensional space, |S(rho) - S(sigma)| <= fannes_eta(eps, d).
    """
    if x < 0:
        raise ValidationError(f"negative argument {x}")
    return (x + eta0(x)) * float(np.log2(d))
