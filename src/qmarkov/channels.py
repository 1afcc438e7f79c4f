"""CPTP maps as Kraus families and as matrices on vectorized operators.

The superoperator basis convention: a matrix element indexed [kl, mn]
(row k*d+l, column m*d+n) multiplies |k><l| when acting on |m><n|.
Equivalently, with row-major vec(X)_{ij} = X[i, j], the transfer matrix T
of a channel with Kraus operators {K} is T = sum K (x) conj(K), and
vec(out) = T vec(in).

The reshuffle map R exchanges the two conventions for a d^2 x d^2 matrix:
R(X)[(k,l),(m,n)] = X[(k,m),(l,n)].  It converts between a bipartite
operator on two d-dimensional factors and the superoperator indexing, and
is an involution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    HERM_TOL,
    DensityOp,
    DimensionError,
    SystemLayout,
    ValidationError,
    _as_complex,
    eigh,
    is_hermitian,
    permute_op,
    pinv_sqrt,
    psd_sqrt,
)

# Tolerance for locating the eigenvalue-1 cluster of a Hermitian transfer
# matrix.  Hermitian spectra are real, so double precision suffices.
EIG_ONE_TOL = 1e-8
# Singular values below sigma_max * this are treated as null when solving
# commutator systems.
NULLSPACE_RTOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by a list of Kraus operators (out-dim x in-dim).

    Trace preservation may hold only on a subspace (the support of the
    state the channel was built from); the completeness sum is then the
    projector onto that subspace.
    """

    in_layout: SystemLayout
    out_layout: SystemLayout
    kraus: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, in_layout: SystemLayout, out_layout: SystemLayout,
                 kraus: Sequence[np.ndarray]):
        ks = tuple(_as_complex(k) for k in kraus)
        din, dout = in_layout.dim, out_layout.dim
        for k in ks:
            if k.shape != (dout, din):
                raise DimensionError(f"Kraus shape {k.shape} != ({dout}, {din})")
        comp = completeness(ks)
        if not is_projector(comp, tol=1e-7):
            raise ValidationError("sum K†K is not a projector (not trace preserving on any subspace)")
        object.__setattr__(self, "in_layout", in_layout)
        object.__setattr__(self, "out_layout", out_layout)
        object.__setattr__(self, "kraus", ks)


def completeness(kraus: Iterable[np.ndarray]) -> np.ndarray:
    out = None
    for k in kraus:
        term = k.conj().T @ k
        out = term if out is None else out + term
    return out


def is_projector(p: np.ndarray, tol: float = 1e-8) -> bool:
    return bool(np.max(np.abs(p @ p - p)) <= tol and is_hermitian(p, tol))


@dataclass(frozen=True)
class TransferMatrix:
    """Square matrix acting on vectorized operators (see module docstring)."""

    d: int
    mat: np.ndarray = field(repr=False)

    def __init__(self, d: int, mat):
        mat = _as_complex(mat)
        if mat.shape != (mat.shape[0], mat.shape[0]):
            raise DimensionError(f"transfer matrix must be square, got {mat.shape}")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "mat", mat)


def reshuffle(x: np.ndarray, d: int) -> np.ndarray:
    """R(X)[(k,l),(m,n)] = X[(k,m),(l,n)] on a d^2 x d^2 matrix."""
    x = _as_complex(x)
    if x.shape != (d * d, d * d):
        raise DimensionError(f"shape {x.shape} != ({d*d}, {d*d})")
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _split_bipartite(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]):
    """Reorder to (A..., C...) and return (mat, d_a, d_c, a_layout, ac_layout)."""
    a, c = list(a), list(c)
    if set(a) | set(c) != set(psi_ac.layout.labels) or set(a) & set(c):
        raise ValidationError("A and C labels must partition the layout")
    ordered = permute_op(psi_ac, a + c)
    d_a = ordered.layout.dim_of(a)
    d_c = ordered.layout.dim_of(c)
    a_layout = ordered.layout.restrict(a)
    return ordered.mat, d_a, d_c, a_layout, ordered.layout


def petz_channel(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> KrausChannel:
    """Petz recovery map A -> AC of a bipartite state.

    tau |-> (Psi_AC)^(1/2) ((Psi_A)^(-1/2) tau (Psi_A)^(-1/2) (x) I_C)
            (Psi_AC)^(1/2),
    trace preserving on the support of Psi_A.
    """
    mat, d_a, d_c, a_layout, ac_layout = _split_bipartite(psi_ac, a, c)
    sqrt_ac = psd_sqrt(mat)
    rho_a = np.einsum("iaja->ij", mat.reshape(d_a, d_c, d_a, d_c))
    if np.max(np.abs(rho_a)) < 1e-14:
        raise ValidationError("marginal on A is numerically zero")
    inv_a = pinv_sqrt(rho_a)
    kraus = []
    for l in range(d_c):
        embed = np.zeros((d_a * d_c, d_a), dtype=np.complex128)
        embed.reshape(d_a, d_c, d_a)[:, l, :] = inv_a
        kraus.append(sqrt_ac @ embed)
    return KrausChannel(a_layout, ac_layout, kraus)


def channel_E(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> KrausChannel:
    """The A -> A channel: Petz recovery to AC followed by discarding C.

    Kraus operators E_kl = <k|_C (Psi_AC)^(1/2) |l>_C (Psi_A)^(-1/2) over a
    computational basis {|k>} of C.  Fixed points of its adjoint encode
    exactly the operations on A that preserve the bipartite state.
    """
    mat, d_a, d_c, a_layout, _ = _split_bipartite(psi_ac, a, c)
    sqrt_ac = psd_sqrt(mat).reshape(d_a, d_c, d_a, d_c)
    rho_a = np.einsum("iaja->ij", mat.reshape(d_a, d_c, d_a, d_c))
    if np.max(np.abs(rho_a)) < 1e-14:
        raise ValidationError("marginal on A is numerically zero")
    inv_a = pinv_sqrt(rho_a)
    kraus = [sqrt_ac[:, k, :, l] @ inv_a for k in range(d_c) for l in range(d_c)]
    return KrausChannel(a_layout, a_layout, kraus)


def transfer_matrices(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str],
                      ) -> tuple[TransferMatrix, TransferMatrix, TransferMatrix]:
    """Superoperator-basis matrices (T1, T2, T) of the A -> A channel.

    T1[(kl),(mn)] = <k|sqrt(Psi_A)|m><n|sqrt(Psi_A)|l> is the reshuffled
    projector onto the canonical purification of Psi_A; T2 is the same
    purification after one application of the channel; T = T2 pinv(T1) is
    the channel's transfer matrix on the support.
    """
    mat, d_a, d_c, _, _ = _split_bipartite(psi_ac, a, c)
    rho_a = np.einsum("iaja->ij", mat.reshape(d_a, d_c, d_a, d_c))
    s = psd_sqrt(rho_a)
    t1 = np.einsum("km,nl->klmn", s, s).reshape(d_a * d_a, d_a * d_a)
    t_ac = psd_sqrt(mat).reshape(d_a, d_c, d_a, d_c)
    t2 = np.einsum("krms,nslr->klmn", t_ac, t_ac).reshape(d_a * d_a, d_a * d_a)
    inv_s = pinv_sqrt(rho_a)
    t1_pinv = np.einsum("km,nl->klmn", inv_s, inv_s).reshape(d_a * d_a, d_a * d_a)
    lam = t2 @ t1_pinv
    return (TransferMatrix(d_a, t1), TransferMatrix(d_a, t2), TransferMatrix(d_a, lam))


def is_self_adjoint(tm: TransferMatrix, tol: float = HERM_TOL) -> bool:
    """Max-entry Hermiticity test of the transfer matrix."""
    return bool(np.max(np.abs(tm.mat - tm.mat.conj().T)) <= tol)


def ergodic_projector(tm: TransferMatrix, eig_tol: float = EIG_ONE_TOL) -> TransferMatrix:
    """Orthogonal projector onto the eigenvalue-1 eigenspace of a Hermitian
    transfer matrix (the infinite Cesaro average of its powers)."""
    if not is_hermitian(tm.mat, tol=1e-8):
        raise ValidationError("transfer matrix is not Hermitian; ergodic projector undefined")
    vals, vecs = eigh(tm.mat)
    sel = np.abs(vals - 1.0) <= eig_tol
    if not np.any(sel):
        raise ValidationError("no eigenvalue within tolerance of 1; identity is not recovered")
    v = vecs[:, sel]
    return TransferMatrix(tm.d, v @ v.conj().T)


def cesaro_average(tm: TransferMatrix, n: int) -> TransferMatrix:
    """(1/N) sum_{k=1..N} T^k, the finite Cesaro average."""
    if n < 1:
        raise ValidationError(f"N = {n} < 1")
    acc = np.zeros_like(tm.mat)
    power = np.eye(tm.mat.shape[0], dtype=np.complex128)
    for _ in range(n):
        power = power @ tm.mat
        acc += power
    return TransferMatrix(tm.d, acc / n)


def _commutant_of_family(family: Sequence[np.ndarray], rtol: float = NULLSPACE_RTOL,
                         ) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal basis of {X : [F, X] = 0 for all F}.

    Solved as the SVD nullspace of the stacked linear system
    (F (x) I - I (x) F^T) vec(X) = 0 over the given family.
    """
    d = family[0].shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(f, eye) - np.kron(eye, f.T) for f in family])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    smax = svals[0] if svals.size else 0.0
    # floor the cutoff at the family scale: when every member commutes with
    # everything, smax itself is eigensolver noise
    scale = max(float(np.linalg.norm(f)) for f in family)
    rank = int(np.sum(svals > max(smax, scale) * rtol))
    # rows of vh past the numerical rank span the nullspace of the system;
    # the system has at least d² rows, so the thin vh still has all d² of them
    return [vh[i].conj().reshape(d, d) for i in range(rank, d * d)]


def commutant_basis(ch: KrausChannel, rtol: float = NULLSPACE_RTOL) -> list[np.ndarray]:
    """HS-orthonormal basis of {X : [K, X] = [K†, X] = 0 for all Kraus K}."""
    if ch.in_layout.dim != ch.out_layout.dim:
        raise DimensionError("commutant requires a square channel")
    family = list(ch.kraus) + [k.conj().T for k in ch.kraus]
    return _commutant_of_family(family, rtol=rtol)


def apply_channel(ch: KrausChannel, rho: DensityOp,
                  output_order: Sequence[str] | None = None) -> DensityOp:
    """Apply the channel to the factors matching its input layout.

    The channel acts on the labels of its input layout; identity acts
    elsewhere.  Output factors replace the input factors at the front of
    the layout unless ``output_order`` prescribes the final order.
    """
    in_labels = list(ch.in_layout.labels)
    rest = [l for l in rho.layout.labels if l not in set(in_labels)]
    if set(in_labels) - set(rho.layout.labels):
        raise ValidationError(f"state lacks channel input labels {in_labels}")
    clash = set(ch.out_layout.labels) & set(rest)
    if clash:
        raise ValidationError(f"output labels {sorted(clash)} collide with state labels")
    moved = permute_op(rho, in_labels + rest)
    d_in = ch.in_layout.dim
    d_rest = moved.layout.dim // d_in
    d_out = ch.out_layout.dim
    m = moved.mat.reshape(d_in, d_rest, d_in, d_rest)
    out = np.zeros((d_out, d_rest, d_out, d_rest), dtype=np.complex128)
    for k in ch.kraus:
        km = np.einsum("oi,irjs->orjs", k, m)
        out += np.einsum("orjs,pj->orps", km, k.conj())
    out_layout = ch.out_layout + moved.layout.restrict(rest)
    result = DensityOp(out_layout, out.reshape(d_out * d_rest, d_out * d_rest),
                       trace_of_one=rho.trace_of_one)
    if output_order is not None:
        result = permute_op(result, output_order)
    return result
