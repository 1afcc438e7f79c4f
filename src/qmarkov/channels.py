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
    DensityOp,
    DimensionError,
    SystemLayout,
    ValidationError,
    _as_complex,
    eigh,
    is_hermitian,
    permute_mat,
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


def reshuffle(x: np.ndarray, d: int) -> np.ndarray:
    """R(X)[(k,l),(m,n)] = X[(k,m),(l,n)] on a d^2 x d^2 matrix."""
    x = _as_complex(x)
    if x.shape != (d * d, d * d):
        raise DimensionError(f"shape {x.shape} != ({d*d}, {d*d})")
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _split_bipartite(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]):
    """Reorder to (A..., C...) and return
    (mat, rho_a, d_a, d_c, a_layout, ac_layout), rho_a the A-marginal."""
    a, c = list(a), list(c)
    if set(a) | set(c) != set(psi_ac.layout.labels) or set(a) & set(c):
        raise ValidationError("A and C labels must partition the layout")
    ac_layout = psi_ac.layout.reorder(a + c)
    d_a = ac_layout.dim_of(a)
    d_c = ac_layout.dim_of(c)
    mat = permute_mat(psi_ac.mat, psi_ac.layout, a + c)
    rho_a = np.einsum("iaja->ij", mat.reshape(d_a, d_c, d_a, d_c))
    return mat, rho_a, d_a, d_c, ac_layout.restrict(a), ac_layout


def _recovery_kraus(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]):
    """Kraus tensor of the Petz recovery A -> AC, with the split's data.

    Returns (kraus, rho_a, a_layout, ac_layout) where
    kraus[l, i, k, j] = sum_m <i k| (Psi_AC)^(1/2) |m l> (Psi_A)^(-1/2)[m, j]:
    kraus[l] is the Petz Kraus operator K_l as a (d_a, d_c, d_a) tensor, and
    its C-row kraus[l, :, k, :] is E_kl of the recovery-and-discard channel.
    """
    mat, rho_a, d_a, d_c, a_layout, ac_layout = _split_bipartite(psi_ac, a, c)
    if np.max(np.abs(rho_a)) < 1e-14:
        raise ValidationError("marginal on A is numerically zero")
    sqrt_ac = psd_sqrt(mat).reshape(d_a, d_c, d_a, d_c)
    inv_a = pinv_sqrt(rho_a)
    kraus = sqrt_ac.transpose(3, 0, 1, 2).reshape(-1, d_a) @ inv_a
    return kraus.reshape(d_c, d_a, d_c, d_a), rho_a, a_layout, ac_layout


def petz_channel(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> KrausChannel:
    """Petz recovery map A -> AC of a bipartite state.

    tau |-> (Psi_AC)^(1/2) ((Psi_A)^(-1/2) tau (Psi_A)^(-1/2) (x) I_C)
            (Psi_AC)^(1/2),
    trace preserving on the support of Psi_A.
    """
    kraus, _, a_layout, ac_layout = _recovery_kraus(psi_ac, a, c)
    d_c, d_a = kraus.shape[:2]
    return KrausChannel(a_layout, ac_layout, kraus.reshape(d_c, d_a * d_c, d_a))


def channel_E(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> KrausChannel:
    """The A -> A channel: Petz recovery to AC followed by discarding C.

    Kraus operators E_kl = <k|_C (Psi_AC)^(1/2) |l>_C (Psi_A)^(-1/2) over a
    computational basis {|k>} of C.  Fixed points of its adjoint encode
    exactly the operations on A that preserve the bipartite state.
    """
    kraus, _, a_layout, _ = _recovery_kraus(psi_ac, a, c)
    d_c = kraus.shape[0]
    return KrausChannel(a_layout, a_layout,
                        [kraus[l, :, k, :] for k in range(d_c) for l in range(d_c)])


def transfer_matrices(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str],
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Superoperator-basis matrices (T1, T) of the A -> A channel.

    T1 = sqrt(Psi_A) (x) conj(sqrt(Psi_A)) is the reshuffled projector onto
    the canonical purification of Psi_A.  T = sum E_kl (x) conj(E_kl) is the
    channel's transfer matrix, built as the reshuffle of its Choi matrix
    M M†, where the columns of M are vec(E_kl).
    """
    kraus, rho_a, _, _ = _recovery_kraus(psi_ac, a, c)
    d_c, d_a = kraus.shape[:2]
    s = psd_sqrt(rho_a)
    m = kraus.transpose(1, 3, 0, 2).reshape(d_a * d_a, d_c * d_c)
    return np.kron(s, s.conj()), reshuffle(m @ m.conj().T, d_a)


def ergodic_projector(tm: np.ndarray, eig_tol: float = EIG_ONE_TOL) -> np.ndarray:
    """Orthogonal projector onto the eigenvalue-1 eigenspace of a Hermitian
    transfer matrix (the infinite Cesaro average of its powers)."""
    if not is_hermitian(tm, tol=1e-8):
        raise ValidationError("transfer matrix is not Hermitian; ergodic projector undefined")
    vals, vecs = eigh(tm)
    sel = np.abs(vals - 1.0) <= eig_tol
    if not np.any(sel):
        raise ValidationError("no eigenvalue within tolerance of 1; identity is not recovered")
    v = vecs[:, sel]
    return v @ v.conj().T


def cesaro_average(tm: np.ndarray, n: int) -> np.ndarray:
    """(1/N) sum_{k=1..N} T^k, the finite Cesaro average."""
    if n < 1:
        raise ValidationError(f"N = {n} < 1")
    tm = _as_complex(tm)
    acc = np.zeros_like(tm)
    power = np.eye(tm.shape[0], dtype=np.complex128)
    for _ in range(n):
        power = power @ tm
        acc += power
    return acc / n


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
    d_in = ch.in_layout.dim
    d_rest = rho.dim // d_in
    d_out = ch.out_layout.dim
    m = permute_mat(rho.mat, rho.layout, in_labels).reshape(d_in, d_rest, d_in, d_rest)
    out = np.zeros((d_out, d_rest, d_out, d_rest), dtype=np.complex128)
    for k in ch.kraus:
        km = np.einsum("oi,irjs->orjs", k, m)
        out += np.einsum("orjs,pj->orps", km, k.conj())
    out_layout = ch.out_layout + rho.layout.restrict(rest)
    out = out.reshape(d_out * d_rest, d_out * d_rest)
    if output_order is not None:
        ordered = out_layout.reorder(output_order)
        out, out_layout = permute_mat(out, out_layout, output_order), ordered
    return DensityOp(out_layout, out, trace_of_one=rho.trace_of_one)
