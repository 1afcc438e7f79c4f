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
# Family members whose commutator rows a commutant solve folds into its
# R factor per QR step: 4 generators and their adjoints.  Each generator
# adds 2d² real rows, so a step's real array, stacked under the d² x d² R,
# has (8 + 1)·d⁴ entries.
COMMUTANT_CHUNK = 8
# Largest array, in entries, a commutant solve allocates, the (chunk + 1)·d⁴
# stack of R over one chunk: the 4096² budget simulate applies to its N x D
# sampled amplitudes by default.
COMMUTANT_ENTRY_CAP = 4096 ** 2
# Largest len(family)·d⁶ a commutant solve takes on, its QR work in units of
# d⁶ per member of the adjoint-closed family.  One unit took 0.37-0.68 ns at
# d = 16-9 (one OpenBLAS thread, 2-core x86-64 VM), so the bound is under a
# minute of solving.
COMMUTANT_WORK_CAP = 2 ** 36


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


def _commutant_of_family(gens: Sequence[np.ndarray], rtol: float = NULLSPACE_RTOL,
                         ) -> list[np.ndarray]:
    """Hermitian, Hilbert-Schmidt-orthonormal basis of the commutant
    {X : [G, X] = [G†, X] = 0 for all generators G} of the generators and
    their adjoints.

    That commutant is closed under adjoints, so its Hermitian elements, a
    real space of the same dimension, span it.  They are solved for in real
    arithmetic, as the SVD nullspace of the rows of [G, X] over real Y (see
    _commutator_rows), taken from the system's d² x d² R factor (see
    _commutator_r); for Hermitian X, [G†, X] = -[G, X]† adds no rows.  More
    than d² generators are first replaced by d² with the same span and Gram
    matrix (see _span_generators).  The caps judge the adjoint-closed family of
    2·len(gens) members as given: raises DimensionError, before any work,
    when one QR step over it would allocate more than COMMUTANT_ENTRY_CAP
    entries or the family exceeds COMMUTANT_WORK_CAP.
    """
    d = gens[0].shape[0]
    members = 2 * len(gens)
    entries = min(members, COMMUTANT_CHUNK + 1) * d ** 4
    if entries > COMMUTANT_ENTRY_CAP:
        raise DimensionError(
            f"the commutator system of {members} operators at dimension {d} needs "
            f"{entries} entries per QR step > cap {COMMUTANT_ENTRY_CAP}")
    work = members * d ** 6
    if work > COMMUTANT_WORK_CAP:
        raise DimensionError(
            f"the commutator system of {members} operators at dimension {d} needs "
            f"{work} units of QR work (members x d^6) > cap {COMMUTANT_WORK_CAP}")
    gens = np.asarray(gens, dtype=np.complex128)
    # floor the cutoff at the family scale: when every member commutes with
    # everything, smax itself is eigensolver noise
    scale = float(np.max(np.linalg.norm(gens, axis=(1, 2))))
    if len(gens) > d * d:
        gens = _span_generators(gens)
    _, svals, vh = np.linalg.svd(_commutator_r(gens), full_matrices=False)
    rank = int(np.sum(svals > max(svals[0], scale) * rtol))
    # rows of vh past the numerical rank span the nullspace; map each Y to
    # its Hermitian X
    y = vh[rank:].reshape(-1, d, d)
    return list(((1 + 1j) * y + (1 - 1j) * y.transpose(0, 2, 1)) / 2)


def _span_generators(gens: np.ndarray) -> np.ndarray:
    """d² generators sigma_j V_j from the thin SVD of the n x d² matrix of
    flattened generators.  They span the same space and give every X the
    same sum of ||[G, X]||², so the commutator system keeps its Gram matrix."""
    n, d, _ = gens.shape
    _, s, vh = np.linalg.svd(gens.reshape(n, d * d), full_matrices=False)
    return (s[:, None] * vh).reshape(-1, d, d)


def _commutator_rows(g: np.ndarray) -> np.ndarray:
    """Real rows of [G, X] as a linear map of real Y, for an (n, d, d) stack
    of generators, as (n·2d², d²): per generator the real part, then the
    imaginary part.

    X = ((1+i) Y + (1-i) Yᵀ) / 2 maps the real d x d matrices isometrically
    onto the Hermitian ones.  With P = (1+i) G / 2 and Q = (1-i) G / 2 = -iP,
    row (i, j), column (k, l) of [G, X] is
    P[i, k] δ[j, l] - δ[i, k] P[l, j] + Q[i, l] δ[j, k] - δ[i, l] Q[k, j],
    written through four diagonal views of a zero block, with the real and
    imaginary parts of P and Q stacked along the part axis s.
    """
    n, d, _ = g.shape
    p = g * ((1 + 1j) / 2)
    pp = np.stack([p.real, p.imag], axis=1)
    qq = np.stack([p.imag, -p.real], axis=1)
    rows = np.zeros((n, 2, d, d, d, d))
    np.einsum("nsijkj->nsijk", rows)[...] = pp[:, :, :, None, :]
    np.einsum("nsijil->nsijl", rows)[...] -= pp.swapaxes(2, 3)[:, :, None]
    np.einsum("nsijjl->nsijl", rows)[...] += qq[:, :, :, None, :]
    np.einsum("nsijki->nsijk", rows)[...] -= qq.swapaxes(2, 3)[:, :, None]
    return rows.reshape(n * 2 * d * d, d * d)


def _commutator_r(gens: np.ndarray) -> np.ndarray:
    """Real d² x d² factor R whose RᵀR is the Gram matrix of the complex
    commutator system (F (x) I - I (x) F^T) over an (n, d, d) stack of
    generators and their adjoints, restricted to the Hermitian matrices.

    The sequential form of TSQR (Demmel, Grigori, Hoemmen & Langou,
    arXiv:0808.2664): the rows of _commutator_rows for COMMUTANT_CHUNK / 2
    generators at a time are stacked under the R so far and reduced to a new
    R, so the whole system is never held.  Those rows give sum ||[G, X]||²
    over the generators; the adjoints, [G†, X] = -[G, X]†, give it again,
    hence the final factor sqrt(2).  So R has the complex system's singular
    values, and its null right singular vectors are the Y of a Hermitian
    basis of that system's nullspace.
    """
    d = gens.shape[1]
    step = COMMUTANT_CHUNK // 2
    r = np.zeros((0, d * d))
    for start in range(0, len(gens), step):
        r = np.linalg.qr(np.vstack([r, _commutator_rows(gens[start:start + step])]), mode="r")
    return np.sqrt(2) * r


def apply_kraus(ch: KrausChannel, mat: np.ndarray, layout: SystemLayout,
                output_order: Sequence[str] | None = None,
                ) -> tuple[np.ndarray, SystemLayout]:
    """Raw sum_k K_k X K_k† of a matrix X over ``layout``, and the output
    layout; identity acts on the factors outside the channel's input.
    Unlike ``apply_channel``, the result is not validated as a state.

    Two products over the stacked Kraus tensor K (n, d_out, d_in):
    K (n·d_out, d_in) @ X (d_in, rest·d_in·rest), then the result as
    (o, r, s | k, j) @ conj(K) (k, j | p), permuted to (o, r, p, s).
    """
    in_labels = list(ch.in_layout.labels)
    rest = [l for l in layout.labels if l not in set(in_labels)]
    if set(in_labels) - set(layout.labels):
        raise ValidationError(f"state lacks channel input labels {in_labels}")
    clash = set(ch.out_layout.labels) & set(rest)
    if clash:
        raise ValidationError(f"output labels {sorted(clash)} collide with state labels")
    kraus = np.stack(ch.kraus)
    n, d_out, d_in = kraus.shape
    d_rest = layout.dim // d_in
    m = permute_mat(mat, layout, in_labels).reshape(d_in, -1)
    km = (kraus.reshape(n * d_out, d_in) @ m).reshape(n, d_out, d_rest, d_in, d_rest)
    km = km.transpose(1, 2, 4, 0, 3).reshape(-1, n * d_in)
    out = km @ kraus.conj().transpose(0, 2, 1).reshape(n * d_in, d_out)
    out = out.reshape(d_out, d_rest, d_rest, d_out).transpose(0, 1, 3, 2)
    out_layout = ch.out_layout + layout.restrict(rest)
    out = out.reshape(d_out * d_rest, d_out * d_rest)
    if output_order is not None:
        ordered = out_layout.reorder(output_order)
        out, out_layout = permute_mat(out, out_layout, output_order), ordered
    return out, out_layout


def apply_channel(ch: KrausChannel, rho: DensityOp,
                  output_order: Sequence[str] | None = None) -> DensityOp:
    """Apply the channel to the factors matching its input layout.

    The channel acts on the labels of its input layout; identity acts
    elsewhere.  Output factors replace the input factors at the front of
    the layout unless ``output_order`` prescribes the final order.
    """
    out, out_layout = apply_kraus(ch, rho.mat, rho.layout, output_order)
    return DensityOp(out_layout, out, trace_of_one=rho.trace_of_one)
