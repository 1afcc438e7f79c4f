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
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DensityOp,
    DimensionError,
    Eigenpairs,
    PureVec,
    SystemLayout,
    ValidationError,
    is_hermitian,
    permute_mat,
    permute_vec,
)

# Tolerance for locating the eigenvalue-1 cluster of a Hermitian transfer
# matrix.  Hermitian spectra are real, so double precision suffices.
EIG_ONE_TOL = 1e-8
# Largest entry of T - T† at which a transfer matrix counts as Hermitian:
# whether the spectral route applies and the ergodic projector is defined.
HERMITICITY_GATE = 1e-9
# Largest entry of P² - P and P - P† at which P = sum K†K counts as a projector.
COMPLETENESS_TOL = 1e-7
# Singular values below sigma_max * this are treated as null when solving
# commutator systems.
NULLSPACE_RTOL = 1e-9
# Largest d² a commutant solve takes on: its unknowns are the d² real
# parameters of a Hermitian d x d matrix, and it eigensolves their d² x d²
# Gram matrix.  At the cap (d = 45) that eigensolve took 1.8 s (one OpenBLAS
# thread, 2-core x86-64 VM) and each complex d⁴ array holds 67 MB.
COMMUTANT_UNKNOWNS_CAP = 2048
# Eigenvalues of that Gram matrix up to this fraction of its scale mark the
# candidates whose singular values the second stage of the solve resolves.
COMMUTANT_CANDIDATE_RTOL = 1e-8
# Real entries of the k candidates' commutators a commutant solve stacks at
# once (8 MB); the rest are folded in chunks of whole generators into a k x k
# triangular factor.  A chunk holds at least one generator's 2·d²·k entries,
# up to 2·2048² at the cap, where the solve's own d⁴ arrays are as large.
COMMUTANT_FOLD_ENTRIES = 2 ** 20
# Largest eigenvalue of the A-marginal below which a split has no recovery map.
ZERO_MARGINAL_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map given by its Kraus operators, stacked (n, out-dim, in-dim).

    Trace preservation may hold only on a subspace (the support of the
    state the channel was built from); the completeness sum is then the
    projector onto that subspace.
    """

    in_layout: SystemLayout
    out_layout: SystemLayout
    kraus: np.ndarray = field(repr=False)

    def __init__(self, in_layout: SystemLayout, out_layout: SystemLayout,
                 kraus: Sequence[np.ndarray] | np.ndarray):
        din, dout = in_layout.dim, out_layout.dim
        for k in kraus:
            if np.shape(k) != (dout, din):
                raise DimensionError(f"Kraus shape {np.shape(k)} != ({dout}, {din})")
        ks = np.asarray(kraus)
        _require_trace_preserving(ks)
        object.__setattr__(self, "in_layout", in_layout)
        object.__setattr__(self, "out_layout", out_layout)
        object.__setattr__(self, "kraus", ks)


def completeness(kraus: Iterable[np.ndarray]) -> np.ndarray:
    """sum K†K, as one product of the stacked operators' rows."""
    ks = np.asarray(kraus)
    rows = ks.reshape(-1, ks.shape[-1])
    return rows.conj().T @ rows


def _require_trace_preserving(kraus: np.ndarray) -> None:
    p = completeness(kraus)
    if not (np.max(np.abs(p @ p - p)) <= COMPLETENESS_TOL
            and is_hermitian(p, COMPLETENESS_TOL)):
        raise ValidationError("sum K†K is not a projector (not trace preserving on any subspace)")


def reshuffle(x: np.ndarray, d: int) -> np.ndarray:
    """R(X)[(k,l),(m,n)] = X[(k,m),(l,n)] on a d^2 x d^2 matrix."""
    x = np.asarray(x)
    if x.shape != (d * d, d * d):
        raise DimensionError(f"shape {x.shape} != ({d*d}, {d*d})")
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _require_partition(layout: SystemLayout, a: Sequence[str], c: Sequence[str]) -> None:
    if set(a) | set(c) != set(layout.labels) or set(a) & set(c):
        raise ValidationError("A and C labels must partition the layout")


@dataclass(frozen=True, eq=False)
class Split:
    """A state Psi_AC on A (x) C, in (A, C) order, by one factorization:
    the eigenpairs ``ac`` of Psi_AC and a factor ``us``, Psi_AC = us us†.
    The eigenpairs ``a`` of the A-marginal, the recovery Kraus tensor built
    from both, the KI decomposition and the entropies of one query all read
    them.

    From a DensityOp (_split_density) ``ac`` is one eigh, and ``us`` =
    U sqrt(Lambda) keeps every eigenpair of Psi_AC = U Lambda U†.  From a
    pure state on A (x) B (x) C (_split_pure), ``ac`` and ``us`` = U S come
    from the thin SVD Psi = U S V† of the vector as a (AC, B) matrix.
    """

    a_layout: SystemLayout
    c_layout: SystemLayout
    ac: Eigenpairs = field(repr=False)
    us: np.ndarray = field(repr=False)

    @cached_property
    def a(self) -> Eigenpairs:
        """Eigenpairs of Psi_A = M M†, M = ``us`` as an (A, C·k) matrix, for
        either input kind: from the SVD of R†, M† = Q R, which keeps the
        relative accuracy of the small eigenvalues that M M† loses."""
        m = self.us.reshape(self.a_layout.dim, -1)
        return Eigenpairs.of_factor(np.linalg.qr(m.conj().T, mode="r").conj().T)

    @cached_property
    def kraus(self) -> np.ndarray:
        """The Petz recovery Kraus tensor (see _recovery_kraus), built once."""
        if self.a.vals[0] < ZERO_MARGINAL_FLOOR:
            raise ValidationError("marginal on A is numerically zero")
        return _recovery_kraus(self.ac.sqrt(), self.a.inv_sqrt())


def _split_density(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> Split:
    """The Split of a bipartite density operator, from one eigh; a pure
    state's marginal splits its vector (_split_pure) instead.  It is made
    once per operator and (A, C) labelling and kept on the operator, so
    ki_decompose and validate_ki of one state factorize it once."""
    key = (tuple(a), tuple(c))
    if psi_ac._splits is None:
        object.__setattr__(psi_ac, "_splits", {})
    if key not in psi_ac._splits:
        psi_ac._splits[key] = _new_split(psi_ac, a, c)
    return psi_ac._splits[key]


def _new_split(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> Split:
    _require_partition(psi_ac.layout, a, c)
    if psi_ac._source is not None:
        return _split_pure(psi_ac._source, a, c)
    order = list(a) + list(c)
    ac_layout = psi_ac.layout.reorder(order)
    ac = Eigenpairs.of(permute_mat(psi_ac.mat, psi_ac.layout, order))
    return Split(ac_layout.restrict(a), ac_layout.restrict(c), ac,
                 us=ac.vecs * np.sqrt(np.clip(ac.vals, 0, None)))


def _split_pure(psi: PureVec, a: Sequence[str], c: Sequence[str],
                b: Sequence[str] | None = None) -> Split:
    """The Split of the AC marginal of a pure state: one thin SVD of the
    vector as a (AC, B) matrix, whose U S is also the factor that Split.a
    reads Psi_A from.  B is ``b`` in that order, by default every other
    factor in layout order.  The marginals are not validated again."""
    a, c = list(a), list(c)
    if b is None:
        b = [l for l in psi.layout.labels if l not in set(a + c)]
    ordered = permute_vec(psi, a + c + list(b))
    d_ac = ordered.layout.dim_of(a + c)
    u, s, _ = np.linalg.svd(ordered.vec.reshape(d_ac, -1), full_matrices=False)
    return Split(ordered.layout.restrict(a), ordered.layout.restrict(c),
                 Eigenpairs(s * s, u), us=u * s)


def _recovery_kraus(sqrt_ac: np.ndarray, inv_a: np.ndarray) -> np.ndarray:
    """Kraus tensor of the Petz recovery A -> AC, from (Psi_AC)^(1/2) in
    (A, C) order and (Psi_A)^(-1/2):
    kraus[l, i, k, j] = sum_m <i k| (Psi_AC)^(1/2) |m l> (Psi_A)^(-1/2)[m, j].
    kraus[l] is the Petz Kraus operator K_l as a (d_a, d_c, d_a) tensor, and
    its C-row kraus[l, :, k, :] is E_kl of the recovery-and-discard channel.
    """
    d_a = inv_a.shape[0]
    d_c = sqrt_ac.shape[0] // d_a
    kraus = sqrt_ac.reshape(d_a, d_c, d_a, d_c).transpose(3, 0, 1, 2).reshape(-1, d_a) @ inv_a
    return kraus.reshape(d_c, d_a, d_c, d_a)


def _e_family(kraus: np.ndarray) -> np.ndarray:
    """The Kraus operators E_kl = kraus[l, :, k, :] of channel_E, stacked
    over (k, l)."""
    d_a = kraus.shape[1]
    return kraus.transpose(2, 0, 1, 3).reshape(-1, d_a, d_a)


def petz_channel(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> KrausChannel:
    """Petz recovery map A -> AC of a bipartite state.

    tau |-> (Psi_AC)^(1/2) ((Psi_A)^(-1/2) tau (Psi_A)^(-1/2) (x) I_C)
            (Psi_AC)^(1/2),
    trace preserving on the support of Psi_A.
    """
    split = _split_density(psi_ac, a, c)
    d_c, d_a = split.kraus.shape[:2]
    return KrausChannel(split.a_layout, split.a_layout + split.c_layout,
                        split.kraus.reshape(d_c, d_a * d_c, d_a))


def channel_E(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str]) -> KrausChannel:
    """The A -> A channel: Petz recovery to AC followed by discarding C.

    Kraus operators E_kl = <k|_C (Psi_AC)^(1/2) |l>_C (Psi_A)^(-1/2) over a
    computational basis {|k>} of C.  Fixed points of its adjoint encode
    exactly the operations on A that preserve the bipartite state.
    """
    split = _split_density(psi_ac, a, c)
    return KrausChannel(split.a_layout, split.a_layout, _e_family(split.kraus))


def transfer_matrices(psi_ac: DensityOp, a: Sequence[str], c: Sequence[str],
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Superoperator-basis matrices (T1, T) of the A -> A channel.

    T1 = sqrt(Psi_A) (x) conj(sqrt(Psi_A)) is the reshuffled projector onto
    the canonical purification of Psi_A.  T = sum E_kl (x) conj(E_kl) is the
    channel's transfer matrix (see _transfer).
    """
    split = _split_density(psi_ac, a, c)
    s = split.a.sqrt()
    return np.kron(s, s.conj()), _transfer(split)


def _transfer(split: Split) -> np.ndarray:
    """The transfer matrix T of a Split's A -> A channel, built as the
    reshuffle of its Choi matrix M M†, where the columns of M are vec(E_kl)."""
    d_c, d_a = split.kraus.shape[:2]
    m = split.kraus.transpose(1, 3, 0, 2).reshape(d_a * d_a, d_c * d_c)
    return reshuffle(m @ m.conj().T, d_a)


def ergodic_projector(tm: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the eigenvalue-1 eigenspace of a Hermitian
    transfer matrix (the infinite Cesaro average of its powers)."""
    v = _ergodic_basis(tm)
    if v is None:
        raise ValidationError("transfer matrix is not Hermitian; ergodic projector undefined")
    return v @ v.conj().T


def _ergodic_basis(tm: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns V spanning the eigenvalue-1 eigenspace of a
    transfer matrix T, so ergodic_projector is V V†, or None when T - T†
    has an entry above HERMITICITY_GATE: the spectral route's one check."""
    tm = np.asarray(tm)
    if not is_hermitian(tm, tol=HERMITICITY_GATE):
        return None
    vals, vecs = np.linalg.eigh((tm + tm.conj().T) / 2)
    sel = np.abs(vals - 1.0) <= EIG_ONE_TOL
    if not np.any(sel):
        raise ValidationError("no eigenvalue within tolerance of 1; identity is not recovered")
    return vecs[:, sel]


def _omega_inf(split: Split) -> np.ndarray | None:
    """The spectral route's evolved purification R(P T1), None when T fails
    the Hermiticity gate.  For P = V V† and X_k column k of V as a d_A x d_A
    matrix, row k of V† T1 is vec(sqrt(Psi_A) X_k sqrt(Psi_A))†: O(k d_A³)."""
    v = _ergodic_basis(_transfer(split))
    if v is None:
        return None
    d_a = split.a_layout.dim
    s = split.a.sqrt()
    rows = (s @ v.T.reshape(-1, d_a, d_a) @ s).reshape(-1, d_a * d_a).conj()
    return reshuffle(v @ rows, d_a)


def _commutant_of_family(gens: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Hermitian, Hilbert-Schmidt-orthonormal basis of the commutant
    {X : [G, X] = [G†, X] = 0 for all generators G} of the generators and
    their adjoints.

    That commutant is closed under adjoints, so its Hermitian elements, a
    real space of the same dimension, span it.  They are solved for over the
    real d x d matrices Y, through the isometry X = ((1+i) Y + (1-i) Yᵀ) / 2,
    in two stages.

    1. The d² x d² real Gram matrix H of the commutator system, whose
       quadratic form is sum ||[F, X]||² over F in gens and their adjoints,
       in closed form from W = sum vec(G)* vec(G)ᵀ, one (d² x n)(n x d²)
       product (see _commutator_gram), and one eigh of H.  Its eigenvalues
       are the system's squared singular values, resolved only down to
       round-off of the largest.
    2. The eigenvectors with eigenvalue at most COMMUTANT_CANDIDATE_RTOL
       times max(lambda_max, scale²) are the k candidates; scale, the
       largest generator norm, keeps the cut when every generator is nearly
       scalar and lambda_max is itself round-off.  Their commutators with
       the traceless parts of the generators (the same commutators, free of
       the round-off of a large scalar part) make a real (n·2d²) x k
       matrix, and the rank rule keeps its singular values, unsquared, at
       most max(sqrt(lambda_max), scale)·NULLSPACE_RTOL.  That matrix is stacked
       COMMUTANT_FOLD_ENTRIES entries at a time, each chunk under the k x k
       QR factor of those before it, and the last stack's SVD gives the
       singular values.  When n·k > d², the traceless parts are first
       replaced by the rows sigma_j v_j of their own thin SVD above
       round-off: the same span and Gram matrix, in at most d² members.
       That saves most on nearly scalar families, such as a product
       state's, where every eigenvector is a candidate.

    Raises DimensionError, before any work, when d² exceeds
    COMMUTANT_UNKNOWNS_CAP.
    """
    d = gens[0].shape[0]
    if d * d > COMMUTANT_UNKNOWNS_CAP:
        raise DimensionError(
            f"the commutator system of {2 * len(gens)} operators at dimension {d} has "
            f"{d * d} real unknowns > cap {COMMUTANT_UNKNOWNS_CAP}")
    # the family's own field: real generators give a real Gram matrix and
    # real traceless parts
    gens = np.asarray(gens)
    n = len(gens)
    flat = gens.reshape(n, d * d)
    scale = float(np.max(np.linalg.norm(flat, axis=1)))
    vals, vecs = np.linalg.eigh(_commutator_gram(flat, d))
    top = max(float(vals[-1]), 0.0)
    k = int(np.searchsorted(vals, COMMUTANT_CANDIDATE_RTOL * max(top, scale * scale),
                            side="right"))
    # each candidate's Hermitian X = ((1+i) Y + (1-i) Yᵀ) / 2
    y = vecs[:, :k].T.reshape(k, d, d) * ((1 + 1j) / 2)
    x = y + y.conj().transpose(0, 2, 1)
    # the traceless parts have the same commutators, without the round-off
    # of a large scalar part
    gens = gens - np.einsum("nii->n", gens)[:, None, None] * (np.eye(d) / d)
    if n * k > d * d:
        # the family's span in at most d² members: the same Gram matrix
        _, sv, vh = np.linalg.svd(gens.reshape(n, d * d), full_matrices=False)
        keep = sv >= min(sv[0], scale * d * np.finfo(float).eps)
        gens = (sv[keep, None] * vh[keep]).reshape(-1, d, d)
    per = max(1, COMMUTANT_FOLD_ENTRIES // (2 * d * d * k))
    r = None
    for i in range(0, len(gens), per):
        comm = gens[i:i + per] @ x[:, None]
        comm -= x[:, None] @ gens[i:i + per]
        rows = comm.view(np.float64).reshape(k, -1).T
        r = rows if r is None else np.concatenate([np.linalg.qr(r, mode="r"), rows])
    _, sv, vh = np.linalg.svd(r, full_matrices=False)
    # the adjoints' commutators, [G†, X] = -[G, X]†, double the sum of squares
    rank = int(np.count_nonzero(sv * np.sqrt(2) > max(np.sqrt(top), scale) * NULLSPACE_RTOL))
    return list((vh[rank:] @ x.reshape(k, d * d)).reshape(-1, d, d))


def _commutator_gram(flat: np.ndarray, d: int) -> np.ndarray:
    """Real d² x d² H with vec(Y)ᵀ H vec(Y) = sum ||[F, X]||² over the n
    flattened generators and their adjoints, X = ((1+i) Y + (1-i) Yᵀ) / 2.

    For Hermitian X the sum is x† M x, x = vec(X) row-major, with
    M = 2 (S (x) I - K - K†), S = sum G†G + GG† and K = sum G† (x) Gᵀ.
    Both are index shuffles of W = sum vec(G)* vec(G)ᵀ, as a tensor
    W[k, i, l, j] = sum conj(G[k, i]) G[l, j]: K[i, j, k, l] = W[k, i, l, j],
    K†[i, j, k, l] = W[j, l, i, k], and S is two partial traces of W.  With
    Π the swap vec(Y) -> vec(Yᵀ), x = J vec(Y) for J = ((1+i) I + (1-i) Π) / 2,
    and H = Re(J† M J) = Re M' + Π Re M' Π - Π Im M' + Im M' Π for
    M' = M / 2: index swaps of M'.
    """
    w = (flat.conj().T @ flat).reshape(d, d, d, d)
    m = w.transpose(1, 3, 0, 2) + w.transpose(2, 0, 3, 1)
    s = np.einsum("aiaj->ij", w) + np.einsum("jbib->ij", w)
    np.einsum("ijkj->ijk", m)[...] -= s[:, None, :]
    # m is -M'; H from its real and imaginary parts
    re, im = m.real, m.imag
    h = im.transpose(1, 0, 2, 3) - im.transpose(0, 1, 3, 2) - re - re.transpose(1, 0, 3, 2)
    return h.reshape(d * d, d * d)


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
    n, d_out, d_in = ch.kraus.shape
    d_rest = layout.dim // d_in
    m = permute_mat(mat, layout, in_labels).reshape(d_in, -1)
    km = (ch.kraus.reshape(n * d_out, d_in) @ m).reshape(n, d_out, d_rest, d_in, d_rest)
    km = km.transpose(1, 2, 4, 0, 3).reshape(-1, n * d_in)
    out = km @ ch.kraus.conj().transpose(0, 2, 1).reshape(n * d_in, d_out)
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
