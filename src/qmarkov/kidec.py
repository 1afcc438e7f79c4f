"""Numerical Koashi-Imoto decomposition of a bipartite state.

For a state on A (x) C, the operations on A that preserve it are encoded
by an isometry from the support of the A-marginal onto a three-factor
space: a classical block index, a redundant factor carrying a fixed state
per block, and an irreducible quantum factor entangled with C.

The decomposition is computed from the fixed-point *-algebra of the
adjoint of the recovery-and-discard channel (channels.channel_E), i.e.
the commutant of its Kraus operators and their adjoints.  It is solved
from the Kraus operators alone, over Hermitian unknowns, and comes as a
Hermitian basis (channels._commutant_of_family): one eigensolve of the
commutator system's d² x d² Gram matrix picks the candidates, and one SVD of
their commutators applies the rank rule to unsquared singular values.
The algebra is the direct sum over blocks j of M_{dim_l} (x) I_{dim_r},
and one random element of each kind exposes it: a Hermitian element x
has one eigenspace of dimension dim_r per pair (block, redundant index),
and a general element y links two of those eigenspaces by a nonzero
multiple of a unitary when they lie in the same block and by zero
otherwise.  The links group the eigenspaces into blocks, and their polar
factors give every eigenspace of a block the same quantum-factor basis
(Murota, Kanno, Kojima & Kojima, JJIAM 27, 125).  One block fit
(_block_factors, _block_residual) serves this and markov_decomposition, and
validate_ki's checks are further solves of the same commutant solver.

Every step reads one channels.Split of the AC state: the eigenpairs of the
A-marginal and of the state, the recovery Kraus tensor built from them, and
a factor Psi_AC = us us†, from eighs for a density operator and from one
thin SVD across AC|B for a pure vector (which ki_tripartite never expands).
Both then take one path, through the block rows of (Gamma (x) I_C) us.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .channels import (
    Split,
    _commutant_of_family,
    _e_family,
    _require_trace_preserving,
    _split_density,
    _split_pure,
)
from .linalg import (
    DensityOp,
    Eigenpairs,
    IsometryOp,
    PureVec,
    SystemLayout,
    ValidationError,
)

# Gap threshold for splitting eigenvalue clusters of random algebra
# elements into invariant subspaces.
CLUSTER_GAP = 1e-6
# Two eigenspaces lie in one block when the smallest singular value of
# their link exceeds this fraction of the random element's norm; across
# blocks the link vanishes up to round-off.
LINK_RTOL = 1e-8
# Independent draws of the random commutant elements before giving up; a
# draw fails only on a measure-zero (numerically: rare) coincidence.
KI_ATTEMPTS = 4
# Relative eigenvalue cutoff when choosing purifier ranks; amplitudes of
# dropped modes are at most the square root of this.
PURIFIER_RTOL = 1e-13
# Floor under the largest eigenvalue that PURIFIER_RTOL scales, so a block
# factor of round-off size keeps one mode.
PURIFIER_FLOOR = 1e-12
# Largest reconstruction residual a decomposition is accepted with, and the
# bound every residual of a KIValidationReport must meet for ok().
KI_RESIDUAL_TOL = 1e-7
# Largest fit error of ki_tripartite's B-side isometry Gamma'.
B_SIDE_RESIDUAL_TOL = 1e-6
# Weight p_j at or below which _block_factors rejects a block as vanishing.
BLOCK_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class KIBlock:
    """One block of the decomposition: weight, factor dims and states."""

    index: int
    p: float
    dim_l: int
    dim_r: int
    omega: DensityOp
    phi: DensityOp

    @cached_property
    def phi_ar(self) -> DensityOp:
        """phi_j^aR, traced out once, on first use; PSD as phi_j is, so not checked."""
        d_c = self.phi.dim // self.dim_r
        traced = np.einsum("iaja->ij", self.phi.mat.reshape(self.dim_r, d_c, self.dim_r, d_c))
        return DensityOp._derived(self.phi.layout.restrict(["aR"]), traced)


@dataclass(frozen=True, eq=False)
class KIDecomposition:
    """Isometry from supp(Psi_A) onto block-index (x) redundant (x) quantum
    factors, together with the per-block data it exposes."""

    gamma: IsometryOp
    support: np.ndarray = field(repr=False)
    blocks: tuple[KIBlock, ...]
    dims: tuple[int, int, int]
    a_layout: SystemLayout
    c_layout: SystemLayout

    @property
    def gamma_total(self) -> np.ndarray:
        """Partial isometry (target-dim x d_A); its Gram is the support
        projector of the A-marginal."""
        return self.gamma.mat @ self.support.conj().T

    @property
    def probs(self) -> np.ndarray:
        return np.array([b.p for b in self.blocks])


@dataclass(frozen=True, eq=False)
class TripartiteKI:
    """Joint decomposition of a pure state: the A-side isometry plus the
    matching B-side isometry and per-block purifications."""

    base: KIDecomposition
    gamma_prime: IsometryOp
    support_b: np.ndarray = field(repr=False)
    purified_blocks: tuple[tuple[PureVec, PureVec], ...]
    b_dims: tuple[int, int, int]
    residual: float

    @property
    def blocks(self) -> tuple[KIBlock, ...]:
        return self.base.blocks

    def ki_pure_state(self) -> PureVec:
        """The decomposed pure state on (a0, aL, aR, b0, bL, bR, C)."""
        return _ki_pure(self.base, self.purified_blocks, self.b_dims)


def _ki_pure(base: KIDecomposition,
             purified: Sequence[tuple[PureVec, PureVec]],
             b_dims: tuple[int, int, int]) -> PureVec:
    d_a0, d_al, d_ar = base.dims
    _, d_bl, d_br = b_dims
    d_c = base.c_layout.dim
    t = np.zeros((d_a0, d_al, d_ar, d_a0, d_bl, d_br, d_c), dtype=np.complex128)
    for j, blk in enumerate(base.blocks):
        om, ph = purified[j]
        om_t = om.vec.reshape(blk.dim_l, -1)
        ph_t = ph.vec.reshape(blk.dim_r, -1, d_c)
        bl, br = om_t.shape[1], ph_t.shape[1]
        amp = np.sqrt(blk.p)
        t[j, :blk.dim_l, :blk.dim_r, j, :bl, :br, :] += amp * np.einsum(
            "la,rbc->lrabc", om_t, ph_t)
    lay = SystemLayout([("a0", d_a0), ("aL", d_al), ("aR", d_ar),
                        ("b0", d_a0), ("bL", d_bl), ("bR", d_br)]) + base.c_layout
    return PureVec(lay, t.reshape(-1))


def _random_in_span(basis: Sequence[np.ndarray], rng: np.random.Generator,
                    hermitian: bool) -> np.ndarray:
    coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    x = sum(c * b for c, b in zip(coeff, basis))
    if hermitian:
        x = (x + x.conj().T) / 2
    return x


def _cluster(vals: np.ndarray) -> list[np.ndarray]:
    """Group sorted-ascending eigenvalue indices split at gaps > CLUSTER_GAP."""
    order = np.argsort(vals)
    groups: list[list[int]] = [[order[0]]]
    for prev, cur in zip(order[:-1], order[1:]):
        if vals[cur] - vals[prev] > CLUSTER_GAP:
            groups.append([])
        groups[-1].append(cur)
    return [np.array(g) for g in groups]


def _block_structure(comm: Sequence[np.ndarray], rng: np.random.Generator,
                     ) -> list[np.ndarray]:
    """Blocks of the commutant ``comm`` from one Hermitian and one general
    random element of it.

    Returns one array per block, of shape (dim_l, r, dim_r): slice mu holds
    the columns of redundant index mu, in a quantum-factor basis shared by
    the whole block.  Raises ValidationError when the draw misses part of
    the structure, i.e. when sum_j dim_l² differs from dim(comm).
    """
    x = _random_in_span(comm, rng, hermitian=True)
    y = _random_in_span(comm, rng, hermitian=False)
    floor = LINK_RTOL * np.linalg.norm(y)
    vals, vecs = np.linalg.eigh(x)
    blocks: list[list[np.ndarray]] = []
    for g in _cluster(vals):
        v = vecs[:, g]
        for blk in blocks:
            first = blk[0]
            if first.shape != v.shape:
                continue
            uu, ss, vvh = np.linalg.svd(v.conj().T @ y @ first)
            if ss[-1] > floor:
                # the link is c·U; its polar factor U maps the first
                # eigenspace's basis onto this one's
                blk.append(v @ (uu @ vvh))
                break
        else:
            blocks.append([v])
    found = sum(len(blk) ** 2 for blk in blocks)
    if found != len(comm):
        raise ValidationError(
            f"random commutant elements expose blocks of total dimension {found}, "
            f"but the commutant has dimension {len(comm)}")
    return [np.stack(blk) for blk in blocks]


def ki_decompose(psi_ac: DensityOp, a: Sequence[str] = ("A",),
                 c: Sequence[str] = ("C",),
                 rng: np.random.Generator | None = None) -> KIDecomposition:
    """Compute the KI decomposition of system A with respect to psi_ac.

    The blocks come from random elements of the commutant of channel_E's
    Kraus family on the support of the A-marginal (see the module
    docstring).  A draw that misses part of the block structure, or whose
    decomposition leaves a reconstruction residual above KI_RESIDUAL_TOL, is
    redrawn, up to KI_ATTEMPTS draws in all.

    Blocks are sorted by descending weight, ties broken by descending
    quantum-factor then redundant-factor dimension.  Deterministic for a
    fixed generator; the default generator is fixed-seeded.
    """
    return _ki_decompose(_split_density(psi_ac, a, c), rng)


def _ki_decompose(split: Split, rng: np.random.Generator | None = None) -> KIDecomposition:
    """ki_decompose of a Split."""
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    q = split.a.support()
    if q.shape[1] == 0:
        raise ValidationError("A-marginal has empty support")
    family = _e_family(split.kraus)
    _require_trace_preserving(family)
    comm = _commutant_of_family(q.conj().T @ family @ q)
    for _ in range(KI_ATTEMPTS):
        try:
            return _assemble(split, q, _block_structure(comm, rng))
        except ValidationError as err:
            last_err = err
    raise ValidationError(f"KI decomposition failed after {KI_ATTEMPTS} attempts: {last_err}")


def _ki_tensor(gamma_total: np.ndarray, mat: np.ndarray, dims: tuple[int, ...],
               rest: tuple[int, ...]) -> np.ndarray:
    """(Gamma (x) I) rho (Gamma (x) I)† as a tensor over (dims, rest, dims, rest),
    by two _ki_factor products; the second reads rho through its adjoint, so
    ``mat`` is taken to be Hermitian.

    ``mat`` is on the decomposed system followed by the ``rest`` factors;
    ``gamma_total`` maps the decomposed system onto the ``dims`` factors.
    """
    return _ki_factor(gamma_total, _ki_factor(gamma_total, mat).conj().T).reshape(
        *dims, *rest, *dims, *rest)


def _ki_factor(gamma_total: np.ndarray, us: np.ndarray) -> np.ndarray:
    """(Gamma (x) I) applied to the columns of a matrix with rows over
    (decomposed system, rest), such as a factor over (A, C)."""
    return (gamma_total @ us.reshape(gamma_total.shape[1], -1)).reshape(-1, us.shape[1])


def _mapped_state(gamma_total: np.ndarray, split: Split, dims: tuple[int, int, int],
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Y = (Gamma (x) I_C) us, and the mapped state Y Y† as a tensor over
    (dims, 1, C, dims, 1, C), the _block_factors layout of KI blocks."""
    d_c = split.c_layout.dim
    y = _ki_factor(gamma_total, split.us)
    return y, (y @ y.conj().T).reshape(*dims, 1, d_c, *dims, 1, d_c)


def _block_factors(tens: np.ndarray, shapes: Sequence[tuple[int, int]],
                   ) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Per block j, (p_j, normalized marginal on (X, L), normalized marginal
    on (R, Y)) of a _ki_tensor over (j, L, R, X, Y), each block in the
    (dim_l, dim_r) corner given by ``shapes``; a weight at or below
    BLOCK_WEIGHT_FLOOR raises.  KI blocks take X = 1, Y = C; the blocks of a
    Markov state X = A, Y = C.
    """
    d_x, d_y = tens.shape[3:5]
    out = []
    for j, (dl, dr) in enumerate(shapes):
        sub = tens[j, :dl, :dr, :, :, j, :dl, :dr, :, :]
        p = float(np.einsum("lrxylrxy->", sub).real)
        if p <= BLOCK_WEIGHT_FLOOR:
            raise ValidationError(f"block {j} has vanishing weight {p}")
        xl = np.einsum("lrxymrzy->xlzm", sub).reshape(d_x * dl, d_x * dl) / p
        ry = np.einsum("lrxylsxw->rysw", sub).reshape(dr * d_y, dr * d_y) / p
        out.append((p, xl, ry))
    return out


def _block_residual(tens: np.ndarray,
                    factors: Sequence[tuple[float, np.ndarray, np.ndarray]]) -> float:
    """Frobenius norm of ``tens`` minus sum_j p_j |j><j| (x) xl_j (x) ry_j,
    for the (p_j, xl_j, ry_j) of _block_factors."""
    d_x, d_y = tens.shape[3:5]
    # the field of the difference, which complex factors make complex
    diff = tens.astype(np.result_type(tens, *(m for _, xl, ry in factors for m in (xl, ry))))
    for j, (p, xl, ry) in enumerate(factors):
        dl, dr = xl.shape[0] // d_x, ry.shape[0] // d_y
        diff[j, :dl, :dr, :, :, j, :dl, :dr, :, :] -= p * np.einsum(
            "xlzm,rysw->lrxymszw", xl.reshape(d_x, dl, d_x, dl), ry.reshape(dr, d_y, dr, d_y))
    return float(np.linalg.norm(diff))


def _trivial(dims: tuple[int, int, int]) -> bool:
    """Whether the (a0, aL, aR) dims of a decomposition are the trivial
    structure of a generic state: one block with dim_l = 1, so Gamma maps
    supp(Psi_A) onto aR alone."""
    return dims[:2] == (1, 1)


def _assemble(split: Split, q, cols) -> KIDecomposition:
    """Decomposition from the (dim_l, r, dim_r) column arrays of
    _block_structure.  Psi_AC = us us† on either input type, so the mapped
    state is Y Y† for Y = (Gamma (x) I_C) us, and each block factor is
    factorized once, here, by a thin SVD of Y's block rows.

    On the trivial structure (_trivial) that SVD is the split's own: Gamma
    is an isometry on supp(Psi_A), which holds the columns of us with a
    nonzero weight, so Y = ((Gamma (x) I) U) S is already a thin SVD, phi's
    eigenpairs are read off it (eigenvalues S²/p, the first dim_r·d_C
    columns, past which S is zero) and omega is [[1]]."""
    r = q.shape[1]
    # weights determine the presentation order of the blocks
    rho_supp = q.conj().T @ split.rho_a @ q
    weights = [float(np.einsum("lia,ij,lja->", v.conj(), rho_supp, v).real) for v in cols]
    # round weights so the declared tie-break applies to numerically equal p
    order = sorted(range(len(cols)), key=lambda i: (
        -round(weights[i], 9), -cols[i].shape[2], -cols[i].shape[0]))
    cols = [cols[i] for i in order]

    dims = (len(cols), max(v.shape[0] for v in cols), max(v.shape[2] for v in cols))
    gamma_supp = np.zeros((*dims, r), dtype=np.complex128)
    for j, v in enumerate(cols):
        gamma_supp[j, :v.shape[0], :v.shape[2], :] = v.conj().transpose(0, 2, 1)
    gamma_supp = gamma_supp.reshape(-1, r)
    gamma_total = gamma_supp @ q.conj().T
    shapes = [(v.shape[0], v.shape[2]) for v in cols]
    d_c = split.c_layout.dim
    y, tens = _mapped_state(gamma_total, split, dims)
    factors = _block_factors(tens, shapes)
    rows = y.reshape(*dims, d_c, -1)
    blocks = []
    for j, ((dl, dr), (p, omega, phi)) in enumerate(zip(shapes, factors)):
        if _trivial(dims):
            k = min(len(split.ac.vals), dr * d_c)
            om = Eigenpairs(np.ones(1), np.ones((1, 1), dtype=np.complex128))
            ph = Eigenpairs(np.clip(split.ac.vals[:k], 0, None) / p,
                            _ki_factor(gamma_total, split.ac.vecs[:, :k]))
        else:
            yj = rows[j, :dl, :dr] / np.sqrt(p)
            om = Eigenpairs.of_factor(yj.reshape(dl, -1))
            ph = Eigenpairs.of_factor(yj.transpose(1, 2, 0, 3).reshape(dr * d_c, -1))
        blocks.append(KIBlock(
            j, p, dl, dr, DensityOp._derived(SystemLayout([("aL", dl)]), omega, pairs=om),
            DensityOp._derived(SystemLayout([("aR", dr)]) + split.c_layout, phi, pairs=ph)))
    residual = _block_residual(tens, factors)
    if residual > KI_RESIDUAL_TOL:
        raise ValidationError(f"reconstruction residual {residual:.3e} > {KI_RESIDUAL_TOL:.3e}")

    gamma = IsometryOp(
        SystemLayout([("suppA", r)]),
        SystemLayout(zip(("a0", "aL", "aR"), dims)),
        gamma_supp)
    return KIDecomposition(gamma, q, tuple(blocks), dims, split.a_layout, split.c_layout)


@dataclass(frozen=True)
class KIValidationReport:
    reconstruction_residual: float
    isometry_residual: float
    irreducibility_residual: float
    cross_block_residual: float

    def ok(self) -> bool:
        return (self.reconstruction_residual <= KI_RESIDUAL_TOL
                and self.isometry_residual <= KI_RESIDUAL_TOL
                and self.irreducibility_residual <= KI_RESIDUAL_TOL
                and self.cross_block_residual <= KI_RESIDUAL_TOL)


def _phi_slices(block: KIBlock, d_c: int) -> np.ndarray:
    """Operators <k|_C phi |l>_C on the block's quantum factor, over (k, l)."""
    t = block.phi.mat.reshape(block.dim_r, d_c, block.dim_r, d_c)
    return t.transpose(1, 3, 0, 2).reshape(d_c * d_c, block.dim_r, block.dim_r)


def validate_ki(dec: KIDecomposition, psi_ac: DensityOp) -> KIValidationReport:
    """Residual report for a claimed decomposition (report-only).

    Reconstruction: the norm of the mapped state minus the claimed block
    form, the mapped state built as _assemble builds it, from the factor of
    psi_ac's Split (kept on psi_ac, so after ki_decompose of the same
    operator nothing is factorized again).  Irreducibility: the commutant
    of each block's C-sliced state must be the scalars; the residual is the
    largest non-scalar component of its basis.  Cross-block: intertwiners
    N with p_i N phi_i,kl = p_j phi_j,kl N between distinct blocks must
    vanish; they are the lower-left block of the commutant of the two
    weighted slice families side by side, one _commutant_of_family solve
    per pair of blocks (its rank rule is the only one), and the residual is
    their largest norm.
    """
    split = _split_density(psi_ac, dec.a_layout.labels, dec.c_layout.labels)
    d_c = dec.c_layout.dim
    gamma_total = dec.gamma_total
    _, tens = _mapped_state(gamma_total, split, dec.dims)
    reconstruction = _block_residual(
        tens, [(blk.p, blk.omega.mat, blk.phi.mat) for blk in dec.blocks])

    supp_proj = dec.support @ dec.support.conj().T
    isometry = float(max(
        np.max(np.abs(gamma_total.conj().T @ gamma_total - supp_proj)),
        np.max(np.abs(supp_proj @ split.rho_a @ supp_proj - split.rho_a))))

    slices = [_phi_slices(blk, d_c) for blk in dec.blocks]
    irreducibility = 0.0
    for blk, fam in zip(dec.blocks, slices):
        d = blk.dim_r
        for x in _commutant_of_family(fam):
            scalar_part = (np.trace(x) / d) * np.eye(d)
            irreducibility = max(irreducibility, float(np.linalg.norm(x - scalar_part)))

    cross = 0.0
    for (bi, si), (bj, sj) in itertools.combinations(zip(dec.blocks, slices), 2):
        di = bi.dim_r
        pair = np.zeros((d_c * d_c, di + bj.dim_r, di + bj.dim_r), dtype=np.complex128)
        pair[:, :di, :di] = bi.p * si
        pair[:, di:, di:] = bj.p * sj
        for x in _commutant_of_family(pair):
            cross = max(cross, float(np.linalg.norm(x[di:, :di])))
    return KIValidationReport(reconstruction, isometry, irreducibility, cross)


def _purifier_rank(op: DensityOp) -> int:
    """Number of modes a purification of ``op`` keeps: eigenvalues above
    PURIFIER_RTOL times the largest (at least PURIFIER_FLOOR), and at least
    one."""
    vals = op.spectrum
    return max(1, int(np.sum(vals > max(vals[-1], PURIFIER_FLOOR) * PURIFIER_RTOL)))


def ki_tripartite(psi: PureVec, a: Sequence[str] = ("A",), b: Sequence[str] = ("B",),
                  c: Sequence[str] = ("C",),
                  rng: np.random.Generator | None = None) -> TripartiteKI:
    """Joint KI decomposition of a pure tripartite state on A and B.

    T is the block form sum_j sqrt(p_j) |j>|j> omega_j phi_j, from canonical
    purifications of the block factors, as a matrix with rows
    (a0, aL, aR, C) and columns (b0, bL, bR); it has r = sum_j bl_j br_j
    nonzero columns, the purifier ranks.  The vector as a (AC, B) matrix
    has the thin SVD U S V† (the Split's), and as psi is pure, rho_B shares
    its nonzero spectrum with the AC marginal: supp(rho_B) is the span of
    the r leading right singular vectors, and X_s = (Gamma (x) I) U_r S_r
    is the state in that basis.  Gamma' minimizes ||X_s Z - T|| over
    isometries: an orthogonal Procrustes problem (Schönemann 1966), solved
    by the polar factor of X_s† T, so Gamma' is isometric by construction.
    This is the Uhlmann step of Hayden, Jozsa, Petz & Winter
    (arXiv:quant-ph/0304007).  On the trivial structure of a generic state
    (one block, a0 = aL = 1) phi's purification is read off the same SVD,
    so T = X_s column by column, X_s† T is positive diagonal and Gamma' is
    the identity, with no SVD.  ``residual`` is the fit error,
    ||(Gamma (x) Gamma')|psi> - T||, on either path; above
    B_SIDE_RESIDUAL_TOL it raises ValidationError.
    """
    if not psi.normalized:
        raise ValidationError("tripartite decomposition requires a normalized pure state")
    return _ki_tripartite(_split_pure(psi, a, c, b), rng)


def _ki_tripartite(split: Split, rng: np.random.Generator | None = None) -> TripartiteKI:
    """ki_tripartite of the Split of a pure state; the block factors are
    purified from the eigenpairs _assemble computed."""
    base = _ki_decompose(split, rng)
    d_c = split.c_layout.dim

    purified: list[tuple[PureVec, PureVec]] = []
    ranks = []
    for blk in base.blocks:
        w = blk.omega._pairs
        bl = _purifier_rank(blk.omega)
        om_vec = w.vecs[:, :bl] * np.sqrt(np.clip(w.vals[:bl], 0, None))
        f = blk.phi._pairs
        br = _purifier_rank(blk.phi)
        g = f.vecs[:, :br].reshape(blk.dim_r, d_c, br)
        ph_vec = np.einsum("b,rcb->rbc", np.sqrt(np.clip(f.vals[:br], 0, None)), g)
        purified.append((
            PureVec(SystemLayout([("aL", blk.dim_l), ("bL", bl)]), om_vec.reshape(-1)),
            PureVec(SystemLayout([("aR", blk.dim_r), ("bR", br)]) + base.c_layout,
                    ph_vec.reshape(-1)),
        ))
        ranks.append((bl, br))
    b_dims = (base.dims[0], max(bl for bl, _ in ranks), max(br for _, br in ranks))
    r = sum(bl * br for bl, br in ranks)

    x_s = _ki_factor(base.gamma_total, split.us)[:, :r]
    t = _ki_pure(base, purified, b_dims).vec.reshape(-1, int(np.prod(b_dims)), d_c)
    t = t.transpose(0, 2, 1).reshape(x_s.shape[0], -1)
    if _trivial(base.dims):
        # T = X_s column by column (see _assemble), so X_s† T is positive
        # diagonal and its polar factor is the identity
        z = np.eye(r, dtype=np.complex128)
    else:
        pu, _, pvh = np.linalg.svd(x_s.conj().T @ t, full_matrices=False)
        z = pu @ pvh
    gamma_prime = IsometryOp(
        SystemLayout([("suppB", x_s.shape[1])]),
        SystemLayout(zip(("b0", "bL", "bR"), b_dims)),
        z.T)
    residual = float(np.linalg.norm(x_s @ z - t))
    if residual > B_SIDE_RESIDUAL_TOL:
        raise ValidationError(f"B-side isometry residual {residual:.3e} exceeds tolerance")
    return TripartiteKI(base, gamma_prime, split.vh[:r].T, tuple(purified), b_dims,
                        residual=residual)
