"""Numerical Koashi-Imoto decomposition of a bipartite state.

For a state on A (x) C, the operations on A that preserve it are encoded
by an isometry from the support of the A-marginal onto a three-factor
space: a classical block index, a redundant factor carrying a fixed state
per block, and an irreducible quantum factor entangled with C.

The decomposition is computed from the fixed-point *-algebra of the
adjoint of the recovery-and-discard channel (channels.channel_E), i.e.
the commutant of its Kraus family.  That algebra is a direct sum of full
matrix algebras tensored with identities; its center yields the block
projectors, and random elements of the block-restricted algebra yield the
tensor factorization inside each block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import (
    NULLSPACE_RTOL,
    _commutant_of_family,
    _split_bipartite,
    channel_E,
)
from .linalg import (
    DensityOp,
    IsometryOp,
    PureVec,
    SystemLayout,
    ValidationError,
    eigh,
    marginal,
    permute_vec,
    support_basis,
)

# Gap threshold for splitting eigenvalue clusters of random algebra
# elements into invariant subspaces.
CLUSTER_GAP = 1e-6
# Relative eigenvalue cutoff when choosing purifier ranks; amplitudes of
# dropped modes are at most the square root of this.
PURIFIER_RTOL = 1e-13


@dataclass(frozen=True)
class KIBlock:
    """One block of the decomposition: weight, factor dims and states."""

    index: int
    p: float
    dim_l: int
    dim_r: int
    omega: DensityOp
    phi: DensityOp


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    def gamma_prime_total(self) -> np.ndarray:
        return self.gamma_prime.mat @ self.support_b.conj().T

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


def _cluster(vals: np.ndarray, gap: float = CLUSTER_GAP) -> list[np.ndarray]:
    """Group sorted-ascending eigenvalue indices split at gaps > gap."""
    order = np.argsort(vals)
    groups: list[list[int]] = [[order[0]]]
    for prev, cur in zip(order[:-1], order[1:]):
        if vals[cur] - vals[prev] > gap:
            groups.append([])
        groups[-1].append(cur)
    return [np.array(g) for g in groups]


def _center_basis(comm: Sequence[np.ndarray], rtol: float = NULLSPACE_RTOL,
                  ) -> list[np.ndarray]:
    """Basis of the center: commutant elements commuting with the whole
    commutant.  Solved in the coordinates of the commutant basis."""
    k = len(comm)
    d = comm[0].shape[0]
    cols = []
    for i in range(k):
        col = np.concatenate([(comm[i] @ b - b @ comm[i]).reshape(-1) for b in comm])
        cols.append(col)
    system = np.array(cols).T      # k·d² × k, so the thin vh is all k × k
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > max(smax, 1.0) * rtol))
    out = []
    for i in range(rank, k):
        coeff = vh[i].conj()
        out.append(sum(c * b for c, b in zip(coeff, comm)))
    return out


def _central_partition(center: Sequence[np.ndarray], r: int,
                       rng: np.random.Generator, retries: int = 6,
                       ) -> list[np.ndarray]:
    """Column bases of the minimal central blocks, stable across two
    independent random draws."""
    def draw() -> list[np.ndarray]:
        z = _random_in_span(center, rng, hermitian=True)
        vals, vecs = np.linalg.eigh(z)
        return [vecs[:, g] for g in _cluster(vals)]

    for _ in range(retries):
        first, second = draw(), draw()
        if len(first) != len(second):
            continue
        projs1 = [b @ b.conj().T for b in first]
        projs2 = [b @ b.conj().T for b in second]
        used: set[int] = set()
        ok = True
        for p in projs1:
            match = next((i for i, q in enumerate(projs2)
                          if i not in used and p.shape == q.shape
                          and np.max(np.abs(p - q)) <= 1e-7), None)
            if match is None:
                ok = False
                break
            used.add(match)
        if ok:
            return first
    raise ValidationError("central block structure unstable across random draws")


def _factor_block(comm: Sequence[np.ndarray], block_cols: np.ndarray,
                  rng: np.random.Generator, retries: int = 8,
                  ) -> tuple[int, int, np.ndarray]:
    """Split one block into redundant (x) irreducible factors.

    Returns (dim_l, dim_r, u) with u unitary mapping block coordinates to
    the product basis, row (mu*dim_r + q) reading off component (mu, q).
    """
    d_block = block_cols.shape[1]
    restricted = [block_cols.conj().T @ x @ block_cols for x in comm]
    stacked = np.array([x.reshape(-1) for x in restricted])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > smax * NULLSPACE_RTOL))
    dim_l = int(round(np.sqrt(rank)))
    if dim_l * dim_l != rank or d_block % dim_l != 0:
        raise ValidationError(
            f"restricted commutant dimension {rank} is not a square dividing {d_block}")
    dim_r = d_block // dim_l
    if dim_l == 1:
        return 1, d_block, np.eye(d_block, dtype=np.complex128)
    # top rows of vh span the row space, i.e. the restricted algebra
    basis = [vh[i].reshape(d_block, d_block) for i in range(rank)]
    for _ in range(retries):
        y = _random_in_span(basis, rng, hermitian=True)
        vals, vecs = np.linalg.eigh(y)
        groups = _cluster(vals)
        if len(groups) != dim_l or any(len(g) != dim_r for g in groups):
            continue
        w = _random_in_span(basis, rng, hermitian=False)
        v_first = vecs[:, groups[0]]
        aligned = [v_first]
        ok = True
        for g in groups[1:]:
            v = vecs[:, g]
            m = v.conj().T @ w @ v_first
            uu, ss, vvh = np.linalg.svd(m)
            if ss[-1] < 1e-8 * max(1.0, ss[0]):
                ok = False
                break
            aligned.append(v @ (uu @ vvh))
        if not ok:
            continue
        u = np.zeros((d_block, d_block), dtype=np.complex128)
        for mu, v in enumerate(aligned):
            for q in range(dim_r):
                u[mu * dim_r + q, :] = v[:, q].conj()
        return dim_l, dim_r, u
    raise ValidationError("failed to factor a commutant block after retries")


def ki_decompose(psi_ac: DensityOp, a: Sequence[str] = ("A",),
                 c: Sequence[str] = ("C",), tol: float = 1e-7,
                 rng: np.random.Generator | None = None,
                 max_retries: int = 4) -> KIDecomposition:
    """Compute the KI decomposition of system A with respect to psi_ac.

    Blocks are sorted by descending weight, ties broken by descending
    quantum-factor then redundant-factor dimension.  Deterministic for a
    fixed generator; the default generator is fixed-seeded.
    """
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    mat, d_a, d_c, a_layout, _ = _split_bipartite(psi_ac, a, c)
    c_layout = psi_ac.layout.restrict(c).reorder([l for l in c])
    rho_a = np.einsum("iaja->ij", mat.reshape(d_a, d_c, d_a, d_c))
    q = support_basis(rho_a)
    r = q.shape[1]
    if r == 0:
        raise ValidationError("A-marginal has empty support")
    chan = channel_E(psi_ac, a, c)
    kraus_s = [q.conj().T @ k @ q for k in chan.kraus]
    comm = _commutant_of_family(kraus_s + [k.conj().T for k in kraus_s])
    center = _center_basis(comm)
    last_err: Exception | None = None
    for _ in range(max_retries):
        try:
            dec = _assemble(mat, d_a, d_c, a_layout, c_layout, q, comm, center, rng, tol)
            return dec
        except ValidationError as err:
            last_err = err
    raise ValidationError(f"KI decomposition failed after {max_retries} attempts: {last_err}")


def _assemble(mat, d_a, d_c, a_layout, c_layout, q, comm, center, rng, tol,
              ) -> KIDecomposition:
    r = q.shape[1]
    block_cols = _central_partition(center, r, rng)
    raw = []
    for cols in block_cols:
        dim_l, dim_r, u = _factor_block(comm, cols, rng)
        raw.append((cols, dim_l, dim_r, u))
    # weights determine the presentation order of the blocks
    rho_supp = q.conj().T @ np.einsum("iaja->ij", mat.reshape(d_a, d_c, d_a, d_c)) @ q
    weights = [float(np.trace(cols.conj().T @ rho_supp @ cols).real)
               for cols, *_ in raw]
    # round weights so the declared tie-break applies to numerically equal p
    order = sorted(range(len(raw)),
                   key=lambda i: (-round(weights[i], 9), -raw[i][2], -raw[i][1]))
    raw = [raw[i] for i in order]

    d_a0 = len(raw)
    d_al = max(t[1] for t in raw)
    d_ar = max(t[2] for t in raw)
    t_dim = d_a0 * d_al * d_ar
    gamma_supp = np.zeros((t_dim, r), dtype=np.complex128)
    for j, (cols, dim_l, dim_r, u) in enumerate(raw):
        pad = np.zeros((d_al * d_ar, dim_l * dim_r))
        for mu in range(dim_l):
            for qq in range(dim_r):
                pad[mu * d_ar + qq, mu * dim_r + qq] = 1.0
        gamma_supp[j * d_al * d_ar:(j + 1) * d_al * d_ar, :] = pad @ u @ cols.conj().T

    gamma_total = gamma_supp @ q.conj().T
    big = np.kron(gamma_total, np.eye(d_c))
    ki_mat = big @ mat @ big.conj().T
    tens = ki_mat.reshape(d_a0, d_al, d_ar, d_c, d_a0, d_al, d_ar, d_c)

    blocks = []
    model = np.zeros_like(tens)
    for j, (cols, dim_l, dim_r, u) in enumerate(raw):
        sub = tens[j, :dim_l, :dim_r, :, j, :dim_l, :dim_r, :]
        p = float(np.einsum("lrclrc->", sub).real)
        if p <= 1e-12:
            raise ValidationError(f"block {j} has vanishing weight {p}")
        omega = np.einsum("lrcmrc->lm", sub) / p
        phi = np.einsum("lrclsd->rcsd", sub).reshape(dim_r * d_c, dim_r * d_c) / p
        model[j, :dim_l, :dim_r, :, j, :dim_l, :dim_r, :] = p * np.einsum(
            "lm,rcsd->lrcmsd", omega, phi.reshape(dim_r, d_c, dim_r, d_c))
        omega_op = DensityOp(SystemLayout([("aL", dim_l)]), omega)
        phi_layout = SystemLayout([("aR", dim_r)]) + c_layout
        phi_op = DensityOp(phi_layout, phi)
        blocks.append(KIBlock(j, p, dim_l, dim_r, omega_op, phi_op))

    residual = float(np.linalg.norm(tens - model))
    if residual > tol:
        raise ValidationError(f"reconstruction residual {residual:.3e} > {tol:.3e}")

    gamma = IsometryOp(
        SystemLayout([("suppA", r)]),
        SystemLayout([("a0", d_a0), ("aL", d_al), ("aR", d_ar)]),
        gamma_supp)
    return KIDecomposition(gamma, q, tuple(blocks), (d_a0, d_al, d_ar),
                           a_layout, c_layout)


@dataclass(frozen=True)
class KIValidationReport:
    reconstruction_residual: float
    isometry_residual: float
    irreducibility_residual: float
    cross_block_residual: float

    def ok(self, tol: float = 1e-7) -> bool:
        return (self.reconstruction_residual <= tol
                and self.isometry_residual <= tol
                and self.irreducibility_residual <= tol
                and self.cross_block_residual <= tol)


def _phi_slices(block: KIBlock, d_c: int) -> list[np.ndarray]:
    """Operators <k|_C phi |l>_C on the block's quantum factor."""
    t = block.phi.mat.reshape(block.dim_r, d_c, block.dim_r, d_c)
    return [t[:, k, :, l] for k in range(d_c) for l in range(d_c)]


def validate_ki(dec: KIDecomposition, psi_ac: DensityOp, tol: float = 1e-7,
                ) -> KIValidationReport:
    """Residual report for a claimed decomposition (report-only).

    Irreducibility: the commutant of the C-sliced block state must be
    1-dimensional (scalars); the residual is the largest non-scalar
    component found in its numerical nullspace.  Cross-block: weighted
    intertwiners between distinct blocks must vanish; the residual is the
    norm of any numerically found intertwiner.
    """
    a = dec.a_layout.labels
    c = dec.c_layout.labels
    mat, d_a, d_c, _, _ = _split_bipartite(psi_ac, list(a), list(c))
    gamma_total = dec.gamma_total
    big = np.kron(gamma_total, np.eye(d_c))
    ki_mat = big @ mat @ big.conj().T
    d_a0, d_al, d_ar = dec.dims
    tens = ki_mat.reshape(d_a0, d_al, d_ar, d_c, d_a0, d_al, d_ar, d_c)
    model = np.zeros_like(tens)
    for blk in dec.blocks:
        j = blk.index
        model[j, :blk.dim_l, :blk.dim_r, :, j, :blk.dim_l, :blk.dim_r, :] = (
            blk.p * np.einsum("lm,rcsd->lrcmsd", blk.omega.mat,
                              blk.phi.mat.reshape(blk.dim_r, d_c, blk.dim_r, d_c)))
    reconstruction = float(np.linalg.norm(tens - model))

    rho_a = np.einsum("iaja->ij", mat.reshape(d_a, d_c, d_a, d_c))
    supp_proj = dec.support @ dec.support.conj().T
    isometry = float(max(
        np.max(np.abs(gamma_total.conj().T @ gamma_total - supp_proj)),
        np.max(np.abs(supp_proj @ rho_a @ supp_proj - rho_a))))

    irreducibility = 0.0
    for blk in dec.blocks:
        slices = _phi_slices(blk, d_c)
        null = _commutant_of_family(slices + [s.conj().T for s in slices])
        d = blk.dim_r
        for x in null:
            scalar_part = (np.trace(x) / d) * np.eye(d)
            irreducibility = max(irreducibility, float(np.linalg.norm(x - scalar_part)))

    cross = 0.0
    for bi in dec.blocks:
        for bj in dec.blocks:
            if bj.index <= bi.index:
                continue
            cross = max(cross, _intertwiner_norm(bi, bj, d_c))
    return KIValidationReport(reconstruction, isometry, irreducibility, cross)


def _intertwiner_norm(bi: KIBlock, bj: KIBlock, d_c: int) -> float:
    """Norm of any numerical solution N of p_i N phi_i,kl = p_j phi_j,kl N."""
    si = _phi_slices(bi, d_c)
    sj = _phi_slices(bj, d_c)
    di, dj = bi.dim_r, bj.dim_r
    rows = []
    for fi, fj in zip(si, sj):
        # N: H_i -> H_j, vec(N) with N[a, b], a in H_j, b in H_i
        rows.append(bi.p * np.kron(np.eye(dj), fi.T) - bj.p * np.kron(fj, np.eye(di)))
    stacked = np.vstack(rows)
    svals = np.linalg.svd(stacked, compute_uv=False)
    smax = max(float(svals[0]), 1e-12)
    null_dim = int(np.sum(svals <= smax * NULLSPACE_RTOL)) + (di * dj - len(svals))
    return 1.0 if null_dim > 0 else 0.0


def steered_states(psi_ac: DensityOp, ops: Sequence[np.ndarray],
                   a: Sequence[str] = ("A",), c: Sequence[str] = ("C",),
                   weight_floor: float = 1e-12,
                   ) -> list[tuple[float, DensityOp]]:
    """States of A prepared by measuring C: Tr_C[M Psi M†], normalized.

    Zero-weight entries are dropped.
    """
    mat, d_a, d_c, a_layout, _ = _split_bipartite(psi_ac, a, c)
    tens = mat.reshape(d_a, d_c, d_a, d_c)
    out = []
    for m in ops:
        m = np.asarray(m, dtype=np.complex128)
        conj = np.einsum("ka,iajb,lb->ikjl", m, tens, m.conj())
        rho = np.einsum("ikjk->ij", conj)
        w = float(np.trace(rho).real)
        if w <= weight_floor:
            continue
        out.append((w, DensityOp(a_layout, rho / w)))
    return out


def ki_tripartite(psi: PureVec, a: Sequence[str] = ("A",), b: Sequence[str] = ("B",),
                  c: Sequence[str] = ("C",), tol: float = 1e-7,
                  rng: np.random.Generator | None = None) -> TripartiteKI:
    """Joint KI decomposition of a pure tripartite state on A and B.

    The B-side isometry is solved per block by matching the state against
    the canonical purifications of the block factors (a linear
    least-squares realization of the purification-equivalence step).
    """
    if not psi.normalized:
        raise ValidationError("tripartite decomposition requires a normalized pure state")
    a, b, c = list(a), list(b), list(c)
    base = ki_decompose(marginal(psi, a + c), a, c, tol=tol, rng=rng)
    ordered = permute_vec(psi, a + b + c)
    d_a = ordered.layout.dim_of(a)
    d_b = ordered.layout.dim_of(b)
    d_c = ordered.layout.dim_of(c)
    d_a0, d_al, d_ar = base.dims

    transformed = (base.gamma_total @ ordered.vec.reshape(d_a, d_b * d_c)).reshape(
        d_a0, d_al, d_ar, d_b, d_c)

    rho_b = marginal(psi, b)
    qb = support_basis(rho_b.mat)

    purified: list[tuple[PureVec, PureVec]] = []
    b_maps = []
    bl_dims, br_dims = [], []
    for blk in base.blocks:
        j = blk.index
        slice_j = transformed[j, :blk.dim_l, :blk.dim_r, :, :]
        amp = np.sqrt(blk.p)
        m_psi = (slice_j.transpose(0, 1, 3, 2).reshape(-1, d_b)) / amp

        w_vals, w_vecs = eigh(blk.omega.mat)
        bl = max(1, int(np.sum(w_vals > max(w_vals[0], 1e-12) * PURIFIER_RTOL)))
        om_vec = np.einsum("a,la->la", np.sqrt(np.clip(w_vals[:bl], 0, None)),
                           w_vecs[:, :bl])
        f_vals, f_vecs = eigh(blk.phi.mat)
        br = max(1, int(np.sum(f_vals > max(f_vals[0], 1e-12) * PURIFIER_RTOL)))
        g = f_vecs[:, :br].reshape(blk.dim_r, d_c, br)
        ph_vec = np.einsum("b,rcb->rbc", np.sqrt(np.clip(f_vals[:br], 0, None)), g)

        target = np.einsum("la,rbc->lrcab", om_vec, ph_vec).reshape(-1, bl * br)
        g_t = np.linalg.pinv(m_psi, rcond=1e-10) @ target
        b_maps.append(g_t.T)
        bl_dims.append(bl)
        br_dims.append(br)
        purified.append((
            PureVec(SystemLayout([("aL", blk.dim_l), ("bL", bl)]), om_vec.reshape(-1)),
            PureVec(SystemLayout([("aR", blk.dim_r), ("bR", br)]) + base.c_layout,
                    ph_vec.reshape(-1)),
        ))

    d_b0 = d_a0
    d_bl, d_br = max(bl_dims), max(br_dims)
    gp_total = np.zeros((d_b0 * d_bl * d_br, d_b), dtype=np.complex128)
    for j, gmap in enumerate(b_maps):
        bl, br = bl_dims[j], br_dims[j]
        pad = np.zeros((d_bl * d_br, bl * br))
        for al in range(bl):
            for be in range(br):
                pad[al * d_br + be, al * br + be] = 1.0
        gp_total[j * d_bl * d_br:(j + 1) * d_bl * d_br, :] = pad @ gmap

    gamma_prime = IsometryOp(
        SystemLayout([("suppB", qb.shape[1])]),
        SystemLayout([("b0", d_b0), ("bL", d_bl), ("bR", d_br)]),
        gp_total @ qb)

    # verify (Gamma (x) Gamma') |psi> against the assembled block form
    lhs = np.einsum("ax,by,xyc->abc", base.gamma_total,
                    gp_total, ordered.vec.reshape(d_a, d_b, d_c)).reshape(-1)
    rhs = _ki_pure(base, purified, (d_b0, d_bl, d_br))
    residual = float(np.linalg.norm(lhs - rhs.vec))
    if residual > max(tol, 1e-6):
        raise ValidationError(f"B-side isometry residual {residual:.3e} exceeds tolerance")
    return TripartiteKI(base, gamma_prime, qb, tuple(purified),
                        (d_b0, d_bl, d_br), residual=residual)
