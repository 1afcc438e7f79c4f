"""Randomness cost of Markovianization for pure states, two ways.

Route one evaluates the closed block formula on the Koashi-Imoto
decomposition of the AC marginal: H({p_j}) + 2 sum_j p_j S(phi_j^aR).
Route two never touches the decomposition: it builds the transfer matrix
of the recovery-and-discard channel, gates on its hermiticity, projects
onto its fixed subspace, and reads the cost off the spectrum of the
evolved purification.  The two routes must agree wherever the second one
applies.

Also here: the Markov-state predicate and decomposition, Petz
recoverability residuals, cost bounds against (conditional) mutual
information, and constructors for three closed-form state families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    Split,
    _split_pure,
    _transfer,
    apply_kraus,
    ergodic_projector,
    petz_channel,
    reshuffle,
)
from .entropy import ProbDist, qcmi, qmi, shannon, trace_norm, vn_entropy
from .kidec import (
    KI_RESIDUAL_TOL,
    KIDecomposition,
    TripartiteKI,
    _block_factors,
    _block_residual,
    _ki_tensor,
    _ki_tripartite,
    ki_decompose,
)
from .linalg import (
    DensityOp,
    PureVec,
    SystemLayout,
    ValidationError,
    is_hermitian,
    marginal,
    partial_trace,
    permute_mat,
    permute_op,
    permute_vec,
    purify,
)

# Largest entry of Lambda - Lambda† for which the spectral route applies.
HERMITICITY_GATE = 1e-9
# Largest disagreement of the two routes' costs, where both apply.
TWO_ROUTE_TOL = 1e-6
# Slack of the sandwich I(A:C|B) <= M <= I(A:BC) that bounds_check enforces.
BOUND_TOL = 1e-7
# Largest I(A:C|B) for which markov_decomposition takes a state as Markov.
MARKOV_TOL = 1e-8


@dataclass(frozen=True)
class CostReport:
    """Cost and information quantities of one tripartite state.

    ``m_algorithm`` is None when the spectral route does not apply (the
    transfer matrix is not Hermitian) or the input is mixed; ``m_formula``
    is None for mixed inputs, where no cost formula is available and only
    the information bounds are reported.
    """

    m_formula: float | None
    m_algorithm: float | None
    qcmi: float
    qmi_a_bc: float
    self_adjoint: bool | None
    blocks: tuple[tuple[float, float], ...]


@dataclass(frozen=True, eq=False)
class MarkovDecomposition:
    """Block form of a Markov state exposed by the KI isometry on B."""

    dec: KIDecomposition
    terms: tuple[tuple[float, DensityOp, DensityOp], ...]
    residual: float

    @property
    def weights(self) -> np.ndarray:
        return np.array([q for q, _, _ in self.terms])


@dataclass(frozen=True)
class RecoveryReport:
    """Trace-norm residuals of the two Petz reconstructions."""

    from_ab: float
    from_bc: float


def markov_cost_formula(tki: TripartiteKI | KIDecomposition) -> float:
    """Block formula: H({p_j}) + 2 sum_j p_j S(phi_j^aR), in bits."""
    dec = tki.base if isinstance(tki, TripartiteKI) else tki
    probs = [b.p for b in dec.blocks]
    quantum = sum(b.p * vn_entropy(b.phi_ar) for b in dec.blocks)
    return shannon(probs) + 2.0 * quantum


def markov_cost_algorithm(psi: PureVec, a: Sequence[str] = ("A",),
                          b: Sequence[str] = ("B",), c: Sequence[str] = ("C",),
                          ) -> float | None:
    """Spectral route: transfer matrix, hermiticity gate, fixed-space
    projector, entropy of the evolved purification.

    Returns None when the hermiticity gate fails (the route is not
    applicable to the state).
    """
    if not isinstance(psi, PureVec) or not psi.normalized:
        raise ValidationError("the spectral route requires a normalized pure state")
    return _cost_algorithm(_split_pure(psi, a, c))


def _cost_algorithm(split: Split) -> float | None:
    """markov_cost_algorithm of the Split of a pure state."""
    t1, lam = _transfer(split)
    if not is_hermitian(lam, tol=HERMITICITY_GATE):
        return None
    omega_inf = reshuffle(ergodic_projector(lam) @ t1, split.a_layout.dim)
    vals = np.linalg.eigvalsh((omega_inf + omega_inf.conj().T) / 2)
    return shannon(np.clip(vals, 0.0, None))


def is_markov_state(rho: DensityOp, a: Sequence[str] = ("A",),
                    b: Sequence[str] = ("B",), c: Sequence[str] = ("C",),
                    tol: float = 1e-9) -> bool:
    """Whether I(A:C|B) vanishes within tolerance."""
    return qcmi(rho, a, b, c) <= tol


def markov_decomposition(ups: DensityOp, a: Sequence[str] = ("A",),
                         b: Sequence[str] = ("B",), c: Sequence[str] = ("C",),
                         rng: np.random.Generator | None = None,
                         ) -> MarkovDecomposition:
    """Decompose a Markov state over the KI blocks of its BC marginal.

    The B factor splits into a classical index i, a piece b_L correlated
    only with A, and a piece b_R correlated only with C; the state is the
    mixture over i of sigma_i on (A, b_L) with phi_i on (b_R, C).  Raises
    ValidationError when I(A:C|B) > MARKOV_TOL or the residual > KI_RESIDUAL_TOL.
    """
    a, b, c = list(a), list(b), list(c)
    value = qcmi(ups, a, b, c)
    if value > MARKOV_TOL:
        raise ValidationError(f"I(A:C|B) = {value:.3e} exceeds {MARKOV_TOL:.0e}; "
                              "not a Markov state")
    dec = ki_decompose(partial_trace(ups, b + c), b, c, rng=rng)
    ordered = ups.layout.reorder(b + a + c)
    tens = _ki_tensor(dec.gamma_total, permute_mat(ups.mat, ups.layout, ordered.labels),
                      dec.dims, (ordered.dim_of(a), ordered.dim_of(c)))
    factors = _block_factors(tens, [(blk.dim_l, blk.dim_r) for blk in dec.blocks])
    terms = tuple(
        (q, DensityOp(ordered.restrict(a) + SystemLayout([("bL", blk.dim_l)]), sigma),
         DensityOp(SystemLayout([("bR", blk.dim_r)]) + ordered.restrict(c), phi))
        for blk, (q, sigma, phi) in zip(dec.blocks, factors))
    residual = _block_residual(tens, factors)
    if residual > KI_RESIDUAL_TOL:
        raise ValidationError(
            f"Markov decomposition residual {residual:.3e} > {KI_RESIDUAL_TOL:.0e}")
    return MarkovDecomposition(dec, terms, residual)


def recovery_check(ups: DensityOp, a: Sequence[str] = ("A",),
                   b: Sequence[str] = ("B",), c: Sequence[str] = ("C",),
                   ) -> RecoveryReport:
    """Residuals of reconstructing the state by Petz maps acting on B.

    ``from_ab``: rebuild C from the AB marginal via the Petz map of the BC
    marginal.  ``from_bc``: rebuild A from the BC marginal via the Petz
    map of the AB marginal.  Both vanish exactly on Markov states.

    The two reconstructions stay raw arrays: they are built from the
    validated state, its partial traces and Kraus families whose
    completeness ``KrausChannel`` checks, so they are not re-validated.
    """
    a, b, c = list(a), list(b), list(c)
    order = ups.layout.reorder(a + b + c).labels
    target = permute_mat(ups.mat, ups.layout, order)
    rho_ab, rho_bc = partial_trace(ups, a + b), partial_trace(ups, b + c)
    got1, _ = apply_kraus(petz_channel(rho_bc, b, c), rho_ab.mat, rho_ab.layout, order)
    got2, _ = apply_kraus(petz_channel(rho_ab, b, a), rho_bc.mat, rho_bc.layout, order)
    return RecoveryReport(
        from_ab=trace_norm(got1 - target),
        from_bc=trace_norm(got2 - target),
    )


def check_routes_agree(m_formula: float, m_algorithm: float | None) -> None:
    """Raise ValidationError when the spectral route applies and its cost
    differs from the block formula's by more than TWO_ROUTE_TOL."""
    if m_algorithm is not None and abs(m_formula - m_algorithm) > TWO_ROUTE_TOL:
        raise ValidationError(
            f"routes disagree: formula {m_formula} vs spectral {m_algorithm}")


def bounds_check(psi: PureVec | DensityOp, a: Sequence[str] = ("A",),
                 b: Sequence[str] = ("B",), c: Sequence[str] = ("C",),
                 rng: np.random.Generator | None = None) -> CostReport:
    """Full cost report, I(A:C|B) <= M <= I(A:BC) enforced within BOUND_TOL.

    On a pure state both routes and the entropies read one Split of the
    vector.  There S(AB) = S(C), S(BC) = S(A), S(B) = S(AC) and S(ABC) = 0,
    so I(A:C|B) = S(C) + S(A) - S(AC) and I(A:BC) = 2 S(A), from the
    split's two spectra and the C-marginal's.
    """
    a, b, c = list(a), list(b), list(c)
    if not isinstance(psi, PureVec):
        return CostReport(None, None, qcmi(psi, a, b, c), qmi(psi, a, b + c), None, ())
    if not psi.normalized:
        raise ValidationError("tripartite decomposition requires a normalized pure state")
    split = _split_pure(psi, a, c, b)
    s_a, s_ac = (shannon(np.clip(e.vals, 0.0, None)) for e in (split.a, split.ac))
    cond = vn_entropy(marginal(psi, c)) + s_a - s_ac
    total = 2.0 * s_a
    tki = _ki_tripartite(split, rng=rng)
    m_formula = markov_cost_formula(tki)
    blocks = tuple((blk.p, vn_entropy(blk.phi_ar)) for blk in tki.blocks)
    m_algorithm = _cost_algorithm(split)
    adjoint = m_algorithm is not None
    if not (cond - BOUND_TOL <= m_formula <= total + BOUND_TOL):
        raise ValidationError(
            f"cost {m_formula} violates bounds [{cond}, {total}]")
    check_routes_agree(m_formula, m_algorithm)
    return CostReport(m_formula, m_algorithm, cond, total, adjoint, blocks)


def build_example(family: str, d: int | None = None, lam=None) -> PureVec:
    """Construct one of the three closed-form tripartite families.

    VIA(d, lam): dims (d, d^2+1, d); an entangled AC pair witnessed by B,
      interpolating from an exact Markov state at lam = 1/d^2 to a
      maximally entangled AC marginal at lam = 1.  Requires d >= 2 and
      1/d^2 <= lam <= 1.
    VIB(d, lam): dims (d+1, d+1, d); superposition of B-witnessed AC
      entanglement and A-witnessed BC entanglement; 0 <= lam <= 1.
    VIC(lam vector): dims (d, d, d) with d = len(lam); classically
      correlated GHZ-type state with Schmidt weights lam.
    """
    fam = family.upper()
    if fam in ("VIA", "VIB"):
        if d is None or lam is None:
            raise ValidationError(f"{fam} requires d and lambda")
        if np.ndim(lam) != 0:
            raise ValidationError(f"{fam} requires one scalar lambda, got {lam!r}")
        lam = float(lam)
    if fam == "VIA":
        if d < 2:
            raise ValidationError(f"VIA requires d >= 2, got {d}")
        if not (1.0 / d**2 - 1e-12 <= lam <= 1.0 + 1e-12):
            raise ValidationError(f"VIA requires 1/d^2 <= lambda <= 1, got {lam}")
        d_b = d * d + 1
        vec = np.zeros((d, d_b, d))
        w0 = np.sqrt(max(0.0, (d * d * lam - 1.0) / (d * d - 1.0)))
        w1 = np.sqrt(max(0.0, (1.0 - lam) / (d * d - 1.0)))
        for k in range(d):
            vec[k, 0, k] += w0 / np.sqrt(d)
        for k in range(d):
            for l in range(d):
                vec[k, 1 + k * d + l, l] += w1
        lay = SystemLayout([("A", d), ("B", d_b), ("C", d)])
        return PureVec(lay, vec.reshape(-1))
    if fam == "VIB":
        if not (-1e-12 <= lam <= 1.0 + 1e-12):
            raise ValidationError(f"VIB requires 0 <= lambda <= 1, got {lam}")
        lam = min(max(lam, 0.0), 1.0)
        vec = np.zeros((d + 1, d + 1, d))
        for k in range(1, d + 1):
            vec[k, 0, k - 1] += np.sqrt(lam / d)
            vec[0, k, k - 1] += np.sqrt((1.0 - lam) / d)
        lay = SystemLayout([("A", d + 1), ("B", d + 1), ("C", d)])
        return PureVec(lay, vec.reshape(-1))
    if fam == "VIC":
        if lam is None:
            raise ValidationError("VIC requires a lambda vector")
        weights = ProbDist(lam).weights
        dd = len(weights)
        if d is not None and d != dd:
            raise ValidationError(f"VIC dimension {d} != len(lambda) = {dd}")
        vec = np.zeros((dd, dd, dd))
        for k, w in enumerate(weights):
            vec[k, k, k] = np.sqrt(w)
        lay = SystemLayout([("A", dd), ("B", dd), ("C", dd)])
        return PureVec(lay, vec.reshape(-1))
    raise ValidationError(f"unknown family {family!r}; expected VIA, VIB or VIC")


def mixed_with_product(psi: PureVec, lam: float, sigma_c: DensityOp,
                       a: Sequence[str] = ("A",), b: Sequence[str] = ("B",),
                       c: Sequence[str] = ("C",), ref_label: str = "B*",
                       ) -> PureVec:
    """Purification of lam * Psi_AC + (1 - lam) * Psi_A (x) sigma_C.

    The cost M_{A|B} is invariant across this family for lam > 0, because
    the mixing does not change which operations on A preserve the AC
    marginal.  The purifying system plays the role of B.
    """
    if not 0.0 < lam <= 1.0:
        raise ValidationError(f"mixing weight must be in (0, 1], got {lam}")
    a, c = list(a), list(c)
    rho_ac = marginal(psi, a + c)
    rho_ac = permute_op(rho_ac, a + c)
    rho_a = partial_trace(rho_ac, a)
    sig = permute_op(sigma_c, c) if sigma_c.layout.labels != tuple(c) else sigma_c
    mixed = lam * rho_ac.mat + (1.0 - lam) * np.kron(rho_a.mat, sig.mat)
    op = DensityOp(rho_ac.layout, mixed)
    pur = purify(op, ref_label=ref_label)
    order = a + [pur.layout.labels[-1]] + c
    return permute_vec(pur, order)
