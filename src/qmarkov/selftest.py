"""Acceptance suite: closed-form reproduction plus property sweeps.

Each criterion returns a pass flag and a one-line detail string.  All
randomness is derived from one master seed, so two runs with the same
seed produce byte-identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import (
    apply_channel,
    channel_E,
    ergodic_projector,
    petz_channel,
    transfer_matrices,
)
from .cli import DEFAULT_SEED
from .entropy import (
    binary_entropy,
    fannes_eta,
    qcmi,
    qmi,
    shannon,
    trace_distance,
    vn_entropy,
)
from .kidec import ki_decompose, ki_tripartite, validate_ki
from .linalg import (
    DensityOp,
    haar_unitary,
    is_hermitian,
    layout,
    marginal,
    random_density,
    random_pure,
)
from .markov import (
    bounds_check,
    build_example,
    is_markov_state,
    markov_cost_algorithm,
    markov_cost_formula,
    mixed_with_product,
    recovery_check,
)
from .protocol import TypicalSpec, simulate, typical_mass
from .reference import (
    a_side_labels,
    average_markov_state,
    b_side_labels,
    build_protocol_state,
    c_side_labels,
    cesaro_average,
    min_eig_lower_bound,
    min_nonzero_eigenvalue,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _fmt(x: float) -> str:
    # round-off reads as a bound, so reordered sums leave the report as it is
    return "< 1e-12" if abs(x) < 1e-12 else format(float(x), ".3e")


def criterion_1(rng: np.random.Generator) -> tuple[bool, str]:
    """GHZ-type closed form: both routes and the conditional information
    all equal the Shannon entropy of the weights (tol 1e-6)."""
    worst = 0.0
    for lam in [(0.5, 0.5), (0.25, 0.75), (1 / 3, 1 / 3, 1 / 3)]:
        start = time.monotonic()
        psi = build_example("VIC", lam=lam)
        target = shannon(lam)
        tki = ki_tripartite(psi, rng=rng)
        m_f = markov_cost_formula(tki)
        m_a = markov_cost_algorithm(psi)
        cond = qcmi(psi.density(), ["A"], ["B"], ["C"])
        if m_a is None:
            return False, f"spectral route not applicable at {lam}"
        worst = max(worst, abs(m_f - target), abs(m_a - target), abs(cond - target))
        if time.monotonic() - start > 1.0:
            return False, f"runtime budget exceeded at {lam}"
    return worst <= 1e-6, f"max deviation {_fmt(worst)} (tol 1e-06)"


def criterion_2(rng: np.random.Generator) -> tuple[bool, str]:
    """Asymmetric family, d=2: spectral route matches h(lam) + 2 lam, and
    the role-swapped cost is 2 for lam > 0 and 0 at lam = 0 (tol 1e-6)."""
    worst = 0.0
    for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
        psi = build_example("VIB", d=2, lam=lam)
        m_a = markov_cost_algorithm(psi)
        if m_a is None:
            return False, f"spectral route not applicable at lam={lam}"
        expect = binary_entropy(lam) + 2.0 * lam
        worst = max(worst, abs(m_a - expect))
        m_swap = markov_cost_algorithm(psi, a=["C"], b=["B"], c=["A"])
        if m_swap is None:
            return False, f"role-swapped route not applicable at lam={lam}"
        expect_swap = 2.0 if lam > 0 else 0.0
        worst = max(worst, abs(m_swap - expect_swap))
    return worst <= 1e-6, f"max deviation {_fmt(worst)} (tol 1e-06)"


def criterion_3(rng: np.random.Generator) -> tuple[bool, str]:
    """Discontinuous family, d=2: Markov point at lam=1/4; cost 2 above it;
    conditional information, distance and recovery bounds reproduced."""
    psi0 = build_example("VIA", d=2, lam=0.25)
    rho0 = psi0.density()
    if not is_markov_state(rho0, tol=1e-9):
        return False, "lam=1/4 not recognized as a Markov state at 1e-9"
    m0 = markov_cost_algorithm(psi0)
    tki0 = ki_tripartite(psi0, rng=rng)
    if m0 is None or abs(m0) > 1e-6 or abs(markov_cost_formula(tki0)) > 1e-6:
        return False, "cost at the Markov point is not 0"
    worst = 0.0
    for lam in (0.3, 0.6, 1.0):
        psi = build_example("VIA", d=2, lam=lam)
        m_a = markov_cost_algorithm(psi)
        if m_a is None:
            return False, f"spectral route not applicable at lam={lam}"
        worst = max(worst, abs(m_a - 2.0))
        cond = qcmi(psi.density(), ["A"], ["B"], ["C"])
        closed = 2.0 - binary_entropy(lam) - (1.0 - lam) * np.log2(3.0)
        if abs(cond - closed) > 1e-9:
            return False, f"conditional information mismatch {_fmt(abs(cond - closed))} at lam={lam}"
        dist = trace_distance(psi.density(), rho0)
        closed_dist = 2.0 * np.sqrt((4.0 * lam - 1.0) / 3.0)
        if abs(dist - closed_dist) > 1e-9:
            return False, f"trace distance mismatch {_fmt(abs(dist - closed_dist))} at lam={lam}"
        rec = recovery_check(psi.density())
        bound = 4.0 * np.sqrt((4.0 * lam - 1.0) / 3.0) + 1e-6
        if rec.from_ab > bound or rec.from_bc > bound:
            return False, f"recovery residual exceeds bound at lam={lam}"
    return worst <= 1e-6, f"max cost deviation {_fmt(worst)} (tol 1e-06)"


def criterion_4(rng: np.random.Generator) -> tuple[bool, str]:
    """Bounds sweep on 200 random pure states: the cost sits between
    I(A:C|B) and I(A:BC); routes agree when the spectral one applies."""
    count_sa = 0
    for dims in ((2, 2, 2), (2, 3, 2)):
        lay = layout(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        for _ in range(100):
            psi = random_pure(lay, rng)
            rep = bounds_check(psi, rng=rng)  # raises on violation
            if rep.m_algorithm is not None:
                count_sa += 1
                if abs(rep.m_formula - rep.m_algorithm) > 1e-6:
                    return False, "two-route disagreement beyond 1e-06"
    return True, f"200 states within bounds; spectral route applied to {count_sa}"


def criterion_5(rng: np.random.Generator) -> tuple[bool, str]:
    """Decomposition validity on the canonical inputs, plus invariance of
    the block structure under a random local rotation of A."""
    cases: list[tuple[str, DensityOp]] = []
    rho = random_density(layout(("A", 2)), rng)
    sig = random_density(layout(("C", 2)), rng)
    cases.append(("product", DensityOp(layout(("A", 2), ("C", 2)),
                                       np.kron(rho.mat, sig.mat))))
    for d in (2, 3):
        v = np.zeros(d * d)
        for k in range(d):
            v[k * d + k] = 1.0 / np.sqrt(d)
        cases.append((f"maxent{d}", DensityOp(layout(("A", d), ("C", d)),
                                              np.outer(v, v))))
    cases.append(("VIA", marginal(build_example("VIA", d=2, lam=0.6), ["A", "C"])))
    cases.append(("VIB", marginal(build_example("VIB", d=2, lam=0.5), ["A", "C"])))
    for name, st in cases:
        dec = ki_decompose(st, ["A"], ["C"], rng=rng)
        rep = validate_ki(dec, st)
        if not rep.ok():
            return False, f"{name}: validation residuals {rep}"
        d_a = st.layout.dims[0]
        u = haar_unitary(d_a, rng)
        rotated = DensityOp(st.layout,
                            np.kron(u, np.eye(st.layout.dims[1])) @ st.mat
                            @ np.kron(u, np.eye(st.layout.dims[1])).conj().T)
        dec2 = ki_decompose(rotated, ["A"], ["C"], rng=rng)
        sig1 = sorted((round(b.p, 6), b.dim_l, b.dim_r) for b in dec.blocks)
        sig2 = sorted((round(b.p, 6), b.dim_l, b.dim_r) for b in dec2.blocks)
        if sig1 != sig2:
            return False, f"{name}: block structure not unitary invariant"
    return True, "5 inputs validated; block structure unitary invariant"


def criterion_6(rng: np.random.Generator) -> tuple[bool, str]:
    """Mixing invariance: the cost is constant over the family obtained by
    mixing the AC marginal with (A-marginal x anything on C)."""
    base = build_example("VIB", d=2, lam=0.6)
    sig = random_density(layout(("C", 2)), rng)
    costs = []
    for lam_mix in (0.3, 0.7, 1.0):
        mixed = mixed_with_product(base, lam_mix, sig)
        b_label = mixed.layout.labels[1]
        tki = ki_tripartite(mixed, a=["A"], b=[b_label], c=["C"], rng=rng)
        costs.append(markov_cost_formula(tki))
    spread = max(costs) - min(costs)
    return spread <= 1e-6, f"cost spread {_fmt(spread)} over the family (tol 1e-06)"


def criterion_7(rng: np.random.Generator) -> tuple[bool, str]:
    """Channel laws: the recovery channel fixes the A-marginal, its
    infinite average is idempotent under composition, the spectral and
    Cesaro routes to that average agree, and the Petz map recovers the
    joint state from the marginal."""
    worst_fix = worst_petz = 0.0
    for dims in ((2, 2, 2), (2, 3, 2)):
        lay = layout(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        for _ in range(5):
            psi = random_pure(lay, rng)
            rho_ac = marginal(psi, ["A", "C"])
            rho_a = marginal(psi, ["A"])
            chan = channel_E(rho_ac, ["A"], ["C"])
            worst_fix = max(worst_fix, float(np.max(np.abs(
                apply_channel(chan, rho_a).mat - rho_a.mat))))
            rec = apply_channel(petz_channel(rho_ac, ["A"], ["C"]), rho_a)
            worst_petz = max(worst_petz, float(np.max(np.abs(rec.mat - rho_ac.mat))))
    if worst_fix > 1e-10:
        return False, f"marginal not fixed: {_fmt(worst_fix)}"
    if worst_petz > 1e-10:
        return False, f"Petz reconstruction off by {_fmt(worst_petz)}"
    worst_comp = worst_ces = 0.0
    # Cesaro at N=2000 resolves the projector to 1e-3 only when the
    # subdominant transfer eigenvalue is below ~2/3; that holds on these
    # three families (the discontinuous family at intermediate mixing has
    # eigenvalue 0.83 and converges at its exact 1/N rate instead, which
    # the unit tests cover separately).
    for psi in (build_example("VIB", d=2, lam=0.5),
                build_example("VIA", d=2, lam=1.0),
                build_example("VIC", lam=(0.3, 0.7))):
        rho_ac = marginal(psi, ["A", "C"])
        _, lam_t = transfer_matrices(rho_ac, ["A"], ["C"])
        if not is_hermitian(lam_t, tol=1e-9):
            return False, "expected a self-adjoint channel on a closed-form family"
        lam_inf = ergodic_projector(lam_t)
        worst_comp = max(worst_comp, float(np.max(np.abs(lam_t @ lam_inf - lam_inf))))
        ces = cesaro_average(lam_t, 2000)
        worst_ces = max(worst_ces, float(np.max(np.abs(ces - lam_inf))))
    if worst_comp > 1e-8:
        return False, f"composition with the average off by {_fmt(worst_comp)}"
    if worst_ces > 1e-3:
        return False, f"Cesaro route off by {_fmt(worst_ces)}"
    return True, (f"fix {_fmt(worst_fix)}, petz {_fmt(worst_petz)}, "
                  f"compose {_fmt(worst_comp)}, cesaro {_fmt(worst_ces)}")


def criterion_8(rng: np.random.Generator) -> tuple[bool, str]:
    """Protocol simulator on the uniform GHZ state, n=2, delta=1."""
    ghz = build_example("VIC", lam=(0.5, 0.5))
    tki = ki_tripartite(ghz, rng=rng)
    spec = TypicalSpec(2, 1.0)
    _, blocks, d2 = build_protocol_state(tki, spec)
    bar = average_markov_state(tki, spec, blocks=blocks)
    lay = bar.layout
    bar_norm = DensityOp(lay, bar.mat / d2)
    if not is_markov_state(bar_norm, a_side_labels(lay), b_side_labels(lay),
                           c_side_labels(lay), tol=1e-9):
        return False, "average state is not Markov at 1e-9"
    lam_min = min_nonzero_eigenvalue(bar.mat)
    bound = min_eig_lower_bound(tki, 2, 1.0, d_a=2)
    if lam_min < bound:
        return False, f"min eigenvalue {_fmt(lam_min)} below bound {_fmt(bound)}"
    masses = [typical_mass(tki, TypicalSpec(n, 1.0)) for n in (2, 4, 6)]
    if not (masses[0] < masses[1] < masses[2]):
        return False, f"typical mass not increasing: {masses}"
    errs = []
    for rate in (3.0, 4.0, 5.0, 6.0):
        seed = int(rng.integers(2**31))
        # five trials keep the fitted slope well inside the window; at
        # three, sampling noise can push it past either edge
        res = simulate(ghz, n=2, delta=1.0, rate=rate, trials=5, seed=seed, tki=tki)
        errs.append(res.err_to_average)
    if errs[-1] > 0.05:
        return False, f"error at 4096 samples is {_fmt(errs[-1])} > 0.05"
    slope = float(np.polyfit([2 * r for r in (3, 4, 5, 6)], np.log2(errs), 1)[0])
    if not -0.7 <= slope <= -0.3:
        return False, f"log-log slope {slope:.3f} outside [-0.7, -0.3]"
    return True, (f"err@4096 {_fmt(errs[-1])}, slope {slope:.3f}, "
                  f"mass {masses[0]:.6f}<{masses[1]:.6f}<{masses[2]:.6f}")


def criterion_9(rng: np.random.Generator) -> tuple[bool, str]:
    """Entropy toolbox: strong subadditivity, the chain rule, and the
    entropy continuity bound over seeded random states."""
    worst_ssa = np.inf
    worst_chain = 0.0
    for dims in ((2, 2, 2), (2, 3, 2)):
        lay = layout(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
        for _ in range(250):
            rho = random_density(lay, rng, rank=3)
            cond = qcmi(rho, ["A"], ["B"], ["C"])
            worst_ssa = min(worst_ssa, cond)
            chain = abs(qmi(rho, ["A"], ["B", "C"])
                        - qmi(rho, ["A"], ["B"]) - cond)
            worst_chain = max(worst_chain, chain)
    if worst_ssa < -1e-8:
        return False, f"strong subadditivity violated: {_fmt(worst_ssa)}"
    if worst_chain > 1e-9:
        return False, f"chain rule violated: {_fmt(worst_chain)}"
    lay = layout(("X", 4))
    for _ in range(200):
        rho, sig = random_density(lay, rng), random_density(lay, rng)
        eps = trace_distance(rho, sig)
        gap = abs(vn_entropy(rho) - vn_entropy(sig))
        if gap > fannes_eta(eps, 4) + 1e-12:
            return False, f"continuity bound violated by {_fmt(gap - fannes_eta(eps, 4))}"
    return True, (f"min conditional information {_fmt(worst_ssa)}, "
                  f"max chain-rule defect {_fmt(worst_chain)}")


CRITERIA: list[tuple[str, Callable[[np.random.Generator], tuple[bool, str]]]] = [
    ("GHZ family closed form, three weight vectors", criterion_1),
    ("asymmetric family closed form and role swap", criterion_2),
    ("discontinuous family: Markov point, cost jump, recovery", criterion_3),
    ("cost bounds sweep over 200 random pure states", criterion_4),
    ("decomposition validation and unitary invariance", criterion_5),
    ("mixing invariance of the cost", criterion_6),
    ("channel laws: fixed point, average, Cesaro, Petz", criterion_7),
    ("protocol simulator convergence and typical masses", criterion_8),
    ("entropy toolbox property sweep", criterion_9),
]


def run_acceptance(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run criteria 1..9 with per-criterion generators derived from the
    master seed, so each criterion is individually reproducible."""
    results = []
    streams = np.random.SeedSequence(seed).spawn(len(CRITERIA))
    for i, ((name, fn), ss) in enumerate(zip(CRITERIA, streams), start=1):
        rng = np.random.default_rng(ss)
        t0 = time.monotonic()
        try:
            passed, detail = fn(rng)
        except Exception as err:  # a criterion crash is a failure, not an abort
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CriterionResult(i, name, passed, detail,
                                       time.monotonic() - t0))
    return results


def render_report(results: list[CriterionResult], seed: int,
                  with_timing: bool = False) -> str:
    """One line per criterion; timing is off by default so that identical
    seeds render byte-identical reports."""
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        stamp = f" [{r.seconds:.2f}s]" if with_timing else ""
        lines.append(f"criterion {r.index}: {mark}{stamp}  {r.name} -- {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"self-test: {n_pass}/{len(results)} criteria passed (seed {seed})")
    return "\n".join(lines) + "\n"
