import numpy as np
import pytest

from qmarkov.entropy import binary_entropy, qcmi, trace_distance
from qmarkov.kidec import ki_decompose, ki_tripartite
from qmarkov.linalg import (
    DensityOp,
    PureVec,
    ValidationError,
    layout,
    marginal,
    random_density,
    random_pure,
)
from qmarkov.markov import (
    TWO_ROUTE_TOL,
    bounds_check,
    build_example,
    is_markov_state,
    markov_cost_algorithm,
    markov_cost_formula,
    markov_decomposition,
    mixed_with_product,
    recovery_check,
)

# frozen by direct evaluation of -sum p log2 p at (1/4, 3/4)
H_QUARTER = 0.8112781244591328


@pytest.fixture
def rng():
    return np.random.default_rng(4242)


class TestFormulaRoute:
    def test_uniform_ghz(self, rng):
        tki = ki_tripartite(build_example("VIC", lam=(0.5, 0.5)), rng=rng)
        assert markov_cost_formula(tki) == pytest.approx(1.0, abs=1e-9)

    def test_discontinuous_family_midpoint(self, rng):
        tki = ki_tripartite(build_example("VIA", d=2, lam=0.5), rng=rng)
        assert markov_cost_formula(tki) == pytest.approx(2.0, abs=1e-9)

    def test_asymmetric_family_midpoint(self, rng):
        tki = ki_tripartite(build_example("VIB", d=2, lam=0.5), rng=rng)
        expect = binary_entropy(0.5) + 2 * 0.5 * 1.0
        assert markov_cost_formula(tki) == pytest.approx(expect, abs=1e-9)


class TestSpectralRoute:
    def test_asymmetric_family_midpoint(self):
        m = markov_cost_algorithm(build_example("VIB", d=2, lam=0.5))
        assert m == pytest.approx(2.0, abs=1e-6)

    def test_ghz_frozen_value(self):
        m = markov_cost_algorithm(build_example("VIC", lam=(0.25, 0.75)))
        assert m == pytest.approx(H_QUARTER, abs=1e-9)

    def test_fully_entangled_marginal(self):
        m = markov_cost_algorithm(build_example("VIA", d=2, lam=1.0))
        assert m == pytest.approx(2.0, abs=1e-6)

    def test_generic_state_not_applicable(self, rng):
        psi = random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        assert markov_cost_algorithm(psi) is None

    def test_two_route_agreement_on_families(self, rng):
        cases = [build_example("VIC", lam=(0.3, 0.7)),
                 build_example("VIB", d=2, lam=0.7),
                 build_example("VIA", d=2, lam=0.4)]
        for psi in cases:
            m_a = markov_cost_algorithm(psi)
            m_f = markov_cost_formula(ki_tripartite(psi, rng=rng))
            assert m_a is not None
            assert abs(m_a - m_f) <= 1e-6


def _planted_state(rng, specs):
    """Pure state with a hidden block structure: per block, a random
    redundant factor across A and B and a quantum factor maximally
    entangled with its own C sector, scrambled by Haar rotations on A and
    B.  For these the recovery channel is self-adjoint, so both cost
    routes apply, and the cost is H(weights) + 2 sum w_j log2(dim_r_j)."""
    from qmarkov.linalg import haar_unitary

    weights = rng.dirichlet(np.ones(len(specs)) * 5)
    offs = np.cumsum([0] + [r for _, r in specs])
    d_c = int(offs[-1])
    d_a0 = len(specs)
    d_al = max(l for l, _ in specs)
    d_ar = max(r for _, r in specs)
    t = np.zeros((d_a0, d_al, d_ar, d_a0, d_al, 1, d_c), dtype=complex)
    for j, (l, r) in enumerate(specs):
        om = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        om /= np.linalg.norm(om)
        for q in range(r):
            t[j, :l, q, j, :l, 0, offs[j] + q] += np.sqrt(weights[j] / r) * om
    da, db = d_a0 * d_al * d_ar, d_a0 * d_al
    vec = t.reshape(da, db, d_c)
    vec = np.einsum("ax,by,xyc->abc", haar_unitary(da, rng),
                    haar_unitary(db, rng), vec).reshape(-1)
    psi = PureVec(layout(("A", da), ("B", db), ("C", d_c)),
                  vec / np.linalg.norm(vec))
    from qmarkov.entropy import shannon

    m = shannon(weights) + 2 * sum(w * np.log2(r)
                                   for w, (_, r) in zip(weights, specs))
    return psi, m, sorted(specs)


class TestPlantedStructures:
    @pytest.mark.parametrize("specs", [
        [(1, 1), (1, 2)],
        [(2, 1), (1, 2)],
        [(1, 2), (2, 2)],
        [(2, 2)],
        [(1, 1), (2, 1), (1, 2)],
        [(1, 1), (1, 2), (1, 3)],
    ])
    def test_both_routes_recover_planted_cost(self, specs, rng):
        psi, m_expected, expected_sig = _planted_state(rng, specs)
        tki = ki_tripartite(psi, rng=rng)
        sig = sorted((b.dim_l, b.dim_r) for b in tki.blocks)
        assert sig == expected_sig
        assert markov_cost_formula(tki) == pytest.approx(m_expected, abs=1e-7)
        m_a = markov_cost_algorithm(psi)
        assert m_a is not None
        assert m_a == pytest.approx(m_expected, abs=1e-6)

    def test_identical_quantum_factors_merge(self, rng):
        # two blocks carrying the same quantum factor on the same C sector
        # factor into one block with a larger redundant part: the mixture
        # weights are absorbed into the redundant state and cost nothing
        from qmarkov.linalg import haar_unitary

        ent = np.zeros(4)
        ent[0] = ent[3] = 1 / np.sqrt(2)
        t = np.zeros((2, 2, 2, 2, 1, 1, 2), dtype=complex)
        for j, w in enumerate((0.3, 0.7)):
            for q in range(2):
                t[j, 0, q, j, 0, 0, q] = np.sqrt(w / 2)
        vec = t.reshape(8, 2, 2)
        vec = np.einsum("ax,by,xyc->abc", haar_unitary(8, rng),
                        haar_unitary(2, rng), vec).reshape(-1)
        psi = PureVec(layout(("A", 8), ("B", 2), ("C", 2)),
                      vec / np.linalg.norm(vec))
        tki = ki_tripartite(psi, rng=rng)
        assert sorted((b.dim_l, b.dim_r) for b in tki.blocks) == [(2, 2)]
        assert markov_cost_formula(tki) == pytest.approx(2.0, abs=1e-7)
        assert markov_cost_algorithm(psi) == pytest.approx(2.0, abs=1e-6)


class TestMarkovPredicate:
    def test_markov_point(self):
        psi = build_example("VIA", d=2, lam=0.25)
        assert is_markov_state(psi.density(), tol=1e-9)

    def test_ghz_is_not_markov(self):
        psi = build_example("VIC", lam=(0.5, 0.5))
        assert not is_markov_state(psi.density())

    def test_product_is_markov(self, rng):
        mats = [random_density(layout((l, 2)), rng).mat for l in "ABC"]
        rho = DensityOp(layout(("A", 2), ("B", 2), ("C", 2)),
                        np.kron(np.kron(mats[0], mats[1]), mats[2]))
        assert is_markov_state(rho)


class TestMarkovDecomposition:
    def test_product_single_term(self, rng):
        mats = [random_density(layout((l, 2)), rng).mat for l in "ABC"]
        rho = DensityOp(layout(("A", 2), ("B", 2), ("C", 2)),
                        np.kron(np.kron(mats[0], mats[1]), mats[2]))
        md = markov_decomposition(rho, rng=rng)
        assert len(md.terms) == 1
        assert md.residual <= 1e-7

    def test_classical_correlated_terms(self, rng):
        d = 3
        mat = np.zeros((27, 27))
        for i in range(d):
            v = np.zeros(27)
            v[i * 9 + i * 3 + i] = 1.0
            mat += np.outer(v, v) / d
        rho = DensityOp(layout(("A", 3), ("B", 3), ("C", 3)), mat)
        md = markov_decomposition(rho, rng=rng)
        assert len(md.terms) == 3
        assert np.allclose(sorted(md.weights), [1 / 3] * 3, atol=1e-9)

    def test_non_markov_rejected(self, rng):
        psi = build_example("VIC", lam=(0.5, 0.5))
        with pytest.raises(ValidationError):
            markov_decomposition(psi.density(), rng=rng)

    def test_protocol_average_decomposes(self, rng):
        # the simulator's exact average is a Markov state on the grouped
        # layout and must decompose across its B side
        from qmarkov.protocol import TypicalSpec
        from qmarkov.reference import (
            a_side_labels,
            average_markov_state,
            b_side_labels,
            c_side_labels,
        )

        tki = ki_tripartite(build_example("VIC", lam=(0.5, 0.5)), rng=rng)
        bar = average_markov_state(tki, TypicalSpec(2, 1.0))
        lay = bar.layout
        rho = DensityOp(lay, bar.mat / bar.trace())
        a, b, c = a_side_labels(lay), b_side_labels(lay), c_side_labels(lay)
        assert qcmi(rho, a, b, c) <= 1e-9
        md = markov_decomposition(rho, a, b, c, rng=rng)
        assert md.residual <= 1e-7


class TestRecovery:
    def test_exact_markov_recovers(self, rng):
        mats = [random_density(layout((l, 2)), rng).mat for l in "ABC"]
        rho = DensityOp(layout(("A", 2), ("B", 2), ("C", 2)),
                        np.kron(np.kron(mats[0], mats[1]), mats[2]))
        rep = recovery_check(rho)
        assert rep.from_ab <= 1e-8 and rep.from_bc <= 1e-8

    @pytest.mark.parametrize("lam", [0.3, 0.6, 1.0])
    def test_discontinuous_family_bound(self, lam):
        psi = build_example("VIA", d=2, lam=lam)
        rep = recovery_check(psi.density())
        bound = 4 * np.sqrt((4 * lam - 1) / 3) + 1e-6
        assert rep.from_ab <= bound
        assert rep.from_bc <= bound

    def test_uniform_ghz_residual_value(self):
        # computed, not assumed: the canonical reconstruction of the
        # uniform GHZ state from either bipartition dephases it, at trace
        # distance exactly 1
        psi = build_example("VIC", lam=(0.5, 0.5))
        rep = recovery_check(psi.density())
        assert rep.from_ab == pytest.approx(1.0, abs=1e-9)
        assert rep.from_bc == pytest.approx(1.0, abs=1e-9)


class TestBounds:
    def test_uniform_ghz_report(self, rng):
        rep = bounds_check(build_example("VIC", lam=(0.5, 0.5)), rng=rng)
        assert rep.qcmi == pytest.approx(1.0, abs=1e-9)
        assert rep.m_formula == pytest.approx(1.0, abs=1e-9)
        assert rep.qmi_a_bc == pytest.approx(2.0, abs=1e-9)

    def test_strict_gap(self, rng):
        rep = bounds_check(build_example("VIA", d=2, lam=0.3), rng=rng)
        closed = 2 - binary_entropy(0.3) - 0.7 * np.log2(3)
        assert rep.qcmi == pytest.approx(closed, abs=1e-9)
        assert rep.m_formula == pytest.approx(2.0, abs=1e-6)
        assert rep.qcmi < rep.m_formula < rep.qmi_a_bc + 1e-9

    def test_random_sweep(self, rng):
        for dims in [(2, 2, 2), (2, 3, 2)]:
            lay = layout(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
            for _ in range(10):
                rep = bounds_check(random_pure(lay, rng), rng=rng)
                assert rep.qcmi - 1e-7 <= rep.m_formula <= rep.qmi_a_bc + 1e-7

    def test_mixed_input_reports_information_only(self, rng):
        rho = random_density(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        rep = bounds_check(rho, rng=rng)
        assert rep.m_formula is None and rep.m_algorithm is None
        assert rep.qcmi >= -1e-9


class TestCostEqualsConditionalInformation:
    @staticmethod
    def matches(psi, rng):
        dec = ki_decompose(marginal(psi, ["A", "C"]), rng=rng)
        return abs(markov_cost_formula(dec) - qcmi(psi, ["A"], ["B"], ["C"])) <= TWO_ROUTE_TOL

    def test_ghz_family_saturates(self, rng):
        assert self.matches(build_example("VIC", lam=(0.3, 0.7)), rng)

    def test_discontinuous_family_does_not(self, rng):
        assert not self.matches(build_example("VIA", d=2, lam=0.5), rng)

    def test_product_saturates_trivially(self, rng):
        vec = np.zeros(8)
        vec[0] = 1.0
        psi = PureVec(layout(("A", 2), ("B", 2), ("C", 2)), vec)
        assert self.matches(psi, rng)


class TestExamples:
    def test_family_markov_point(self):
        assert is_markov_state(build_example("VIA", d=2, lam=0.25).density(),
                               tol=1e-9)

    def test_asymmetric_zero_end(self, rng):
        psi = build_example("VIB", d=2, lam=0.0)
        # pinned A level times an entangled BC pair
        tens = psi.vec.reshape(3, 3, 2)
        assert np.max(np.abs(tens[1:, :, :])) == 0.0
        assert markov_cost_algorithm(psi) == pytest.approx(0.0, abs=1e-9)

    def test_ghz_uniform_three(self, rng):
        psi = build_example("VIC", lam=(1 / 3, 1 / 3, 1 / 3))
        m = markov_cost_algorithm(psi)
        assert m == pytest.approx(np.log2(3.0), abs=1e-9)

    @pytest.mark.parametrize("family,d,lam", [
        ("VIA", 2, 0.1),      # below the Markov point
        ("VIA", 2, 1.2),      # above one
        ("VIB", 2, -0.2),
        ("VIB", 2, 1.5),
        ("VIC", None, (0.5, 0.6)),  # not a distribution
        ("VIA", 2, [0.5]),    # a vector where one scalar is required
        ("VIB", 2, (0.2, 0.3)),
        ("VIB", 2, []),
        ("VIA", 1, 1.0),      # d = 1 has no Markov-point interpolation
        ("VIA", 0, 1.0),
    ])
    def test_out_of_range_rejected(self, family, d, lam):
        with pytest.raises(ValidationError):
            build_example(family, d=d, lam=lam)

    def test_layout_dims(self):
        assert build_example("VIA", d=2, lam=0.5).layout.dims == (2, 5, 2)
        assert build_example("VIB", d=3, lam=0.5).layout.dims == (4, 4, 3)
        assert build_example("VIC", lam=(0.2, 0.8)).layout.dims == (2, 2, 2)


class TestWitnesses:
    def test_discontinuity_pair(self, rng):
        # the cost jumps from 0 to 2 across an arbitrarily small
        # neighborhood of the Markov point
        psi0 = build_example("VIA", d=2, lam=0.25)
        psi1 = build_example("VIA", d=2, lam=0.25 + 1e-3)
        m0 = markov_cost_algorithm(psi0)
        m1 = markov_cost_algorithm(psi1)
        assert m0 == pytest.approx(0.0, abs=1e-6)
        assert m1 == pytest.approx(2.0, abs=1e-6)
        dist = trace_distance(psi1.density(), psi0.density())
        assert dist <= 2 * np.sqrt((4 * (0.25 + 1e-3) - 1) / 3) + 1e-9

    def test_asymmetry_pair(self):
        psi_half = build_example("VIB", d=2, lam=0.5)
        assert markov_cost_algorithm(psi_half) == pytest.approx(2.0, abs=1e-6)
        assert markov_cost_algorithm(psi_half, a=["C"], b=["B"], c=["A"]) \
            == pytest.approx(2.0, abs=1e-6)
        psi = build_example("VIB", d=2, lam=0.2)
        m_ab = markov_cost_algorithm(psi)
        m_cb = markov_cost_algorithm(psi, a=["C"], b=["B"], c=["A"])
        assert m_ab == pytest.approx(binary_entropy(0.2) + 0.4, abs=1e-6)
        assert m_cb == pytest.approx(2.0, abs=1e-6)
        assert abs(m_ab - m_cb) > 0.5

    def test_zero_law(self, rng):
        cases = [build_example("VIA", d=2, lam=0.25),
                 build_example("VIA", d=2, lam=0.5),
                 build_example("VIB", d=2, lam=0.0),
                 build_example("VIB", d=2, lam=0.5),
                 build_example("VIC", lam=(0.5, 0.5)),
                 build_example("VIC", lam=(1.0, 0.0))]
        for psi in cases:
            tki = ki_tripartite(psi, rng=rng)
            m = markov_cost_formula(tki)
            markov = is_markov_state(psi.density(), tol=1e-9)
            assert (m <= 1e-7) == markov

    def test_mixing_invariance(self, rng):
        base = build_example("VIB", d=2, lam=0.6)
        sig = random_density(layout(("C", 2)), rng)
        costs = []
        for lam_mix in (0.3, 0.7, 1.0):
            mixed = mixed_with_product(base, lam_mix, sig)
            b_label = mixed.layout.labels[1]
            tki = ki_tripartite(mixed, a=["A"], b=[b_label], c=["C"], rng=rng)
            costs.append(markov_cost_formula(tki))
        assert max(costs) - min(costs) <= 1e-6

    def test_isometry_on_spectator_preserves_cost(self, rng):
        # embedding C into a larger space is a lossless operation on the
        # spectator and must not change the cost
        psi = build_example("VIC", lam=(0.3, 0.7))
        tens = psi.vec.reshape(2, 2, 2)
        bigger = np.zeros((2, 2, 4), dtype=complex)
        bigger[:, :, 1:3] = tens
        psi2 = PureVec(layout(("A", 2), ("B", 2), ("C", 4)), bigger.reshape(-1))
        m1 = markov_cost_formula(ki_tripartite(psi, rng=rng))
        m2 = markov_cost_formula(ki_tripartite(psi2, rng=rng))
        assert abs(m1 - m2) <= 1e-9
