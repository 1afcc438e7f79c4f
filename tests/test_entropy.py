from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov.entropy import (
    ProbDist,
    binary_entropy,
    eta0,
    factored_trace_norm,
    fannes_eta,
    qcmi,
    qmi,
    shannon,
    trace_distance,
    trace_norm,
    vn_entropy,
)
from qmarkov.linalg import (
    DensityOp,
    ValidationError,
    layout,
    marginal,
    partial_trace,
    random_density,
    random_pure,
)
from qmarkov.markov import build_example

# frozen by direct evaluation of -sum p log2 p at p = (1/4, 3/4)
H_QUARTER = 0.8112781244591328
# frozen by direct evaluation of -x log2 x at x = 1/e
ETA0_AT_1_OVER_E = 0.530737845423043


@pytest.fixture
def rng():
    return np.random.default_rng(20240229)


class TestShannon:
    def test_uniform_bit(self):
        assert shannon([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert shannon([1.0]) == 0.0

    def test_frozen_value(self):
        assert shannon([0.25, 0.75]) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            shannon([0.5, -0.1, 0.6])

    def test_probdist_validation(self):
        with pytest.raises(ValidationError):
            ProbDist([0.5, 0.4])


class TestVnEntropy:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed(self, d):
        rho = DensityOp(layout(("X", d)), np.eye(d) / d)
        assert vn_entropy(rho) == pytest.approx(np.log2(d), abs=1e-12)

    def test_pure_state(self, rng):
        psi = random_pure(layout(("X", 4)), rng)
        assert vn_entropy(psi.density()) == pytest.approx(0.0, abs=1e-10)

    def test_purification_symmetry(self, rng):
        # both marginals of a bipartite pure state carry equal entropy
        for _ in range(10):
            psi = random_pure(layout(("A", 2), ("B", 3)), rng)
            sa = vn_entropy(marginal(psi, ["A"]))
            sb = vn_entropy(marginal(psi, ["B"]))
            assert abs(sa - sb) <= 1e-10


@st.composite
def markov_or_random(draw):
    """A mixed state on (A, b0, bL, bR, C): with B = (b0, bL, bR), either an
    exact Markov state sum_i p_i sigma_i(A, bL) (x) |i><i|(b0) (x) phi_i(bR, C)
    or a random state of drawn rank; returns (state, is_markov)."""
    d_a, d_b0, d_bl, d_br, d_c = (draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                                  draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                                  draw(st.integers(1, 3)))
    lay = layout(("A", d_a), ("b0", d_b0), ("bL", d_bl), ("bR", d_br), ("C", d_c))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    markov = draw(st.booleans())
    if not markov:
        return random_density(lay, rng, rank=draw(st.integers(1, lay.dim))), False
    p = rng.dirichlet(np.ones(d_b0))
    total = np.zeros((d_a, d_b0, d_bl, d_br, d_c) * 2, dtype=np.complex128)
    for i in range(d_b0):
        sigma = random_density(layout(("A", d_a), ("bL", d_bl)), rng).mat
        phi = random_density(layout(("bR", d_br), ("C", d_c)), rng).mat
        total[:, i, :, :, :, :, i] = p[i] * np.einsum(
            "albm,rcsd->alrcbmsd", sigma.reshape(d_a, d_bl, d_a, d_bl),
            phi.reshape(d_br, d_c, d_br, d_c))
    return DensityOp(lay, total.reshape(lay.dim, lay.dim)), True


class TestStoredSpectrum:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(markov_or_random())
    def test_entropy_reads_the_validation_spectrum(self, drawn):
        rho, markov = drawn
        if markov:
            assert qcmi(rho, ["A"], ["b0", "bL", "bR"], ["C"]) <= 1e-9
        solve, solved = np.linalg.eigvalsh, []

        def recording(m):
            solved.append(solve(m))
            return solved[-1]
        with mock.patch.object(np.linalg, "eigvalsh", recording):
            op = DensityOp(rho.layout, rho.mat)
            entropy = vn_entropy(op)
        assert len(solved) == 1
        assert np.array_equal(op.spectrum, solved[0])
        assert op.spectrum.shape == (op.dim,)
        assert np.all(np.diff(op.spectrum) >= 0)
        assert not op.spectrum.flags.writeable
        direct = shannon(np.clip(np.linalg.eigvalsh(op.mat), 0.0, None))
        assert abs(entropy - direct) <= 1e-12


class TestQmi:
    def test_product(self, rng):
        a = random_density(layout(("A", 2)), rng)
        b = random_density(layout(("B", 2)), rng)
        joint = DensityOp(layout(("A", 2), ("B", 2)), np.kron(a.mat, b.mat))
        assert qmi(joint, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_entangled(self):
        from qmarkov.linalg import PureVec

        v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        psi = PureVec(layout(("A", 2), ("B", 2)), v)
        assert qmi(psi.density(), ["A"], ["B"]) == pytest.approx(2.0, abs=1e-10)

    def test_upper_bound_by_marginals(self, rng):
        for _ in range(20):
            rho = random_density(layout(("A", 2), ("B", 3)), rng)
            sa = vn_entropy(partial_trace(rho, ["A"]))
            sb = vn_entropy(partial_trace(rho, ["B"]))
            assert qmi(rho, ["A"], ["B"]) <= 2 * min(sa, sb) + 1e-9

    def test_overlap_rejected(self, rng):
        rho = random_density(layout(("A", 2), ("B", 2)), rng)
        with pytest.raises(ValidationError):
            qmi(rho, ["A"], ["A"])


class TestQcmi:
    def test_ghz_is_one_bit(self):
        psi = build_example("VIC", lam=(0.5, 0.5))
        assert qcmi(psi.density(), ["A"], ["B"], ["C"]) == pytest.approx(1.0, abs=1e-9)

    def test_markov_point_vanishes(self):
        psi = build_example("VIA", d=2, lam=0.25)
        assert abs(qcmi(psi.density(), ["A"], ["B"], ["C"])) <= 1e-9

    def test_closed_form_at_full_mixing(self):
        # at lam = 1 the closed form 2 log d - h(lam) - (1-lam) log(d^2-1)
        # collapses to 2 log d
        psi = build_example("VIA", d=2, lam=1.0)
        assert qcmi(psi.density(), ["A"], ["B"], ["C"]) == pytest.approx(2.0, abs=1e-9)

    def test_strong_subadditivity(self, rng):
        for dims in [(2, 2, 2), (2, 3, 2)]:
            lay = layout(("A", dims[0]), ("B", dims[1]), ("C", dims[2]))
            for _ in range(25):
                rho = random_density(lay, rng, rank=2)
                assert qcmi(rho, ["A"], ["B"], ["C"]) >= -1e-8

    def test_chain_rule(self, rng):
        lay = layout(("A", 2), ("B", 2), ("C", 2))
        for _ in range(25):
            rho = random_density(lay, rng, rank=3)
            lhs = qmi(rho, ["A"], ["B", "C"])
            rhs = qmi(rho, ["A"], ["B"]) + qcmi(rho, ["A"], ["B"], ["C"])
            assert abs(lhs - rhs) <= 1e-9

    def test_data_processing(self, rng):
        # discarding part of one side cannot increase mutual information
        lay = layout(("A", 2), ("B", 2), ("C", 2))
        for _ in range(15):
            rho = random_density(lay, rng, rank=3)
            assert qmi(rho, ["A"], ["B", "C"]) >= qmi(rho, ["A"], ["B"]) - 1e-8


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(layout(("X", 3)), rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        e0 = DensityOp(layout(("X", 2)), np.diag([1.0, 0.0]))
        e1 = DensityOp(layout(("X", 2)), np.diag([0.0, 1.0]))
        assert trace_distance(e0, e1) == pytest.approx(2.0, abs=1e-12)

    def test_pure_overlap_formula(self, rng):
        for _ in range(10):
            psi = random_pure(layout(("X", 4)), rng)
            phi = random_pure(layout(("X", 4)), rng)
            lhs = trace_distance(psi.density(), phi.density())
            ov = abs(np.vdot(psi.vec, phi.vec)) ** 2
            assert abs(lhs - 2 * np.sqrt(1 - ov)) <= 1e-10

    def test_triangle(self, rng):
        lay = layout(("X", 3))
        for _ in range(10):
            a, b, c = (random_density(lay, rng) for _ in range(3))
            assert trace_distance(a, c) <= (trace_distance(a, b)
                                            + trace_distance(b, c) + 1e-9)

    def test_monotone_under_partial_trace(self, rng):
        lay = layout(("A", 2), ("B", 3))
        for _ in range(10):
            a, b = random_density(lay, rng), random_density(lay, rng)
            full = trace_distance(a, b)
            red = trace_distance(partial_trace(a, ["A"]), partial_trace(b, ["A"]))
            assert red <= full + 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            trace_distance(random_density(layout(("X", 2)), rng),
                           random_density(layout(("X", 3)), rng))



@st.composite
def low_rank_factor(draw, rows: int):
    """A rows x cols complex factor of rank at most ``rank``; either may be 0."""
    cols = draw(st.integers(0, 2 * rows))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return gauss(rows, rank) @ gauss(rank, cols) * draw(st.floats(1e-3, 1.0))


class TestFactoredTraceNorm:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(low_rank_factor(d),
                                                         low_rank_factor(d))))
    def test_matches_dense(self, factors):
        x, y = factors
        dense = trace_norm(x @ x.conj().T - y @ y.conj().T)
        scale = max(1.0, float(np.sum(np.abs(x) ** 2) + np.sum(np.abs(y) ** 2)))
        assert abs(factored_trace_norm(x, y) - dense) <= 1e-10 * scale

    @pytest.mark.parametrize("cols_x, cols_y", [(0, 0), (0, 3), (2, 0), (4, 5)])
    def test_edge_shapes(self, cols_x, cols_y, rng):
        # (4, 5) has more columns than the 4 rows
        x = rng.normal(size=(4, cols_x)) + 1j * rng.normal(size=(4, cols_x))
        y = rng.normal(size=(4, cols_y))
        dense = trace_norm(x @ x.conj().T - y @ y.T)
        assert factored_trace_norm(x, y) == pytest.approx(dense, abs=1e-10)

    def test_equal_factors_cancel(self, rng):
        x = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        u = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        assert factored_trace_norm(x, x @ u) <= 1e-12

    def test_row_mismatch(self):
        with pytest.raises(ValidationError):
            factored_trace_norm(np.ones((3, 1)), np.ones((4, 1)))


class TestFannes:
    def test_zero(self):
        assert fannes_eta(0.0, 4) == 0.0

    def test_cap_value(self):
        assert eta0(1 / np.e) == pytest.approx(ETA0_AT_1_OVER_E, abs=1e-12)
        assert eta0(0.9) == pytest.approx(ETA0_AT_1_OVER_E, abs=1e-12)

    def test_binary_entropy_consistency(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
        assert binary_entropy(0.2) == pytest.approx(shannon([0.2, 0.8]), abs=1e-12)

    def test_continuity_bound(self, rng):
        lay = layout(("X", 4))
        for _ in range(50):
            a, b = random_density(lay, rng), random_density(lay, rng)
            eps = trace_distance(a, b)
            gap = abs(vn_entropy(a) - vn_entropy(b))
            assert gap <= fannes_eta(eps, 4) + 1e-12
