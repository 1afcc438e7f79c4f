import numpy as np
import pytest

from qmarkov.linalg import (
    DensityOp,
    Eigenpairs,
    LabelError,
    PureVec,
    ValidationError,
    eigh,
    haar_unitary,
    layout,
    marginal,
    partial_trace,
    permute_op,
    purify,
    random_density,
    random_pure,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelError):
            layout(("A", 2), ("A", 3))

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            layout(("A", 0))

    def test_total_dimension(self):
        lay = layout(("A", 2), ("B", 3), ("C", 4))
        assert lay.dim == 24
        assert lay.dim_of(["A", "C"]) == 8


class TestPartialTrace:
    def test_product_state(self, rng):
        rho = random_density(layout(("A", 2)), rng)
        sig = random_density(layout(("B", 3)), rng)
        joint = DensityOp(layout(("A", 2), ("B", 3)), np.kron(rho.mat, sig.mat))
        out = partial_trace(joint, ["A"])
        assert np.allclose(out.mat, rho.mat)

    def test_maximally_entangled_marginal(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        psi = PureVec(layout(("A", 2), ("B", 2)), v)
        out = marginal(psi, ["A"])
        assert np.allclose(out.mat, np.eye(2) / 2)

    def test_ghz_drop_last(self):
        v = np.zeros(8)
        v[0] = v[7] = 1 / np.sqrt(2)
        psi = PureVec(layout(("A", 2), ("B", 2), ("C", 2)), v)
        out = marginal(psi, ["A", "B"])
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 0.5
        assert np.allclose(out.mat, expect)

    def test_composition(self, rng):
        lay = layout(("A", 2), ("B", 3), ("C", 2))
        rho = random_density(lay, rng)
        two_step = partial_trace(partial_trace(rho, ["A", "B"]), ["A"])
        one_step = partial_trace(rho, ["A"])
        assert np.max(np.abs(two_step.mat - one_step.mat)) <= 1e-12

    def test_trace_everything(self, rng):
        rho = random_density(layout(("A", 3)), rng)
        out = partial_trace(rho, [])
        assert out.mat.shape == (1, 1)
        assert abs(out.mat[0, 0] - 1.0) < 1e-12

    def test_unknown_label(self, rng):
        rho = random_density(layout(("A", 2)), rng)
        with pytest.raises(LabelError):
            partial_trace(rho, ["Z"])


class TestSqrt:
    def test_identity(self):
        assert np.allclose(Eigenpairs.of(np.eye(3)).sqrt(), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(Eigenpairs.of(np.diag([4.0, 9.0])).sqrt(), np.diag([2.0, 3.0]))

    def test_square_back(self, rng):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = z @ z.conj().T
        s = Eigenpairs.of(p).sqrt()
        assert np.max(np.abs(s @ s - p)) <= 1e-10 * np.max(np.abs(p))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Eigenpairs.of(np.diag([1.0, -0.5])).sqrt()

    def test_pinv_identity(self):
        assert np.allclose(Eigenpairs.of(np.eye(2)).inv_sqrt(), np.eye(2))

    def test_pinv_kernel(self):
        assert np.allclose(Eigenpairs.of(np.diag([4.0, 0.0])).inv_sqrt(), np.diag([0.5, 0.0]))

    def test_pinv_support_projector_full_rank_marginal(self):
        # the asymmetric-family A marginal at half mixing is full rank 3
        from qmarkov.markov import build_example

        psi = build_example("VIB", d=2, lam=0.5)
        rho_a = marginal(psi, ["A"]).mat
        inv = Eigenpairs.of(rho_a).inv_sqrt()
        proj = inv @ rho_a @ inv
        vals = np.linalg.eigvalsh(proj)
        assert np.allclose(sorted(vals), [1.0, 1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("fn", [Eigenpairs.sqrt, Eigenpairs.inv_sqrt],
                             ids=["psd_sqrt", "pinv_sqrt"])
    def test_unitary_covariance(self, fn, rng):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = z @ z.conj().T
        u = haar_unitary(4, rng)
        lhs = fn(Eigenpairs.of(u @ p @ u.conj().T))
        rhs = u @ fn(Eigenpairs.of(p)) @ u.conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestPurify:
    def test_pure_input(self, rng):
        psi = random_pure(layout(("A", 3)), rng)
        out = purify(psi.density())
        assert out.layout.dims == (3, 1)
        overlap = abs(np.vdot(out.vec.reshape(3), psi.vec))
        assert abs(overlap - 1.0) < 1e-9

    def test_maximally_mixed_gives_bell(self):
        rho = DensityOp(layout(("A", 2)), np.eye(2) / 2)
        out = purify(rho)
        assert out.layout.dim == 4
        back = marginal(out, ["A"])
        assert np.allclose(back.mat, np.eye(2) / 2)

    def test_round_trip(self, rng):
        rho = random_density(layout(("A", 3)), rng)
        back = marginal(purify(rho), ["A"])
        assert np.max(np.abs(back.mat - rho.mat)) <= 1e-10

    def test_left_inverse_on_spectrum(self, rng):
        lay = layout(("A", 2), ("B", 3))
        rho = random_density(lay, rng)
        reduced = partial_trace(rho, ["A"])
        again = marginal(purify(reduced), ["A"])
        assert np.max(np.abs(again.mat - reduced.mat)) <= 1e-10


class TestHaar:
    def test_scalar(self, rng):
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self, rng):
        u = haar_unitary(8, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-12

    def test_twirl_average(self):
        # averaging U rho U† over the group sends any state to I/d
        rng = np.random.default_rng(7)
        psi = random_pure(layout(("X", 3)), rng)
        rho = psi.density().mat
        acc = np.zeros((3, 3), dtype=np.complex128)
        for _ in range(2000):
            u = haar_unitary(3, rng)
            acc += u @ rho @ u.conj().T
        acc /= 2000
        dist = np.sum(np.abs(np.linalg.eigvalsh(acc - np.eye(3) / 3)))
        assert dist <= 0.05

    def test_seed_determinism(self):
        u1 = haar_unitary(5, np.random.default_rng(99))
        u2 = haar_unitary(5, np.random.default_rng(99))
        assert np.array_equal(u1, u2)

    def test_dim_error(self, rng):
        with pytest.raises(ValueError):
            haar_unitary(0, rng)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_per_matrix_formula(self, d):
        # the stream and the arithmetic of one unstacked QR, bit for bit
        rng = np.random.default_rng(1000 + d)
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        assert np.array_equal(haar_unitary(d, np.random.default_rng(1000 + d)),
                              q * (diag / np.abs(diag)))


class TestEigh:
    def test_identity(self):
        vals, _ = eigh(np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0])

    def test_pauli_x(self):
        vals, _ = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [1.0, -1.0])

    def test_reconstruction(self, rng):
        z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = (z + z.conj().T) / 2
        vals, vecs = eigh(h)
        back = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(back - h)) <= 1e-11 * max(1.0, np.max(np.abs(h)))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValidationError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPermutation:
    def test_round_trip(self, rng):
        lay = layout(("A", 2), ("B", 3), ("C", 2))
        rho = random_density(lay, rng)
        out = permute_op(permute_op(rho, ["C", "A", "B"]), ["A", "B", "C"])
        assert np.allclose(out.mat, rho.mat)

    def test_matches_kron_swap(self, rng):
        a = random_density(layout(("A", 2)), rng)
        b = random_density(layout(("B", 3)), rng)
        joint = DensityOp(layout(("A", 2), ("B", 3)), np.kron(a.mat, b.mat))
        swapped = permute_op(joint, ["B", "A"])
        assert np.allclose(swapped.mat, np.kron(b.mat, a.mat))
