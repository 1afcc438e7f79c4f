import numpy as np
import pytest

from qmarkov.channels import (
    KrausChannel,
    apply_channel,
    cesaro_average,
    channel_E,
    commutant_basis,
    completeness,
    ergodic_projector,
    petz_channel,
    reshuffle,
    transfer_matrices,
)
from qmarkov.linalg import (
    DensityOp,
    ValidationError,
    is_hermitian,
    layout,
    marginal,
    partial_trace,
    pinv_sqrt,
    psd_sqrt,
    random_density,
    random_pure,
)
from qmarkov.markov import build_example


@pytest.fixture
def rng():
    return np.random.default_rng(31415)


def maxent_op(d):
    v = np.zeros(d * d)
    for k in range(d):
        v[k * d + k] = 1 / np.sqrt(d)
    return DensityOp(layout(("A", d), ("C", d)), np.outer(v, v))


class TestPetz:
    def test_recovers_joint_from_marginal(self, rng):
        psi = random_pure(layout(("A", 2), ("B", 3), ("C", 2)), rng)
        rho_ac = marginal(psi, ["A", "C"])
        rho_a = marginal(psi, ["A"])
        rec = apply_channel(petz_channel(rho_ac, ["A"], ["C"]), rho_a)
        assert np.max(np.abs(rec.mat - rho_ac.mat)) <= 1e-10

    def test_product_factorization(self, rng):
        rho = random_density(layout(("A", 2)), rng)
        sig = random_density(layout(("C", 3)), rng)
        joint = DensityOp(layout(("A", 2), ("C", 3)), np.kron(rho.mat, sig.mat))
        ch = petz_channel(joint, ["A"], ["C"])
        tau = random_density(layout(("A", 2)), rng)
        out = apply_channel(ch, tau)
        assert np.max(np.abs(out.mat - np.kron(tau.mat, sig.mat))) <= 1e-10

    def test_kraus_completeness_on_support(self):
        psi = build_example("VIB", d=2, lam=0.5)
        ch = petz_channel(marginal(psi, ["A", "C"]), ["A"], ["C"])
        comp = completeness(ch.kraus)
        # the A marginal is full rank here, so the support is everything
        assert np.max(np.abs(comp - np.eye(3))) <= 1e-9


class TestChannelE:
    def test_fixes_marginal(self, rng):
        for _ in range(5):
            psi = random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng)
            rho_ac = marginal(psi, ["A", "C"])
            rho_a = marginal(psi, ["A"])
            out = apply_channel(channel_E(rho_ac, ["A"], ["C"]), rho_a)
            assert np.max(np.abs(out.mat - rho_a.mat)) <= 1e-10

    def test_maximally_entangled_depolarizes(self, rng):
        ch = channel_E(maxent_op(2), ["A"], ["C"])
        tau = random_density(layout(("A", 2)), rng)
        out = apply_channel(ch, tau)
        assert np.max(np.abs(out.mat - np.eye(2) / 2)) <= 1e-10

    @pytest.mark.parametrize("lam,rank", [(1.0, 2), (0.0, 1)])
    def test_completeness_is_support_projector(self, lam, rank):
        # with a rank-deficient A marginal the Kraus sum is the projector
        # onto its support, not the identity
        psi = build_example("VIB", d=2, lam=lam)
        ch = channel_E(marginal(psi, ["A", "C"]), ["A"], ["C"])
        vals = np.linalg.eigvalsh(completeness(ch.kraus))
        assert np.allclose(sorted(vals), [0.0] * (3 - rank) + [1.0] * rank,
                           atol=1e-9)

    def test_product_gives_identity_channel(self, rng):
        rho = random_density(layout(("A", 3)), rng)
        sig = random_density(layout(("C", 2)), rng)
        joint = DensityOp(layout(("A", 3), ("C", 2)), np.kron(rho.mat, sig.mat))
        ch = channel_E(joint, ["A"], ["C"])
        tau = random_density(layout(("A", 3)), rng)
        out = apply_channel(ch, tau)
        assert np.max(np.abs(out.mat - tau.mat)) <= 1e-10


class TestTransferMatrices:
    def test_maximally_mixed_structure(self):
        # for a maximally mixed A marginal the purification matrix has
        # entries delta_km delta_nl / d
        t1, _ = transfer_matrices(maxent_op(2), ["A"], ["C"])
        expect = np.zeros((4, 4))
        for k in range(2):
            for l in range(2):
                for m in range(2):
                    for n in range(2):
                        if k == m and n == l:
                            expect[k * 2 + l, m * 2 + n] = 0.5
        assert np.allclose(t1, expect)

    def test_purification_identity(self, rng):
        # reshuffling the purification matrix reproduces the projector on
        # the canonical purification of the A marginal
        psi = random_pure(layout(("A", 2), ("B", 3), ("C", 2)), rng)
        rho_ac = marginal(psi, ["A", "C"])
        rho_a = marginal(psi, ["A"])
        t1, _ = transfer_matrices(rho_ac, ["A"], ["C"])
        s = psd_sqrt(rho_a.mat)
        omega = np.zeros(4, dtype=np.complex128)
        for k in range(2):
            e = np.zeros(2)
            e[k] = 1.0
            omega += np.kron(s @ e, e)
        assert np.max(np.abs(reshuffle(t1, 2) - np.outer(omega, omega.conj()))) <= 1e-12

    def test_fixed_point(self, rng):
        psi = random_pure(layout(("A", 3), ("B", 2), ("C", 2)), rng)
        rho_ac = marginal(psi, ["A", "C"])
        rho_a = marginal(psi, ["A"])
        _, lam = transfer_matrices(rho_ac, ["A"], ["C"])
        vec = rho_a.mat.reshape(-1)
        assert np.max(np.abs(lam @ vec - vec)) <= 1e-10

    def test_hermitian_on_asymmetric_family(self):
        psi = build_example("VIB", d=2, lam=0.5)
        _, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        assert is_hermitian(lam, tol=1e-9)

    def test_hermitian_on_depolarizing(self):
        _, lam = transfer_matrices(maxent_op(2), ["A"], ["C"])
        assert is_hermitian(lam, tol=1e-9)

    def test_generic_state_fails_gate(self, rng):
        psi = random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        _, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        assert not is_hermitian(lam, tol=1e-9)


IDENTITY_STATES = {
    "random_232": lambda: random_pure(layout(("A", 2), ("B", 3), ("C", 2)),
                                      np.random.default_rng(5)),
    "random_393": lambda: random_pure(layout(("A", 3), ("B", 9), ("C", 3)),
                                      np.random.default_rng(6)),
    "VIA": lambda: build_example("VIA", d=2, lam=0.6),
    "VIB": lambda: build_example("VIB", d=2, lam=0.5),
    "VIC": lambda: build_example("VIC", lam=(0.3, 0.7)),
}


def purification_ratio(rho_ac, d_a, d_c):
    """Reference transfer matrix T2 pinv(T1): the canonical purification of
    Psi_A after one channel use, divided by the purification itself."""
    t_ac = psd_sqrt(rho_ac.mat).reshape(d_a, d_c, d_a, d_c)
    t2 = np.einsum("krms,nslr->klmn", t_ac, t_ac).reshape(d_a * d_a, d_a * d_a)
    inv_s = pinv_sqrt(partial_trace(rho_ac, ["A"]).mat)
    t1_pinv = np.einsum("km,nl->klmn", inv_s, inv_s).reshape(d_a * d_a, d_a * d_a)
    return t2 @ t1_pinv


class TestRecoveryIdentities:
    """Both Kraus families and both transfer matrices come from the one Petz
    recovery A -> AC; these pin the identities that tie them together."""

    @pytest.fixture(params=sorted(IDENTITY_STATES))
    def rho_ac(self, request):
        return marginal(IDENTITY_STATES[request.param](), ["A", "C"])

    def test_transfer_is_kraus_sum(self, rho_ac):
        _, lam = transfer_matrices(rho_ac, ["A"], ["C"])
        family = channel_E(rho_ac, ["A"], ["C"]).kraus
        kraus_sum = sum(np.kron(e, e.conj()) for e in family)
        assert np.max(np.abs(lam - kraus_sum)) <= 1e-12

    def test_transfer_matches_purification_ratio(self, rho_ac):
        d_a, d_c = rho_ac.layout.dims
        _, lam = transfer_matrices(rho_ac, ["A"], ["C"])
        assert np.max(np.abs(lam - purification_ratio(rho_ac, d_a, d_c))) <= 1e-12

    def test_purification_matrix_is_root_tensor_conjugate(self, rho_ac):
        t1, _ = transfer_matrices(rho_ac, ["A"], ["C"])
        s = psd_sqrt(partial_trace(rho_ac, ["A"]).mat)
        d_a = s.shape[0]
        expect = np.einsum("km,nl->klmn", s, s).reshape(d_a * d_a, d_a * d_a)
        assert np.max(np.abs(t1 - expect)) <= 1e-12
        assert np.max(np.abs(t1 - np.kron(s, s.conj()))) <= 1e-12

    def test_channel_e_kraus_are_c_rows_of_petz_kraus(self, rho_ac):
        d_a, d_c = rho_ac.layout.dims
        petz = petz_channel(rho_ac, ["A"], ["C"]).kraus
        family = channel_E(rho_ac, ["A"], ["C"]).kraus
        assert len(family) == d_c * d_c
        for k in range(d_c):
            for l in range(d_c):
                row = petz[l].reshape(d_a, d_c, d_a)[:, k, :]
                assert np.max(np.abs(family[k * d_c + l] - row)) <= 1e-12


class TestErgodicProjector:
    def test_identity(self):
        tm = np.eye(4)
        assert np.allclose(ergodic_projector(tm), np.eye(4))

    def test_rank_matches_fixed_space(self):
        # two fixed directions: the two classical sectors of the channel
        psi = build_example("VIB", d=2, lam=0.5)
        _, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        linf = ergodic_projector(lam)
        assert round(float(np.trace(linf).real)) == 2
        ces = cesaro_average(lam, 2000)
        assert np.max(np.abs(ces - linf)) <= 1e-3

    def test_invariant_state_membership(self):
        psi = build_example("VIB", d=2, lam=0.5)
        rho_a = marginal(psi, ["A"])
        _, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        linf = ergodic_projector(lam)
        vec = rho_a.mat.reshape(-1)
        assert np.max(np.abs(linf @ vec - vec)) <= 1e-9

    def test_no_unit_eigenvalue_rejected(self):
        tm = 0.5 * np.eye(4)
        with pytest.raises(ValidationError):
            ergodic_projector(tm)

    def test_composition_idempotence(self):
        for psi in (build_example("VIB", d=2, lam=0.5),
                    build_example("VIC", lam=(0.3, 0.7))):
            _, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
            linf = ergodic_projector(lam)
            assert np.max(np.abs(lam @ linf - linf)) <= 1e-8


class TestCesaro:
    def test_identity(self):
        tm = np.eye(4)
        assert np.allclose(cesaro_average(tm, 17), np.eye(4))

    def test_alternating_toy(self):
        tm = np.diag([1.0, -1.0])
        out = cesaro_average(tm, 10)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_slow_gap_rate(self):
        # at intermediate mixing the subdominant transfer eigenvalue is
        # 0.83, so the N=2000 average sits ~2.5e-3 from the projector;
        # check the exact 1/N rate rather than a fixed small tolerance
        psi = build_example("VIA", d=2, lam=0.6)
        _, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        linf = ergodic_projector(lam)
        vals = np.linalg.eigvalsh((lam + lam.conj().T) / 2)
        sub = max(abs(v) for v in vals if abs(v - 1.0) > 1e-8)
        gap_bound = sub / (2000 * (1 - sub)) + 1e-12
        ces = cesaro_average(lam, 2000)
        assert np.max(np.abs(ces - linf)) <= gap_bound


class TestCommutant:
    def test_identity_channel_full_algebra(self):
        ch = KrausChannel(layout(("X", 3)), layout(("X", 3)), [np.eye(3)])
        assert len(commutant_basis(ch)) == 9

    def test_depolarizing_scalars_only(self):
        ch = channel_E(maxent_op(2), ["A"], ["C"])
        basis = commutant_basis(ch)
        assert len(basis) == 1
        x = basis[0]
        assert np.max(np.abs(x - np.trace(x) / 2 * np.eye(2))) <= 1e-9

    def test_two_sector_channel(self):
        psi = build_example("VIB", d=2, lam=0.5)
        ch = channel_E(marginal(psi, ["A", "C"]), ["A"], ["C"])
        basis = commutant_basis(ch)
        assert len(basis) == 2
        # spanned by the two classical sector projectors: all elements
        # diagonal in the (first level | rest) split
        p0 = np.diag([1.0, 0.0, 0.0])
        p1 = np.eye(3) - p0
        for x in basis:
            proj = np.trace(p0 @ x) * p0 + np.trace(p1 @ x) / 2 * p1
            assert np.max(np.abs(x - proj)) <= 1e-9

    def test_algebra_closure(self, rng):
        psi = build_example("VIB", d=2, lam=0.5)
        ch = channel_E(marginal(psi, ["A", "C"]), ["A"], ["C"])
        basis = commutant_basis(ch)
        flat = np.array([b.reshape(-1) for b in basis])
        gram_proj = flat.conj() @ flat.T  # should be identity
        assert np.max(np.abs(gram_proj - np.eye(len(basis)))) <= 1e-9
        for x in basis:
            for y in [x.conj().T] + [x @ b for b in basis]:
                v = y.reshape(-1)
                residual = v - flat.T @ (flat.conj() @ v)
                assert np.linalg.norm(residual) <= 1e-8


class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density(layout(("A", 2), ("B", 2)), rng)
        ch = KrausChannel(layout(("A", 2)), layout(("A", 2)), [np.eye(2)])
        out = apply_channel(ch, rho)
        assert np.allclose(out.mat, rho.mat)

    def test_trace_preserved(self, rng):
        psi = random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        ch = channel_E(marginal(psi, ["A", "C"]), ["A"], ["C"])
        rho = random_density(layout(("A", 2), ("B", 3)), rng)
        out = apply_channel(ch, rho)
        assert abs(out.trace() - 1.0) <= 1e-10

    def test_averaged_state_matches_closed_form(self):
        # applying the infinite average to the A side of the asymmetric
        # family yields the displayed mixture of (mixed, pinned, mixed)
        # and (pinned, maximally entangled)
        d, lam_w = 2, 0.5
        psi = build_example("VIB", d=d, lam=lam_w)
        rho = psi.density()
        _, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        linf = ergodic_projector(lam).reshape(3, 3, 3, 3)
        d_a = 3
        t = rho.mat.reshape(d_a, 6, d_a, 6)
        out = np.einsum("klmn,mxny->kxly", linf, t).reshape(18, 18)
        p0 = np.zeros((3, 3))
        p0[0, 0] = 1.0
        pi1 = (np.eye(3) - p0) / d
        phi_bc = np.zeros(6)
        for k in range(1, d + 1):
            phi_bc[k * d + (k - 1)] = 1 / np.sqrt(d)
        b0 = np.zeros((3, 3))
        b0[0, 0] = 1.0
        expect = (lam_w * np.kron(pi1, np.kron(b0, np.eye(2) / d))
                  + (1 - lam_w) * np.kron(p0, np.outer(phi_bc, phi_bc)))
        assert np.max(np.abs(out - expect)) <= 1e-9

    def test_layout_mismatch(self, rng):
        rho = random_density(layout(("X", 2)), rng)
        ch = KrausChannel(layout(("A", 2)), layout(("A", 2)), [np.eye(2)])
        with pytest.raises(ValidationError):
            apply_channel(ch, rho)
