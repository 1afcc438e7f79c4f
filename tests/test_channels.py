import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import channels, linalg, markov
from qmarkov.channels import (
    KrausChannel,
    _commutant_of_family,
    _ergodic_basis,
    _omega_inf,
    _split_pure,
    apply_channel,
    channel_E,
    completeness,
    ergodic_projector,
    petz_channel,
    reshuffle,
    transfer_matrices,
)
from qmarkov.entropy import binary_entropy, trace_norm
from qmarkov.linalg import (
    DensityOp,
    DimensionError,
    Eigenpairs,
    PureVec,
    SystemLayout,
    ValidationError,
    haar_unitary,
    is_hermitian,
    layout,
    marginal,
    partial_trace,
    permute_mat,
    random_density,
    random_pure,
)
from qmarkov.markov import build_example, markov_cost_algorithm, recovery_check
from qmarkov.reference import cesaro_average


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

    @pytest.mark.parametrize("lam", [1e-9, 1e-8])
    def test_completeness_with_a_faint_ac_mode(self, lam, rng):
        # Psi_AC has a mode of weight 1e-15, below SQRT_RTOL of the largest,
        # and Psi_A's small eigenvalue lam comes mostly from another mode:
        # sqrt(Psi_AC) and Psi_A must keep or drop that mode together, or
        # the Kraus sum misses the projector by 1e-15 / lam
        t = np.zeros((2, 3, 2))  # (A, B, C)
        t[0, 0, 0] = np.sqrt(0.6)
        t[0, 1, 1] = np.sqrt(0.4 - lam)
        t[1, 1, 0] = np.sqrt(lam)
        t[1, 2, 1] = np.sqrt(1e-15)
        t = np.einsum("ia,jb,kc,abc->ijk", haar_unitary(2, rng), haar_unitary(3, rng),
                      haar_unitary(2, rng), t / np.linalg.norm(t))
        psi = PureVec(layout(("A", 2), ("B", 3), ("C", 2)), t.reshape(-1))
        ch = channel_E(marginal(psi, ["A", "C"]), ["A"], ["C"])
        vals = np.linalg.eigvalsh(completeness(ch.kraus))
        assert np.max(np.abs(vals - 1.0)) <= 1e-9

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
        s = Eigenpairs.of(rho_a.mat).sqrt()
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
    t_ac = Eigenpairs.of(rho_ac.mat).sqrt().reshape(d_a, d_c, d_a, d_c)
    t2 = np.einsum("krms,nslr->klmn", t_ac, t_ac).reshape(d_a * d_a, d_a * d_a)
    inv_s = Eigenpairs.of(partial_trace(rho_ac, ["A"]).mat).inv_sqrt()
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
        s = Eigenpairs.of(partial_trace(rho_ac, ["A"]).mat).sqrt()
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



def _rotated(vec: np.ndarray, dims: tuple[int, int, int], rng) -> PureVec:
    """vec on A (x) B (x) C under independent Haar-random unitaries of the
    three factors."""
    t = vec.reshape(dims)
    for axis, d in enumerate(dims):
        t = np.moveaxis(np.tensordot(haar_unitary(d, rng), t, axes=(1, axis)), 0, axis)
    return PureVec(layout(*zip("ABC", dims)), t.reshape(-1))


@st.composite
def rotated_families(draw):
    """VIA, VIB, VIC or VIB (x) VIB (A = A1 A2, and so on) under random
    complex local unitaries: T undergoes a unitary similarity, so the
    spectral route still applies."""
    kind = draw(st.sampled_from(["VIA", "VIB", "VIC", "VIBxVIB"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "VIA":
        d = draw(st.integers(2, 3))
        psi = build_example("VIA", d=d, lam=draw(st.floats(1.0 / d ** 2, 1.0)))
    elif kind == "VIB":
        psi = build_example("VIB", d=draw(st.integers(1, 3)), lam=draw(st.floats(0.0, 1.0)))
    elif kind == "VIC":
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4)))
        psi = build_example("VIC", lam=w / np.sum(w))
    else:
        v1, v2 = (build_example("VIB", d=2, lam=draw(st.floats(0.05, 0.95))).vec
                  for _ in range(2))
        v = np.kron(v1, v2).reshape(3, 3, 2, 3, 3, 2).transpose(0, 3, 1, 4, 2, 5)
        return _rotated(v.reshape(-1), (9, 9, 4), rng)
    return _rotated(psi.vec, psi.layout.dims, rng)


class TestOneHermiticityCheck:
    """The spectral route decides whether T is Hermitian once, in
    channels._ergodic_basis, and ergodic_projector refuses exactly there."""

    def test_markov_knows_nothing_of_t(self):
        for name in ("_transfer", "_ergodic_basis", "reshuffle", "is_hermitian",
                     "HERMITICITY_GATE"):
            assert not hasattr(markov, name), name
        assert not hasattr(channels, "TRANSFER_HERM_TOL")

    def test_spectral_route_checks_once_without_t1(self, monkeypatch):
        shapes = []
        check = linalg.is_hermitian

        def counted(m, tol=linalg.HERM_TOL):
            shapes.append(np.shape(m))
            return check(m, tol)

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called")

        for module in (linalg, channels):
            monkeypatch.setattr(module, "is_hermitian", counted)
        monkeypatch.setattr(np, "kron", no_kron)
        cost = markov_cost_algorithm(build_example("VIB", d=2, lam=0.3))
        assert shapes.count((9, 9)) == 1
        assert cost == pytest.approx(binary_entropy(0.3) + 0.6, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(rotated_families())
    def test_omega_inf_is_reshuffled_p_t1(self, psi):
        d_a = psi.layout.dims[0]
        t1, t = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        got = _omega_inf(_split_pure(psi, ["A"], ["C"]))
        if got is None:
            # T is Hermitian in exact arithmetic, but near a rank drop of
            # Psi_A (VIB at lambda ~ 1e-9..1e-7) Psi_A^(-1/2) lifts round-off
            # past the gate; the route and ergodic_projector refuse together
            with pytest.raises(ValidationError, match="^transfer matrix is not Hermitian"):
                ergodic_projector(t)
            return
        expected = reshuffle(ergodic_projector(t) @ t1, d_a)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_gate_refuses_small_asymmetry(self):
        psi = build_example("VIB", d=2, lam=0.5)
        _, t = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        assert is_hermitian(t, tol=1e-12)
        g = np.random.default_rng(3).standard_normal(t.shape)
        skew = g - g.T
        tm = t + skew * (5e-9 / np.max(np.abs(2 * skew)))
        assert np.max(np.abs(tm - tm.conj().T)) == pytest.approx(5e-9, rel=1e-6)
        assert _ergodic_basis(tm) is None
        with pytest.raises(ValidationError, match="^transfer matrix is not Hermitian; "
                                                  "ergodic projector undefined$"):
            ergodic_projector(tm)


class TestKrausChannel:
    def test_family_is_one_array(self):
        psi = build_example("VIB", d=2, lam=0.5)
        ch = channel_E(marginal(psi, ["A", "C"]), ["A"], ["C"])
        assert isinstance(ch.kraus, np.ndarray) and ch.kraus.shape == (4, 3, 3)
        assert len(ch.kraus) == 4 and len(list(ch.kraus)) == 4
        assert np.array_equal(ch.kraus[1], list(ch.kraus)[1])

    @pytest.mark.parametrize("family", [[np.eye(3)], [np.eye(2), np.eye(3)],
                                        [np.eye(2), np.ones(2)]])
    def test_misshaped_or_ragged_family_rejected(self, family):
        with pytest.raises(DimensionError, match=r"^Kraus shape \(\d+,( \d+)?\) != \(2, 2\)$"):
            KrausChannel(layout(("A", 2)), layout(("A", 2)), family)

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
        assert len(_commutant_of_family(ch.kraus)) == 9

    def test_depolarizing_scalars_only(self):
        ch = channel_E(maxent_op(2), ["A"], ["C"])
        basis = _commutant_of_family(ch.kraus)
        assert len(basis) == 1
        x = basis[0]
        assert np.max(np.abs(x - np.trace(x) / 2 * np.eye(2))) <= 1e-9

    def test_two_sector_channel(self):
        psi = build_example("VIB", d=2, lam=0.5)
        ch = channel_E(marginal(psi, ["A", "C"]), ["A"], ["C"])
        basis = _commutant_of_family(ch.kraus)
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
        basis = _commutant_of_family(ch.kraus)
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


def apply_per_kraus(ch, rho, output_order=None):
    """The per-Kraus einsum loop apply_channel used before its two stacked
    products: sum_k K_k rho K_k† one operator at a time, as a raw matrix."""
    in_labels = list(ch.in_layout.labels)
    rest = [l for l in rho.layout.labels if l not in set(in_labels)]
    d_in, d_out = ch.in_layout.dim, ch.out_layout.dim
    d_rest = rho.dim // d_in
    m = permute_mat(rho.mat, rho.layout, in_labels).reshape(d_in, d_rest, d_in, d_rest)
    out = np.zeros((d_out, d_rest, d_out, d_rest), dtype=np.complex128)
    for k in ch.kraus:
        km = np.einsum("oi,irjs->orjs", k, m)
        out += np.einsum("orjs,pj->orps", km, k.conj())
    out_layout = ch.out_layout + rho.layout.restrict(rest)
    out = out.reshape(d_out * d_rest, d_out * d_rest)
    if output_order is not None:
        out = permute_mat(out, out_layout, output_order)
    return out


def assert_matches_per_kraus(ch, rho, output_order=None):
    got = apply_channel(ch, rho, output_order)
    want = apply_per_kraus(ch, rho, output_order)
    assert isinstance(got, DensityOp)
    assert np.max(np.abs(got.mat - want)) <= 1e-13 * np.linalg.norm(want)
    return got


@st.composite
def kraus_and_state(draw):
    """A Kraus family of n operators from input factors I* to output factors
    O*, trace preserving on a drawn rank-r subspace S of the input; a random
    state supported on S (x) spectators, over the input factors and up to two
    spectator factors in drawn order; and an output order, None or drawn."""
    in_dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    out_dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    rest_dims = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    in_layout = SystemLayout((f"I{i}", d) for i, d in enumerate(in_dims))
    out_layout = SystemLayout((f"O{i}", d) for i, d in enumerate(out_dims))
    rest_layout = SystemLayout((f"R{i}", d) for i, d in enumerate(rest_dims))
    d_in, d_out = in_layout.dim, out_layout.dim
    r = draw(st.integers(1, d_in))
    n_min = -(-r // d_out)  # the n·d_out rows of V hold r orthonormal columns
    n = draw(st.integers(n_min, n_min + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def isometry(rows, cols):
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(z)[0]
    # K_all = V W†, V an (n d_out) x r isometry, W a d_in x r one: sum K†K = W W†
    w = isometry(d_in, r)
    kraus = (isometry(n * d_out, r) @ w.conj().T).reshape(n, d_out, d_in)
    ch = KrausChannel(in_layout, out_layout, list(kraus))
    joint = in_layout + rest_layout
    proj = np.kron(w @ w.conj().T, np.eye(rest_layout.dim))
    m = proj @ random_density(joint, rng).mat @ proj
    factors = draw(st.permutations(joint.factors))
    labels = [l for l, _ in factors]
    rho = DensityOp(SystemLayout(factors),
                    permute_mat(m / np.trace(m).real, joint, labels))
    order = draw(st.one_of(st.none(), st.permutations(out_layout.labels + rest_layout.labels)))
    return ch, rho, order


def _markov_242(rng):
    """sum_i p_i sigma_i(A) (x) |i><i|(b0) (x) phi_i(bR, C), with B = (b0, bR)."""
    total = np.zeros((16, 16), dtype=np.complex128)
    for i, p in enumerate((0.3, 0.7)):
        e = np.zeros((2, 2))
        e[i, i] = p
        sigma = random_density(layout(("A", 2)), rng).mat
        phi = random_density(layout(("bR", 2), ("C", 2)), rng).mat
        total += np.kron(sigma, np.kron(e, phi))
    return DensityOp(layout(("A", 2), ("B", 4), ("C", 2)), total)


class TestApplyMatchesPerKraus:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(kraus_and_state())
    def test_random_families(self, drawn):
        assert_matches_per_kraus(*drawn)

    @pytest.mark.parametrize("markov", [True, False], ids=["markov", "random"])
    def test_recovery_check_directions(self, markov, rng):
        ups = _markov_242(rng) if markov else random_density(
            layout(("A", 2), ("B", 4), ("C", 2)), rng)
        rho_ab, rho_bc = partial_trace(ups, ["A", "B"]), partial_trace(ups, ["B", "C"])
        order = ["A", "B", "C"]
        got1 = assert_matches_per_kraus(petz_channel(rho_bc, ["B"], ["C"]), rho_ab, order)
        got2 = assert_matches_per_kraus(petz_channel(rho_ab, ["B"], ["A"]), rho_bc, order)
        assert_matches_per_kraus(petz_channel(rho_bc, ["B"], ["C"]), rho_ab)
        assert_matches_per_kraus(petz_channel(rho_ab, ["B"], ["A"]), rho_bc)
        rec = recovery_check(ups)
        assert abs(rec.from_ab - trace_norm(got1.mat - ups.mat)) <= 1e-13
        assert abs(rec.from_bc - trace_norm(got2.mat - ups.mat)) <= 1e-13
        if markov:
            assert max(rec.from_ab, rec.from_bc) <= 1e-10
        else:
            assert min(rec.from_ab, rec.from_bc) > 1e-3
