import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov.channels import (
    KrausChannel,
    _commutant_of_family,
    apply_channel,
    channel_E,
    completeness,
    ergodic_projector,
    petz_channel,
    reshuffle,
    transfer_matrices,
)
from qmarkov.entropy import trace_norm
from qmarkov.linalg import (
    DensityOp,
    Eigenpairs,
    SystemLayout,
    ValidationError,
    is_hermitian,
    layout,
    marginal,
    partial_trace,
    permute_mat,
    random_density,
    random_pure,
)
from qmarkov.markov import build_example, recovery_check
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
