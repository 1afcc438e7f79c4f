from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import channels, kidec
from qmarkov.kidec import (
    KI_ATTEMPTS,
    KIBlock,
    KIDecomposition,
    ki_decompose,
    ki_tripartite,
    validate_ki,
)
from qmarkov.linalg import (
    DensityOp,
    DimensionError,
    IsometryOp,
    PureVec,
    SystemLayout,
    ValidationError,
    haar_unitary,
    layout,
    marginal,
    partial_trace,
    random_density,
    random_pure,
)
from qmarkov.entropy import ProbDist
from qmarkov.markov import (
    TWO_ROUTE_TOL,
    bounds_check,
    build_example,
    markov_decomposition,
    mixed_with_product,
)
from qmarkov.reference import BlockEntry


@pytest.fixture
def rng():
    return np.random.default_rng(777)


def maxent_op(d):
    v = np.zeros(d * d)
    for k in range(d):
        v[k * d + k] = 1 / np.sqrt(d)
    return DensityOp(layout(("A", d), ("C", d)), np.outer(v, v))


def block_signature(dec):
    return sorted((round(b.p, 6), b.dim_l, b.dim_r) for b in dec.blocks)


class TestKiDecompose:
    def test_product_full_rank(self, rng):
        rho = random_density(layout(("A", 3)), rng)
        sig = random_density(layout(("C", 2)), rng)
        joint = DensityOp(layout(("A", 3), ("C", 2)), np.kron(rho.mat, sig.mat))
        dec = ki_decompose(joint, ["A"], ["C"], rng=rng)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dim_l, blk.dim_r) == (3, 1)
        assert blk.p == pytest.approx(1.0, abs=1e-9)
        # the redundant factor carries rho (up to the internal basis)
        assert np.allclose(sorted(np.linalg.eigvalsh(blk.omega.mat)),
                           sorted(np.linalg.eigvalsh(rho.mat)), atol=1e-9)
        assert np.allclose(sorted(np.linalg.eigvalsh(blk.phi.mat)),
                           sorted(np.linalg.eigvalsh(sig.mat)), atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_entangled(self, d, rng):
        dec = ki_decompose(maxent_op(d), ["A"], ["C"], rng=rng)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dim_l, blk.dim_r) == (1, d)
        # the quantum factor carries the whole entangled state, up to the
        # internal basis choice: pure, with maximally mixed marginals
        purity = np.trace(blk.phi.mat @ blk.phi.mat).real
        assert purity == pytest.approx(1.0, abs=1e-8)
        for side in ("aR", "C"):
            red = partial_trace(blk.phi, [side]).mat
            assert np.max(np.abs(red - np.eye(d) / d)) <= 1e-8
        # the block keeps its aR marginal: traced once, the same object after
        assert np.array_equal(blk.phi_ar.mat, partial_trace(blk.phi, ["aR"]).mat)
        assert blk.phi_ar is blk.phi_ar

    def test_two_sector_family(self, rng):
        psi = build_example("VIB", d=2, lam=0.5)
        dec = ki_decompose(marginal(psi, ["A", "C"]), ["A"], ["C"], rng=rng)
        assert block_signature(dec) == [(0.5, 1, 1), (0.5, 1, 2)]
        # ordering: equal weights break toward the larger quantum factor
        assert dec.blocks[0].dim_r == 2

    def test_rank_partition(self, rng):
        for psi in (build_example("VIB", d=2, lam=0.3),
                    build_example("VIA", d=2, lam=0.7)):
            rho_ac = marginal(psi, ["A", "C"])
            dec = ki_decompose(rho_ac, ["A"], ["C"], rng=rng)
            rank = np.sum(np.linalg.eigvalsh(marginal(psi, ["A"]).mat) > 1e-10)
            assert sum(b.dim_l * b.dim_r for b in dec.blocks) == rank
            assert sum(b.p for b in dec.blocks) == pytest.approx(1.0, abs=1e-9)

    def test_rank_one_marginal(self, rng):
        psi = build_example("VIB", d=2, lam=0.0)
        dec = ki_decompose(marginal(psi, ["A", "C"]), ["A"], ["C"], rng=rng)
        assert block_signature(dec) == [(1.0, 1, 1)]

    def test_local_unitary_invariance(self, rng):
        psi = build_example("VIB", d=2, lam=0.35)
        st = marginal(psi, ["A", "C"])
        dec1 = ki_decompose(st, ["A"], ["C"], rng=rng)
        u = haar_unitary(3, rng)
        big = np.kron(u, np.eye(2))
        rotated = DensityOp(st.layout, big @ st.mat @ big.conj().T)
        dec2 = ki_decompose(rotated, ["A"], ["C"], rng=rng)
        assert block_signature(dec1) == block_signature(dec2)

    def test_mixing_invariance_of_blocks(self, rng):
        base = build_example("VIB", d=2, lam=0.5)
        sig = random_density(layout(("C", 2)), rng)
        dec0 = ki_decompose(marginal(base, ["A", "C"]), ["A"], ["C"], rng=rng)
        spectra0 = [sorted(np.linalg.eigvalsh(b.omega.mat)) for b in dec0.blocks]
        for lam_mix in (0.3, 0.7):
            mixed = mixed_with_product(base, lam_mix, sig)
            st = marginal(mixed, ["A", "C"])
            dec = ki_decompose(st, ["A"], ["C"], rng=rng)
            assert block_signature(dec) == block_signature(dec0)
            spectra = [sorted(np.linalg.eigvalsh(b.omega.mat)) for b in dec.blocks]
            for s0, s1 in zip(spectra0, spectra):
                assert np.allclose(s0, s1, atol=1e-6)

    def test_block_preserving_rotations_fix_the_state(self, rng):
        # unitaries of the block form (phases x within-block rotations
        # commuting with the redundant state) leave the input invariant
        psi = build_example("VIB", d=2, lam=0.5)
        st = marginal(psi, ["A", "C"])
        dec = ki_decompose(st, ["A"], ["C"], rng=rng)
        d_a = 3
        gt = dec.gamma_total
        p_supp = dec.support @ dec.support.conj().T
        d_a0, d_al, d_ar = dec.dims
        for _ in range(20):
            blockdiag = np.zeros((d_a0 * d_al * d_ar,) * 2, dtype=np.complex128)
            for blk in dec.blocks:
                phase = np.exp(2j * np.pi * rng.random())
                w_vals, w_vecs = np.linalg.eigh(blk.omega.mat)
                u_l = w_vecs @ np.diag(np.exp(2j * np.pi * rng.random(blk.dim_l))) \
                    @ w_vecs.conj().T
                block = phase * np.kron(u_l, np.eye(blk.dim_r))
                j = blk.index
                sl = slice(j * d_al * d_ar, j * d_al * d_ar + blk.dim_l * blk.dim_r)
                pad = np.zeros((d_al * d_ar, blk.dim_l * blk.dim_r))
                for mu in range(blk.dim_l):
                    for q in range(blk.dim_r):
                        pad[mu * d_ar + q, mu * blk.dim_r + q] = 1.0
                blockdiag[j * d_al * d_ar:(j + 1) * d_al * d_ar,
                          j * d_al * d_ar:(j + 1) * d_al * d_ar] = (
                    pad @ block @ pad.conj().T)
            v = gt.conj().T @ blockdiag @ gt + (np.eye(d_a) - p_supp)
            big = np.kron(v, np.eye(2))
            assert np.max(np.abs(big @ st.mat @ big.conj().T - st.mat)) <= 1e-8


class TestIdentitySemantics:
    """Frozen dataclasses with array fields compare and hash by identity:
    the generated field-wise == would compare arrays."""

    def test_decompositions(self):
        rho = marginal(build_example("VIB", d=2, lam=0.3), ["A", "C"])
        first, second = ki_decompose(rho), ki_decompose(rho)
        assert (first.blocks == second.blocks) is False
        assert (first == second) is False and (first == first) is True
        parts = [first, first.gamma, *first.blocks, first.blocks[0].omega]
        assert len({*parts, second, *second.blocks}) == len(parts) + 1 + len(second.blocks)

    def test_every_array_holder(self):
        vib = build_example("VIB", d=2, lam=0.3)
        ups = DensityOp(layout(("A", 2), ("B", 2), ("C", 2)), np.eye(8) / 8)
        makers = [
            lambda: PureVec(vib.layout, vib.vec),
            lambda: DensityOp(layout(("A", 2)), np.eye(2) / 2),
            lambda: IsometryOp(layout(("s", 2)), layout(("t", 2)), np.eye(2)),
            lambda: channels.KrausChannel(layout(("A", 2)), layout(("A", 2)), [np.eye(2)]),
            lambda: ki_tripartite(vib),
            lambda: markov_decomposition(ups),
            lambda: ProbDist([0.5, 0.5]),
            lambda: BlockEntry((0,), 1.0, np.eye(2)),
        ]
        for make in makers:
            x, y = make(), make()
            assert (x == y) is False and (x == x) is True
            assert hash(x) == hash(x)


class TestHardBlockStructures:
    """Block layouts beyond the closed-form families: redundant factors of
    dimension above one, alone and mixed with quantum blocks."""

    @pytest.fixture
    def pieces(self, rng):
        om = random_density(layout(("L", 2)), rng).mat
        sig = random_density(layout(("C", 2)), rng).mat
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        return om, sig, np.outer(phi, phi)

    def test_redundant_plus_quantum_blocks(self, pieces, rng):
        om, sig, ent = pieces
        mat = np.zeros((8, 8), dtype=complex)
        mat[:4, :4] = 0.6 * np.kron(om, sig)
        mat[4:, 4:] = 0.4 * ent
        st = DensityOp(layout(("A", 4), ("C", 2)), mat)
        dec = ki_decompose(st, ["A"], ["C"], rng=rng)
        assert block_signature(dec) == [(0.4, 1, 2), (0.6, 2, 1)]
        assert validate_ki(dec, st).ok()

    def test_joint_redundant_and_quantum_factor(self, pieces, rng):
        # one block carrying both: a 2-dim redundant factor tensored with
        # an entangled quantum factor
        om, _, ent = pieces
        st = DensityOp(layout(("A", 4), ("C", 2)), np.kron(om, ent))
        dec = ki_decompose(st, ["A"], ["C"], rng=rng)
        assert block_signature(dec) == [(1.0, 2, 2)]
        assert np.allclose(sorted(np.linalg.eigvalsh(dec.blocks[0].omega.mat)),
                           sorted(np.linalg.eigvalsh(om)), atol=1e-8)
        assert validate_ki(dec, st).ok()

    def test_joint_factor_with_hidden_basis(self, pieces, rng):
        om, _, ent = pieces
        mat = np.kron(om, ent)
        u = haar_unitary(4, rng)
        big = np.kron(u, np.eye(2))
        st = DensityOp(layout(("A", 4), ("C", 2)), big @ mat @ big.conj().T)
        dec = ki_decompose(st, ["A"], ["C"], rng=rng)
        assert block_signature(dec) == [(1.0, 2, 2)]
        assert validate_ki(dec, st).ok()

    def test_three_block_mixture(self, pieces, rng):
        om, sig, ent = pieces
        tail = random_density(layout(("C", 2)), rng).mat
        mat = np.zeros((10, 10), dtype=complex)
        mat[:4, :4] = 0.5 * np.kron(om, sig)
        mat[4:8, 4:8] = 0.3 * ent
        mat[8:, 8:] = 0.2 * tail
        st = DensityOp(layout(("A", 5), ("C", 2)), mat)
        dec = ki_decompose(st, ["A"], ["C"], rng=rng)
        assert block_signature(dec) == [(0.2, 1, 1), (0.3, 1, 2), (0.5, 2, 1)]
        assert validate_ki(dec, st).ok()


# (dim_l, dim_r) per block: a 1x1 block, redundant factors alone, quantum
# factors alone, and both in one block
PLANTED = ((1, 1), (2, 2), (1, 2), (2, 1), (3, 1))


def planted_state(seed):
    """sum_j p_j omega_j (x) phi_j over the PLANTED blocks of A (dimension 12)
    against a qubit C, in a Haar-random basis of A; returns the state and
    its block signature."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(len(PLANTED)))
    d_a, d_c = sum(dl * dr for dl, dr in PLANTED), 2
    tens = np.zeros((d_a, d_c, d_a, d_c), dtype=np.complex128)
    start = 0
    for pj, (dl, dr) in zip(p, PLANTED):
        omega = random_density(layout(("L", dl)), rng).mat
        phi = random_density(layout(("R", dr), ("C", d_c)), rng).mat
        stop = start + dl * dr
        tens[start:stop, :, start:stop, :] = pj * np.kron(omega, phi).reshape(
            stop - start, d_c, stop - start, d_c)
        start = stop
    big = np.kron(haar_unitary(d_a, rng), np.eye(d_c))
    mat = tens.reshape(d_a * d_c, -1)
    state = DensityOp(layout(("A", d_a), ("C", d_c)), big @ mat @ big.conj().T)
    sig = sorted((round(pj, 6), dl, dr) for pj, (dl, dr) in zip(p, PLANTED))
    return state, sig


class TestOneDraw:
    """Each attempt reads the blocks off one Hermitian and one general random
    element of the commutant; the answer must not depend on the draw."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    def test_structure_independent_of_draw(self, state_seed, draw_seed):
        state, sig = planted_state(state_seed)
        dec = ki_decompose(state, ["A"], ["C"], rng=np.random.default_rng(draw_seed))
        assert block_signature(dec) == sig
        assert validate_ki(dec, state).ok()

    @pytest.fixture
    def draws(self, monkeypatch):
        """Stub for _random_in_span: ``calls`` records the hermitian flag of
        every draw, and the first ``fail`` draws return zero, a fully
        degenerate element."""
        draws = SimpleNamespace(calls=[], fail=0)
        real = kidec._random_in_span

        def draw(basis, rng, hermitian):
            draws.calls.append(hermitian)
            if len(draws.calls) <= draws.fail:
                return np.zeros_like(basis[0])
            return real(basis, rng, hermitian)
        monkeypatch.setattr(kidec, "_random_in_span", draw)
        return draws

    def test_one_attempt_two_draws(self, draws, rng):
        state, sig = planted_state(0)
        dec = ki_decompose(state, ["A"], ["C"], rng=rng)
        assert draws.calls == [True, False]
        assert block_signature(dec) == sig

    def test_degenerate_draw_redrawn(self, draws, rng):
        state, sig = planted_state(1)
        draws.fail = 2
        dec = ki_decompose(state, ["A"], ["C"], rng=rng)
        assert draws.calls == [True, False] * 2
        assert block_signature(dec) == sig
        assert validate_ki(dec, state).ok()

    def test_always_degenerate_raises(self, draws, rng):
        state, _ = planted_state(2)
        draws.fail = 2 * KI_ATTEMPTS
        with pytest.raises(ValidationError,
                           match=f"failed after {KI_ATTEMPTS} attempts: random commutant"):
            ki_decompose(state, ["A"], ["C"], rng=rng)
        assert len(draws.calls) == 2 * KI_ATTEMPTS


class TestValidateKi:
    @pytest.mark.parametrize("name", ["product", "maxent2", "maxent3", "VIA", "VIB"])
    def test_families_pass(self, name, rng):
        if name == "product":
            rho = random_density(layout(("A", 2)), rng)
            sig = random_density(layout(("C", 2)), rng)
            st = DensityOp(layout(("A", 2), ("C", 2)), np.kron(rho.mat, sig.mat))
        elif name.startswith("maxent"):
            st = maxent_op(int(name[-1]))
        elif name == "VIA":
            st = marginal(build_example("VIA", d=2, lam=0.6), ["A", "C"])
        else:
            st = marginal(build_example("VIB", d=2, lam=0.5), ["A", "C"])
        dec = ki_decompose(st, ["A"], ["C"], rng=rng)
        rep = validate_ki(dec, st)
        assert rep.ok(), rep

    def test_merged_blocks_flagged(self, rng):
        # gluing the two true sectors into one claimed block must trip the
        # irreducibility check: the sliced family then has a 2-dim commutant
        st = marginal(build_example("VIC", lam=(0.5, 0.5)), ["A", "C"])
        gamma = IsometryOp(SystemLayout([("suppA", 2)]),
                           SystemLayout([("a0", 1), ("aL", 1), ("aR", 2)]),
                           np.eye(2, dtype=np.complex128))
        phi = DensityOp(SystemLayout([("aR", 2), ("C", 2)]), st.mat)
        omega = DensityOp(SystemLayout([("aL", 1)]), np.eye(1))
        merged = KIDecomposition(
            gamma, np.eye(2, dtype=np.complex128),
            (KIBlock(0, 1.0, 1, 2, omega, phi),), (1, 1, 2),
            layout(("A", 2)), layout(("C", 2)))
        rep = validate_ki(merged, st)
        assert rep.irreducibility_residual > 1e-7

    def test_identity_isometry_on_product(self, rng):
        # the trivial decomposition of a product state validates as-is
        rho = random_density(layout(("A", 2)), rng)
        sig = random_density(layout(("C", 2)), rng)
        st = DensityOp(layout(("A", 2), ("C", 2)), np.kron(rho.mat, sig.mat))
        gamma = IsometryOp(SystemLayout([("suppA", 2)]),
                           SystemLayout([("a0", 1), ("aL", 2), ("aR", 1)]),
                           np.eye(2, dtype=np.complex128))
        dec = KIDecomposition(
            gamma, np.eye(2, dtype=np.complex128),
            (KIBlock(0, 1.0, 2, 1,
                     DensityOp(SystemLayout([("aL", 2)]), rho.mat),
                     DensityOp(SystemLayout([("aR", 1), ("C", 2)]), sig.mat)),),
            (1, 2, 1), layout(("A", 2)), layout(("C", 2)))
        rep = validate_ki(dec, st)
        assert rep.ok(), rep

    def test_complex_claim_on_real_state(self, rng):
        # a real state under a real isometry, claimed as complex block
        # states: the residual is formed in the claim's field and measures
        # the whole mismatch, imaginary parts included
        rho = random_density(layout(("A", 2)), rng)
        sig = random_density(layout(("C", 2)), rng)
        st = DensityOp(layout(("A", 2), ("C", 2)), np.kron(rho.mat.real, sig.mat.real))
        gamma = IsometryOp(SystemLayout([("suppA", 2)]),
                           SystemLayout([("a0", 1), ("aL", 2), ("aR", 1)]), np.eye(2))
        dec = KIDecomposition(
            gamma, np.eye(2),
            (KIBlock(0, 1.0, 2, 1,
                     DensityOp(SystemLayout([("aL", 2)]), rho.mat),
                     DensityOp(SystemLayout([("aR", 1), ("C", 2)]), sig.mat)),),
            (1, 2, 1), layout(("A", 2)), layout(("C", 2)))
        rep = validate_ki(dec, st)
        assert st.mat.dtype == np.float64
        assert rep.reconstruction_residual == pytest.approx(
            np.linalg.norm(np.kron(rho.mat, sig.mat) - st.mat), rel=1e-12)

    @pytest.mark.parametrize("p, flagged", [(0.5, True), (0.501, False)])
    def test_equal_weight_blocks_intertwined(self, p, flagged, rng):
        # diag(p, 1-p) (x) sigma_C claimed as two 1 x 1 blocks: at p = 1/2 the
        # two blocks carry the same weighted state, so a swap intertwines them
        # and they belong in one redundant factor
        sig = random_density(layout(("C", 2)), rng)
        st = DensityOp(layout(("A", 2), ("C", 2)), np.kron(np.diag([p, 1 - p]), sig.mat))
        gamma = IsometryOp(SystemLayout([("suppA", 2)]),
                           SystemLayout([("a0", 2), ("aL", 1), ("aR", 1)]),
                           np.eye(2, dtype=np.complex128))
        omega = DensityOp(SystemLayout([("aL", 1)]), np.eye(1))
        phi = DensityOp(SystemLayout([("aR", 1), ("C", 2)]), sig.mat)
        dec = KIDecomposition(
            gamma, np.eye(2, dtype=np.complex128),
            (KIBlock(0, p, 1, 1, omega, phi), KIBlock(1, 1 - p, 1, 1, omega, phi)),
            (2, 1, 1), layout(("A", 2)), layout(("C", 2)))
        rep = validate_ki(dec, st)
        assert max(rep.reconstruction_residual, rep.isometry_residual,
                   rep.irreducibility_residual) <= 1e-12, rep
        if flagged:
            assert rep.cross_block_residual > 1e-7, rep
            assert not rep.ok()
        else:
            assert rep.ok(), rep

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    @pytest.mark.parametrize("family", ["VIC(1-2e,e,e)", "VIB(2,1/2)xVIC(1-e,e)"])
    def test_small_weight_blocks_validate(self, family, eps, rng):
        # blocks of weight eps next to a block of weight ~1: each pair of
        # blocks is solved on its own, so the rank rule scales with that
        # pair's weights and no cross-block intertwiner is invented
        if family.startswith("VIC"):
            st = marginal(build_example("VIC", lam=(1 - 2 * eps, eps, eps)), ["A", "C"])
            a, c = ["A"], ["C"]
        else:
            vib = marginal(build_example("VIB", d=2, lam=0.5), ["A", "C"])
            vic = marginal(build_example("VIC", lam=(1 - eps, eps)), ["A", "C"])
            st = DensityOp(layout(("A", 3), ("C", 2), ("A2", 2), ("C2", 2)),
                           np.kron(vib.mat, vic.mat))
            a, c = ["A", "A2"], ["C", "C2"]
        dec = ki_decompose(st, a, c, rng=rng)
        rep = validate_ki(dec, st)
        assert rep.ok(), rep


class TestTripartite:
    def test_ghz_blocks(self, rng):
        psi = build_example("VIC", lam=(0.5, 0.5))
        tki = ki_tripartite(psi, rng=rng)
        assert tki.residual <= 1e-7
        assert [(b.dim_l, b.dim_r) for b in tki.blocks] == [(1, 1), (1, 1)]
        # each quantum-factor purification pins the matching C basis state
        for j, blk in enumerate(tki.blocks):
            phi = tki.purified_blocks[j][1]
            c_marg = partial_trace(phi.density(), ["C"]).mat
            assert abs(c_marg[blk.index, blk.index] - 1.0) <= 1e-8 or \
                abs(c_marg[1 - blk.index, 1 - blk.index] - 1.0) <= 1e-8

    def test_product_state(self, rng):
        vec = np.zeros(8)
        vec[0] = 1.0
        psi = PureVec(layout(("A", 2), ("B", 2), ("C", 2)), vec)
        tki = ki_tripartite(psi, rng=rng)
        assert len(tki.blocks) == 1
        blk = tki.blocks[0]
        assert (blk.dim_l, blk.dim_r) == (1, 1)
        assert tki.b_dims == (1, 1, 1)

    def test_random_round_trip(self, rng):
        for _ in range(5):
            psi = random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng)
            tki = ki_tripartite(psi, rng=rng)
            assert tki.residual <= 1e-7

    def test_reconstruction_matches_state(self, rng):
        # the block form purifies the A-side image of the AC marginal, and
        # a B-side isometry maps the state onto it (Uhlmann), up to the
        # fit residual
        psi = build_example("VIB", d=2, lam=0.5)
        tki = ki_tripartite(psi, rng=rng)
        big = np.kron(tki.base.gamma_total, np.eye(2))
        mapped = big @ marginal(psi, ["A", "C"]).mat @ big.conj().T
        ki_ac = partial_trace(tki.ki_pure_state().density(), ["a0", "aL", "aR", "C"])
        assert np.max(np.abs(ki_ac.mat - mapped)) <= 1e-8
        assert tki.residual <= 1e-7

    def test_b_side_marginal_form(self, rng):
        # the BC marginal of the decomposed state is the mirrored block
        # form: weights, then the B-side redundant state, then the B-side
        # quantum factor with C; it has the spectrum of the state's BC
        # marginal, which the fitted B-side isometry maps onto it
        psi = build_example("VIB", d=2, lam=0.5)
        tki = ki_tripartite(psi, rng=rng)
        out = partial_trace(tki.ki_pure_state().density(), ["b0", "bL", "bR", "C"]).mat
        got, want = np.linalg.eigvalsh(out), marginal(psi, ["B", "C"]).spectrum
        n = max(len(got), len(want))
        assert np.max(np.abs(np.pad(got, (n - len(got), 0))
                             - np.pad(want, (n - len(want), 0)))) <= 1e-8
        assert tki.residual <= 1e-8
        d_b0, d_bl, d_br = tki.b_dims
        tens = out.reshape(d_b0, d_bl, d_br, 2, d_b0, d_bl, d_br, 2)
        model = np.zeros_like(tens)
        for j, blk in enumerate(tki.blocks):
            om, ph = tki.purified_blocks[j]
            om_b = partial_trace(om.density(), ["bL"]).mat
            ph_bc = partial_trace(ph.density(), ["bR", "C"]).mat
            bl, br = om_b.shape[0], ph_bc.shape[0] // 2
            model[j, :bl, :br, :, j, :bl, :br, :] = blk.p * np.einsum(
                "ab,rcsd->arcbsd", om_b, ph_bc.reshape(br, 2, br, 2))
        assert np.max(np.abs(tens - model)) <= 1e-8

    def test_noise_window_returns_values(self):
        # complex noise of size 3e-11 on VIB(2, 0.2), which a pseudo-inverse
        # of the state's blocks scales up by 1e4-1e5: the polar factor stays
        # isometric, and both routes give the same cost
        psi = build_example("VIB", d=2, lam=0.2)
        noise = np.random.default_rng(0)
        for _ in range(3):
            v = psi.vec + 3e-11 * (noise.standard_normal(psi.vec.shape)
                                   + 1j * noise.standard_normal(psi.vec.shape))
            noisy = PureVec(psi.layout, v / np.linalg.norm(v))
            assert ki_tripartite(noisy, rng=np.random.default_rng(1)).residual <= 1e-8
            rep = bounds_check(noisy, rng=np.random.default_rng(1))
            assert rep.m_algorithm is not None
            assert abs(rep.m_formula - rep.m_algorithm) <= TWO_ROUTE_TOL

    @pytest.mark.parametrize("weight", [1e-9, 1e-11])
    def test_faint_b_mode_kept(self, weight):
        # a faint third B level; at weight 1e-11 it lies below RANK_RTOL in
        # rho_B but above the purifier cutoff: supp(B) takes the block form's
        # rank, so the fit keeps that mode instead of losing sqrt(weight)
        amps = np.random.default_rng(3).standard_normal((2, 2, 2, 2)) @ [1, 1j]
        t = np.zeros((2, 3, 2), dtype=np.complex128)
        t[:, :2, :] = np.sqrt(1 - weight) * amps / np.linalg.norm(amps)
        t[0, 2, 1] = np.sqrt(weight)
        tki = ki_tripartite(PureVec(layout(("A", 2), ("B", 3), ("C", 2)), t.reshape(-1)))
        ranks = [(om.layout.dim_of(["bL"]), ph.layout.dim_of(["bR"]))
                 for om, ph in tki.purified_blocks]
        assert sum(bl * br for bl, br in ranks) == 3
        assert tki.residual <= 1e-8

    def test_residual_gate_rejects_a_wrong_target(self, monkeypatch, rng):
        psi = build_example("VIB", d=2, lam=0.3)
        ki_pure = kidec._ki_pure

        def swapped_weights(base, purified, b_dims):
            b0, b1 = base.blocks
            blocks = (replace(b0, p=b1.p), replace(b1, p=b0.p))
            return ki_pure(replace(base, blocks=blocks), purified, b_dims)

        monkeypatch.setattr(kidec, "_ki_pure", swapped_weights)
        with pytest.raises(ValidationError, match="B-side isometry residual"):
            ki_tripartite(psi, rng=rng)

    def test_any_valid_target_fits(self, monkeypatch, rng):
        # relabelling b0 is another valid Gamma', so the fit stays exact
        psi = build_example("VIB", d=2, lam=0.3)
        ki_pure = kidec._ki_pure

        def reversed_b0(base, purified, b_dims):
            out = ki_pure(base, purified, b_dims)
            t = out.vec.reshape(*base.dims, *b_dims, -1)
            return PureVec(out.layout, t[:, :, :, ::-1].reshape(-1))

        monkeypatch.setattr(kidec, "_ki_pure", reversed_b0)
        assert ki_tripartite(psi, rng=rng).residual <= 1e-13


class TestCommutantCap:
    """The commutant solve is bounded before it starts: np.kron, and
    np.linalg.eigh on more rows than the cap admits unknowns, are patched to
    fail, so an uncapped solve fails fast instead of building and
    eigensolving a d² x d² Gram matrix.  The state's own eigensolves, of at
    most d_A·d_C rows, still run."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def kron(*args):
            raise AssertionError("np.kron called: the commutator system was built")

        def eigh(m, *args, _eigh=np.linalg.eigh, **kwargs):
            if np.shape(m)[-1] > channels.COMMUTANT_UNKNOWNS_CAP:
                raise AssertionError("the commutator Gram matrix was eigensolved")
            return _eigh(m, *args, **kwargs)
        monkeypatch.setattr(np, "kron", kron)
        monkeypatch.setattr(np.linalg, "eigh", eigh)

    def test_oversized_family_rejected(self):
        # one generator at d = 64, whose 4096 real unknowns are twice the cap
        with pytest.raises(DimensionError, match="2 operators at dimension 64"):
            channels._commutant_of_family([np.eye(64)])

    def test_ki_decompose_rejects_oversized_a(self, rng):
        # full-rank A of dimension 64 against a qubit C: 8 family members
        rho = random_density(layout(("A", 64), ("C", 2)), rng)
        with pytest.raises(DimensionError, match="4096 real unknowns > cap 2048"):
            ki_decompose(rho, ["A"], ["C"])
