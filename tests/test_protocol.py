import numpy as np
import pytest

from qmarkov.entropy import qcmi, trace_norm
from qmarkov.kidec import ki_tripartite
from qmarkov.linalg import (
    DensityOp,
    DimensionError,
    PureVec,
    ValidationError,
    partial_trace,
)
from qmarkov.markov import build_example
from qmarkov.protocol import (
    TypicalSpec,
    _apply_blockwise,
    _ki_power,
    a_side_labels,
    average_markov_state,
    b_side_labels,
    build_blocks,
    build_protocol_state,
    c_side_labels,
    min_eig_lower_bound,
    min_nonzero_eigenvalue,
    sample_block_unitary,
    simulate,
    strongly_typical_set,
    typical_mass,
    weakly_typical_set,
)


@pytest.fixture
def rng():
    return np.random.default_rng(60601)


@pytest.fixture(scope="module")
def ghz_tki():
    psi = build_example("VIC", lam=(0.5, 0.5))
    return psi, ki_tripartite(psi, rng=np.random.default_rng(0))


class TestTypicalSets:
    def test_deterministic_distribution(self):
        out = strongly_typical_set([1.0], 5, 0.5)
        assert out == [((0, 0, 0, 0, 0), 1.0)]

    def test_uniform_window(self):
        # |k/4 - 1/2| < 0.3 admits one to three heads: 14 of 16 sequences
        out = strongly_typical_set([0.5, 0.5], 4, 0.6)
        assert len(out) == 14
        assert sum(p for _, p in out) == pytest.approx(14 / 16, abs=1e-12)

    def test_mass_grows_with_copies(self):
        masses = [sum(p for _, p in strongly_typical_set([0.5, 0.5], n, 1.0))
                  for n in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(masses, masses[1:]))
        assert masses == pytest.approx([1 - 2.0 ** (1 - n) for n in (2, 4, 6, 8)])

    def test_zero_support_symbol_excluded(self):
        out = strongly_typical_set([1.0, 0.0], 3, 1.9)
        assert all(all(s == 0 for s in seq) for seq, _ in out)

    def test_weak_window(self):
        out = weakly_typical_set([0.5, 0.5], 3, 0.1)
        # every sequence has probability exactly 2^-3 = 2^{-n H}
        assert len(out) == 8

    def test_sequence_cap(self):
        with pytest.raises(ValidationError):
            strongly_typical_set([0.25] * 4, 20, 0.5, max_sequences=1000)


class TestProtocolState:
    def test_single_copy_wide_window(self, ghz_tki, rng):
        psi, tki = ghz_tki
        psi_p, blocks, d = build_protocol_state(tki, TypicalSpec(1, 1.9))
        assert d == pytest.approx(1.0, abs=1e-12)
        full = _ki_power(tki, 1, 4096)
        assert np.max(np.abs(psi_p.vec - full.vec)) <= 1e-12

    def test_mass_at_n4(self, ghz_tki):
        psi, tki = ghz_tki
        _, _, d = build_protocol_state(tki, TypicalSpec(4, 0.6))
        assert d == pytest.approx(14 / 16, abs=1e-12)

    def test_combinatorial_mass_matches_dense(self, ghz_tki):
        psi, tki = ghz_tki
        for n, delta in [(2, 1.0), (3, 1.0), (4, 0.6)]:
            _, _, d = build_protocol_state(tki, TypicalSpec(n, delta))
            assert typical_mass(tki, TypicalSpec(n, delta)) == pytest.approx(d, abs=1e-12)

    def test_exponential_mass_deficit_trend(self, ghz_tki):
        psi, tki = ghz_tki
        deficits = [1 - typical_mass(tki, TypicalSpec(n, 1.0)) for n in (2, 4, 6, 8)]
        logs = np.log(deficits)
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_empty_window_rejected(self, rng):
        # at one copy a narrow window around an uneven distribution admits
        # no sequence at all
        psi = build_example("VIC", lam=(0.8, 0.2))
        tki = ki_tripartite(psi, rng=rng)
        with pytest.raises(ValidationError):
            build_protocol_state(tki, TypicalSpec(1, 0.05))

    def test_dimension_cap(self, ghz_tki):
        psi, tki = ghz_tki
        with pytest.raises(DimensionError):
            build_protocol_state(tki, TypicalSpec(6, 1.0))


class TestBlockUnitaries:
    def test_trivial_blocks_are_phases(self, ghz_tki, rng):
        psi, tki = ghz_tki
        blocks = build_blocks(tki, TypicalSpec(2, 1.0))
        v = sample_block_unitary(blocks, tki, rng)
        for seq, u in v.items():
            assert u.shape == (1, 1)
            assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitary_on_support(self, rng):
        psi = build_example("VIB", d=2, lam=0.5)
        tki = ki_tripartite(psi, rng=rng)
        blocks = build_blocks(tki, TypicalSpec(2, 1.5))
        v = sample_block_unitary(blocks, tki, rng)
        for entry in blocks.entries:
            u = v[entry.seq]
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10
            # block form: commutes with the sequence projector
            assert np.max(np.abs(u @ entry.projector - entry.projector @ u)) <= 1e-10

    def test_spectator_marginal_untouched(self, ghz_tki, rng):
        psi, tki = ghz_tki
        spec = TypicalSpec(2, 1.0)
        psi_p, blocks, d = build_protocol_state(tki, spec)
        v = sample_block_unitary(blocks, tki, rng)
        w = _apply_blockwise(psi_p, tki, 2, v)
        lay = psi_p.layout
        bc = b_side_labels(lay) + c_side_labels(lay)
        before = partial_trace(
            DensityOp(lay, np.outer(psi_p.vec, psi_p.vec.conj()), trace_of_one=False), bc)
        after = partial_trace(
            DensityOp(lay, np.outer(w, w.conj()), trace_of_one=False), bc)
        assert np.max(np.abs(before.mat - after.mat)) <= 1e-10


class TestAverageState:
    def test_markov_and_trace(self, ghz_tki):
        psi, tki = ghz_tki
        spec = TypicalSpec(2, 1.0)
        bar = average_markov_state(tki, spec)
        _, _, d = build_protocol_state(tki, spec)
        assert bar.trace() == pytest.approx(d, abs=1e-12)
        lay = bar.layout
        rho = DensityOp(lay, bar.mat / d)
        assert qcmi(rho, a_side_labels(lay), b_side_labels(lay),
                    c_side_labels(lay)) <= 1e-9

    def test_empirical_mean_approaches_average(self, ghz_tki):
        psi, tki = ghz_tki
        rng = np.random.default_rng(8)
        spec = TypicalSpec(2, 1.0)
        psi_p, blocks, d = build_protocol_state(tki, spec)
        bar = average_markov_state(tki, spec, blocks=blocks)
        acc = np.zeros((psi_p.dim, psi_p.dim), dtype=np.complex128)
        for _ in range(500):
            v = sample_block_unitary(blocks, tki, rng)
            w = _apply_blockwise(psi_p, tki, 2, v)
            acc += np.outer(w, w.conj())
        acc /= 500
        assert trace_norm(acc / d - bar.mat / d) <= 0.1

    def test_min_eigenvalue_bound(self, ghz_tki):
        psi, tki = ghz_tki
        bar = average_markov_state(tki, TypicalSpec(2, 1.0))
        lam = min_nonzero_eigenvalue(bar.mat)
        assert lam >= min_eig_lower_bound(tki, 2, 1.0, d_a=2)

    def test_nontrivial_quantum_factor(self, rng):
        # two copies of the asymmetric family exercise real projectors
        psi = build_example("VIB", d=2, lam=0.5)
        tki = ki_tripartite(psi, rng=rng)
        spec = TypicalSpec(2, 1.5)
        bar = average_markov_state(tki, spec)
        _, _, d = build_protocol_state(tki, spec)
        assert bar.trace() == pytest.approx(d, abs=1e-10)
        lay = bar.layout
        rho = DensityOp(lay, bar.mat / d)
        assert qcmi(rho, a_side_labels(lay), b_side_labels(lay),
                    c_side_labels(lay)) <= 1e-9


@pytest.fixture(scope="module")
def vib_twirl():
    """VIB(2, 0.5) at n = 2, delta = 1.5: typical subspaces of rank 4, 2, 2, 1."""
    psi = build_example("VIB", d=2, lam=0.5)
    tki = ki_tripartite(psi, rng=np.random.default_rng(0))
    spec = TypicalSpec(2, 1.5)
    psi_p, blocks, _ = build_protocol_state(tki, spec)
    return tki, psi_p, blocks, average_markov_state(tki, spec, blocks=blocks)


class TestTwirl:
    def test_bases_orthonormal(self, vib_twirl):
        _, _, blocks, _ = vib_twirl
        assert max(e.rank for e in blocks.entries) > 1
        for entry in blocks.entries:
            gram = entry.basis.conj().T @ entry.basis
            assert np.max(np.abs(gram - np.eye(entry.rank))) <= 1e-12

    def test_unitary_is_identity_off_subspace(self, vib_twirl, rng):
        tki, _, blocks, _ = vib_twirl
        v = sample_block_unitary(blocks, tki, rng)
        for entry in blocks.entries:
            off = np.eye(entry.projector.shape[0]) - entry.projector
            assert np.max(np.abs(v[entry.seq] @ off - off)) <= 1e-12

    def test_average_invariant_under_block_unitary(self, vib_twirl, rng):
        tki, psi_p, blocks, bar = vib_twirl
        v = sample_block_unitary(blocks, tki, rng)

        def left(mat):  # V @ mat, one column at a time
            return np.array([_apply_blockwise(PureVec(psi_p.layout, col, normalized=False),
                                              tki, 2, v, default_identity=True)
                             for col in mat.T]).T

        twirled = left(left(bar.mat).conj().T)  # V (V bar)^dagger = V bar V^dagger
        assert np.max(np.abs(twirled - bar.mat)) <= 1e-12

    def test_bc_marginal_of_projected_state(self, vib_twirl):
        _, psi_p, _, bar = vib_twirl
        lay = bar.layout
        bc = b_side_labels(lay) + c_side_labels(lay)
        proj = DensityOp(lay, np.outer(psi_p.vec, psi_p.vec.conj()), trace_of_one=False)
        diff = partial_trace(bar, bc).mat - partial_trace(proj, bc).mat
        assert np.max(np.abs(diff)) <= 1e-12


class TestSimulate:
    def test_large_sample_converges(self, ghz_tki):
        psi, tki = ghz_tki
        res = simulate(psi, n=2, delta=1.0, rate=6.0, trials=1, seed=17, tki=tki)
        assert res.n_unitaries == 4096
        assert res.err_to_average <= 0.05

    def test_single_sample_far(self, ghz_tki):
        psi, tki = ghz_tki
        res = simulate(psi, n=2, delta=1.0, rate=0.0, trials=1, seed=3, tki=tki)
        assert res.n_unitaries == 1
        assert res.err_to_average > 0.5

    def test_error_scaling_slope(self, ghz_tki):
        psi, tki = ghz_tki
        errs = []
        for i, rate in enumerate((3.0, 4.0, 5.0, 6.0)):
            res = simulate(psi, n=2, delta=1.0, rate=rate, trials=5,
                           seed=100 + i, tki=tki)
            errs.append(res.err_to_average)
        slope = np.polyfit([2 * r for r in (3, 4, 5, 6)], np.log2(errs), 1)[0]
        assert -0.7 <= slope <= -0.3

    def test_triangle_relation(self, ghz_tki):
        psi, tki = ghz_tki
        res = simulate(psi, n=2, delta=1.0, rate=4.0, trials=1, seed=5, tki=tki)
        spec = TypicalSpec(2, 1.0)
        psi_p, _, d = build_protocol_state(tki, spec)
        full = _ki_power(tki, 2, 4096)
        gap = trace_norm(np.outer(full.vec, full.vec.conj())
                         - np.outer(psi_p.vec, psi_p.vec.conj()) / d)
        assert res.err_full >= res.err_to_average - gap - 1e-9
        # the projection loss obeys the gentle measurement bound
        assert gap <= 2 * np.sqrt(1 - d) + 1e-9

    @pytest.mark.parametrize("trials, rate", [(0, 3.0), (-2, 3.0), (1, 1e6),
                                              (1, float("inf")), (1, float("nan"))])
    def test_rejects_bad_counts_before_any_work(self, trials, rate, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("simulate started work before checking its arguments")
        monkeypatch.setattr("qmarkov.kidec.ki_tripartite", no_work)
        psi = build_example("VIC", lam=(0.5, 0.5))
        with pytest.raises(ValidationError):
            simulate(psi, n=2, delta=1.0, rate=rate, trials=trials, seed=1)

    def test_seed_reproducibility(self, ghz_tki):
        psi, tki = ghz_tki
        r1 = simulate(psi, n=2, delta=1.0, rate=3.0, trials=2, seed=99, tki=tki)
        r2 = simulate(psi, n=2, delta=1.0, rate=3.0, trials=2, seed=99, tki=tki)
        assert r1 == r2

    def test_chernoff_prediction_positive(self, ghz_tki):
        psi, tki = ghz_tki
        res = simulate(psi, n=2, delta=1.0, rate=3.0, trials=1, seed=21, tki=tki)
        assert res.chernoff_n > 0
        assert res.typical_mass == pytest.approx(0.5, abs=1e-12)
