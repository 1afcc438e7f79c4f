import math

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
    ERR_ROUNDOFF,
    TypicalSpec,
    _apply_blockwise,
    _average_factor,
    _block_view,
    _factor_min_eigenvalue,
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

    def test_chernoff_infinite_at_roundoff_error(self):
        # one rank-1 typical block: every sample equals the exact average, so
        # err_to_average is round-off and predicts no finite sample count
        psi = build_example("VIC", lam=(0.2, 0.3, 0.5))
        res = simulate(psi, n=1, delta=1.5, rate=2.0, trials=1, seed=5)
        assert res.err_to_average <= ERR_ROUNDOFF
        assert res.chernoff_n == math.inf
        res = simulate(psi, n=2, delta=1.0, rate=3.0, trials=1, seed=5)
        assert res.err_to_average > ERR_ROUNDOFF
        assert 0 < res.chernoff_n < math.inf

    def test_unitary_count_bounded_before_any_draw(self, ghz_tki, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("simulate drew a unitary before checking N x D")
        monkeypatch.setattr("qmarkov.protocol.sample_block_unitary", no_draw)
        psi, tki = ghz_tki
        with pytest.raises(DimensionError, match="dim_cap"):
            simulate(psi, n=2, delta=1.0, rate=30.0, trials=1, seed=1, tki=tki)
        # D = 64 at n = 2: N x D = 128 x 64 exceeds 64^2, 64 x 64 does not
        with pytest.raises(DimensionError):
            simulate(psi, n=2, delta=1.0, rate=3.5, trials=1, seed=1, tki=tki, dim_cap=64)

    def test_bound_is_n_times_d(self, ghz_tki):
        psi, tki = ghz_tki
        res = simulate(psi, n=2, delta=1.0, rate=3.0, trials=1, seed=1, tki=tki, dim_cap=64)
        assert res.n_unitaries * 64 == 64 ** 2

    def test_no_dense_matrix_on_the_path(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("simulate built or decomposed a D x D matrix")
        for target in ("qmarkov.protocol.average_markov_state",
                       "qmarkov.protocol.min_nonzero_eigenvalue",
                       "qmarkov.protocol.DensityOp", "qmarkov.entropy.trace_norm"):
            monkeypatch.setattr(target, dense)
        # protocol does not import trace_norm; the stub catches a re-import
        monkeypatch.setattr("qmarkov.protocol.trace_norm", dense, raising=False)
        psi = build_example("VIB", d=2, lam=0.3)
        res = simulate(psi, n=2, delta=1.0, rate=3.0, trials=1, seed=0)
        assert res.n_unitaries == 64 and 0 < res.err_to_average < 2


def _einsum_average(tki, psi_p, blocks):
    """Dense reference for the Haar twirl: block s of the average is
    (P_s / r_s) tensor Tr_{aR^n} |M_s><M_s|, filled in with one einsum."""
    tens = _block_view(psi_p, tki, blocks.spec.n)
    total = np.zeros(tens.shape * 2, dtype=np.complex128)
    seq_shape = (tki.base.dims[0],) * blocks.spec.n
    for entry in blocks.entries:
        flat = np.ravel_multi_index(entry.seq, seq_shape)
        m = tens[flat]
        rest = np.tensordot(m, m.conj(), axes=([1], [1]))  # Tr_{aR^n}
        total[flat, :, :, :, flat] = np.einsum(
            "lxmy,rq->lrxmqy", rest, entry.projector / entry.rank)
    return total.reshape(psi_p.dim, -1)


def _dense_simulate(tki, n, delta, rate, seed):
    """One trial of the simulator with dense D x D averages and trace norms."""
    rng = np.random.default_rng(seed)
    psi_p, blocks, d = build_protocol_state(tki, TypicalSpec(n, delta))
    bar = _einsum_average(tki, psi_p, blocks)
    psi_unit = PureVec(psi_p.layout, psi_p.vec / np.sqrt(d))
    full = _ki_power(tki, n, 4096)
    n_unitaries = math.ceil(2.0 ** (n * rate))
    draws = [sample_block_unitary(blocks, tki, rng) for _ in range(n_unitaries)]
    errs = []
    for vec, identity in ((psi_unit, False), (full, True)):
        w = np.array([_apply_blockwise(vec, tki, n, v, identity) for v in draws])
        w /= np.sqrt(n_unitaries)
        errs.append(trace_norm(w.T @ w.conj() - bar / d))
    return errs[0], errs[1], min_nonzero_eigenvalue(bar), bar


ORACLE_STATES = {
    "ghz": ("VIC", dict(lam=(0.5, 0.5))),
    "vib_0.3": ("VIB", dict(d=2, lam=0.3)),
    "vib_0.5": ("VIB", dict(d=2, lam=0.5)),
    "vic_3": ("VIC", dict(lam=(0.2, 0.3, 0.5))),
}


@pytest.fixture(scope="module", params=list(ORACLE_STATES))
def oracle_state(request):
    family, kw = ORACLE_STATES[request.param]
    psi = build_example(family, **kw)
    return psi, ki_tripartite(psi, rng=np.random.default_rng(0))


class TestDenseOracle:
    """The factored simulator against the dense code it replaced."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("delta", [1.0, 1.5])
    def test_factored_matches_dense(self, oracle_state, n, delta):
        psi, tki = oracle_state
        try:
            oracle = [_dense_simulate(tki, n, delta, 2.0, seed) for seed in (11, 12)]
        except ValidationError:  # empty typical region: both paths refuse it
            with pytest.raises(ValidationError):
                simulate(psi, n=n, delta=delta, rate=2.0, trials=1, seed=11, tki=tki)
            return
        spec = TypicalSpec(n, delta)
        psi_p, blocks, d = build_protocol_state(tki, spec)
        y = _average_factor(tki, blocks, psi_p)
        bar = oracle[0][3]
        assert np.max(np.abs(y @ y.conj().T - bar)) <= 1e-12
        assert np.max(np.abs(average_markov_state(tki, spec).mat - bar)) <= 1e-12
        assert abs(_factor_min_eigenvalue(y, d) - oracle[0][2]) <= 1e-12
        for seed, (err_avg, err_full, _, _) in zip((11, 12), oracle):
            res = simulate(psi, n=n, delta=delta, rate=2.0, trials=1, seed=seed, tki=tki)
            assert abs(res.err_to_average - err_avg) <= 1e-12
            assert abs(res.err_full - err_full) <= 1e-12

    def test_factor_checks(self, oracle_state):
        psi, tki = oracle_state
        psi_p, blocks, d = build_protocol_state(tki, TypicalSpec(2, 1.5))
        y = _average_factor(tki, blocks, psi_p)
        with pytest.raises(ValidationError, match="trace"):
            _factor_min_eigenvalue(y * 1.01, d)

    def test_min_eigenvalue_rule_on_spread_spectrum(self, rng):
        # eigenvalues 1, 1e-5, 1e-9 and an exact zero: the rtol * top rule
        # keeps 1e-9 on both the Gram and the dense side
        spectrum = np.array([1.0, 1e-5, 1e-9, 0.0])
        u = np.linalg.qr(rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4)))[0]
        y = u * np.sqrt(spectrum)
        lam = _factor_min_eigenvalue(y, float(np.sum(spectrum)))
        assert lam == pytest.approx(1e-9, rel=1e-6)
        assert abs(lam - min_nonzero_eigenvalue(y @ y.conj().T)) <= 1e-15
