import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov.entropy import factored_trace_norm, qcmi, trace_norm
from qmarkov.kidec import ki_tripartite
from qmarkov.linalg import (
    DensityOp,
    DimensionError,
    PureVec,
    SystemLayout,
    ValidationError,
    haar_unitary,
    partial_trace,
)
from qmarkov.markov import build_example
from qmarkov import protocol
from qmarkov.protocol import (
    DEFAULT_DIM_CAP,
    ERR_ROUNDOFF,
    TypicalSpec,
    _apply_blockwise,
    _average_factor,
    _block_view,
    _draw_block_unitaries,
    _ki_power,
    _spectral_average,
    _trace_norm_with_diagonal,
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
            strongly_typical_set([0.25] * 4, 20, 0.5)


class TestProtocolState:
    def test_single_copy_wide_window(self, ghz_tki, rng):
        psi, tki = ghz_tki
        psi_p, blocks, d = build_protocol_state(tki, TypicalSpec(1, 1.9))
        assert d == pytest.approx(1.0, abs=1e-12)
        full = _ki_power(tki, 1)
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
        full = _ki_power(tki, 2)
        gap = trace_norm(np.outer(full.vec, full.vec.conj())
                         - np.outer(psi_p.vec, psi_p.vec.conj()) / d)
        assert res.err_full >= res.err_to_average - gap - 1e-9
        # the projection loss obeys the gentle measurement bound
        assert gap <= 2 * np.sqrt(1 - d) + 1e-9

    @pytest.mark.parametrize("n, delta, trials, rate", [
        *(pytest.param(2, 1.0, trials, rate, id=f"{trials}-{rate}")
          for trials, rate in [(0, 3.0), (-2, 3.0), (1, 1e6), (1, float("inf")),
                               (1, float("nan")), (1, -1.0)]),
        *(pytest.param(n, delta, 1, 3.0, id=f"n={n}-delta={delta}")
          for n, delta in [(0, 1.0), (-3, 1.0), (2, 0.0), (2, float("nan"))]),
    ])
    def test_rejects_bad_counts_before_any_work(self, n, delta, trials, rate, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("simulate started work before checking its arguments")
        for target in ("qmarkov.kidec.ki_tripartite", "qmarkov.kidec.ki_decompose",
                       "qmarkov.protocol.ki_decompose"):
            monkeypatch.setattr(target, no_work)
        psi = build_example("VIC", lam=(0.5, 0.5))
        with pytest.raises(ValidationError):
            simulate(psi, n=n, delta=delta, rate=rate, trials=trials, seed=1)

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

    @pytest.mark.parametrize("rate, trials, seed", [(0, 1, 1), (3, 1, 1), (1, 3, 2), (3, 3, 3)])
    def test_roundoff_error_reported_as_zero(self, rate, trials, seed):
        # at n = 1 and delta = 1 every typical block of VIB(2, 0.3) has rank 1
        psi = build_example("VIB", d=2, lam=0.3)
        res = simulate(psi, n=1, delta=1.0, rate=rate, trials=trials, seed=seed)
        assert (res.err_to_average, res.chernoff_n) == (0.0, math.inf)
        assert res.err_full > 0.5

    def test_unitary_count_bounded_before_any_draw(self, ghz_tki, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("simulate drew a unitary before checking the array cap")
        for target in ("qmarkov.protocol.sample_block_unitary",
                       "qmarkov.protocol._draw_block_unitaries",
                       "qmarkov.protocol.haar_from_normals",
                       "qmarkov.linalg.haar_from_normals"):
            monkeypatch.setattr(target, no_draw)
        psi, tki = ghz_tki
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(DimensionError, match="dim_cap"):
            simulate(psi, n=2, delta=1.0, rate=30.0, trials=1, rng=rng, tki=tki)
        # R = 2 typical coordinates at n = 2: (R + 1)(N + R + 1) is 4098 > 64^2
        # at N = 1363 and 4095 at N = 1362
        with pytest.raises(DimensionError, match=r"1363 unitaries at the 2 typical coordinates "
                                                 r"counted so far need 4098 array entries > "
                                                 r"dim_cap\^2 = 4096"):
            simulate(psi, n=2, delta=1.0, rate=math.log2(1362.5) / 2, trials=1, rng=rng,
                     tki=tki, dim_cap=64)
        assert rng.bit_generator.state == state
        # under the bound the stubs are on the path
        with pytest.raises(AssertionError, match="drew a unitary"):
            simulate(psi, n=2, delta=1.0, rate=math.log2(1361.5) / 2, trials=1, rng=rng,
                     tki=tki, dim_cap=64)

    @pytest.mark.parametrize("family, kw, n, rate", [("VIB", dict(d=2, lam=0.3), 3, 1.5),
                                                     ("VIC", dict(lam=(0.5, 0.5)), 6, 1.0)])
    def test_runs_past_the_n_copy_dimension(self, family, kw, n, rate):
        # the cap bounds the arrays simulate fills, not the n-copy dimension
        psi = build_example(family, **kw)
        tki = ki_tripartite(psi, rng=np.random.default_rng(0))
        assert protocol.protocol_layout(tki, n).dim > DEFAULT_DIM_CAP
        res = simulate(psi, n=n, delta=1.0, rate=rate, trials=1, seed=1)
        assert res.n_unitaries == math.ceil(2.0 ** (n * rate))
        assert 0 < res.err_to_average < 2 and 0 < res.err_full < 2

    def test_large_n_refused_while_counting(self, monkeypatch):
        # VIB(2,0.3) at n = 20 has ~10^6 typical sequences; the cap is checked
        # sequence by sequence, so the first few already refuse 2^20 unitaries
        yielded = []
        enumerate_all = protocol._strongly_typical

        def counted(*args):
            for item in enumerate_all(*args):
                yielded.append(item)
                yield item
        monkeypatch.setattr("qmarkov.protocol._strongly_typical", counted)
        monkeypatch.setattr("qmarkov.protocol._draw_block_unitaries", None)
        psi = build_example("VIB", d=2, lam=0.3)
        with pytest.raises(DimensionError, match="^1.049e[+]06 unitaries at the "):
            simulate(psi, n=20, delta=1.0, rate=1.0, trials=1, seed=1)
        assert 0 < len(yielded) < 10

    def test_no_dense_matrix_on_the_path(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("simulate built or decomposed a D x D matrix")
        for target in ("qmarkov.protocol.average_markov_state",
                       "qmarkov.protocol.min_nonzero_eigenvalue",
                       "qmarkov.protocol.DensityOp", "qmarkov.entropy.trace_norm",
                       "qmarkov.kidec.ki_tripartite", "qmarkov.protocol._ki_power",
                       "qmarkov.protocol._apply_blockwise"):
            monkeypatch.setattr(target, dense)
        # protocol does not import trace_norm; the stub catches a re-import
        monkeypatch.setattr("qmarkov.protocol.trace_norm", dense, raising=False)
        psi = build_example("VIB", d=2, lam=0.3)
        res = simulate(psi, n=2, delta=1.0, rate=3.0, trials=1, seed=0)
        assert res.n_unitaries == 64 and 0 < res.err_to_average < 2

    def test_benchmark_case_in_sequence_coordinates(self, monkeypatch):
        # VIB(2, 0.3), n = 2, rate 3: no full-length block application, and
        # both trace norms see sum_s r_s^2 = 9 typical rows (+1 fixed one)
        applied, rows = [], []
        apply, norm = protocol._apply_blockwise, protocol._trace_norm_with_diagonal

        def counted_apply(*args, **kwargs):
            applied.append(1)
            return apply(*args, **kwargs)

        def counted_norm(h, diagonal):
            rows.append(h.shape[0])
            return norm(h, diagonal)

        monkeypatch.setattr("qmarkov.protocol._apply_blockwise", counted_apply)
        monkeypatch.setattr("qmarkov.protocol._trace_norm_with_diagonal", counted_norm)
        psi = build_example("VIB", d=2, lam=0.3)
        res = simulate(psi, n=2, delta=1.0, rate=3.0, trials=2, seed=0)
        assert res.n_unitaries == 64
        assert applied == []
        assert rows == [9, 10, 9, 10]


@st.composite
def sample_and_average(draw):
    """Samples X with a positive diagonal target, as simulate builds them: on
    rest=True the last row is one constant coordinate with target 0."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rest = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(cols)
    target = rng.uniform(1e-3, 1.0, size=rows)
    y = np.diag(np.sqrt(target))
    if rest:
        x = np.vstack([x, np.full((1, cols), rng.uniform(0.0, 1.0))])
        target = np.append(target, 0.0)
        y = np.vstack([y, np.zeros((1, rows))])
    return x, target, y


class TestDirectTraceNorm:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(sample_and_average())
    def test_matches_factored(self, case):
        x, target, y = case
        gram = x @ x.conj().T
        direct = _trace_norm_with_diagonal(gram, gram.diagonal().real - target)
        assert abs(direct - factored_trace_norm(x, y)) <= 1e-12


# VIB(2, 0.5) at delta 1.5 has typical ranks 4, 2, 2, 1; the VIC states have
# a trivial aR factor and take the phase branch
STREAM_CASES = {
    "vib_0.3": ("VIB", dict(d=2, lam=0.3), 2, 1.0),
    "vib_0.5_unequal_ranks": ("VIB", dict(d=2, lam=0.5), 2, 1.5),
    "vic_3": ("VIC", dict(lam=(0.2, 0.3, 0.5)), 2, 1.0),
    "ghz": ("VIC", dict(lam=(0.5, 0.5)), 2, 1.0),
}


class TestBatchedDraws:
    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_batched_draws_equal_sequential_calls(self, case):
        family, kw, n, delta = STREAM_CASES[case]
        tki = ki_tripartite(build_example(family, **kw), rng=np.random.default_rng(0))
        blocks = build_blocks(tki, TypicalSpec(n, delta))
        darn = tki.base.dims[2] ** n
        batched_rng, sequential_rng = np.random.default_rng(7), np.random.default_rng(7)
        draws = _draw_block_unitaries([e.rank for e in blocks.entries], darn,
                                      batched_rng, 5)
        for i in range(5):
            v = sample_block_unitary(blocks, tki, sequential_rng)
            for entry, u in zip(blocks.entries, draws):
                b = entry.basis
                expect = u[i] if darn == 1 else (
                    np.eye(darn) + b @ (u[i] - np.eye(entry.rank)) @ b.conj().T)
                assert np.array_equal(v[entry.seq], expect)
        assert batched_rng.bit_generator.state == sequential_rng.bit_generator.state


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
    full = _ki_power(tki, n)
    n_unitaries = math.ceil(2.0 ** (n * rate))
    draws = [sample_block_unitary(blocks, tki, rng) for _ in range(n_unitaries)]
    errs = []
    for vec, identity in ((psi_unit, False), (full, True)):
        w = np.array([_apply_blockwise(vec, tki, n, v, identity) for v in draws])
        w /= np.sqrt(n_unitaries)
        errs.append(trace_norm(w.T @ w.conj() - bar / d))
    return errs[0], errs[1], min_nonzero_eigenvalue(bar), bar


def _skewed_state():
    """A generic (3, 2, 2) state whose A marginal has spectrum (0.5, 0.45,
    0.05): its one block keeps the weak window's eigenvalue patterns only,
    so the projected blocks P_s M_s span less than the full ones."""
    rng = np.random.default_rng(3)
    schmidt = haar_unitary(4, rng)[:, :3]
    vec = np.einsum("ai,i,xi->ax", haar_unitary(3, rng), np.sqrt([0.5, 0.45, 0.05]),
                    schmidt)
    return PureVec(SystemLayout([("A", 3), ("B", 2), ("C", 2)]), vec.reshape(-1))


ORACLE_STATES = {
    "ghz": lambda: build_example("VIC", lam=(0.5, 0.5)),
    "vib_0.3": lambda: build_example("VIB", d=2, lam=0.3),
    "vib_0.5": lambda: build_example("VIB", d=2, lam=0.5),
    "vic_3": lambda: build_example("VIC", lam=(0.2, 0.3, 0.5)),
    "via": lambda: build_example("VIA", d=2, lam=0.6),
    "skewed": _skewed_state,
}


def _random_393():
    rng = np.random.default_rng(393)
    vec = rng.normal(size=81) + 1j * rng.normal(size=81)
    return PureVec(SystemLayout([("A", 3), ("B", 9), ("C", 3)]), vec / np.linalg.norm(vec))


# states whose two-copy space exceeds the dense oracle's reach
SINGLE_COPY_STATES = {
    "vib3_0.5": lambda: build_example("VIB", d=3, lam=0.5),
    "random_393": _random_393,
}


@pytest.fixture(scope="module", params=list(ORACLE_STATES))
def oracle_state(request):
    psi = ORACLE_STATES[request.param]()
    return psi, ki_tripartite(psi, rng=np.random.default_rng(0))


def _check_against_dense(psi, tki, n, delta):
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
    d_a = psi.layout.dim_of(["A"])
    for seed, (err_avg, err_full, lam_min, _) in zip((11, 12), oracle):
        res = simulate(psi, n=n, delta=delta, rate=2.0, trials=1, seed=seed, tki=tki)
        assert abs(res.err_to_average - err_avg) <= 1e-12
        assert abs(res.err_full - err_full) <= 1e-12
        assert abs(res.typical_mass - d) <= 1e-12
        # chernoff_n carries lambda_min: the dense one predicts the same count
        if err_avg <= ERR_ROUNDOFF:
            assert res.chernoff_n == math.inf
            continue
        expect = math.ceil(2.0 * math.log(2.0 * d_a ** (3 * n)) / (lam_min * (err_avg / 2) ** 2))
        assert res.chernoff_n == pytest.approx(expect, rel=1e-9, abs=1)


class TestDenseOracle:
    """The factored simulator against the dense code it replaced."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("delta", [1.0, 1.5])
    def test_factored_matches_dense(self, oracle_state, n, delta):
        _check_against_dense(*oracle_state, n, delta)

    @pytest.mark.parametrize("delta", [1.0, 1.5])
    def test_three_copies_match_dense(self, ghz_tki, delta):
        # GHZ is the oracle state whose three-copy space is small, D = 512
        psi, tki = ghz_tki
        assert protocol.protocol_layout(tki, 3).dim == 512
        _check_against_dense(psi, tki, 3, delta)

    @pytest.mark.parametrize("delta", [1.0, 1.5])
    @pytest.mark.parametrize("state", list(SINGLE_COPY_STATES))
    def test_single_copy_larger_states(self, state, delta):
        psi = SINGLE_COPY_STATES[state]()
        _check_against_dense(psi, ki_tripartite(psi, rng=np.random.default_rng(0)), 1, delta)

    def test_factor_checks(self, oracle_state):
        # the diagonal factor of simulate: its entries are the nonzero
        # spectrum of the dense average and sum to the typical mass
        psi, tki = oracle_state
        spec = TypicalSpec(2, 1.5)
        try:
            psi_p, _, d = build_protocol_state(tki, spec)
        except ValidationError:  # empty typical region: both paths refuse it
            with pytest.raises(ValidationError):
                _spectral_average(tki.base, spec)
            return
        _, avg = _spectral_average(tki.base, spec)
        dense = np.linalg.eigvalsh(average_markov_state(tki, spec).mat)[::-1]
        assert abs(np.sum(avg) - d) <= 1e-12
        assert np.max(np.abs(np.sort(avg)[::-1] - dense[:len(avg)])) <= 1e-12
        assert np.max(np.abs(dense[len(avg):]), initial=0.0) <= 1e-12


class TestBlockData:
    """simulate reads only the A-side block data."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dimension_from_block_data(self, oracle_state, n):
        # simulate's R = sum_s r_s^2 typical coordinates, counted from the
        # block data alone, match the typical subspaces of the dense path
        psi, tki = oracle_state
        spec = TypicalSpec(n, 1.5)
        amp2, avg = _spectral_average(tki.base, spec)
        blocks = build_blocks(tki, spec)
        assert [len(w) for w in amp2] == [e.rank for e in blocks.entries]
        assert len(avg) == sum(e.rank ** 2 for e in blocks.entries)
        assert abs(np.sum(avg) - typical_mass(tki, spec)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cap_edge_from_block_data(self, oracle_state, n):
        # the arrays simulate fills are sized by the R typical coordinates of
        # the block data: at dim_cap = 2(R + 1), N = 3(R + 1) unitaries fill
        # exactly dim_cap^2 entries and run; N + 1 is refused before any draw
        psi, tki = oracle_state
        r = len(_spectral_average(tki.base, TypicalSpec(n, 1.5))[1])
        cap, n_max = 2 * (r + 1), 3 * (r + 1)
        assert (r + 1) * (n_max + r + 1) == cap ** 2
        res = simulate(psi, n=n, delta=1.5, rate=math.log2(n_max - 0.5) / n, trials=1,
                       seed=1, tki=tki.base, dim_cap=cap)
        assert res.n_unitaries == n_max and 0 <= res.err_full <= 2
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(DimensionError, match=f"^{n_max + 1} unitaries at the {r} typical"):
            simulate(psi, n=n, delta=1.5, rate=math.log2(n_max + 0.5) / n, trials=1,
                     rng=rng, tki=tki.base, dim_cap=cap)
        assert rng.bit_generator.state == state

    def test_either_decomposition(self):
        psi = build_example("VIB", d=2, lam=0.3)
        tki = ki_tripartite(psi)
        runs = [simulate(psi, n=2, delta=1.0, rate=3.0, trials=2, seed=4, **kw)
                for kw in ({}, {"tki": tki}, {"tki": tki.base})]
        assert runs[0] == runs[1] == runs[2]
        spec = TypicalSpec(2, 1.0)
        assert typical_mass(tki, spec) == typical_mass(tki.base, spec) == runs[0].typical_mass

    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_rng_stream_is_sequential_draws(self, case):
        family, kw, n, delta = STREAM_CASES[case]
        psi = build_example(family, **kw)
        tki = ki_tripartite(psi, rng=np.random.default_rng(0))
        used, reference = np.random.default_rng(9), np.random.default_rng(9)
        res = simulate(psi, n=n, delta=delta, rate=1.5, trials=3, rng=used, tki=tki)
        blocks = build_blocks(tki, TypicalSpec(n, delta))
        for _ in range(res.n_unitaries * 3):
            sample_block_unitary(blocks, tki, reference)
        assert used.bit_generator.state == reference.bit_generator.state
