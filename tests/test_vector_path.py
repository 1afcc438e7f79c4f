"""The cost path on pure states works from the vector.

Marginals and entropies of a pure state come from the reshaped vector,
and one query factorizes each operator once: the vector across AC|B by one
thin SVD, rho_A's eigenpairs read off that factor, and each block factor
once.  The nullspace solves compute only the SVD factors they read.  The
commutant solve, over Hermitian unknowns, eigensolves the commutator
system's d² x d² Gram matrix for candidates and resolves them by one SVD of
their commutators.  The dense definitions they replaced serve as oracles
here.
Reorders and partial traces share one axis kernel, checked against
per-index einsums, and internal reorders permute arrays without
rebuilding a DensityOp.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import channels, cli, stateio
from qmarkov.channels import (
    NULLSPACE_RTOL,
    _commutant_of_family,
    _split_density,
    _split_pure,
    channel_E,
)
from qmarkov.entropy import qcmi, qmi, trace_distance
from qmarkov.kidec import _ki_factor, ki_decompose, ki_tripartite, validate_ki
from qmarkov.linalg import (
    DensityOp,
    Eigenpairs,
    PureVec,
    SystemLayout,
    haar_unitary,
    layout,
    marginal,
    partial_trace,
    permute_mat,
    permute_vec,
    random_density,
    random_pure,
)
from qmarkov.markov import bounds_check, build_example, markov_decomposition, recovery_check

LABELS = "PQRS"
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def pure_states(draw) -> PureVec:
    """2-4 factors of dims 1-4; dense or sparse (rank-deficient marginals),
    normalized or subnormalized."""
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    lay = SystemLayout(zip(LABELS, dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    if draw(st.booleans()):
        vec *= rng.random(lay.dim) < 0.5
        vec[rng.integers(lay.dim)] = 1.0
    vec /= np.linalg.norm(vec)
    normalized = draw(st.booleans())
    if not normalized:
        vec *= draw(st.floats(0.1, 1.0))
    return PureVec(lay, vec, normalized=normalized)


@st.composite
def state_and_parts(draw, n_parts: int):
    """A state and disjoint label sets that need not cover its layout."""
    psi = draw(pure_states())
    labels = psi.layout.labels
    owner = draw(st.lists(st.integers(0, n_parts), min_size=len(labels),
                          max_size=len(labels)))
    parts = [[l for l, o in zip(labels, owner) if o == i] for i in range(n_parts)]
    return psi, parts


class TestVectorMarginals:
    @PROPERTY
    @given(pure_states(), st.data())
    def test_marginal_matches_partial_trace(self, psi, data):
        order = data.draw(st.permutations(psi.layout.labels))
        keep = order[:data.draw(st.integers(0, len(order)))]
        got = marginal(psi, keep)
        want = partial_trace(psi.density(), keep)
        assert got.layout == want.layout
        assert got.trace_of_one == want.trace_of_one == psi.normalized
        assert np.max(np.abs(got.mat - want.mat)) <= 1e-12

    @PROPERTY
    @given(state_and_parts(3))
    def test_qcmi_matches_density(self, case):
        psi, (a, b, c) = case
        assert abs(qcmi(psi, a, b, c) - qcmi(psi.density(), a, b, c)) <= 1e-12

    @PROPERTY
    @given(state_and_parts(2))
    def test_qmi_matches_density(self, case):
        psi, (a, b) = case
        assert abs(qmi(psi, a, b) - qmi(psi.density(), a, b)) <= 1e-12


def _vib_pair(lam1: float, lam2: float) -> PureVec:
    v1, v2 = build_example("VIB", d=2, lam=lam1), build_example("VIB", d=2, lam=lam2)
    lay = layout(("A1", 3), ("B1", 3), ("C1", 2), ("A2", 3), ("B2", 3), ("C2", 2))
    joint = PureVec(lay, np.kron(v1.vec, v2.vec))
    return permute_vec(joint, ["A1", "A2", "B1", "B2", "C1", "C2"])


@pytest.fixture
def no_density(monkeypatch):
    def refuse(self):
        raise AssertionError("the D×D matrix of a pure state was built")
    monkeypatch.setattr(PureVec, "density", refuse)


class TestNoDenseMatrix:
    @pytest.mark.parametrize("make", [
        lambda: build_example("VIB", d=2, lam=0.3),
        lambda: random_pure(layout(("A", 3), ("B", 9), ("C", 3)),
                            np.random.default_rng(7)),
    ], ids=["vib", "random-3-9-3"])
    def test_bounds_check(self, make, no_density):
        report = bounds_check(make())
        assert report.qcmi - 1e-7 <= report.m_formula <= report.qmi_a_bc + 1e-7

    @pytest.mark.parametrize("argv", [["bounds"], ["markov-cost", "--route", "both"],
                                      ["entropy"], ["trace-dist", "{other}"],
                                      ["ki-decompose"], ["ki-decompose", "--A", "A", "--C", "C"]])
    def test_cli(self, argv, tmp_path, capsys, no_density):
        path, other = tmp_path / "vib.json", tmp_path / "other.json"
        stateio.dump(build_example("VIB", d=2, lam=0.3), str(path))
        stateio.dump(build_example("VIB", d=2, lam=0.7), str(other))
        code = cli.main([argv[0], str(path), *(a.format(other=other) for a in argv[1:])])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cli_pure_values_match_dense(self, seed, tmp_path, capsys):
        rng = np.random.default_rng(seed)
        lay = layout(("A", 3), ("B", 4), ("C", 3))
        psi, phi = random_pure(lay, rng), random_pure(lay, rng)
        paths = [tmp_path / "psi.json", tmp_path / "phi.json"]
        for state, path in zip((psi, phi), paths):
            stateio.dump(state, str(path))
        read = {}
        for argv in (["entropy", str(paths[0])], ["trace-dist", *map(str, paths)]):
            assert cli.main(argv) == 0
            read.update(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert abs(float(read["entropy_bits"])) <= 1e-12
        dense = trace_distance(psi.density(), phi.density())
        assert float(read["trace_distance"]) == pytest.approx(dense, rel=1e-11)

    def test_cli_trace_dist_dimension_mismatch(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        stateio.dump(build_example("VIB", d=2, lam=0.3), str(paths[0]))
        stateio.dump(build_example("VIC", lam=(0.5, 0.5)), str(paths[1]))
        assert cli.main(["trace-dist", *map(str, paths)]) == 1
        assert capsys.readouterr().err == "error: dimension mismatch 18 != 8\n"


def _recording(monkeypatch) -> list[np.ndarray]:
    """Every matrix handed to np.linalg's eigh, eigvalsh and svd, in order."""
    seen = []
    for name in ("eigh", "eigvalsh", "svd"):
        def recording(m, *args, _solve=getattr(np.linalg, name), **kwargs):
            seen.append(np.array(m))
            return _solve(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def _factorizes(m: np.ndarray, op: np.ndarray) -> bool:
    """Whether a factorization of m is one of op: m is op, or a factor F of
    it with F F† = op or (F† F)* = op."""
    return m.ndim == 2 and any(
        g.shape == op.shape and np.allclose(g, op, rtol=0, atol=1e-12)
        for g in (m, m @ m.conj().T, (m.conj().T @ m).conj()))


QUERY_CASES = {
    "random-5-25-5": (lambda: random_pure(layout(("A", 5), ("B", 25), ("C", 5)),
                                          np.random.default_rng(3)), "A", "B", "C"),
    "vib-pair": (lambda: _vib_pair(0.2, 0.6), "A1,A2", "B1,B2", "C1,C2"),
}


class TestOneFactorizationPerOperator:
    @pytest.mark.parametrize("case", list(QUERY_CASES))
    def test_bounds_check(self, case, monkeypatch):
        # rho_AC, rho_B and the vector across AC|B share one spectrum: one
        # thin SVD serves them all, as one eigh of rho_A serves its support,
        # its roots and S(A); rho_C gives S(C).  A generic state has one
        # block with dim_l = 1: there phi is a unitary image of rho_AC and
        # omega = [[1]], so that SVD serves phi too and omega needs none
        make, *parts = QUERY_CASES[case]
        psi = make()
        a, b, c = (p.split(",") for p in parts)
        split_ops = [marginal(psi, a + c).mat, marginal(psi, b).mat]
        blocks = ki_tripartite(psi, a, b, c).blocks
        ops = [marginal(psi, a).mat, marginal(psi, c).mat]
        unfactored = []
        if len(blocks) == 1 and blocks[0].dim_l == 1:
            split_ops.append(blocks[0].phi.mat)
            unfactored.append(blocks[0].omega.mat)
            ops.append(blocks[0].phi_ar.mat)
        else:
            ops += [op.mat for blk in blocks for op in (blk.omega, blk.phi, blk.phi_ar)]
        seen = _recording(monkeypatch)
        bounds_check(psi, a, b, c)
        assert sum(any(_factorizes(m, op) for op in split_ops) for m in seen) == 1
        assert not any(_factorizes(m, op) for op in unfactored for m in seen)
        for op in ops:
            # operators may coincide, such as omega_j = [[1]] of every block
            copies = sum(o.shape == op.shape and np.allclose(o, op, rtol=0, atol=1e-12)
                         for o in ops)
            assert sum(_factorizes(m, op) for m in seen) == copies


def _vib_vic(eps: float) -> PureVec:
    """VIB(2, 1/2) (x) VIC(1 - eps, eps): two blocks next to two of weight ~eps."""
    vib, vic = build_example("VIB", d=2, lam=0.5), build_example("VIC", lam=(1 - eps, eps))
    lay = layout(("A", 3), ("B", 3), ("C", 2), ("A2", 2), ("B2", 2), ("C2", 2))
    return PureVec(lay, np.kron(vib.vec, vic.vec))


KI_PATH_CASES = {
    "via": (lambda: build_example("VIA", d=2, lam=0.6), "A", "C"),
    "vib": (lambda: build_example("VIB", d=2, lam=0.3), "A", "C"),
    "vic": (lambda: build_example("VIC", lam=(0.2, 0.3, 0.5)), "A", "C"),
    "random-3-4-3": (lambda: random_pure(layout(("A", 3), ("B", 4), ("C", 3)),
                                         np.random.default_rng(5)), "A", "C"),
    **{f"vib-vic-{eps:.0e}": (lambda eps=eps: _vib_vic(eps), "A,A2", "C,C2")
       for eps in (1e-4, 1e-7, 1e-10)},
}


def _dense_marginal(case) -> tuple[DensityOp, DensityOp, list[str], list[str]]:
    """A case's AC marginal, once as a pure state's marginal (which splits
    the vector) and once as a dense DensityOp copy of its matrix."""
    make, a, c = KI_PATH_CASES[case]
    a, c = a.split(","), c.split(",")
    rho = marginal(make(), a + c)
    return rho, DensityOp(rho.layout, rho.mat), a, c


class TestOneKiPath:
    """A DensityOp takes the pure state's path: its Split keeps the factor
    U sqrt(lambda) of its eigh, and _assemble factorizes each block from
    the block rows of Y = (Gamma (x) I_C) us."""

    @pytest.mark.parametrize("case", list(KI_PATH_CASES))
    def test_dense_agrees_with_vector(self, case):
        rho, dense, a, c = _dense_marginal(case)
        got, want = ki_decompose(dense, a, c), ki_decompose(rho, a, c)
        assert got.dims == want.dims
        assert [(b.dim_l, b.dim_r) for b in got.blocks] == [
            (b.dim_l, b.dim_r) for b in want.blocks]
        for g, w in zip(got.blocks, want.blocks):
            assert abs(g.p - w.p) <= 1e-12
            for name in ("omega", "phi", "phi_ar"):
                spec_g, spec_w = getattr(g, name).spectrum, getattr(w, name).spectrum
                assert np.max(np.abs(spec_g - spec_w)) <= 1e-12, name

    @pytest.mark.parametrize("case", ["vic", "random-3-4-3", "vib-vic-1e-07"])
    def test_dense_factorizes_once(self, case, monkeypatch):
        # ki_decompose on a dense input factorizes rho_AC once, in its split,
        # and hands no block factor itself to a solver (the old path's eigh);
        # validate_ki reads the split the operator keeps and factorizes
        # nothing at the full AC dimension
        _, dense, a, c = _dense_marginal(case)
        ordered = permute_mat(dense.mat, dense.layout, a + c)
        seen = _recording(monkeypatch)
        dec = ki_decompose(dense, a, c)
        for blk in dec.blocks:
            for op in (blk.omega.mat, blk.phi.mat):
                assert not any(m.shape == op.shape and np.allclose(m, op, rtol=0, atol=1e-12)
                               for m in seen)
        assert sum(_factorizes(m, ordered) for m in seen) == 1
        seen.clear()
        assert validate_ki(dec, dense).ok()
        assert not any(_factorizes(m, ordered) for m in seen)


@st.composite
def generic_marginals(draw) -> tuple[DensityOp, PureVec]:
    """The AC marginal of a random state on (A, B, C), from the vector or as
    a dense copy, and the state.  A random isometry embeds an A' of
    dimension 1-4 into A with up to 2 more dimensions, so rho_A may be rank
    deficient; d_B = 1-6 leaves rho_AC rank deficient too, as at (4, 2, 4)
    and (3, 2, 3).  Dense or subnormalized inputs, whose block weight p is
    not 1, take the same path."""
    d_a1, extra = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    d_b, d_c = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = random_pure(layout(("A", d_a1), ("B", d_b), ("C", d_c)), rng)
    w = haar_unitary(d_a1 + extra, rng)[:, :d_a1]
    vec = np.einsum("ia,abc->ibc", w, small.vec.reshape(d_a1, d_b, d_c))
    psi = PureVec(layout(("A", d_a1 + extra), ("B", d_b), ("C", d_c)), vec.reshape(-1))
    scale = draw(st.sampled_from([1.0, 0.3]))
    rho = marginal(PureVec(psi.layout, scale * psi.vec, normalized=scale == 1.0), ["A", "C"])
    if draw(st.booleans()):
        rho = DensityOp(rho.layout, rho.mat, trace_of_one=rho.trace_of_one)
    return rho, psi


def _gram(pairs: Eigenpairs) -> np.ndarray:
    return (pairs.vecs * pairs.vals) @ pairs.vecs.conj().T


class TestTrivialStructureReadOff:
    """On a generic state's one block with dim_l = 1, _assemble reads phi's
    eigenpairs off the split and ki_tripartite takes the identity as the
    polar factor; the general path (a thin SVD of Y's block rows, and the
    SVD polar factor of X_s† T) is the oracle."""

    @PROPERTY
    @given(generic_marginals())
    def test_eigenpairs_match_block_row_svd(self, case):
        rho, _ = case
        dec = ki_decompose(rho, ["A"], ["C"])
        assert dec.dims[:2] == (1, 1)
        (blk,) = dec.blocks
        y = _ki_factor(dec.gamma_total, _split_density(rho, ["A"], ["C"]).us) / np.sqrt(blk.p)
        for got, want in ((blk.omega, Eigenpairs.of_factor(y.reshape(1, -1))),
                          (blk.phi, Eigenpairs.of_factor(y))):
            assert np.max(np.abs(_gram(got._pairs) - _gram(want))) <= 1e-12
            spectrum = np.zeros(got.dim)
            spectrum[got.dim - len(want.vals):] = want.vals[::-1]
            assert np.max(np.abs(got.spectrum - spectrum)) <= 1e-12

    @PROPERTY
    @given(generic_marginals())
    def test_b_side_isometry_matches_polar_factor(self, case):
        _, psi = case
        # on the trivial structure the block form is the state in the
        # basis of supp(rho_B) column by column: the polar factor, and so
        # the B-side isometry, is the identity
        tki = ki_tripartite(psi)
        assert tki.base.dims[:2] == (1, 1)
        ((om, ph),) = tki.purified_blocks
        r = om.layout.dim_of(["bL"]) * ph.layout.dim_of(["bR"])
        x_s = _ki_factor(tki.base.gamma_total, _split_pure(psi, ["A"], ["C"], ["B"]).us)[:, :r]
        d_c = psi.layout.dim_of(["C"])
        t = tki.ki_pure_state().vec.reshape(-1, r, d_c).transpose(0, 2, 1).reshape(-1, r)
        pu, _, pvh = np.linalg.svd(x_s.conj().T @ t)
        assert tki.residual <= np.linalg.norm(x_s @ (pu @ pvh) - t) + 1e-12
        assert np.max(np.abs(x_s - t)) <= 1e-12


AGREEMENT_CASES = {
    "via-2": lambda: build_example("VIA", d=2, lam=0.6),
    "via-3": lambda: build_example("VIA", d=3, lam=0.5),
    "vib-2": lambda: build_example("VIB", d=2, lam=0.3),
    "vib-3": lambda: build_example("VIB", d=3, lam=0.5),
    "vic": lambda: build_example("VIC", lam=(0.2, 0.3, 0.5)),
    **{f"random-{d[0]}-{d[1]}-{d[2]}": (
        lambda d=d: random_pure(layout(*zip("ABC", d)), np.random.default_rng(sum(d))))
       for d in ((2, 3, 2), (3, 9, 3), (4, 5, 3), (5, 25, 5))},
}


class TestSplitAgreesWithMarginals:
    @pytest.mark.parametrize("case", list(AGREEMENT_CASES))
    def test_spectrum_and_roots(self, case):
        psi = AGREEMENT_CASES[case]()
        split = _split_pure(psi, ["A"], ["C"])
        rho_ac, rho_a = marginal(psi, ["A", "C"]), marginal(psi, ["A"])
        spectrum = np.zeros(rho_ac.dim)
        spectrum[:len(split.ac.vals)] = split.ac.vals
        assert np.max(np.abs(np.sort(spectrum) - rho_ac.spectrum)) <= 1e-12
        assert np.max(np.abs(split.ac.sqrt() - Eigenpairs.of(rho_ac.mat).sqrt())) <= 1e-12
        assert np.max(np.abs(split.a.inv_sqrt() - Eigenpairs.of(rho_a.mat).inv_sqrt())) <= 1e-12
        assert np.max(np.abs(split.a.sqrt() - Eigenpairs.of(rho_a.mat).sqrt())) <= 1e-12


def _projector(basis) -> np.ndarray:
    """Orthogonal projector onto the span of HS-orthonormal matrices."""
    rows = np.array([x.reshape(-1) for x in basis])
    return rows.T @ rows.conj()


def _full_nullspace(system: np.ndarray, floor: float) -> np.ndarray:
    """Nullspace rows from the SVD with the full U, at the solvers' cutoff."""
    _, svals, vh = np.linalg.svd(system, full_matrices=True)
    rank = int(np.sum(svals > max(svals[0], floor) * NULLSPACE_RTOL))
    return vh[rank:].conj()


def _adjoint_closed(gens) -> list[np.ndarray]:
    """The generators followed by their adjoints."""
    return list(gens) + [g.conj().T for g in gens]


class TestThinSvd:
    @pytest.fixture(scope="class")
    def gens(self):
        rho_ac = marginal(_vib_pair(0.3, 0.7), ["A1", "A2", "C1", "C2"])
        return list(channel_E(rho_ac, ["A1", "A2"], ["C1", "C2"]).kraus)

    def test_commutant_span(self, gens):
        comm = _commutant_of_family(gens)
        d = gens[0].shape[0]
        eye = np.eye(d)
        system = np.vstack([np.kron(f, eye) - np.kron(eye, f.T)
                            for f in _adjoint_closed(gens)])
        ref = _full_nullspace(system, max(np.linalg.norm(f) for f in gens))
        ref = [row.reshape(d, d) for row in ref]
        assert 1 < len(comm) == len(ref) < d * d
        assert np.max(np.abs(_projector(comm) - _projector(ref))) <= 1e-10


def _stacked_system(family) -> np.ndarray:
    """The whole commutator system, one np.kron pair per member."""
    d = family[0].shape[0]
    eye = np.eye(d)
    return np.vstack([np.kron(f, eye) - np.kron(eye, f.T) for f in family])


def _oracle(gens):
    """Singular values and nullspace basis of the thin SVD of the stacked
    system of the generators and their adjoints, at the solver's cutoff."""
    d = gens[0].shape[0]
    _, svals, vh = np.linalg.svd(_stacked_system(_adjoint_closed(gens)),
                                 full_matrices=False)
    scale = max(np.linalg.norm(f) for f in gens)
    rank = int(np.sum(svals > max(svals[0], scale) * NULLSPACE_RTOL))
    return svals, [row.conj().reshape(d, d) for row in vh[rank:]]


def _complex_gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def generators(draw) -> list[np.ndarray]:
    """Generators of dimension d = 1-6, whose counts straddle d², the count
    of real unknowns, and reach 40.

    random: generic members.  block: two diagonal blocks in a random basis.
    tensor: U (X ⊗ I_m) U†, with a commutant of dimension m².  identity:
    every member the identity, a zero system.
    """
    d = draw(st.integers(1, 6))
    length = draw(st.sampled_from([1, 2, max(1, d * d - 1), d * d, d * d + 1, 40]))
    kind = draw(st.sampled_from(["random", "block", "tensor", "identity"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(_complex_gaussian(rng, d, d))[0]
    if kind == "random":
        members = list(_complex_gaussian(rng, length, d, d))
    elif kind == "block":
        split = draw(st.integers(1, max(1, d - 1)))
        x = _complex_gaussian(rng, length, d, d)
        x[:, :split, split:] = x[:, split:, :split] = 0
        members = [u @ m @ u.conj().T for m in x]
    elif kind == "tensor":
        m = draw(st.sampled_from([k for k in range(1, d + 1) if d % k == 0]))
        members = [u @ np.kron(a, np.eye(m)) @ u.conj().T
                   for a in _complex_gaussian(rng, length, d // m, d // m)]
    else:
        members = [np.eye(d, dtype=complex)] * length
    return members


class TestStreamedCommutant:
    """The Gram eigensolve and the candidates' SVD against the thin SVD of
    the stacked complex system of the generators and their adjoints."""

    @PROPERTY
    @given(generators())
    def test_matches_stacked_svd(self, gens):
        d = gens[0].shape[0]
        ref_svals, ref_null = _oracle(gens)
        gram = channels._commutator_gram(np.asarray(gens).reshape(len(gens), d * d), d)
        floor = max(ref_svals[0], max(np.linalg.norm(g) for g in gens))
        assert np.max(np.abs(np.linalg.eigvalsh(gram) - np.sort(ref_svals ** 2))
                      ) <= 1e-13 * floor ** 2
        comm = _commutant_of_family(gens)
        assert len(comm) == len(ref_null) >= 1
        assert np.max(np.abs(_projector(comm) - _projector(ref_null))) <= 1e-10

    @PROPERTY
    @given(generators())
    def test_basis_hermitian_orthonormal(self, gens):
        comm = np.asarray(_commutant_of_family(gens))
        assert np.max(np.abs(comm - comm.conj().transpose(0, 2, 1))) <= 1e-12
        flat = comm.reshape(len(comm), -1)
        assert np.max(np.abs(flat.conj() @ flat.T - np.eye(len(comm)))) <= 1e-12


def _ki_family(psi: PureVec) -> np.ndarray:
    """channel_E's Kraus family of psi's AC marginal on supp(rho_A), the
    family ki_decompose solves."""
    rho_ac = marginal(psi, ["A", "C"])
    q = Eigenpairs.of(marginal(psi, ["A"]).mat).support()
    return q.conj().T @ np.stack(channel_E(rho_ac, ["A"], ["C"]).kraus) @ q


class TestResolutionEdge:
    """Near the Markov point the separating singular value sigma sits at
    the rank rule's cut: about 10-25·eps on VIB(2, 0.2) plus noise eps and
    2.67·eps on VIA(2, 1/4 + eps), against a cut near 1.4e-9.  The Gram
    eigenvalue sigma² is round-off there, so the count rests on the
    candidates' unsquared SVD."""

    @pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 1e-8])
    def test_noisy_vib_matches_oracle(self, eps):
        psi = build_example("VIB", d=2, lam=0.2)
        v = psi.vec + eps * _complex_gaussian(np.random.default_rng(0), *psi.vec.shape)
        gens = _ki_family(PureVec(psi.layout, v / np.linalg.norm(v)))
        assert len(_commutant_of_family(gens)) == len(_oracle(list(gens))[1])

    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
    def test_via_matches_oracle(self, eps):
        gens = _ki_family(build_example("VIA", d=2, lam=0.25 + eps))
        assert len(_commutant_of_family(gens)) == len(_oracle(list(gens))[1])

    @pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
    def test_via_keeps_identity(self, eps):
        # every generator is nearly scalar, so lambda_max is ~7·eps² or, at
        # eps = 1e-9, round-off; the identity's eigenvalue is round-off of
        # either sign, which a cut relative to lambda_max alone can exclude
        gens = _ki_family(build_example("VIA", d=2, lam=0.25 + eps))
        d = gens.shape[1]
        ident = np.eye(d).reshape(-1) / np.sqrt(d)
        proj = _projector(_commutant_of_family(gens))
        assert np.linalg.norm(proj @ ident - ident) <= 1e-10


class TestCommutantCost:
    def test_one_eigh_no_qr_per_solve(self, monkeypatch):
        # each family's candidate commutators fit one fold, so no QR
        calls = []
        for name in ("eigh", "qr"):
            def counting(m, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(m)[-1]))
                return _solve(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        rho_ac = marginal(_vib_pair(0.2, 0.6), ["A1", "A2", "C1", "C2"])
        gens = list(channel_E(rho_ac, ["A1", "A2"], ["C1", "C2"]).kraus)
        rng = np.random.default_rng(2)
        for family in (gens, _complex_gaussian(rng, 25, 5, 5), [np.eye(4)] * 20):
            calls.clear()
            _commutant_of_family(family)
            d = family[0].shape[0]
            assert calls == [("eigh", d * d)]

    @pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-9, 1e-8, 1e-6])
    def test_folded_near_scalar_matches_oracle(self, delta, monkeypatch):
        # nearly scalar generators make every Gram eigenvector a candidate,
        # so the count rests on the factor folded over all their
        # commutators, here one generator per fold: the traceless parts span
        # d² - 1 = 15 dimensions, so 15 members and 14 folds
        rng = np.random.default_rng(5)
        gens = list(_complex_gaussian(rng, 20, 1, 1) * np.eye(4)
                    + delta * _complex_gaussian(rng, 20, 4, 4))
        folds = []
        qr = np.linalg.qr
        monkeypatch.setattr(channels, "COMMUTANT_FOLD_ENTRIES", 1)
        monkeypatch.setattr(np.linalg, "qr", lambda m, *a, **kw: folds.append(m) or qr(m, *a, **kw))
        comm = _commutant_of_family(gens)
        ref_null = _oracle(gens)[1]
        assert len(folds) == 14
        assert len(comm) == len(ref_null)
        assert np.max(np.abs(_projector(comm) - _projector(ref_null))) <= 1e-10

    def test_noisy_product_state_within_fold_budget(self, monkeypatch):
        # a product state plus noise at d_A = d_C = 16: all d² = 256 Gram
        # eigenvectors are candidates and the noise keeps 244 of the 256
        # generators' span, so the candidates' commutators hold 2·244·d⁴
        # reals (256 MB), which the solve may only take in folds
        rng = np.random.default_rng(16)
        ab, c = random_pure(layout(("A", 16), ("B", 16)), rng), random_pure(layout(("C", 16)), rng)
        v = np.kron(ab.vec, c.vec) + 3e-9 * _complex_gaussian(rng, 16 ** 3)
        gens = _ki_family(PureVec(layout(("A", 16), ("B", 16), ("C", 16)), v / np.linalg.norm(v)))
        sizes = []
        for name in ("qr", "svd"):
            def counting(m, *args, _solve=getattr(np.linalg, name), **kwargs):
                sizes.append(m.size)
                return _solve(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        tracemalloc.start()
        try:
            comm = _commutant_of_family(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(comm) == 1
        # no factorization is handed more than one fold stacked under R
        assert max(sizes) <= channels.COMMUTANT_FOLD_ENTRIES + 256 ** 2
        assert peak <= 6 * 8 * channels.COMMUTANT_FOLD_ENTRIES

    def test_d24_random_family_is_scalar(self):
        # 576 generators at d = 24, as many as a random (24, 576, 24) pure
        # state's family has
        gens = _complex_gaussian(np.random.default_rng(24), 576, 24, 24)
        comm = _commutant_of_family(gens)
        assert len(comm) == 1
        scalar = np.trace(comm[0]) / 24
        assert abs(abs(scalar) * np.sqrt(24) - 1) <= 1e-12
        assert np.max(np.abs(comm[0] - scalar * np.eye(24))) <= 1e-12


ROWS, COLS = "abcd", "ABCD"


@st.composite
def layouts(draw) -> SystemLayout:
    """1-4 factors of dims 1-3."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return SystemLayout(zip(LABELS, dims))


def _complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _axes_of(lay: SystemLayout, order) -> list[int]:
    """Layout axes of ``order`` followed by the unnamed factors in layout order."""
    full = list(order) + [l for l in lay.labels if l not in order]
    return [lay.labels.index(l) for l in full]


def _permuted(mat: np.ndarray, lay: SystemLayout, order) -> np.ndarray:
    """Per-index oracle of ``permute_mat``."""
    n, axes = len(lay.dims), _axes_of(lay, order)
    spec = (ROWS[:n] + COLS[:n] + "->" + "".join(ROWS[i] for i in axes)
            + "".join(COLS[i] for i in axes))
    return np.einsum(spec, mat.reshape(lay.dims * 2)).reshape(lay.dim, lay.dim)


class TestAxisKernel:
    @PROPERTY
    @given(layouts(), st.data())
    def test_permute_mat_matches_einsum(self, lay, data):
        order = data.draw(st.permutations(lay.labels))
        lead = order[:data.draw(st.integers(0, len(order)))]
        mat = _complex(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                       (lay.dim, lay.dim))
        for named in (order, lead):
            assert np.max(np.abs(permute_mat(mat, lay, named) - _permuted(mat, lay, named))
                          ) <= 1e-12

    @PROPERTY
    @given(layouts(), st.data())
    def test_permute_vec_matches_einsum(self, lay, data):
        order = data.draw(st.permutations(lay.labels))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vec = _complex(rng, lay.dim)
        psi = PureVec(lay, vec / np.linalg.norm(vec))
        n, axes = len(lay.dims), _axes_of(lay, order)
        spec = ROWS[:n] + "->" + "".join(ROWS[i] for i in axes)
        got = permute_vec(psi, order)
        assert got.layout == lay.reorder(order)
        assert np.max(np.abs(got.vec - np.einsum(spec, psi.vec.reshape(lay.dims)).reshape(-1))
                      ) <= 1e-12

    @PROPERTY
    @given(layouts(), st.data())
    def test_partial_trace_matches_einsum(self, lay, data):
        order = data.draw(st.permutations(lay.labels))
        keep = order[:data.draw(st.integers(0, len(order)))]
        rho = random_density(lay, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        n = len(lay.dims)
        kept = [i for i, l in enumerate(lay.labels) if l in keep]
        cols = "".join(COLS[i] if i in kept else ROWS[i] for i in range(n))
        spec = (ROWS[:n] + cols + "->" + "".join(ROWS[i] for i in kept)
                + "".join(COLS[i] for i in kept))
        sub = lay.restrict(keep)
        want = np.einsum(spec, rho.mat.reshape(lay.dims * 2)).reshape(sub.dim, sub.dim)
        got = partial_trace(rho, keep)
        assert got.layout == sub
        assert np.max(np.abs(got.mat - want)) <= 1e-12
        assert (got is rho) == (len(keep) == n)
        assert partial_trace(rho, order) is rho


LAYOUT_242 = layout(("A", 2), ("B", 4), ("C", 2))


def _markov_242(rng) -> DensityOp:
    """sum_i p_i sigma_i(A) (x) |i><i|(b0) (x) phi_i(bR, C), with B = (b0, bR):
    an exact Markov state on (A, B, C) of dims (2, 4, 2)."""
    total = np.zeros((16, 16), dtype=np.complex128)
    for i, p in enumerate((0.3, 0.7)):
        e = np.zeros((2, 2))
        e[i, i] = p
        sigma = random_density(layout(("A", 2)), rng).mat
        phi = random_density(layout(("bR", 2), ("C", 2)), rng).mat
        total += np.kron(sigma, np.kron(e, phi))
    return DensityOp(LAYOUT_242, total)


@pytest.fixture
def no_permute_op(monkeypatch):
    """``permute_op`` raises under every name the package binds it to."""
    def refuse(*args, **kwargs):
        raise AssertionError("a DensityOp was rebuilt to reorder its factors")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qmarkov" and hasattr(module, "permute_op"):
            monkeypatch.setattr(module, "permute_op", refuse)


class TestReorderWithoutRebuild:
    def test_checks_run_without_permute_op(self, no_permute_op):
        rng = np.random.default_rng(5)
        ups = _markov_242(rng)
        rec = recovery_check(ups)
        assert max(rec.from_ab, rec.from_bc) <= 1e-10
        md = markov_decomposition(ups, rng=rng)
        assert len(md.terms) == 2
        rho_ac = partial_trace(ups, ["A", "C"])
        val = validate_ki(ki_decompose(rho_ac, ["A"], ["C"], rng=rng), rho_ac)
        assert val.reconstruction_residual <= 1e-10
        report = bounds_check(build_example("VIB", d=2, lam=0.3), rng=rng)
        assert report.m_algorithm == pytest.approx(report.m_formula, abs=1e-9)
        assert bounds_check(ups).m_formula is None

    @pytest.mark.parametrize("markov", [True, False], ids=["markov", "random"])
    @pytest.mark.parametrize("command, full_ops", [("is-markov", 1), ("recovery-check", 1)])
    def test_cli_builds_each_full_operator_once(self, command, full_ops, markov, tmp_path,
                                                capsys, monkeypatch):
        rng = np.random.default_rng(6)
        ups = _markov_242(rng) if markov else random_density(LAYOUT_242, rng)
        path = tmp_path / "mixed.json"
        stateio.dump(ups, str(path))
        built = []
        init = DensityOp.__init__

        def counting(self, lay, *args, **kwargs):
            built.append(lay.dim)
            init(self, lay, *args, **kwargs)
        monkeypatch.setattr(DensityOp, "__init__", counting)
        code = cli.main([command, str(path)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert built.count(16) == full_ops

    @pytest.mark.parametrize("markov", [True, False], ids=["markov", "random"])
    @pytest.mark.parametrize("command, solves", [
        ("entropy", 1), ("is-markov", 1), ("recovery-check", 3)])
    def test_cli_eigensolves_at_full_dimension(self, command, solves, markov, tmp_path,
                                               capsys, monkeypatch):
        # the loader's validation solve, which entropies reread; recovery-check
        # adds one trace norm per reconstruction
        rng = np.random.default_rng(6)
        ups = _markov_242(rng) if markov else random_density(LAYOUT_242, rng)
        path = tmp_path / "mixed.json"
        stateio.dump(ups, str(path))
        sizes = []
        for name in ("eigvalsh", "eigh", "svd"):
            def counting(m, *args, _solve=getattr(np.linalg, name), **kwargs):
                sizes.append(np.shape(m)[-1])
                return _solve(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        code = cli.main([command, str(path)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert sizes.count(16) == solves
