"""The cost path on pure states works from the vector.

Marginals and entropies of a pure state come from the reshaped vector,
and the nullspace solves compute only the SVD factors they read.  The
dense definitions they replaced serve as oracles here.  Reorders and
partial traces share one axis kernel, checked against per-index einsums,
and internal reorders permute arrays without rebuilding a DensityOp.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import cli, stateio
from qmarkov.channels import NULLSPACE_RTOL, _commutant_of_family, channel_E
from qmarkov.entropy import qcmi, qmi
from qmarkov.kidec import _center_basis, ki_decompose, validate_ki
from qmarkov.linalg import (
    DensityOp,
    PureVec,
    SystemLayout,
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

    @pytest.mark.parametrize("argv", [["bounds"], ["markov-cost", "--route", "both"]])
    def test_cli(self, argv, tmp_path, capsys, no_density):
        path = tmp_path / "vib.json"
        stateio.dump(build_example("VIB", d=2, lam=0.3), str(path))
        code = cli.main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")


def _projector(basis) -> np.ndarray:
    """Orthogonal projector onto the span of HS-orthonormal matrices."""
    rows = np.array([x.reshape(-1) for x in basis])
    return rows.T @ rows.conj()


def _full_nullspace(system: np.ndarray, floor: float) -> np.ndarray:
    """Nullspace rows from the SVD with the full U, at the solvers' cutoff."""
    _, svals, vh = np.linalg.svd(system, full_matrices=True)
    rank = int(np.sum(svals > max(svals[0], floor) * NULLSPACE_RTOL))
    return vh[rank:].conj()


class TestThinSvd:
    @pytest.fixture(scope="class")
    def family(self):
        rho_ac = marginal(_vib_pair(0.3, 0.7), ["A1", "A2", "C1", "C2"])
        kraus = list(channel_E(rho_ac, ["A1", "A2"], ["C1", "C2"]).kraus)
        return kraus + [k.conj().T for k in kraus]

    def test_commutant_span(self, family):
        comm = _commutant_of_family(family)
        d = family[0].shape[0]
        eye = np.eye(d)
        system = np.vstack([np.kron(f, eye) - np.kron(eye, f.T) for f in family])
        ref = _full_nullspace(system, max(np.linalg.norm(f) for f in family))
        ref = [row.reshape(d, d) for row in ref]
        assert 1 < len(comm) == len(ref) < d * d
        assert np.max(np.abs(_projector(comm) - _projector(ref))) <= 1e-10

    def test_center_span(self, family):
        comm = _commutant_of_family(family)
        center = _center_basis(comm)
        system = np.array([np.concatenate([(x @ y - y @ x).reshape(-1) for y in comm])
                           for x in comm]).T
        ref = [sum(c * x for c, x in zip(row, comm))
               for row in _full_nullspace(system, 1.0)]
        assert 1 < len(center) == len(ref) <= len(comm)
        assert np.max(np.abs(_projector(center) - _projector(ref))) <= 1e-10


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
    @pytest.mark.parametrize("command, full_ops", [("is-markov", 1), ("recovery-check", 3)])
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
