"""A state's field is decided where it is built.

``PureVec`` and ``DensityOp`` store an input with no nonzero imaginary part
as float64, and nothing downstream casts it back, so real states run real
kernels.  A global phase e^{i theta} leaves every density operator of a
state unchanged but makes its vector complex; the real path and the complex
one must then give the same answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import stateio
from qmarkov.channels import _omega_inf, _split_pure, transfer_matrices
from qmarkov.entropy import qcmi, trace_norm
from qmarkov.kidec import ki_tripartite
from qmarkov.linalg import HERM_TOL, DensityOp, PureVec, SystemLayout, layout, marginal
from qmarkov.markov import (
    bounds_check,
    build_example,
    markov_cost_algorithm,
    markov_cost_formula,
    recovery_check,
)

AGREE = 1e-12


class TestFieldRule:
    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_zero_imaginary_part_stored_real(self, imag):
        vec = np.array([0.6 + imag * 1j, -0.8 + imag * 1j])
        assert PureVec(layout(("A", 2)), vec).vec.dtype == np.float64
        mat = np.array([[0.5, 0.1], [0.1, 0.5]]) + imag * 1j
        assert DensityOp(layout(("A", 2)), mat).mat.dtype == np.float64

    def test_nonzero_imaginary_part_stays_complex(self):
        vec = np.array([0.6, 0.8j])
        assert PureVec(layout(("A", 2)), vec).vec.dtype == np.complex128
        mat = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        assert DensityOp(layout(("A", 2)), mat).mat.dtype == np.complex128

    def test_loaded_real_file_is_real(self):
        psi = build_example("VIB", d=2, lam=0.3)
        assert stateio.loads(stateio.dumps(psi)).vec.dtype == np.float64
        back = stateio.loads(stateio.dumps(psi.density()))
        assert back.mat.dtype == np.float64

    def test_real_input_not_mutated(self):
        # (m + m†) / 2 of a real m must not be formed in m's own buffer:
        # m.conj() is m itself for a real dtype
        m = np.array([[0.5, 0.1 + HERM_TOL / 2], [0.1, 0.5]])
        before = m.copy()
        DensityOp(layout(("A", 2)), m)
        assert m.tobytes() == before.tobytes()
        trace_norm(m)
        assert m.tobytes() == before.tobytes()

    def test_real_path_kernels(self):
        # VIB(2, 0.3): the split, the Kraus tensor, the transfer matrices and
        # Omega_inf of the spectral route are all real
        psi = build_example("VIB", d=2, lam=0.3)
        split = _split_pure(psi, ["A"], ["C"])
        t1, lam = transfer_matrices(marginal(psi, ["A", "C"]), ["A"], ["C"])
        assert [x.dtype for x in (psi.vec, split.us, split.kraus, t1, lam,
                                  _omega_inf(split))] == [np.float64] * 6


def _orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diagonal(r))


def _vib_pair(lam1: float, lam2: float):
    """VIB(2, lam1) (x) VIB(2, lam2) on (A1, A2, B1, B2, C1, C2)."""
    v = np.kron(build_example("VIB", d=2, lam=lam1).vec, build_example("VIB", d=2, lam=lam2).vec)
    v = v.reshape(3, 3, 2, 3, 3, 2).transpose(0, 3, 1, 4, 2, 5)
    lay = SystemLayout([("A1", 3), ("A2", 3), ("B1", 3), ("B2", 3), ("C1", 2), ("C2", 2)])
    return lay, v.reshape(-1), (["A1", "A2"], ["B1", "B2"], ["C1", "C2"])


@st.composite
def real_states(draw):
    """A real tripartite vector from VIA, VIB, VIC, VIB (x) VIB or a random
    draw, under independent random real orthogonal rotations of its
    factors, with its (A, B, C) labels."""
    kind = draw(st.sampled_from(["VIA", "VIB", "VIC", "VIBxVIB", "random"]))
    parts = (["A"], ["B"], ["C"])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "VIA":
        d = draw(st.integers(2, 3))
        psi = build_example("VIA", d=d, lam=draw(st.floats(1.0 / d ** 2, 1.0)))
        lay, vec = psi.layout, psi.vec
    elif kind == "VIB":
        psi = build_example("VIB", d=draw(st.integers(1, 3)), lam=draw(st.floats(0.0, 1.0)))
        lay, vec = psi.layout, psi.vec
    elif kind == "VIC":
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4)))
        psi = build_example("VIC", lam=w / np.sum(w))
        lay, vec = psi.layout, psi.vec
    elif kind == "VIBxVIB":
        lay, vec, parts = _vib_pair(draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95)))
    else:
        dims = draw(st.lists(st.integers(2, 3), min_size=3, max_size=3))
        lay = SystemLayout(list(zip("ABC", dims)))
        vec = rng.standard_normal(lay.dim)
        vec /= np.linalg.norm(vec)
    t = vec.reshape(lay.dims)
    for axis, d in enumerate(lay.dims):
        t = np.moveaxis(np.tensordot(_orthogonal(d, rng), t, axes=(1, axis)), 0, axis)
    return lay, t.reshape(-1), parts


def _answers(psi: PureVec, a, b, c) -> dict:
    """Every cost-path answer on psi: bounds_check, the formula and spectral
    routes alone, I(A:C|B), and the two Petz recovery residuals."""
    report = bounds_check(psi, a, b, c, rng=np.random.default_rng(7))
    rec = recovery_check(psi.density(), a, b, c)
    return {
        "m_formula": report.m_formula, "m_algorithm": report.m_algorithm,
        "qcmi": report.qcmi, "qmi_a_bc": report.qmi_a_bc,
        "self_adjoint": report.self_adjoint, "blocks": report.blocks,
        "route_formula": markov_cost_formula(
            ki_tripartite(psi, a, b, c, rng=np.random.default_rng(7))),
        "route_algorithm": markov_cost_algorithm(psi, a, b, c),
        "qcmi_of_state": qcmi(psi, a, b, c),
        "from_ab": rec.from_ab, "from_bc": rec.from_bc,
    }


def _agree(x, y) -> bool:
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_agree, x, y))
    if x is None or isinstance(x, bool):
        return x is y
    return abs(x - y) <= AGREE


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(real_states(), st.floats(0.1, np.pi - 0.1))
def test_real_state_agrees_with_its_complex_phase(state, theta):
    lay, vec, (a, b, c) = state
    psi = PureVec(lay, vec)
    phased = PureVec(lay, np.exp(1j * theta) * vec)
    assert (psi.vec.dtype, phased.vec.dtype) == (np.float64, np.complex128)
    real, cplx = _answers(psi, a, b, c), _answers(phased, a, b, c)
    assert real.keys() == cplx.keys()
    for key in real:
        assert _agree(real[key], cplx[key]), (key, real[key], cplx[key])
