import json
import math

import numpy as np
import pytest

import workloads as wl


def cli_answer(**report):
    return 0, json.dumps(report)


def test_cost_random_check():
    assert wl.check_cost_random(1.0, None, 0.5, 2.0) is None
    assert wl.check_cost_random(1.0, 1.0 + 5e-7, 0.5, 2.0) is None
    assert wl.check_cost_random(0.5 - 1e-5, None, 0.5, 2.0) is not None
    assert wl.check_cost_random(2.0 + 1e-5, None, 0.5, 2.0) is not None
    assert wl.check_cost_random(1.0, 1.0 + 1e-5, 0.5, 2.0) is not None
    assert wl.check_cost_random(None, None, 0.5, 2.0) is not None


def test_cost_structured_check():
    cost = wl.vib_pair_cost(0.3, 0.6)
    good = dict(m_formula_bits=repr(cost), m_algorithm_bits=repr(cost), self_adjoint="true")
    assert wl.check_cost_structured(*cli_answer(**good), cost) is None
    for key in ("m_formula_bits", "m_algorithm_bits"):
        assert wl.check_cost_structured(
            *cli_answer(**dict(good, **{key: repr(cost + 1e-5)})), cost) is not None
    assert wl.check_cost_structured(
        *cli_answer(**dict(good, m_algorithm_bits="this algorithm is not applicable")),
        cost) is not None
    assert wl.check_cost_structured(
        *cli_answer(**dict(good, self_adjoint="false")), cost) is not None
    assert wl.check_cost_structured(1, json.dumps(good), cost) is not None


def recovery(residual):
    return cli_answer(residual_rebuild_C_from_AB=repr(residual),
                      residual_rebuild_A_from_BC=repr(residual))


def test_mixed_check():
    markov, random = cli_answer(is_markov="true"), cli_answer(is_markov="false")
    assert wl.check_mixed(True, markov, recovery(1e-14)) is None
    assert wl.check_mixed(True, markov, recovery(1e-6)) is not None
    assert wl.check_mixed(True, random, recovery(1e-14)) is not None
    assert wl.check_mixed(False, random, recovery(0.8)) is None
    assert wl.check_mixed(False, random, recovery(1e-4)) is not None
    assert wl.check_mixed(False, markov, recovery(0.8)) is not None
    assert wl.check_mixed(True, (1, ""), recovery(1e-14)) is not None


def test_protocol_check():
    assert wl.check_protocol(0.91, 0.24, 0.33, 0.91) is None
    assert wl.check_protocol(0.91 + 1e-8, 0.24, 0.33, 0.91) is not None
    assert wl.check_protocol(0.91, 2.5, 0.33, 0.91) is not None
    assert wl.check_protocol(0.91, 0.24, math.nan, 0.91) is not None
    assert wl.check_protocol(0.91, -0.1, 0.33, 0.91) is not None


def test_closed_forms_match_qmarkov():
    import qmarkov

    lay = qmarkov.SystemLayout([("A", 3), ("B", 3), ("C", 2)])
    for lam in (0.2, 0.7):
        rep = qmarkov.bounds_check(qmarkov.PureVec(lay, wl.vib_vector(lam)))
        assert rep.m_formula == pytest.approx(wl.binary_entropy(lam) + 2 * lam, abs=1e-9)
    rng = np.random.default_rng(3)
    dims = (2, 4, 3)
    vec = wl.haar_vector(24, rng)
    rho = qmarkov.PureVec(qmarkov.SystemLayout(list(zip("ABC", dims))), vec).density()
    cond, total = wl.pure_information(vec, dims)
    assert cond == pytest.approx(qmarkov.qcmi(rho, "A", "B", "C"), abs=1e-9)
    assert total == pytest.approx(qmarkov.qmi(rho, "A", "BC"), abs=1e-9)


def test_state_text_round_trips_through_stateio():
    from qmarkov import stateio

    rng = np.random.default_rng(4)
    mat = wl.wishart(6, rng)
    state = stateio.loads(wl.state_text((("A", 2), ("B", 3)), mat))
    assert np.array_equal(state.mat, mat / np.trace(mat).real)
