import argparse
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmarkov import cli, stateio
from qmarkov.cli import build_parser, main
from qmarkov.linalg import (DensityOp, PureVec, SystemLayout, layout, marginal,
                            random_density, random_pure)
from qmarkov.markov import build_example
from qmarkov.selftest import CriterionResult

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def rng():
    return np.random.default_rng(2718)


class TestStateFiles:
    def test_pure_round_trip(self, rng):
        psi = random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng)
        back = stateio.loads(stateio.dumps(psi))
        assert isinstance(back, PureVec)
        assert back.layout == psi.layout
        assert np.max(np.abs(back.vec - psi.vec)) <= 1e-15

    def test_mixed_round_trip(self, rng):
        rho = random_density(layout(("A", 2), ("B", 3)), rng)
        back = stateio.loads(stateio.dumps(rho))
        assert isinstance(back, DensityOp)
        assert np.max(np.abs(back.mat - rho.mat)) <= 1e-15

    def test_ghz_file(self):
        psi = build_example("VIC", lam=(0.5, 0.5))
        back = stateio.loads(stateio.dumps(psi))
        assert abs(np.linalg.norm(back.vec) - 1.0) <= 1e-12

    def test_mixed_identity_product(self):
        rho = DensityOp(layout(("A", 2), ("B", 2)), np.eye(4) / 4)
        back = stateio.loads(stateio.dumps(rho))
        assert abs(back.trace() - 1.0) <= 1e-12

    def test_truncated_data(self):
        doc = json.loads(stateio.dumps(build_example("VIC", lam=(0.5, 0.5))))
        doc["data"] = doc["data"][:-1]
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "SCHEMA_LEN"

    def test_norm_violation(self):
        doc = json.loads(stateio.dumps(build_example("VIC", lam=(0.5, 0.5))))
        doc["data"][0][0] *= 1.5
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "NORM"

    def test_bad_version(self):
        doc = json.loads(stateio.dumps(build_example("VIC", lam=(0.5, 0.5))))
        doc["version"] = 99
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "SCHEMA_VERSION"

    def test_missing_field(self):
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads("{}")
        assert err.value.code == "SCHEMA_FIELD"

    def test_nesting_too_deep(self):
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads("[" * 100000)
        assert err.value.code == "SCHEMA_JSON"

    @pytest.mark.parametrize("kind, data, where", [
        ("pure", [[float("nan"), 0], [0, 0]], "data[0]"),
        ("mixed", [[[0.5, 0], [0, 0]], [[0, 0], [float("nan"), 0]]], "data[1][1]"),
        ("pure", [[1, 0], [0, float("inf")]], "data[1]"),
    ])
    def test_non_finite_entry_rejected(self, kind, data, where):
        doc = {"version": 1, "kind": kind, "layout": [["A", 2]], "data": data}
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "SCHEMA_ENTRY"
        assert f"{where}: non-finite" in str(err.value)

    def test_boolean_entry_rejected(self):
        doc = {"version": 1, "kind": "pure", "layout": [["A", 2]],
               "data": [[True, 0], [0, 0]]}
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "SCHEMA_ENTRY"

    @pytest.mark.parametrize("kind, data, where", [
        ("pure", [[10 ** 400, 0], [0, 0]], "data[0]"),
        ("mixed", [[[1, 0], [0, 0]], [[0, -10 ** 400], [0, 0]]], "data[1][0]"),
    ])
    def test_huge_integer_entry_rejected(self, kind, data, where):
        doc = {"version": 1, "kind": kind, "layout": [["A", 2]], "data": data}
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "SCHEMA_ENTRY"
        assert f"{where}: entry out of double range" in str(err.value)

    def test_small_denormalization_repaired(self):
        doc = json.loads(stateio.dumps(build_example("VIC", lam=(0.5, 0.5))))
        doc["data"][0][0] *= 1 + 5e-7
        back = stateio.loads(json.dumps(doc))
        assert abs(np.linalg.norm(back.vec) - 1.0) <= 1e-12

    def test_boolean_version_rejected(self):
        doc = json.loads(stateio.dumps(build_example("VIC", lam=(0.5, 0.5))))
        doc["version"] = True                      # == 1 in Python
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "SCHEMA_VERSION"

    def test_boolean_layout_dimension_rejected(self):
        doc = {"version": 1, "kind": "pure", "layout": [["A", 2], ["B", True]],
               "data": [[1, 0], [0, 0]]}          # valid if B were a dim-1 factor
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert err.value.code == "SCHEMA_LAYOUT"


FILES = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# each replaces one [re, im] entry, or one of its two numbers
BAD_ENTRIES = [float("nan"), float("inf"), True, 10 ** 400, "x", None, [1], [1, 2, 3],
               [[1, 2], [3, 4]]]


@st.composite
def saved_states(draw, kinds=("pure", "mixed")):
    """Random states on 1-3 factors of dims 1-3 with some signed-zero
    entries, whose norm or trace is exactly 1 in double precision (the
    loader's normalization is then the identity)."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    lay = SystemLayout(list(zip("ABC", dims)))
    d = lay.dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zeros = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    zeros[0] = False
    if draw(st.sampled_from(kinds)) == "pure":
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x[zeros] = complex(-0.0, -0.0)
        scale = np.linalg.norm
    else:
        # complex even at d = 1, where random_density is real
        x = random_density(lay, rng).mat.astype(np.complex128)
        x.imag[np.diag_indices(d)] = -0.0
        if zeros.any():   # pinching index 0 off the rest keeps x PSD
            x[0, 1:] = x[1:, 0] = complex(-0.0, -0.0)
        scale = lambda m: np.trace(m).real
    for _ in range(4):
        x = x / scale(x)
    assume(scale(x) == 1.0)
    return PureVec(lay, x) if x.ndim == 1 else DensityOp(lay, x)


def _array_of(state):
    return state.vec if isinstance(state, PureVec) else state.mat


class TestStateFileProperties:
    @FILES
    @given(saved_states())
    def test_round_trip_is_bit_exact(self, state):
        back = stateio.loads(stateio.dumps(state))
        assert (type(back), back.layout) == (type(state), state.layout)
        assert _array_of(back).tobytes() == _array_of(state).tobytes()  # -0.0 kept

    @FILES
    @given(saved_states(), st.sampled_from(BAD_ENTRIES), st.data())
    def test_bad_entry_named(self, state, bad, data):
        doc = json.loads(stateio.dumps(state))
        d = state.layout.dim
        index = [data.draw(st.integers(0, d - 1)) for _ in range(_array_of(state).ndim)]
        row = doc["data"] if len(index) == 1 else doc["data"][index[0]]
        if data.draw(st.booleans()):
            row[index[-1]] = bad
        else:
            row[index[-1]][data.draw(st.integers(0, 1))] = bad
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        where = "".join(f"[{i}]" for i in index)
        assert err.value.code == "SCHEMA_ENTRY"
        assert str(err.value).startswith(f"SCHEMA_ENTRY: data{where}: ")

    @FILES
    @given(saved_states(), st.data())
    def test_short_row_named(self, state, data):
        doc = json.loads(stateio.dumps(state))
        d = state.layout.dim
        if isinstance(state, PureVec):
            doc["data"].pop(data.draw(st.integers(0, d - 1)))
            message = f"SCHEMA_LEN: pure data length {d - 1} != {d}"
        else:
            short = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
            for i in short:
                doc["data"][i].pop()
            message = f"SCHEMA_LEN: row {min(short)} length != {d}"
        with pytest.raises(stateio.StateFileError) as err:
            stateio.loads(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_accepted_file_walks_no_entry(self, kind, monkeypatch):
        lay = layout(("A", 4), ("B", 4), ("C", 4))
        rng = np.random.default_rng(64)
        state = random_pure(lay, rng) if kind == "pure" else random_density(lay, rng)
        text = stateio.dumps(state)

        def walked(entry):
            raise AssertionError("an accepted file was checked entry by entry")
        monkeypatch.setattr(stateio, "_entry_fault", walked)
        back = stateio.loads(text)
        assert np.max(np.abs(_array_of(back) - _array_of(state))) <= 1e-15

    def test_accepted_mixed_file_skips_json_loads(self, monkeypatch):
        lay = layout(("A", 4), ("B", 4), ("C", 4))
        state = random_density(lay, np.random.default_rng(64))
        text = stateio.dumps(state)

        def parsed(*args, **kwargs):
            raise AssertionError("an accepted mixed file was parsed whole by json.loads")
        monkeypatch.setattr(json, "loads", parsed)
        back = stateio.loads(text)
        assert _array_of(back).tobytes() == _array_of(state).tobytes()

    @FILES
    @given(saved_states(), st.randoms(use_true_random=False))
    def test_respelled_file_loads_as_json_loads_reads_it(self, state, rnd):
        text = _respell(json.loads(stateio.dumps(state)), rnd)
        expected = _reference_load(text)
        with mock.patch.object(json, "loads", side_effect=AssertionError("parsed whole")):
            back = stateio.loads(text)
        assert (type(back), back.layout) == (type(state), state.layout)
        assert _array_of(back).tobytes() == expected.tobytes()

    def test_mixed_file_loads_in_bounded_memory(self):
        d = 128
        text = stateio.dumps(random_density(layout(("A", 8), ("B", 2), ("C", 8)),
                                            np.random.default_rng(128)))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stateio.loads(text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        # the result holds 16 B per entry and its validation a few copies more;
        # a tree of Python lists and floats costs some 136 B per entry alone
        assert peak <= 100 * d * d, f"{peak / (d * d):.0f} B per matrix entry"


def _respell(value, rnd) -> str:
    """value as JSON text in another spelling: random whitespace around
    every token, object keys shuffled with a discarded "data" key first,
    and each float written by repr, in exponent form or, when integral,
    as an integer."""
    def ws():
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.randrange(3)))
    if isinstance(value, dict):
        items = [(json.dumps(k), _respell(v, rnd)) for k, v in value.items()]
        rnd.shuffle(items)
        dropped = rnd.choice(["null", '"x"', "0", "[]", "[[0, 0]]", "[[[0, 0]]]"])
        items.insert(0, ('"data"', dropped))  # a repeated key keeps its last value
        return "{" + ",".join(f"{ws()}{k}{ws()}:{ws()}{v}{ws()}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(ws() + _respell(v, rnd) + ws() for v in value) + "]"
    if isinstance(value, float):
        forms = [repr(value), f"{value:.16e}", f"{value:.16E}".replace("E-0", "E-")]
        if value.is_integer():
            forms.append(str(int(value)))
        return rnd.choice(forms)
    return json.dumps(value)


def _reference_load(text: str) -> np.ndarray:
    """The loaded array by json.loads and the exact-type rule: an object
    array of the int and float leaves cast to doubles, its norm or trace
    divided out, and its real part alone when no imaginary part is nonzero."""
    doc = json.loads(text)
    x = np.array(doc["data"], dtype=object).astype(np.float64).view(np.complex128)[..., 0]
    scale = np.linalg.norm(x) if doc["kind"] == "pure" else np.trace(x).real
    x = x / float(scale)
    return x if x.imag.any() else x.real.copy()


# I/4 on a 2 x 2 layout; "@" marks the number a case spells as its token
MIXED_PREFIX = '{"version": 1, "kind": "mixed", "layout": [["A", 2], ["B", 2]], "data": '


def _mixed_text(edit=None, token=None) -> str:
    rows = [[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]
    if edit:
        edit(rows)
    text = MIXED_PREFIX + json.dumps(rows) + "}"
    return text.replace('"@"', token) if token else text


def _set(k, j, value, i=None):
    def edit(rows):
        if i is None:
            rows[k][j] = value
        else:
            rows[k][j][i] = value
    return edit


# Each rejected mixed file with its code and message, pinned as the walk of
# json.loads' tree names them, whichever reader first meets the fault.
REJECTED_MIXED = {
    "short_row": (_mixed_text(lambda rows: rows[2].pop()),
                  "SCHEMA_LEN: row 2 length != 4"),
    "extra_row": (_mixed_text(lambda rows: rows.append(rows[0])),
                  "SCHEMA_LEN: mixed data length 5 != 4"),
    "true_pair": (_mixed_text(_set(1, 3, [True, 0])),
                  "SCHEMA_ENTRY: data[1][3]: expected [re, im], got [True, 0]"),
    "true_number": (_mixed_text(_set(1, 3, "@", 0), "true"),
                    "SCHEMA_ENTRY: data[1][3]: expected [re, im], got [True, 0]"),
    "string": (_mixed_text(_set(3, 0, "0.5", 1)),
               "SCHEMA_ENTRY: data[3][0]: expected [re, im], got [0, '0.5']"),
    "triple": (_mixed_text(_set(0, 0, [0.25, 0, 0])),
               "SCHEMA_ENTRY: data[0][0]: expected [re, im], got [0.25, 0, 0]"),
    "nan": (_mixed_text(_set(2, 1, "@", 0), "NaN"),
            "SCHEMA_ENTRY: data[2][1]: non-finite entry"),
    "huge_integer": (_mixed_text(_set(0, 2, "@", 1), str(10 ** 400)),
                     "SCHEMA_ENTRY: data[0][2]: entry out of double range"),
    "huge_float": (_mixed_text(_set(0, 2, "@", 1), "1e400"),
                   "SCHEMA_ENTRY: data[0][2]: non-finite entry"),
    "last_data_short": (_mixed_text()[:-1] + ', "data": [[[1, 0]]]}',
                        "SCHEMA_LEN: mixed data length 1 != 4"),
    "kind_pure": (_mixed_text().replace('"mixed"', '"pure"'),
                  "SCHEMA_ENTRY: data[0]: expected [re, im], got "
                  "[[0.25, 0], [0, 0], [0, 0], [0, 0]]"),
    "trace": (_mixed_text(_set(0, 0, 0.5, 0)),
              "TRACE: trace 1.25 deviates from 1 beyond 1e-6"),
    "trailing_garbage": (_mixed_text() + " x",
                         "SCHEMA_JSON: Extra data: line 1 column 223 (char 222)"),
    "top_level_array": ("[" + _mixed_text() + "]",
                        "SCHEMA_JSON: top level must be an object"),
    "deep_nesting": (MIXED_PREFIX + "[" * 100000 + "]" * 100000 + "}",
                     "SCHEMA_JSON: nesting too deep"),
}


@pytest.mark.parametrize("text, message", REJECTED_MIXED.values(), ids=list(REJECTED_MIXED))
def test_rejected_mixed_file_message(text, message):
    with pytest.raises(stateio.StateFileError) as err:
        stateio.loads(text)
    assert str(err.value) == message
    assert err.value.code == message.split(":")[0]


def run_cli(capsys, monkeypatch, argv, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(stdin_text.encode()), encoding="utf-8"))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_example_pipes_into_cost(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["example", "--family", "VIC", "--d", "2",
                                "--lambda", "0.5,0.5"])
        assert code == 0
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["markov-cost", "--route", "both"],
                               stdin_text=out)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["m_formula_bits"]) == pytest.approx(1.0, abs=1e-6)
        assert float(fields["m_algorithm_bits"]) == pytest.approx(1.0, abs=1e-6)

    def test_entropy_and_qcmi(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "state.json"
        stateio.dump(build_example("VIC", lam=(0.25, 0.75)), str(path))
        code, out, _ = run_cli(capsys, monkeypatch, ["qcmi", str(path)])
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["qcmi_bits"]) == pytest.approx(0.811278124459, abs=1e-9)

    def test_simulate_csv(self, capsys, monkeypatch):
        _, state, _ = run_cli(capsys, monkeypatch,
                              ["example", "--family", "VIC", "--d", "2",
                               "--lambda", "0.5,0.5"])
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["simulate", "--n", "2", "--delta", "1.0",
                                "--rate", "3", "--trials", "2", "--seed", "7"],
                               stdin_text=state)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,delta,rate,N,err_avg,err_full,D,chernoff_N,seed"
        cells = lines[1].split(",")
        assert cells[0] == "2" and cells[3] == "64" and cells[-1] == "7"

    def test_simulate_prints_exact_zero(self, tmp_path, capsys, monkeypatch):
        # VIB(2, 0.3) at n = 1 and delta = 1: every typical block has rank 1,
        # so each sample is the exact average and err_avg is 0, not round-off
        path = str(tmp_path / "vib.json")
        stateio.dump(build_example("VIB", d=2, lam=0.3), path)
        argv = ["simulate", path, "--n", "1", "--delta", "1.0", "--rate", "3", "--seed", "1"]
        code, out, _ = run_cli(capsys, monkeypatch, argv)
        cells = out.splitlines()[1].split(",")
        assert (code, cells[4], cells[7]) == (0, "0", "inf")
        code, out, _ = run_cli(capsys, monkeypatch, argv + ["--json"])
        report = json.loads(out)
        assert (code, report["err_avg"], report["chernoff_N"]) == (0, "0", "inf")

    def test_simulate_reproducible(self, capsys, monkeypatch):
        _, state, _ = run_cli(capsys, monkeypatch,
                              ["example", "--family", "VIC", "--d", "2",
                               "--lambda", "0.5,0.5"])
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, monkeypatch,
                                ["simulate", "--n", "2", "--delta", "1.0",
                                 "--rate", "3", "--trials", "2", "--seed", "11"],
                                stdin_text=state)
            outs.append(out)
        assert outs[0] == outs[1]

    def test_mixed_cost_rejected(self, tmp_path, capsys, monkeypatch, rng):
        path = tmp_path / "mixed.json"
        stateio.dump(random_density(layout(("A", 2), ("B", 2), ("C", 2)), rng),
                     str(path))
        code, _, err = run_cli(capsys, monkeypatch, ["markov-cost", str(path)])
        assert code == 1
        assert "MIXED_UNSUPPORTED" in err

    def test_not_applicable_exit(self, tmp_path, capsys, monkeypatch, rng):
        path = tmp_path / "rand.json"
        stateio.dump(random_pure(layout(("A", 2), ("B", 2), ("C", 2)), rng),
                     str(path))
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["markov-cost", "--route", "algorithm", str(path)])
        assert code == 2
        assert "this algorithm is not applicable" in out

    def test_usage_error_code(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, monkeypatch, ["no-such-command"])
        assert code == 64

    def test_json_report(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "state.json"
        stateio.dump(build_example("VIB", d=2, lam=0.5), str(path))
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["bounds", str(path), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "bounds"
        assert float(doc["m_formula_bits"]) == pytest.approx(2.0, abs=1e-6)
        assert "input_digest" in doc

    def test_ki_decompose_report(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "pair.json"
        psi = build_example("VIB", d=2, lam=0.5)
        from qmarkov.linalg import marginal

        stateio.dump(marginal(psi, ["A", "C"]), str(path))
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["ki-decompose", str(path), "--A", "A", "--C", "C"])
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert fields["n_blocks"] == "2"
        assert float(fields["reconstruction_residual"]) <= 1e-7

    def test_ki_decompose_mixed_file_traces_out_b(self, tmp_path, capsys, monkeypatch):
        # the same tripartite state, saved pure and mixed: --A A --C C
        # decomposes rho_AC on both
        psi = build_example("VIB", d=2, lam=0.3)
        reports = []
        for name, state in (("pure", psi), ("mixed", psi.density())):
            path = str(tmp_path / f"{name}.json")
            stateio.dump(state, path)
            code, out, _ = run_cli(capsys, monkeypatch,
                                   ["ki-decompose", path, "--A", "A", "--C", "C"])
            assert code == 0
            fields = dict(line.split(" = ") for line in out.strip().splitlines())
            reports.append({k: v for k, v in fields.items()
                            if k == "n_blocks" or k.startswith(("dims_", "block_"))})
        assert reports[0] == reports[1]
        assert reports[0]["n_blocks"] == "2"

    def test_recovery_and_is_markov(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "m.json"
        stateio.dump(build_example("VIA", d=2, lam=0.25), str(path))
        code, out, _ = run_cli(capsys, monkeypatch, ["is-markov", str(path)])
        assert code == 0
        assert "is_markov = true" in out
        code, out, _ = run_cli(capsys, monkeypatch, ["recovery-check", str(path)])
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["residual_rebuild_C_from_AB"]) <= 1e-8

    def test_trace_dist(self, tmp_path, capsys, monkeypatch):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        stateio.dump(build_example("VIA", d=2, lam=0.25), str(p1))
        stateio.dump(build_example("VIA", d=2, lam=0.6), str(p2))
        code, out, _ = run_cli(capsys, monkeypatch, ["trace-dist", str(p1), str(p2)])
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["trace_distance"]) == pytest.approx(
            2 * np.sqrt((4 * 0.6 - 1) / 3), abs=1e-9)


@pytest.fixture
def state_files(tmp_path):
    vib = build_example("VIB", d=2, lam=0.5)
    states = {
        "vib": vib,
        "via": build_example("VIA", d=2, lam=0.25),
        "via2": build_example("VIA", d=2, lam=0.6),
        "vic": build_example("VIC", lam=(0.5, 0.5)),
        "pair": marginal(vib, ["A", "C"]),
        "rand": random_pure(layout(("A", 2), ("B", 2), ("C", 2)),
                            np.random.default_rng(2718)),
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in states}
    for name, state in states.items():
        stateio.dump(state, paths[name])
    paths["out"] = str(tmp_path / "out.json")
    return paths


def _report_keys(out: str) -> list[str]:
    """Keys of a JSON document, else the key (or whole line) of each line."""
    if out.startswith("{"):
        return list(json.loads(out))
    return [line.split(" = ")[0] for line in out.splitlines()]


HEAD = ["command", "input_digest"]
SEEDED = HEAD + ["seed"]
# Per command: argv, exit code, report keys in text mode and with --json
# (None: the command has no --json; left out: the same keys as in text).
# Taken from the reports of the if/elif dispatcher the command table replaced.
SURFACE = {
    "entropy": (["entropy", "{vib}"], 0, HEAD + ["entropy_bits", "wall_time_s"]),
    "qcmi": (["qcmi", "{vib}"], 0, HEAD + ["qcmi_bits", "wall_time_s"]),
    "trace-dist": (["trace-dist", "{via}", "{via2}"], 0,
                   HEAD + ["input_digest_2", "trace_distance", "wall_time_s"]),
    "ki-decompose": (["ki-decompose", "{pair}", "--A", "A", "--C", "C"], 0,
                     SEEDED + ["n_blocks", "dims_a0_aL_aR", "block_0", "block_1",
                               "reconstruction_residual", "irreducibility_residual",
                               "cross_block_residual", "isometry_residual",
                               "wall_time_s"]),
    "markov-cost": (["markov-cost", "{rand}", "--route", "algorithm"], 2,
                    SEEDED + ["route", "m_algorithm_bits", "wall_time_s"]),
    "is-markov": (["is-markov", "{via}"], 0,
                  HEAD + ["qcmi_bits", "is_markov", "tol", "wall_time_s"]),
    "markov-decompose": (["markov-decompose", "{via}"], 0,
                         SEEDED + ["n_terms", "term_0", "residual", "wall_time_s"]),
    "recovery-check": (["recovery-check", "{via}"], 0,
                       HEAD + ["residual_rebuild_C_from_AB",
                               "residual_rebuild_A_from_BC", "wall_time_s"]),
    "bounds": (["bounds", "{vib}"], 0,
               SEEDED + ["qcmi_bits", "qmi_A_BC_bits", "m_formula_bits",
                         "m_algorithm_bits", "self_adjoint", "block_0", "block_1",
                         "wall_time_s"]),
    # the report of ``example --out`` is the file it writes
    "example": (["example", "--family", "VIC", "--d", "2", "--lambda", "0.5,0.5",
                 "--out", "{out}"], 0, ["version", "kind", "layout", "data"], None),
    "simulate": (["simulate", "{vic}", "--n", "2", "--delta", "1.0", "--rate", "3",
                  "--seed", "7"], 0,
                 ["n,delta,rate,N,err_avg,err_full,D,chernoff_N,seed", mock.ANY],
                 SEEDED + ["n", "delta", "rate", "N", "err_avg", "err_full", "D",
                           "chernoff_N", "wall_time_s"]),
    "self-test": (["self-test", "--seed", "3"], 0,
                  ["criterion 1: PASS  fake -- ok",
                   "self-test: 1/1 criteria passed (seed 3)"],
                  ["command", "seed", "criteria"]),
}


@pytest.mark.parametrize("argv, code, text_keys, json_keys",
                         [case if len(case) == 4 else case + (case[2],)
                          for case in SURFACE.values()], ids=list(SURFACE))
def test_report_surface(argv, code, text_keys, json_keys, state_files, capsys,
                        monkeypatch):
    monkeypatch.setattr("qmarkov.selftest.run_acceptance", lambda seed: [
        CriterionResult(1, "fake", True, "ok", 0.0)])
    argv = [arg.format(**state_files) for arg in argv]
    modes = [([], text_keys)] + ([(["--json"], json_keys)] if json_keys else [])
    for flags, keys in modes:
        got, out, _ = run_cli(capsys, monkeypatch, argv + flags)
        if "--out" in argv:
            assert out == ""
            with open(state_files["out"], encoding="utf-8") as fh:
                out = fh.read()
        assert (got, _report_keys(out)) == (code, keys)


OPTIONS = {
    "entropy": {"state", "--json"},
    "qcmi": {"state", "--A", "--B", "--C", "--json"},
    "trace-dist": {"state1", "state2", "--json"},
    "ki-decompose": {"state", "--A", "--C", "--seed", "--json"},
    "markov-cost": {"state", "--route", "--A", "--B", "--C", "--seed", "--json"},
    "is-markov": {"state", "--tol", "--A", "--B", "--C", "--json"},
    "markov-decompose": {"state", "--A", "--B", "--C", "--seed", "--json"},
    "recovery-check": {"state", "--A", "--B", "--C", "--json"},
    "bounds": {"state", "--A", "--B", "--C", "--seed", "--json"},
    "example": {"--family", "--d", "--lambda", "--out"},
    "simulate": {"state", "--n", "--delta", "--rate", "--trials", "--A", "--B", "--C",
                 "--seed", "--json"},
    "self-test": {"--seed", "--json"},
}


def test_command_options_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)      # the order of the usage listing
    for name, parser in sub.choices.items():
        got = {s for a in parser._actions for s in a.option_strings or [a.dest]}
        assert got - {"-h", "--help"} == OPTIONS[name], name


def test_parser_reused_across_calls(state_files, capsys, monkeypatch):
    """One process runs several commands on the parser it built once, and
    each gives the report and exit code of a call on a freshly built parser."""
    argvs = [["entropy", "{vib}"], ["bounds", "{vib}", "--json"],
             ["markov-cost", "{via2}", "--route", "both", "--seed", "3"],
             ["qcmi", "{vib}", "--A", "Z"], ["bounds", "{rand}", "--tol", "1"],
             ["ki-decompose", "{vic}"], ["entropy", "{vib}", "--json"]]
    argvs = [[arg.format(**state_files) for arg in argv] for argv in argvs]

    def masked(argv):
        code, out, err = run_cli(capsys, monkeypatch, argv)
        return code, re.sub(r'(wall_time_s"?(?: = |: ))"?[0-9.]+"?', r"\1T", out), err

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(masked(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 1, cli.EXIT_USAGE, 0, 0]
    parser = build_parser()
    assert [masked(argv) for argv in argvs] == fresh
    assert build_parser() is parser


def test_cli_does_not_load_the_acceptance_suite(state_files):
    # a command other than self-test, in a fresh interpreter, loads neither
    # the suite nor the dense reference it compares against
    code = ("import sys\n"
            "from qmarkov import cli\n"
            f"assert cli.main(['bounds', {state_files['vib']!r}, '--json']) == 0\n"
            "print('\\n'.join(sys.modules))\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    loaded = run.stdout.split()
    assert "qmarkov.cli" in loaded
    assert "qmarkov.selftest" not in loaded
    assert "qmarkov.reference" not in loaded


class TestCliErrors:
    def test_unknown_label(self, state_files, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch,
                               ["qcmi", state_files["vib"], "--A", "Z"])
        assert code == 1
        assert err.startswith("error: unknown labels ['Z']")
        assert "Traceback" not in err

    @pytest.mark.parametrize("label, message", [
        ("Z", "error: unknown labels ['Z']; layout has ('A', 'B', 'C')\n"),
        ("A", "error: label sets overlap: ['A']\n"),
        ("B,B", "error: label sets overlap: ['B']\n")],
        ids=["unknown", "overlap", "repeated"])
    @pytest.mark.parametrize("command", [name for name, cmd in cli.COMMANDS.items()
                                         if cmd.labels])
    def test_parts_checked_at_the_boundary(self, command, label, message, state_files,
                                           capsys, monkeypatch):
        # the second part names a label outside the layout, the first
        # part's default, or one label twice; no command's later steps see
        # it, and C never silently takes in the real B
        extra = ["--n", "2", "--delta", "1", "--rate", "2"] if command == "simulate" else []
        second = cli.COMMANDS[command].labels[1]
        code, out, err = run_cli(capsys, monkeypatch, [command, state_files["vib"],
                                                       f"--{second}", label, *extra])
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("command", ["qcmi", "bounds"])
    def test_bipartite_file_needs_explicit_parts(self, command, state_files, capsys,
                                                 monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, [command, state_files["pair"]])
        assert (code, out) == (1, "")
        assert err.startswith("error: subsystem C is empty")

    def test_dim_cap_read_only_by_simulate(self, state_files, capsys, monkeypatch):
        monkeypatch.setenv("QMARKOV_DIM_CAP", "abc")
        code, _, _ = run_cli(capsys, monkeypatch, ["entropy", state_files["vib"]])
        assert code == 0
        code, _, err = run_cli(capsys, monkeypatch,
                               ["simulate", state_files["vic"], "--n", "2",
                                "--delta", "1.0", "--rate", "3"])
        assert code == 1
        assert err.startswith("error: invalid literal for int()")

    @pytest.mark.parametrize("labels, empty", [(["--A", "A,B,C"], "C"),
                                               (["--A", ",", "--C", "C"], "A")])
    def test_ki_decompose_rejects_empty_part(self, labels, empty, state_files, capsys,
                                             monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["ki-decompose", state_files["vib"], *labels])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: subsystem {empty} is empty")

    @pytest.mark.parametrize("command", ["entropy", "qcmi"])
    def test_nan_state_file(self, command, tmp_path, capsys, monkeypatch):
        path = tmp_path / "nan.json"
        path.write_text('{"version": 1, "kind": "pure", "layout": [["A", 2]], '
                        '"data": [[NaN, 0], [0, 0]]}')
        code, out, err = run_cli(capsys, monkeypatch, [command, str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("state file error: SCHEMA_ENTRY: data[0]: non-finite")

    @pytest.mark.parametrize("args, message", [
        (["--family", "VIA", "--d", "2", "--lambda", ","], "VIA requires one scalar lambda"),
        (["--family", "VIA", "--d", "2", "--lambda", ""], "VIA requires one scalar lambda"),
        (["--family", "VIA", "--d", "2", "--lambda", "0.3,0.6"],
         "VIA requires one scalar lambda"),
        (["--family", "VIB", "--d", "2", "--lambda", "0.2,0.5"],
         "VIB requires one scalar lambda"),
        (["--family", "VIA", "--d", "1", "--lambda", "1"], "VIA requires d >= 2"),
    ])
    def test_example_rejects_bad_family_parameters(self, args, message, capsys,
                                                   monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["example", *args])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0", "--rate", "3"], "trials = 0 < 1"),
        (["--trials", "-1", "--rate", "3"], "trials = -1 < 1"),
        (["--rate", "1e6"], "2^(n*rate) = 2^2e+06 unitaries is not a finite double"),
        (["--rate", "30"], "1.153e+18 unitaries at the 1 typical coordinates counted so far"
                           " need 2.306e+18 array entries > dim_cap^2 = 16777216"),
        (["--rate", "-1"], "rate = -1.0 < 0"),
        (["--rate", "-1e-3"], "rate = -0.001 < 0"),
        (["--n", "0", "--rate", "3"], "n = 0 < 1"),
        (["--delta", "0", "--rate", "3"], "delta = 0.0 must be positive"),
    ])
    def test_simulate_rejects_bad_counts(self, args, message, state_files, capsys,
                                         monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["simulate", state_files["vic"], "--n", "2",
                                  "--delta", "1.0", *args])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("eps", [1e-9, 1e-5])
    def test_markov_cost_routes_disagree(self, eps, tmp_path, capsys, monkeypatch):
        # just above VIA's Markov point the formula gives 2 bits and the
        # spectral route 0: both routes together must fail as bounds does
        path = str(tmp_path / "via.json")
        stateio.dump(build_example("VIA", d=2, lam=0.25 + eps), path)
        code, out, err = run_cli(capsys, monkeypatch, ["markov-cost", path, "--route", "both"])
        assert (code, out) == (1, "")
        assert err.startswith("error: routes disagree: formula ")
        assert err.endswith(" vs spectral 0.0\n")
        assert "Traceback" not in err
        assert run_cli(capsys, monkeypatch, ["bounds", path]) == (1, "", err)
        for route, key, value in (("formula", "m_formula_bits", "2"),
                                  ("algorithm", "m_algorithm_bits", "0")):
            code, out, _ = run_cli(capsys, monkeypatch, ["markov-cost", path, "--route", route])
            fields = dict(line.split(" = ") for line in out.strip().splitlines())
            assert (code, fields["route"], fields[key]) == (0, route, value)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_is_markov_rejects_non_finite_tol(self, tol, state_files, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["is-markov", state_files["via"], "--tol", tol])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --tol must be finite, got {tol}")

    @pytest.mark.parametrize("argv", [["--tol", "nan"], ["--tol", "-1"], ["--tol", "-1e-9"],
                                      ["--tol=-1e-9"]])
    def test_is_markov_checks_tol_before_reading(self, argv, state_files, capsys,
                                                 monkeypatch):
        def read_state(path):
            raise AssertionError("the state file was read before --tol was checked")
        monkeypatch.setattr(cli, "_read_state", read_state)
        code, out, err = run_cli(capsys, monkeypatch, ["is-markov", state_files["via"], *argv])
        tol = float(argv[-1].removeprefix("--tol="))
        reason = "finite" if math.isnan(tol) else "non-negative"
        assert (code, out, err) == (1, "", f"error: --tol must be {reason}, got {tol}\n")

    @pytest.mark.parametrize("tol", ["-1", "-1e-300"])
    def test_is_markov_rejects_negative_tol(self, tol, state_files, capsys, monkeypatch):
        # VIA(2, 1/4) is an exact Markov state: a negative tol would call it non-Markov
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["is-markov", state_files["via"], f"--tol={tol}"])
        assert (code, out) == (1, "")
        assert err == f"error: --tol must be non-negative, got {float(tol)}\n"
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["is-markov", state_files["via"], "--tol", "0"])
        assert code == 0 and "is_markov = true" in out

    def test_huge_integer_state_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "huge.json"
        path.write_text('{"version": 1, "kind": "pure", "layout": [["A", 2]], '
                        f'"data": [[{10 ** 400}, 0], [0, 0]]}}')
        code, out, err = run_cli(capsys, monkeypatch, ["entropy", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("state file error: SCHEMA_ENTRY: data[0]: entry out of")
        assert "Traceback" not in err

    def test_non_utf8_state_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, monkeypatch, ["entropy", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("state file error: SCHEMA_JSON: ")
        assert "Traceback" not in err

    def test_deeply_nested_state_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run_cli(capsys, monkeypatch, ["entropy", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("state file error: SCHEMA_JSON")
        assert "Traceback" not in err

    def test_oversized_ki_decompose(self, tmp_path, capsys, monkeypatch):
        # A = (A, B) of dimension 64: a commutant solve over 64**2 real unknowns
        path = str(tmp_path / "big.json")
        stateio.dump(random_density(layout(("A", 8), ("B", 8), ("C", 2)),
                                    np.random.default_rng(8)), path)

        def kron(*args):
            raise AssertionError("np.kron called: the commutator system was built")

        def eigh(m, *args, _eigh=np.linalg.eigh, **kwargs):
            # the state's own eigensolves have at most 128 rows, the Gram 4096
            if np.shape(m)[-1] > 128:
                raise AssertionError("the commutator Gram matrix was eigensolved")
            return _eigh(m, *args, **kwargs)
        monkeypatch.setattr(np, "kron", kron)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["ki-decompose", path, "--A", "A,B", "--C", "C"])
        assert (code, out) == (1, "")
        assert err.startswith("error: the commutator system of 8 operators at dimension 64 "
                              "has 4096 real unknowns > cap 2048")
        assert "Traceback" not in err
