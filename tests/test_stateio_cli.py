import argparse
import io
import json
import sys
from unittest import mock

import numpy as np
import pytest

from qmarkov import cli, stateio
from qmarkov.cli import build_parser, main
from qmarkov.linalg import (DensityOp, PureVec, layout, marginal, random_density,
                            random_pure)
from qmarkov.markov import build_example
from qmarkov.selftest import CriterionResult


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
    monkeypatch.setattr(cli, "run_acceptance", lambda seed: [
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


class TestCliErrors:
    def test_unknown_label(self, state_files, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch,
                               ["qcmi", state_files["vib"], "--A", "Z"])
        assert code == 1
        assert err.startswith("error: unknown labels ['Z']")
        assert "Traceback" not in err

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
    ])
    def test_simulate_rejects_bad_counts(self, args, message, state_files, capsys,
                                         monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["simulate", state_files["vic"], "--n", "2",
                                  "--delta", "1.0", *args])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_is_markov_rejects_non_finite_tol(self, tol, state_files, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["is-markov", state_files["via"], "--tol", tol])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --tol must be finite, got {tol}")

    def test_huge_integer_state_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "huge.json"
        path.write_text('{"version": 1, "kind": "pure", "layout": [["A", 2]], '
                        f'"data": [[{10 ** 400}, 0], [0, 0]]}}')
        code, out, err = run_cli(capsys, monkeypatch, ["entropy", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("state file error: SCHEMA_ENTRY: data[0]: entry out of")
        assert "Traceback" not in err
