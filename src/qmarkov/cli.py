"""Batch command-line front-end.

Commands read a state file (positional path, "-" or omitted for stdin),
run one computation, and emit a report: "key = value" lines by default,
one JSON document with --json.  ``example`` emits a state file instead,
so it can be piped into the other commands.  Numeric results are printed
to 12 significant digits.

Exit codes: 0 success; 1 error; 2 when the spectral cost route does not
apply to the input; 64 usage.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import stateio
from .channels import _split_pure
from .entropy import factored_trace_norm, qcmi, trace_distance, vn_entropy
from .kidec import _ki_tripartite, ki_decompose, validate_ki
from .linalg import LabelError, PureVec, ValidationError, marginal, partial_trace
from .markov import (
    _cost_algorithm,
    build_example,
    check_routes_agree,
    markov_cost_formula,
    markov_decomposition,
    recovery_check,
    bounds_check,
)
from .protocol import DEFAULT_DIM_CAP, simulate

# The default --seed, and the master seed of the acceptance suite.
DEFAULT_SEED = 20250101

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2
EXIT_USAGE = 64

NOT_APPLICABLE_TEXT = "this algorithm is not applicable"

SIM_CSV_HEADER = "n,delta,rate,N,err_avg,err_full,D,chernoff_N,seed"

LABEL_DEFAULTS = {"A": "first factor", "B": "second factor", "C": "the remaining factors"}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-9" for an option name and reads only "-1" and
        # "-.5" as negative numbers; every float form is a value here
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _sig(x: float) -> str:
    return format(float(x), ".12g")


def _read_state(path: str | None):
    if path in (None, "-"):
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise stateio.StateFileError("SCHEMA_JSON", f"not UTF-8 text: {err}") from err
    del raw  # the parse should not hold the file twice
    return stateio.loads(text), digest


def _parts(args, state) -> list[list[str]]:
    """Labels of the subsystems the command takes (its --A/--B/--C).  Each
    part defaults to the factor at its position, the last one to every
    factor the others leave.  Every label must be a layout label, no label
    may be in two parts or twice in one, and no part may be empty."""
    names = COMMANDS[args.command].labels
    labels = state.layout.labels
    parts: list[list[str]] = []
    for i, name in enumerate(names):
        arg = getattr(args, name)
        if arg:
            parts.append([l.strip() for l in arg.split(",") if l.strip()])
        elif i == len(names) - 1:
            parts.append([l for l in labels if not any(l in p for p in parts)])
        elif i < len(labels):
            parts.append([labels[i]])
        else:
            raise ValidationError("cannot infer subsystem labels; pass them explicitly")
    state.layout._check_known({l for part in parts for l in part})
    # a label twice in one part overlaps too
    counts = collections.Counter(l for part in parts for l in part)
    shared = sorted(l for l, k in counts.items() if k > 1)
    if shared:
        raise ValidationError(f"label sets overlap: {shared}")
    for name, part in zip(names, parts):
        if not part:
            flags = "/".join(f"--{n}" for n in names)
            raise ValidationError(f"subsystem {name} is empty for layout "
                                  f"{list(labels)}; pass {flags} explicitly")
    return parts


def _density(state):
    return state.density() if isinstance(state, PureVec) else state


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=False) + "\n")
        return
    for key, value in report.items():
        sys.stdout.write(f"{key} = {value}\n")


def _require_pure(state):
    if not isinstance(state, PureVec):
        raise ValidationError("MIXED_UNSUPPORTED: no cost formula exists for "
                              "mixed inputs; supply a pure state")
    return state


class Command(NamedTuple):
    """One CLI command.  ``run(args, *states)`` returns ``(fields, exit
    code)``; ``fields`` None means the command wrote its own output.
    ``check(args)`` refuses bad option values before any state is read."""
    run: Callable
    help: str
    states: tuple[str, ...] = ("state",)
    labels: str = "ABC"          # which of --A/--B/--C it takes
    seed: bool = False
    json: bool = True
    options: tuple = ()          # (flag, argparse keywords) of its own
    check: Callable | None = None


COMMANDS: dict[str, Command] = {}   # insertion order is the usage order


def _command(name: str, help_text: str, **spec):
    def register(run):
        COMMANDS[name] = Command(run, help_text, **spec)
        return run
    return register


@_command("entropy", "von Neumann entropy of a state, in bits", labels="")
def _entropy(args, state):
    # a pure state's entropy is its 1 x 1 marginal's
    rho = marginal(state, []) if isinstance(state, PureVec) else state
    return {"entropy_bits": _sig(vn_entropy(rho))}, EXIT_OK


@_command("qcmi", "conditional mutual information I(A:C|B)")
def _qcmi(args, state):
    a, b, c = _parts(args, state)
    return {"qcmi_bits": _sig(qcmi(state, a, b, c))}, EXIT_OK


@_command("trace-dist", "trace distance between two states",
          states=("state1", "state2"), labels="")
def _trace_dist(args, s1, s2):
    if not (isinstance(s1, PureVec) and isinstance(s2, PureVec)):
        return {"trace_distance": _sig(trace_distance(_density(s1), _density(s2)))}, EXIT_OK
    if s1.dim != s2.dim:
        raise ValidationError(f"dimension mismatch {s1.dim} != {s2.dim}")
    # |psi><psi| - |phi><phi| in the span of the two vectors
    return {"trace_distance": _sig(factored_trace_norm(s1.vec[:, None], s2.vec[:, None]))}, EXIT_OK


@_command("ki-decompose", "block decomposition of a bipartite state",
          labels="AC", seed=True)
def _ki_decompose(args, state):
    a, c = _parts(args, state)
    # a pure state's marginal keeps its vector, which the split factors
    rho = marginal(state, a + c) if isinstance(state, PureVec) else partial_trace(state, a + c)
    dec = ki_decompose(rho, a, c, rng=np.random.default_rng(args.seed))
    val = validate_ki(dec, rho)
    rep = {"n_blocks": len(dec.blocks),
           "dims_a0_aL_aR": f"{dec.dims[0]},{dec.dims[1]},{dec.dims[2]}"}
    for blk in dec.blocks:
        rep[f"block_{blk.index}"] = f"p={_sig(blk.p)} dimL={blk.dim_l} dimR={blk.dim_r}"
    for name in ("reconstruction", "irreducibility", "cross_block", "isometry"):
        rep[f"{name}_residual"] = _sig(getattr(val, f"{name}_residual"))
    return rep, EXIT_OK


@_command("markov-cost", "randomness cost of Markovianization (pure states)",
          seed=True, options=(("--route", dict(choices=("formula", "algorithm", "both"),
                                               default="both")),))
def _markov_cost(args, state):
    psi = _require_pure(state)
    a, b, c = _parts(args, state)
    rep, code = {"route": args.route}, EXIT_OK
    # both routes read one split of the vector; the spectral route alone
    # never reads B, so it takes B as whatever A and C leave
    split = _split_pure(psi, a, c, None if args.route == "algorithm" else b)
    if args.route in ("formula", "both"):
        tki = _ki_tripartite(split, rng=np.random.default_rng(args.seed))
        m_f = markov_cost_formula(tki)
        rep["m_formula_bits"] = _sig(m_f)
    if args.route in ("algorithm", "both"):
        m_a = _cost_algorithm(split)
        if m_a is None:
            rep["m_algorithm_bits"], code = NOT_APPLICABLE_TEXT, EXIT_NOT_APPLICABLE
        else:
            rep["m_algorithm_bits"] = _sig(m_a)
    if args.route == "both":
        check_routes_agree(m_f, m_a)
    return rep, code


def _check_tol(args) -> None:
    if not math.isfinite(args.tol):
        raise ValidationError(f"--tol must be finite, got {args.tol}")
    if args.tol < 0:
        raise ValidationError(f"--tol must be non-negative, got {args.tol}")


@_command("is-markov", "test I(A:C|B) = 0 within tolerance", check=_check_tol,
          options=(("--tol", dict(type=float, default=1e-9)),))
def _is_markov(args, state):
    a, b, c = _parts(args, state)
    value = qcmi(state, a, b, c)
    return {"qcmi_bits": _sig(value), "is_markov": str(value <= args.tol).lower(),
            "tol": _sig(args.tol)}, EXIT_OK


@_command("markov-decompose", "block decomposition of a Markov state", seed=True)
def _markov_decompose(args, state):
    a, b, c = _parts(args, state)
    md = markov_decomposition(_density(state), a, b, c,
                              rng=np.random.default_rng(args.seed))
    rep = {"n_terms": len(md.terms)}
    for i, (q, sig, phi) in enumerate(md.terms):
        rep[f"term_{i}"] = (f"q={_sig(q)} dim_sigma={sig.layout.dim} "
                            f"dim_phi={phi.layout.dim}")
    rep["residual"] = _sig(md.residual)
    return rep, EXIT_OK


@_command("recovery-check", "Petz reconstruction residuals from B")
def _recovery_check(args, state):
    a, b, c = _parts(args, state)
    rec = recovery_check(_density(state), a, b, c)
    return {"residual_rebuild_C_from_AB": _sig(rec.from_ab),
            "residual_rebuild_A_from_BC": _sig(rec.from_bc)}, EXIT_OK


@_command("bounds", "cost report with information bounds", seed=True)
def _bounds(args, state):
    a, b, c = _parts(args, state)
    report = bounds_check(state, a, b, c, rng=np.random.default_rng(args.seed))
    rep = {"qcmi_bits": _sig(report.qcmi), "qmi_A_BC_bits": _sig(report.qmi_a_bc)}
    if report.m_formula is not None:
        rep["m_formula_bits"] = _sig(report.m_formula)
        rep["m_algorithm_bits"] = (
            _sig(report.m_algorithm) if report.m_algorithm is not None
            else NOT_APPLICABLE_TEXT)
        rep["self_adjoint"] = str(report.self_adjoint).lower()
        for i, (p, s) in enumerate(report.blocks):
            rep[f"block_{i}"] = f"p={_sig(p)} S_phi_aR={_sig(s)}"
    return rep, EXIT_OK


@_command("example", "emit a closed-form family state", states=(), labels="",
          json=False, options=(
              ("--family", dict(required=True, choices=("VIA", "VIB", "VIC"))),
              ("--d", dict(type=int, default=None)),
              ("--lambda", dict(dest="lam", required=True,
                                help="scalar or comma-separated vector")),
              ("--out", dict(default=None, help="output path (default: stdout)"))))
def _example(args):
    lam = [float(p) for p in args.lam.split(",") if p.strip()]
    psi = build_example(args.family, d=args.d, lam=lam[0] if len(lam) == 1 else lam)
    if args.out:
        stateio.dump(psi, args.out)
    else:
        sys.stdout.write(stateio.dumps(psi) + "\n")
    return None, EXIT_OK


@_command("simulate", "finite-copy randomized protocol run (CSV output)",
          seed=True, options=(("--n", dict(type=int, required=True)),
                              ("--delta", dict(type=float, required=True)),
                              ("--rate", dict(type=float, required=True)),
                              ("--trials", dict(type=int, default=1))))
def _simulate(args, state):
    psi = _require_pure(state)
    a, _, c = _parts(args, state)
    cap = int(os.environ.get("QMARKOV_DIM_CAP", DEFAULT_DIM_CAP))
    res = simulate(psi, n=args.n, delta=args.delta, rate=args.rate,
                   trials=args.trials, seed=args.seed, a=a, c=c, dim_cap=cap)
    row = {"n": res.n, "delta": res.delta, "rate": res.rate, "N": res.n_unitaries,
           "err_avg": _sig(res.err_to_average), "err_full": _sig(res.err_full),
           "D": _sig(res.typical_mass), "chernoff_N": _sig(res.chernoff_n)}
    if args.json:
        return row, EXIT_OK
    cells = [_sig(v) if isinstance(v, float) else str(v) for v in row.values()]
    sys.stdout.write(f"{SIM_CSV_HEADER}\n{','.join(cells)},{res.seed}\n")
    return None, EXIT_OK


@_command("self-test", "run the acceptance suite", states=(), labels="", seed=True)
def _self_test(args):
    # the suite, and the dense reference it loads, only for this command
    from .selftest import render_report, run_acceptance

    t0 = time.monotonic()
    results = run_acceptance(args.seed)
    if args.json:
        _emit({"command": "self-test", "seed": args.seed,
               "criteria": [{"index": r.index, "name": r.name,
                             "passed": r.passed, "detail": r.detail}
                            for r in results]}, True)
    else:
        sys.stdout.write(render_report(results, args.seed))
    # timing goes to stderr so the report stays reproducible
    sys.stderr.write(f"self-test wall time: {time.monotonic() - t0:.1f}s\n")
    return None, EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


@functools.cache
def build_parser() -> Parser:
    """The command-line parser, built once per process from COMMANDS."""
    parser = Parser(prog="qmarkov", description=__doc__,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for state in cmd.states:
            if len(cmd.states) == 1:
                p.add_argument(state, nargs="?", default=None,
                               help="state file (default: stdin)")
            else:
                p.add_argument(state, help="state file")
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
        for label in cmd.labels:
            p.add_argument(f"--{label}", help="comma-separated factor labels "
                                              f"(default: {LABEL_DEFAULTS[label]})")
        if cmd.seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if cmd.json:
            p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def _run(args) -> int:
    t0 = time.monotonic()
    cmd = COMMANDS[args.command]
    if cmd.check is not None:
        cmd.check(args)
    loaded = [_read_state(getattr(args, name)) for name in cmd.states]
    fields, code = cmd.run(args, *(state for state, _ in loaded))
    if fields is None:
        return code
    rep = {"command": args.command}
    for key, (_, digest) in zip(("input_digest", "input_digest_2"), loaded):
        rep[key] = digest
    if cmd.seed:
        rep["seed"] = args.seed
    rep.update(fields)
    rep["wall_time_s"] = f"{time.monotonic() - t0:.3f}"
    _emit(rep, args.json)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _run(args)
    except stateio.StateFileError as err:
        sys.stderr.write(f"state file error: {err}\n")
        return EXIT_ERROR
    except LabelError as err:  # a KeyError: str() would quote the message
        sys.stderr.write(f"error: {err.args[0]}\n")
        return EXIT_ERROR
    except (ValidationError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
