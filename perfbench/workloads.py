"""The four workloads: seeded inputs, one query each, and reference checks.

Why each workload is in the benchmark is recorded in ``BENCHMARK.json``.

Every input comes from the benchmark's own numpy ``Generator`` and the
closed forms below, never from ``qmarkov.random_*`` or ``build_example``,
so that no change to ``qmarkov`` can change the traffic.  A reference
check does not rely on the code path being timed; it returns ``None`` when
the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# Per-query reference tolerances.
BOUND_TOL = 1e-7       # cost_random: I(A:C|B) - tol <= M <= I(A:BC) + tol
ROUTE_TOL = 1e-6       # agreement between the two cost routes, and with closed forms
MARKOV_RESIDUAL = 1e-8  # Petz residuals of exact Markov states are at most this
RANDOM_RESIDUAL = 1e-3  # and of random full-rank states at least this
MASS_TOL = 1e-9        # protocol_sim: simulated vs combinatorial typical mass

# Query parameters, fixed so that every seed exercises the same sizes.
RANDOM_DIMS = (5, 25, 5)
STRUCTURED_LAMBDA = (0.05, 0.95)
MIXED_A, MIXED_BL, MIXED_BR, MIXED_C = 8, 2, 2, 8   # B = b0 (2) * bL * bR = 8
PROTOCOL_LAMBDA = 0.3
PROTOCOL_ARGS = {"n": 2, "delta": 1.0, "rate": 3.0, "trials": 1}

# Inputs made per workload process; queries cycle through them.
RANDOM_POOL = 8
STRUCTURED_POOL = 4


# ---------------------------------------------------------------- closed forms

def binary_entropy(x: float) -> float:
    return -sum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0)


def spectrum_entropy(gram: np.ndarray) -> float:
    """Von Neumann entropy in bits of a PSD matrix given as a Gram matrix."""
    vals = np.linalg.eigvalsh(gram)
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log2(vals)))


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def vib_vector(lam: float, d: int = 2) -> np.ndarray:
    """VIB(d, lam) on (A, B, C) with dims (d+1, d+1, d)."""
    vec = np.zeros((d + 1, d + 1, d))
    for k in range(1, d + 1):
        vec[k, 0, k - 1] = math.sqrt(lam / d)
        vec[0, k, k - 1] = math.sqrt((1.0 - lam) / d)
    return vec.reshape(-1)


def vib_pair_vector(lam1: float, lam2: float) -> np.ndarray:
    """VIB(2, lam1) (x) VIB(2, lam2) on (A1, A2, B1, B2, C1, C2)."""
    v = np.kron(vib_vector(lam1), vib_vector(lam2))
    return v.reshape(3, 3, 2, 3, 3, 2).transpose(0, 3, 1, 4, 2, 5).reshape(-1)


def vib_pair_cost(lam1: float, lam2: float) -> float:
    """Markovianizing cost of VIB(2, lam1) (x) VIB(2, lam2): h + 2 lam per factor."""
    return sum(binary_entropy(x) + 2.0 * x for x in (lam1, lam2))


def wishart(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m).real


def markov_mixed(rng: np.random.Generator) -> np.ndarray:
    """sum_i p_i |i><i|_b0 (x) sigma_i(A, bL) (x) phi_i(bR, C) on (A, B, C)."""
    p = rng.uniform(0.2, 0.8)
    d_al, d_brc = MIXED_A * MIXED_BL, MIXED_BR * MIXED_C
    d = 2 * d_al * d_brc
    total = np.zeros((d, d), dtype=np.complex128)
    for i, w in enumerate((p, 1.0 - p)):
        e = np.zeros((2, 2))
        e[i, i] = 1.0
        total += w * np.kron(e, np.kron(wishart(d_al, rng), wishart(d_brc, rng)))
    # (b0, A, bL, bR, C) -> (A, b0, bL, bR, C)
    dims = (2, MIXED_A, MIXED_BL, MIXED_BR, MIXED_C)
    t = total.reshape(dims + dims).transpose(1, 0, 2, 3, 4, 6, 5, 7, 8, 9)
    return t.reshape(d, d)


def pure_information(vec: np.ndarray, dims) -> tuple[float, float]:
    """(I(A:C|B), I(A:BC)) of a pure state, from its marginal spectra.

    For a pure state S(AB) = S(C), S(BC) = S(A) and S(ABC) = 0, so
    I(A:C|B) = S(A) + S(C) - S(B) and I(A:BC) = 2 S(A).
    """
    t = vec.reshape(dims)
    s = []
    for axis in range(3):
        m = np.moveaxis(t, axis, 0).reshape(dims[axis], -1)
        s.append(spectrum_entropy(m @ m.conj().T))
    s_a, s_b, s_c = s
    return s_a + s_c - s_b, 2.0 * s_a


# ------------------------------------------------------------------ state files

def state_text(layout, data: np.ndarray) -> str:
    """A state in the version-1 text format: (re, im) pairs, row-major."""
    kind = "pure" if data.ndim == 1 else "mixed"
    pairs = np.stack([data.real, data.imag], axis=-1).tolist()
    return json.dumps({"version": 1, "kind": kind,
                       "layout": [[l, d] for l, d in layout], "data": pairs},
                      separators=(",", ":"))


def write_state(path: str, layout, data: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_text(layout, data))
        fh.write("\n")


def run_cli(argv) -> tuple[int, str]:
    """``qmarkov.cli.main`` in process, with its report captured."""
    from qmarkov import cli   # not at import time: worker.py checks qmarkov's origin first

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_report(code: int, text: str, what: str):
    """The parsed JSON report of a CLI call, or a failure reason."""
    if code != 0:
        return None, f"{what}: exit code {code}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError:
        return None, f"{what}: report is not JSON"


# ------------------------------------------------------------------------ checks

def check_cost_random(m_formula, m_algorithm, qcmi_ref: float, qmi_ref: float):
    if m_formula is None or not qcmi_ref - BOUND_TOL <= m_formula <= qmi_ref + BOUND_TOL:
        return f"cost {m_formula} outside [{qcmi_ref}, {qmi_ref}]"
    if m_algorithm is not None and abs(m_algorithm - m_formula) > ROUTE_TOL:
        return f"routes disagree: {m_formula} vs {m_algorithm}"
    return None


def check_cost_structured(code: int, text: str, expected: float):
    rep, why = _cli_report(code, text, "bounds")
    if why:
        return why
    for key in ("m_formula_bits", "m_algorithm_bits"):
        try:
            got = float(rep.get(key))
        except (TypeError, ValueError):
            return f"{key} = {rep.get(key)!r} is not a number"
        if abs(got - expected) > ROUTE_TOL:
            return f"{key} = {got}, closed form {expected}"
    if rep.get("self_adjoint") != "true":
        return f"self_adjoint = {rep.get('self_adjoint')!r}"
    return None


def check_mixed(markov: bool, markov_call: tuple[int, str], recovery_call: tuple[int, str]):
    rep, why = _cli_report(*markov_call, "is-markov")
    if why:
        return why
    if rep.get("is_markov") != str(markov).lower():
        return f"is_markov = {rep.get('is_markov')!r} on a {'Markov' if markov else 'random'} state"
    rep, why = _cli_report(*recovery_call, "recovery-check")
    if why:
        return why
    for key in ("residual_rebuild_C_from_AB", "residual_rebuild_A_from_BC"):
        value = float(rep[key])
        if markov and not value <= MARKOV_RESIDUAL:
            return f"{key} = {value} > {MARKOV_RESIDUAL} on a Markov state"
        if not markov and not value > RANDOM_RESIDUAL:
            return f"{key} = {value} <= {RANDOM_RESIDUAL} on a random state"
    return None


def check_protocol(typical_mass: float, err_avg: float, err_full: float, mass_ref: float):
    if not abs(typical_mass - mass_ref) <= MASS_TOL:
        return f"typical mass {typical_mass}, combinatorial {mass_ref}"
    for name, err in (("err_avg", err_avg), ("err_full", err_full)):
        if not (math.isfinite(err) and 0.0 <= err <= 2.0):
            return f"{name} = {err} is not a trace distance in [0, 2]"
    return None


# --------------------------------------------------------------------- workloads

class Workload:
    """One workload as seen by a single workload process.

    The constructor is the set-up: it makes every input from ``rng`` and
    writes any state files into ``workdir``.  ``run(i)`` is query ``i``
    (the timed part) and ``check(i, answer)`` its reference check.
    ``unit`` queries are always run together, so that a workload that
    alternates two kinds of input sees both equally often.
    """

    name = ""
    unit = 1

    def __init__(self, qm, rng: np.random.Generator, workdir: str):
        self.qm = qm
        self.files: list[str] = []

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, answer):
        raise NotImplementedError

    def _write(self, workdir: str, tag: str, layout, data: np.ndarray) -> str:
        path = os.path.join(workdir, f"{self.name}_{os.getpid()}_{tag}.json")
        self.files.append(path)
        write_state(path, layout, data)
        return path

    def close(self) -> None:
        for path in self.files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


class CostRandom(Workload):
    """``bounds_check`` on Haar-random (5, 25, 5) states."""

    name = "cost_random"

    def __init__(self, qm, rng, workdir):
        super().__init__(qm, rng, workdir)
        lay = qm.SystemLayout(list(zip("ABC", RANDOM_DIMS)))
        vecs = [haar_vector(lay.dim, rng) for _ in range(RANDOM_POOL)]
        self.states = [qm.PureVec(lay, v) for v in vecs]
        self.refs = [pure_information(v, RANDOM_DIMS) for v in vecs]

    def run(self, i):
        return self.qm.bounds_check(self.states[i % RANDOM_POOL])

    def check(self, i, report):
        return check_cost_random(report.m_formula, report.m_algorithm,
                                 *self.refs[i % RANDOM_POOL])


class CostStructured(Workload):
    """CLI ``bounds`` on VIB(2, l1) (x) VIB(2, l2) files, D = 324."""

    name = "cost_structured"
    layout = (("A1", 3), ("A2", 3), ("B1", 3), ("B2", 3), ("C1", 2), ("C2", 2))

    def __init__(self, qm, rng, workdir):
        super().__init__(qm, rng, workdir)
        lams = rng.uniform(*STRUCTURED_LAMBDA, size=(STRUCTURED_POOL, 2))
        self.expected = [vib_pair_cost(l1, l2) for l1, l2 in lams]
        self.paths = [self._write(workdir, str(k), self.layout, vib_pair_vector(l1, l2))
                      for k, (l1, l2) in enumerate(lams)]

    def run(self, i):
        return run_cli(["bounds", self.paths[i % STRUCTURED_POOL], "--json",
                                 "--A", "A1,A2", "--B", "B1,B2", "--C", "C1,C2"])

    def check(self, i, answer):
        return check_cost_structured(*answer, self.expected[i % STRUCTURED_POOL])


class MixedRecovery(Workload):
    """CLI ``is-markov`` then ``recovery-check`` on (8, 8, 8) mixed-state
    files; even queries use an exact Markov state, odd ones a random one."""

    name = "mixed_recovery"
    unit = 2
    layout = (("A", MIXED_A), ("B", 2 * MIXED_BL * MIXED_BR), ("C", MIXED_C))

    def __init__(self, qm, rng, workdir):
        super().__init__(qm, rng, workdir)
        d = MIXED_A * 2 * MIXED_BL * MIXED_BR * MIXED_C
        self.paths = [self._write(workdir, "markov", self.layout, markov_mixed(rng)),
                      self._write(workdir, "random", self.layout, wishart(d, rng))]

    def run(self, i):
        path = self.paths[i % 2]
        return (run_cli(["is-markov", path, "--json"]),
                run_cli(["recovery-check", path, "--json"]))

    def check(self, i, answer):
        return check_mixed(i % 2 == 0, *answer)


class ProtocolSim(Workload):
    """``simulate`` on VIB(2, 0.3) with n = 2 and rate 3: 64 unitaries."""

    name = "protocol_sim"

    def __init__(self, qm, rng, workdir):
        super().__init__(qm, rng, workdir)
        self.psi = qm.PureVec(qm.SystemLayout([("A", 3), ("B", 3), ("C", 2)]),
                              vib_vector(PROTOCOL_LAMBDA))
        self.seed = int(rng.integers(2**31))
        tki = qm.ki_tripartite(self.psi)
        spec = qm.TypicalSpec(PROTOCOL_ARGS["n"], PROTOCOL_ARGS["delta"])
        self.mass_ref = qm.typical_mass(tki, spec)

    def run(self, i):
        return self.qm.simulate(self.psi, seed=self.seed + i, **PROTOCOL_ARGS)

    def check(self, i, res):
        return check_protocol(res.typical_mass, res.err_to_average, res.err_full,
                              self.mass_ref)


WORKLOADS = {w.name: w for w in (CostRandom, CostStructured, MixedRecovery, ProtocolSim)}
