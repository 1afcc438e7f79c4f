"""Every numerical cutoff of the package has one owner.

A tolerance or cap that is a function parameter with a default nobody
overrides spreads one value over several signatures, so it cannot be
re-derived in one place.  Each such cutoff is a module-level constant,
read where it is used; this guard names any parameter that comes back.
A parameter counts as a cutoff when its name contains ``tol`` or ``cap``
or starts with ``max_``.  The ones kept are parameters callers do set:
``is_hermitian`` is passed four different tolerances, ``is_markov_state``
asks about a caller's threshold, and the ``simulate`` array cap is set by
``QMARKOV_DIM_CAP`` and by tests.

Every module-level constant named ``*_TOL``, ``*_RTOL``, ``*_FLOOR``,
``*_GAP`` or ``*_CAP`` has a row in README's "Conventions and tolerances"
table, under its module and, when it is a plain number, with its value.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmarkov"
CONSTANT_NAME = re.compile(r"[A-Z0-9_]+_(TOL|RTOL|FLOOR|GAP|CAP)")

KEPT = [
    "linalg.is_hermitian(tol)",
    "markov.is_markov_state(tol)",
    "protocol._spectral_average(dim_cap)",
    "protocol.simulate(dim_cap)",
]


def cutoff_parameters(sources: dict[str, str]) -> list[str]:
    """``module.qualname(parameter)`` for every parameter of every function
    of ``sources`` (module name -> source text) whose name looks like a
    cutoff, sorted."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg):
                    if arg is not None and ("tol" in arg.arg or "cap" in arg.arg
                                            or arg.arg.startswith("max_")):
                        found.append(f"{prefix}{child.name}({arg.arg})")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")

    for module, source in sources.items():
        visit(ast.parse(source), f"{module}.")
    return sorted(found)


def test_only_the_kept_cutoff_parameters():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 5
    found = cutoff_parameters(sources)
    extra = [p for p in found if p not in KEPT]
    assert not extra, f"{len(extra)} cutoff parameters without an owner: {extra}"
    assert found == KEPT


def test_guard_flags_a_cutoff_parameter():
    sources = {
        "a": "def f(x, rank_rtol=1e-10):\n    pass\n\n"
             "class C:\n    def ok(self, *, max_sequences=5):\n        pass\n",
        "b": "def g(m, capacity, *, dim_cap=None, maximum=3, **kw):\n    pass\n\n"
             "def h(escape, tolerance_note):\n    pass\n",
    }
    assert cutoff_parameters(sources) == [
        "a.C.ok(max_sequences)", "a.f(rank_rtol)", "b.g(capacity)", "b.g(dim_cap)",
        "b.h(escape)", "b.h(tolerance_note)",
    ]


def cutoff_constants(sources: dict[str, str]) -> dict[tuple[str, str], float | None]:
    """(name, module) -> value of every module-level assignment in
    ``sources`` whose name is a cutoff constant's; the value is None when
    it is not a plain number."""
    found = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and CONSTANT_NAME.fullmatch(target.id):
                        value = node.value
                        plain = isinstance(value, ast.Constant) and isinstance(
                            value.value, (int, float))
                        found[(target.id, module)] = float(value.value) if plain else None
    return found


def readme_rows(text: str) -> dict[tuple[str, str], str]:
    """(name, module) -> value cell of each row of README's tolerance table."""
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", text, flags=re.M)
    return {(name, module): value.strip() for name, module, value in rows}


def test_every_cutoff_constant_has_a_readme_row():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    constants = cutoff_constants(sources)
    assert len(constants) >= 20
    rows = readme_rows((ROOT / "README.md").read_text(encoding="utf-8"))
    missing = sorted(f"{module}.{name}" for name, module in constants
                     if (name, module) not in rows)
    assert not missing, f"constants without a README row: {missing}"
    for key, value in constants.items():
        if value is not None:
            assert float(rows[key]) == value, key


def test_guard_finds_cutoff_constants():
    sources = {
        "a": "X_TOL = 1e-9\nLINK_RTOL: float = 2\nSEQ_CAP = 1 << 4\nKI_ATTEMPTS = 4\n"
             "def f():\n    INNER_TOL = 1\n",
        "b": "A_FLOOR, B_GAP = 1, 2\nC_GAP = D_FLOOR = 3\nTOLERANCE = 1\n",
    }
    assert cutoff_constants(sources) == {
        ("X_TOL", "a"): 1e-9, ("LINK_RTOL", "a"): 2.0, ("SEQ_CAP", "a"): None,
        ("C_GAP", "b"): 3.0, ("D_FLOOR", "b"): 3.0,
    }
    assert readme_rows("| `X_TOL` | `a` | 1e-9 | what |\n| `Y` | b | 1 | no |\n") == {
        ("X_TOL", "a"): "1e-9"}
