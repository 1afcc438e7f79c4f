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
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmarkov"

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
