"""Every module-level function of the package is referred to.

A refactor can leave a helper behind that nothing calls any more; these
guards name it.  A reference is a name or an attribute other than the
function's own ``def``; an import alone is not one (tests/test_imports.py
flags an import nothing reads), so a re-export in ``__init__`` does not
count.  A private function must be referred to inside the package.  A
public one must be referred to inside the package or by the demos or the
benchmark: a function only the tests call is test code.  Decorated
functions are exempt: their decorator registers them, as
``cli._command`` registers the command handlers.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmarkov"
CALLERS = ("demos", "perfbench")


def _read(paths) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(paths)}


def _references(sources) -> set[str]:
    """Every name and attribute the source texts refer to."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _unreferenced(sources: dict[str, str], private: bool, used: set[str]) -> list[str]:
    """The undecorated module-level functions of ``sources`` (module name ->
    source text), private or public ones, whose names are not in ``used``."""
    out = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("__")
                    and node.name.startswith("_") == private
                    and not node.decorator_list and node.name not in used):
                out.append(f"{node.name} ({module}:{node.lineno})")
    return out


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """The undecorated module-level ``_name`` functions of ``sources`` that no
    module refers to."""
    return _unreferenced(sources, True, _references(sources.values()))


def unused_public_functions(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """The undecorated module-level public functions of ``sources`` that
    neither a module of ``sources`` nor one of ``callers`` refers to."""
    return _unreferenced(sources, False,
                         _references([*sources.values(), *callers.values()]))


def test_no_unused_private_functions():
    sources = _read(PACKAGE.glob("*.py"))
    assert len(sources) >= 5
    assert unused_private_functions(sources) == []


def test_no_public_function_only_tests_call():
    callers = {f"{d}/{name}": text for d in CALLERS
               for name, text in _read((ROOT / d).glob("*.py")).items()}
    assert len(callers) >= 5
    assert unused_public_functions(_read(PACKAGE.glob("*.py")), callers) == []


def test_guard_flags_an_unused_private_function():
    sources = {
        "a.py": "def _dead():\n    pass\n\ndef _called():\n    pass\n\n"
                "@register\ndef _handler():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b.py": "from a import _dead, _called\nfrom . import a\n\n"
                "def public():\n    return _called(), a._attr_used()\n\n"
                "def _attr_used():\n    pass\n",
    }
    assert unused_private_functions(sources) == ["_dead (a.py:1)"]


def test_guard_flags_a_public_function_only_tests_call():
    sources = {
        "__init__.py": "from .a import exported, internal, demoed, traced\n",
        "a.py": "def exported():\n    pass\n\ndef internal():\n    pass\n\n"
                "def demoed():\n    pass\n\ndef traced():\n    pass\n\n"
                "@register\ndef handler():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b.py": "from .a import internal\n\ndef _private():\n    return internal()\n",
    }
    callers = {"demos/d.py": "from qmarkov import demoed\n\ndemoed()\n",
               "perfbench/p.py": "import qmarkov\n\nqmarkov.a.traced()\n"}
    assert unused_public_functions(sources, callers) == ["exported (a.py:1)"]
