"""Every module-level private function of the package is referred to.

A refactor can leave a helper behind that nothing calls any more; this
guard names it.  A reference is a name or an attribute anywhere in the
package other than the function's own ``def``; an import alone is not one
(tests/test_imports.py flags an import nothing reads).  Decorated functions
are exempt: their decorator registers them, as ``cli._command`` registers
the command handlers.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmarkov"


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """The undecorated module-level ``_name`` functions of ``sources``
    (module name -> source text) that no module refers to."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not node.decorator_list):
                defined[node.name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name} ({where})" for name, where in defined.items() if name not in used]


def test_no_unused_private_functions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 5
    assert unused_private_functions(sources) == []


def test_guard_flags_an_unused_private_function():
    sources = {
        "a.py": "def _dead():\n    pass\n\ndef _called():\n    pass\n\n"
                "@register\ndef _handler():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b.py": "from a import _dead, _called\nfrom . import a\n\n"
                "def public():\n    return _called(), a._attr_used()\n\n"
                "def _attr_used():\n    pass\n",
    }
    assert unused_private_functions(sources) == ["_dead (a.py:1)"]
