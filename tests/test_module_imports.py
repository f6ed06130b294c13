"""Module boundaries inside the glattice package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glattice"


def _private_imports(path):
    """(module, name) for every underscore name `path` imports from a sibling
    module; dunder names such as `__version__` are public."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("glattice")
        ):
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    out.append((node.module, name))
    return out


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: _private_imports(path) for path in modules}
    assert {name: imports for name, imports in found.items() if imports} == {}
