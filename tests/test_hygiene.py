"""Static checks on the package source, in place of a linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nilsect"


def unused_imports(source):
    """Module-level imported names that the module never refers to.

    A name counts as used where it appears as an expression; one used
    only inside a quoted annotation counts as unused.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re\nfrom x import a, b as c, d\n"
        "def f(y: d):\n    return a, re\n"
    )
    assert unused_imports(source) == ["os", "c"]


def test_no_unused_imports_in_package():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
