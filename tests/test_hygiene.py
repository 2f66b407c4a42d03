"""Static checks on the package source, in place of a linter."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nilsect"


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


def referenced_names(source):
    """Identifiers, attribute names and string constants of a module, as
    {top-level definition they occur in (None outside any): names}."""
    found = {}
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        names = found.setdefault(owner, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)
    return found


def unused_exports(init_source, sources):
    """Names the package __init__ imports that none of `sources` names
    outside the name's own top-level definition."""
    exported = [
        a.asname or a.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    used = set()
    for source in sources:
        for owner, names in referenced_names(source).items():
            used |= names - {owner}
    return [name for name in exported if name not in used]


def test_unused_exports_detected():
    init = "from .m import f, g, h, k, C\nfrom .n import q as r\n"
    module = (
        "import os\nfrom .m import k\n"
        "def f():\n    return f()\n"
        "def g():\n    return os.h\n"
        "class C:\n    def new(self):\n        return C()\n"
    )
    tool = "LAYERS = ('g',)\n"
    assert unused_exports(init, [module, tool]) == ["f", "k", "C", "r"]


def test_every_export_used_outside_tests():
    sources = [
        path.read_text()
        for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert unused_exports((SRC / "__init__.py").read_text(), sources) == []


def unreferenced_definitions(init_source, sources):
    """Top-level functions and classes of `sources` that no source names
    outside the definition's own body and that the package __init__
    does not export: code that only tests call."""
    exported = {
        a.asname or a.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    used = set()
    defined = []
    for source in sources:
        for owner, names in referenced_names(source).items():
            used |= names - {owner}
        defined += [
            node.name
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    return [name for name in defined if name not in used | exported]


def test_unreferenced_definitions_detected():
    init = "from .m import f\n"
    module = (
        "def f():\n    return f()\n"
        "def g():\n    return g()\n"
        "def h():\n    return k\n"
        "class C:\n    def new(self):\n        return C()\n"
        "def k():\n    pass\n"
        "TABLE = {'n': None}\n"
        "def n():\n    pass\n"
    )
    assert unreferenced_definitions(init, [module]) == ["g", "h", "C"]


def test_every_definition_used_in_the_package():
    # a helper that only tests call belongs in the tests
    sources = [
        path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
    ]
    init = (SRC / "__init__.py").read_text()
    assert unreferenced_definitions(init, sources) == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """Line numbers where a module names os.environ or os.getenv (or
    their bytes forms), as an attribute or as an import from os."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in ENVIRONMENT_READERS for a in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_environment_reads_detected():
    source = (
        "import os\nfrom os import getenv as g, path\n"
        "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path.join('d')\n"
    )
    assert environment_reads(source) == [2, 3, 4]


def test_package_reads_no_environment():
    # configuration comes only from instance files and command-line flags
    found = {
        path.name: environment_reads(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def traced_names(source):
    """`module.function` for every entry of the `LAYERS` mapping that a
    source assigns at module level, read without running it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            layers = ast.literal_eval(node.value)
            return [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns]
    return []


def unresolved(names):
    """The dotted names under `nilsect` that do not resolve to a callable."""
    missing = []
    for dotted in names:
        mod, *path = dotted.split(".")
        try:
            obj = importlib.import_module(f"nilsect.{mod}")
            for attr in path:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            obj = None
        if not callable(obj):
            missing.append(dotted)
    return missing


def test_traced_names_detected():
    source = (
        "import json\nOTHER = {'a': ('b',)}\n"
        "LAYERS = {'matlie': ('direct_sum', 'UnipotentMatrix.inverse'),"
        " 'orbit': ('decide_orbit', 'no_such_function', 'FALLBACK_DEPTH'),"
        " 'no_module': ('f',)}\n"
    )
    names = traced_names(source)
    assert names == [
        "matlie.direct_sum",
        "matlie.UnipotentMatrix.inverse",
        "orbit.decide_orbit",
        "orbit.no_such_function",
        "orbit.FALLBACK_DEPTH",
        "no_module.f",
    ]
    assert unresolved(names) == [
        "orbit.no_such_function", "orbit.FALLBACK_DEPTH", "no_module.f"
    ]


def test_every_traced_function_resolves():
    # a rename in the package fails here, not in a traced benchmark run
    names = traced_names((ROOT / "bench" / "tracer.py").read_text())
    assert len(names) == 23
    assert unresolved(names) == []
