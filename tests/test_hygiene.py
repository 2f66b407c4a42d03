"""Static checks on the package source, in place of a linter."""

import ast
import collections
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
    # the package modules and the test modules
    found = {
        str(path.relative_to(ROOT)): unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
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


def _external_bases(tree):
    """{class name: its base classes that resolve through the module's
    absolute imports or the builtins}, for the module's top-level
    classes; a base defined in the package, or imported from a module
    that only runs beside the package's own files, resolves to nothing."""
    namespace = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0):
            try:
                exec(compile(ast.Module([node], []), "<imports>", "exec"), namespace)
            except ImportError:
                pass
    bases = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = []
            for base in node.bases:
                try:
                    bases[node.name].append(eval(ast.unparse(base), namespace))
                except NameError:
                    pass
    return bases


def _attribute_names(node):
    """Attribute names and string constants under an AST node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unreferenced_members(sources):
    """`Class.member` for every method or property of a top-level class of
    `sources` that no source names, as an attribute or a string, outside
    the member's own body.  Dunder methods are exempt, and so are
    overrides of a method of a base class from outside the package (an
    argparse parser's `error`), which that base class calls."""
    trees = [ast.parse(source) for source in sources]
    named = collections.Counter()
    for tree in trees:
        named.update(_attribute_names(tree))
    found = []
    for tree in trees:
        external = _external_bases(tree)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if any(hasattr(base, name) for base in external[cls.name]):
                    continue
                own = collections.Counter(_attribute_names(member))
                if named[name] <= own[name]:
                    found.append(f"{cls.name}.{name}")
    return found


def test_unreferenced_members_detected():
    module = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n"
        "    def extra(self):\n        return self.extra()\n"
        "class A:\n"
        "    def __len__(self):\n        return 0\n"
        "    def used(self):\n        return 1\n"
        "    def unused(self):\n        return self.unused()\n"
        "    def named(self):\n        return reversed(named)\n"
        "    @property\n    def size(self):\n        return 2\n"
        "    @property\n    def shown(self):\n        return 3\n"
        "class B(A):\n"
        "    def run(self, a):\n        return a.used() + a.shown\n"
        "    def reversed(self):\n        return reversed(self)\n"
        "def f(b):\n    return b.run\n"
    )
    tool = "TABLE = {'named': None}\n"
    assert unreferenced_members([module, tool]) == [
        "P.extra", "A.unused", "A.size", "B.reversed"
    ]


def test_every_member_used_outside_tests():
    # a method that only tests call belongs in the tests
    sources = [
        path.read_text()
        for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    ]
    assert unreferenced_members(sources) == []


def _functions(body, prefix=""):
    """(qualified name, node) of every function and method defined in a
    statement list, nested ones included, in source order."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node.body, name + ".")
        elif hasattr(node, "body"):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _functions(getattr(node, field, []), prefix)


def unused_parameters(sources):
    """`function.parameter` for every parameter of a function or method of
    `sources` that its body never reads as a name.  Dunder methods are
    exempt, and so are overrides of a method of a base class from outside
    the package, whose signature that base class fixes."""
    found = []
    for source in sources:
        tree = ast.parse(source)
        external = _external_bases(tree)
        for qualname, node in _functions(tree.body):
            owner, _, name = qualname.rpartition(".")
            if name.startswith("__") and name.endswith("__"):
                continue
            if any(hasattr(base, name) for base in external.get(owner, [])):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            found += [f"{qualname}.{p}" for p in params if p not in read]
    return found


def test_unused_parameters_detected():
    module = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(1)\n"
        "    def extra(self, flag):\n        return self\n"
        "class A:\n"
        "    def __exit__(self, *exc):\n        return False\n"
        "    def run(self, a, *rest, key=0, **kw):\n"
        "        a = 1\n"
        "        def inner(b, c=0):\n            return b + rest[0]\n"
        "        return inner(self) + kw['x']\n"
        "def f(x, y: int = 0, *, z):\n    return x\n"
        "if True:\n    def g(u):\n        return u\n"
    )
    assert unused_parameters([module]) == [
        "P.extra.flag", "A.run.a", "A.run.key", "A.run.inner.c", "f.y", "f.z"
    ]


def test_no_unused_parameters():
    # a parameter that no call can influence is dead weight at every caller
    sources = [
        path.read_text()
        for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    ]
    assert unused_parameters(sources) == []


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


def fractions_imports(source):
    """Line numbers where a module imports the standard `fractions`
    module or a name from it, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "fractions":
                lines.append(node.lineno)
    return sorted(lines)


def test_fractions_imports_detected():
    source = (
        "import os, fractions\nfrom fractions import Fraction as F\n"
        "from .fractions import x\nfrom math import gcd\n"
        "def f():\n    import fractions as q\n    return q, F, x, gcd, os\n"
    )
    assert fractions_imports(source) == [1, 2, 6]


def test_package_imports_no_fractions():
    # a rational is ints over one positive denominator from parser to
    # report; Fractions live only in the tests' references
    found = {
        path.name: fractions_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def inexact_arithmetic(source, exempt=()):
    """(line, what) of every float literal, name `float` and true
    division (`/` or `/=`) in a module, outside the class-level annotated
    fields that `exempt` names as "Class.field"."""
    tree = ast.parse(source)
    skipped = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and f"{cls.name}.{stmt.target.id}" in exempt
                ):
                    skipped.update(map(id, ast.walk(stmt)))
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
    return sorted(found)


def test_inexact_arithmetic_detected():
    source = (
        "class R:\n    t: float = 0.0\n    u: float = 1e3\n"
        "def f(a, b):\n    a /= 2\n    return a / b, a // b, float(b), 2j, '1/2'\n"
    )
    assert inexact_arithmetic(source, exempt={"R.t"}) == [
        (3, "float"), (3, "float literal"), (5, "/"), (6, "/"), (6, "float"), (6, "float literal")
    ]


def test_package_arithmetic_is_exact():
    # no float and no true division in the package; the one float is a
    # report's wall time
    found = {
        path.name: inexact_arithmetic(path.read_text(), exempt={"ResultReport.timing_s"})
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    cli = (SRC / "cli.py").read_text()
    assert [what for _, what in inexact_arithmetic(cli)] == ["float", "float literal"]
