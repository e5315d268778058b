"""Every name a skewex module imports is used in that module, and every
top-level definition of the package, and every method of its top-level
classes apart from dunders, is referenced somewhere.

A deletion leaves imports behind that nothing flags at run time, and a
function can outlive its last caller; these tests read the syntax trees
instead.  The package's __init__.py exists to re-export names, so it is
exempt from the import check.  A definition counts as referenced when its
name is read, imported or taken as an attribute in src/, tests/ or
perfbench/.  No module of the package touches an attribute named sc: an
Algebra is its integer table, and the dense Fraction view Algebra.sc, whose
definition is a method and no attribute access, is for tests and tools.
The extension's preconditions are decided in _extension.assemble alone:
ore.py, laurent.py, cli.py and suites.py raise none of its errors.
"""

import ast
import pathlib

import skewex

PACKAGE = pathlib.Path(skewex.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent
REFERENCE_DIRS = ("src", "tests", "perfbench")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector_flags_an_unused_import():
    assert unused_imports("from .linalg import kernel, span\nspan([], 0)\n") == ["kernel"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_every_imported_name_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[path.name] = names
    assert unused == {}


def top_level_definitions(source: str) -> list[str]:
    """Names of the module-level functions, classes and assignments."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def method_definitions(source: str) -> list[str]:
    """Class.method for the methods of the module-level classes, dunders exempt."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def referenced_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_detector_flags_an_unreferenced_definition():
    source = "LIMIT = 3\ndef used():\n    return LIMIT\ndef dead():\n    pass\nclass C:\n    pass\n"
    assert top_level_definitions(source) == ["LIMIT", "used", "dead", "C"]
    refs = referenced_names(source + "from m import C\nused()\n")
    assert [n for n in top_level_definitions(source) if n not in refs] == ["dead"]


def test_detector_flags_an_unreferenced_method():
    source = ("class C:\n    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        pass\n    def dead(self):\n        pass\n")
    assert method_definitions(source) == ["C.used", "C.dead"]
    refs = referenced_names(source)
    assert [n for n in method_definitions(source) if n.split(".")[1] not in refs] == ["C.dead"]


def test_every_definition_is_referenced():
    referenced = set()
    for folder in REFERENCE_DIRS:
        for path in sorted((REPO / folder).rglob("*.py")):
            referenced |= referenced_names(path.read_text(encoding="utf-8"))
    unreferenced = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        names = [name for name in top_level_definitions(source) if name not in referenced]
        names += [name for name in method_definitions(source)
                  if name.split(".")[1] not in referenced]
        if names:
            unreferenced[path.name] = names
    assert unreferenced == {}


def dense_table_accesses(source: str) -> list[int]:
    """Lines that read or write an attribute named sc."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "sc")


def test_detector_flags_a_dense_table_access():
    source = ("class A:\n    @cached_property\n    def sc(self):\n        return ()\n"
              "t = a.sc[0][1]\nself.sc = t\nf'{where}.sc'\n")
    assert dense_table_accesses(source) == [5, 6]


def test_no_module_touches_the_dense_table():
    accesses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = dense_table_accesses(path.read_text(encoding="utf-8"))
        if lines:
            accesses[path.name] = lines
    assert accesses == {}


GATE_ERRORS = {"NotMonic", "ConstantTermZero", "AnnihilatorFails"}
GATE_FREE = ("ore.py", "laurent.py", "cli.py", "suites.py")


def gate_bypasses(source: str) -> list[str]:
    """The extension preconditions a module raises, and its calls of
    _check_annihilates, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        target = None
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        elif isinstance(node, ast.Call):
            target = node.func
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else None)
        if (isinstance(node, ast.Raise) and name in GATE_ERRORS
                or isinstance(node, ast.Call) and name == "_check_annihilates"):
            found.append((node.lineno, name))
    return [name for _, name in sorted(found)]


def test_detector_flags_a_bypassed_gate():
    source = ("if p.degree < 1:\n    raise NotMonic('degree')\n"
              "_extension._check_annihilates(m, p)\nraise errors.ConstantTermZero\n"
              "AnnihilatorFails(0, v)\n")
    assert gate_bypasses(source) == ["NotMonic", "_check_annihilates", "ConstantTermZero"]


def test_only_the_extension_gate_decides_the_preconditions():
    """_extension.assemble alone raises NotMonic, ConstantTermZero and
    AnnihilatorFails; the entry points and their callers go through it."""
    assert {name: gate_bypasses((PACKAGE / name).read_text(encoding="utf-8"))
            for name in GATE_FREE} == {name: [] for name in GATE_FREE}


FRACTION_CALLS = {"multiply", "apply", "vec_sub", "vec_add"}
CERTIFICATES = {"_extension.py": "verify_extension", "algebra.py": "_first_nonassociative_at"}


def fraction_calls(source: str, function: str) -> list[str]:
    """The calls of a Fraction product or sum, as a function or a method,
    in the body of the top-level function of that name, in source order."""
    node = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    found = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            target = call.func
            name = (target.id if isinstance(target, ast.Name)
                    else target.attr if isinstance(target, ast.Attribute) else None)
            if name in FRACTION_CALLS:
                found.append((call.lineno, call.col_offset, name))
    return [name for *_, name in sorted(found)]


def test_detector_flags_fraction_arithmetic():
    source = ("def check(ext, embed, u, v):\n"
              "    got = vec_sub(ext.multiply(u, v), embed.apply(v))\n"
              "    return linalg.vec_add(got, v)\n"
              "def other(ext, u):\n    return ext.multiply(u, u)\n")
    assert fraction_calls(source, "check") == ["vec_sub", "multiply", "apply", "vec_add"]


def test_the_extension_certificate_runs_on_integer_rows():
    """verify_extension and the associator check it calls multiply no
    Fraction vectors: every product is an integer row over the integer
    table, and the checks compare cross-multiplied integer rows."""
    assert {name: fraction_calls((PACKAGE / module).read_text(encoding="utf-8"), name)
            for module, name in CERTIFICATES.items()} == {name: [] for name in
                                                          CERTIFICATES.values()}
