"""Every name a skewex module imports is used in that module.

A deletion leaves imports behind that nothing flags at run time; this test
reads each module's syntax tree instead.  The package's __init__.py exists
to re-export names, so it is exempt.
"""

import ast
import pathlib

import skewex

PACKAGE = pathlib.Path(skewex.__file__).parent


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
