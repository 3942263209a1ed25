"""The library keeps only what the pipeline calls.

Every public module-level function and class of src/restartlab, and every
public method of those classes, must be named in the code of src/restartlab,
tools/ or perfbench/ outside its own definition.  A name counts as an
ast.Name, an ast.Attribute or an import alias; the package's re-exports in
__init__.py, docstrings, comments and tests do not count.  Python oracles
that only the tests call live in tests/reference.py.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "restartlab"
CALLERS = (PACKAGE, ROOT / "tools", ROOT / "perfbench")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree, skip_imports=False):
    """Every name the tree uses, with its count."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not skip_imports:
            out.update(part for alias in node.names for part in alias.name.split("."))
    return out


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    used = Counter()
    for directory in CALLERS:
        for path in sorted(directory.rglob("*.py")):
            if not path.name.startswith("test_"):
                used += _names(_parse(path), skip_imports=path.name == "__init__.py")
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _public_definitions(_parse(path)):
            name = node.name
            if used[name] - _names(node)[name] <= 0:
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, f"public names that only the tests call: {unused}"
