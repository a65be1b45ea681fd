"""Every imported name is read: no module under src/sparseuq or tests
imports a name it never uses, except the re-exports listed in a
module's __all__.  Checked on the syntax tree, so it needs no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "sparseuq").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source):
    """Names bound by an import statement of source that the module never
    reads, except those listed in its __all__."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    # `import a.b` binds a
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport os.path as osp\nfrom a import b, c\n__all__ = ['c']\nos.sep\n"
    assert unused_imports(source) == [(2, "osp"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
