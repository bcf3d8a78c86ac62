"""Every name a quadlik module imports is used in that module.

``__init__.py`` imports to re-export, and ``from __future__`` imports are
compiler directives; every other import is read here from the module's
syntax tree and must be referenced in it at least once.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadlik"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom .core import NaO, is_nao\nis_nao(math.pi)\n") == ["line 2: NaO"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf8")) == []
