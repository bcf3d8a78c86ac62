"""Every private module-level name of quadlik is used in the package.

A function, class or constant defined at the top level of a quadlik module
under a name with one leading underscore must be read somewhere in the
package outside its own definition, unless the benchmark's span tracer binds
it by name (``FUNCTIONS`` and ``FACTORIES`` of ``bench/tracing.py``).  A
helper that a refactor left without callers fails here.
"""

import ast
from pathlib import Path

from conftest import load_tracing

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadlik"


def defined_private_names(statement: ast.stmt) -> list[str]:
    """The private names one top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level name of ``sources`` (module
    name -> source) that no top-level statement but its own definition reads."""
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    reads = [
        {node.id for node in ast.walk(statement) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for _, statement in statements
    ]
    return [
        f"{module}.{name}"
        for i, (module, statement) in enumerate(statements)
        for name in defined_private_names(statement)
        if not any(name in read for j, read in enumerate(reads) if j != i)
    ]


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a": "_USED = 1\n_UNUSED, _ALSO = 2, 3\ndef _loop(n):\n    return _loop(n - 1)\nclass _Kernel:\n    pass\n",
        "b": "from .a import _USED, _ALSO\nprint(_USED + _ALSO)\n",
    }
    assert unused_private_names(sources) == ["a._UNUSED", "a._loop", "a._Kernel"]


def test_every_private_name_is_used():
    tracing = load_tracing()
    bound = {f"{layer}.{attr}" for layer, attr, _ in tracing.FUNCTIONS + tracing.FACTORIES}
    sources = {path.stem: path.read_text(encoding="utf8") for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name in unused_private_names(sources) if name not in bound] == []
