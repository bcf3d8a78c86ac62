"""``cli`` alone turns library results into report entries.

No module of quadlik defines a ``to_record`` method, and no module but
``cli`` takes a ``prefix`` parameter: every library result reaches a report
through ``cli.REPORTED``, whose names must be fields of their types, so a
renamed field fails here rather than as a run's internal error.
"""

import ast
import dataclasses
from pathlib import Path

from quadlik.cli import REPORTED

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadlik"


def record_formatters(sources: dict[str, str]) -> list[str]:
    """``module.function`` of each ``to_record`` of ``sources`` (module name ->
    source), and of each function outside ``cli`` with a ``prefix`` parameter."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if node.name == "to_record" or (module != "cli" and any(a.arg == "prefix" for a in args)):
                    found.append(f"{module}.{node.name}")
    return found


def test_the_check_sees_a_formatter():
    sources = {
        "a": "class R:\n    def to_record(self):\n        return {}\n",
        "b": "def put(rec, *, prefix='x'):\n    pass\ndef keep(rec):\n    pass\n",
        "cli": "def put(record, prefix, result):\n    pass\n",
    }
    assert record_formatters(sources) == ["a.to_record", "b.put"]


def test_no_library_result_formats_itself():
    sources = {path.stem: path.read_text(encoding="utf8") for path in sorted(PACKAGE.glob("*.py"))}
    assert record_formatters(sources) == []


def test_every_reported_name_is_a_field_of_its_type():
    for result_type, names in REPORTED.items():
        fields = {field.name for field in dataclasses.fields(result_type)}
        assert len(set(names)) == len(names) and set(names) <= fields, result_type.__name__
