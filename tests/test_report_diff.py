"""tools/report_diff.py on two small run trees."""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", os.path.join(HERE, "tools", "report_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root, reports):
    for name, record in reports.items():
        path = os.path.join(root, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf8") as handle:
            json.dump(record, handle)
    return str(root)


def test_prints_each_moved_report(tmp_path, report_diff, monkeypatch, capsys):
    same = {"x": 0.25, "status": "ok"}
    a = tree(tmp_path / "a", {
        "run/report.json": {"mean": 2.0, "q": [1.0, "nan", 3], "n_nao": 3, "status": "ok", "rate": 1},
        "same/report.json": same, "gone/report.json": same,
    })
    b = tree(tmp_path / "b", {
        "run/report.json": {"mean": 2.5, "q": [1.0, "nan", 3.0000000003], "n_nao": 0, "status": "nao", "rate": 0.5},
        "same/report.json": same, "new/report.json": same,
    })
    monkeypatch.setattr("sys.argv", ["report_diff.py", a, b])
    assert report_diff.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "gone/report.json  only in A",
        "new/report.json  only in B",
        # rate 1 -> 0.5 is a real (one side has a fraction): 0.5
        'run/report.json  0.5  n_nao: 3 -> 0; status: "ok" -> "nao"',
        "3 of 4 .json files differ",
    ]


@pytest.mark.parametrize(
    "a, b, worst, others",
    [
        (1.0, "inf", float("inf"), []),
        ("nan", "nan", 0.0, []),
        (4, 5, 0.0, ["k: 4 -> 5"]),
        ([1.0, 2.0], [1.0], 0.0, ["k: [1.0, 2.0] -> [1.0]"]),
        (-2.0, 2.0, 2.0, []),
    ],
)
def test_entry_kinds(report_diff, a, b, worst, others):
    found = []
    assert report_diff.compare("k", a, b, found) == worst
    assert found == others
