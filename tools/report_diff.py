"""How far the JSON reports of two run trees differ.

    python3 tools/report_diff.py A B

A and B are directories of runs, such as two ``tools/report_digests.py
--keep DIR`` trees, one from each checkout.  For every ``.json`` file at the
same relative path in both whose bytes differ, prints one line: its name,
the largest relative difference ``|a - b| / max(|a|, |b|)`` over its real
entries (``-`` where none differs), and every count or string that differs,
as ``key: a -> b``.  An entry is real where either side is a JSON number
with a fraction or an exponent, or a quoted ``nan``, ``inf`` or ``-inf``
(a real that differs only in being finite counts as inf); it is a count
where both sides are JSON integers.  A report in only one tree is named as
such.  Every ``.json`` report has a ``.txt`` twin that renders the same
record, which is not compared.  Exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os

NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def reports(root: str) -> set[str]:
    """Relative paths of the ``.json`` files under ``root``."""
    found = set()
    for directory, _, files in os.walk(root):
        found.update(os.path.relpath(os.path.join(directory, f), root) for f in files if f.endswith(".json"))
    return found


def number(value):
    """The float of a real or count entry, None for anything else (a
    report holds strings, integers, reals and lists of reals)."""
    if isinstance(value, (int, float)):
        return float(value)
    return NON_FINITE.get(value) if isinstance(value, str) else None


def relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(key: str, a, b, others: list[str]) -> float:
    """The largest relative difference of the reals in ``a`` against ``b``;
    appends every count or string that differs to ``others``."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((compare(f"{key}[{i}]", x, y, others) for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    fa, fb = number(a), number(b)
    if fa is not None and fb is not None and not (type(a) is int and type(b) is int):
        return relative(fa, fb)
    if a != b:
        others.append(f"{key}: {json.dumps(a)} -> {json.dumps(b)}")
    return 0.0


def diff(path_a: str, path_b: str) -> tuple[float, list[str]]:
    with open(path_a, encoding="utf8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf8") as handle:
        b = json.load(handle)
    others: list[str] = []
    worst = 0.0
    for key in list(a) + [k for k in b if k not in a]:
        if key not in a or key not in b:
            others.append(f"{key}: only in {'B' if key not in a else 'A'}")
            continue
        worst = max(worst, compare(key, a[key], b[key], others))
    return worst, others


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the first run tree")
    parser.add_argument("b", help="the second run tree")
    args = parser.parse_args()
    in_a, in_b = reports(args.a), reports(args.b)
    moved = 0
    for name in sorted(in_a | in_b):
        if name not in in_a or name not in in_b:
            print(f"{name}  only in {'B' if name not in in_a else 'A'}")
            moved += 1
            continue
        path_a, path_b = os.path.join(args.a, name), os.path.join(args.b, name)
        with open(path_a, "rb") as ha, open(path_b, "rb") as hb:
            if ha.read() == hb.read():
                continue
        worst, others = diff(path_a, path_b)
        moved += 1
        print(f"{name}  {f'{worst:.2g}' if worst else '-'}  {'; '.join(others)}".rstrip())
    print(f"{moved} of {len(in_a | in_b)} .json files differ")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
