"""Digests of the reports a checkout's CLI writes for a fixed set of inputs.

    python3 tools/report_digests.py [--root CHECKOUT] [--keep DIR]

Runs every fenced ``json`` config of README.md (with the data file
``tests/test_readme.py`` writes for it) and the inputs of the three bench
workloads at seeds 0, 3 and 7 (data set 0 of each, generated by
``bench/workloads.py``) through ``quadlik.cli.main``, and prints one line
``sha256 exit-code name`` for every file a report writes.  The inputs come
from this checkout; the program comes from ``CHECKOUT/src`` (by default
this checkout's), so two checkouts are compared byte for byte by running
the script once with each and diffing its output.  With ``--keep DIR``
the runs, their inputs and reports, are written under the new directory
DIR and kept, for ``tools/report_diff.py`` to compare two such trees.
Exits 1 if a run ended with an internal error (exit 3), else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = re.compile(r"(?:<!-- exit (\d) -->\n)?```json\n(.*?)```", re.S)
# the contents of the data files README's configs name, as tests/test_readme.py writes them
DATA_FILES = {"z.csv": [0.7, -0.3]}
BENCH_SEEDS = (0, 3, 7)


def import_cli(root: str):
    """``quadlik.cli`` from ``root/src``, never from elsewhere."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import quadlik.cli

    if not os.path.abspath(quadlik.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"report_digests: imported quadlik from {quadlik.cli.__file__}, not {src}")
    return quadlik.cli


def readme_runs(directory: str):
    """(run directory, argv) of each README config, its data file written next to it."""
    with open(os.path.join(HERE, "README.md"), encoding="utf8") as handle:
        configs = [json.loads(text) for _, text in CONFIG.findall(handle.read())]
    for i, cfg in enumerate(configs):
        run_dir = os.path.join(directory, f"readme-{i}-{cfg['experiment']}")
        os.makedirs(run_dir)
        if "data" in cfg:
            with open(os.path.join(run_dir, cfg["data"]), "w", encoding="utf8", newline="\n") as handle:
                handle.write("".join(f"{v:.17g}\n" for v in DATA_FILES[cfg["data"]]))
        path = os.path.join(run_dir, "config.json")
        with open(path, "w", encoding="utf8") as handle:
            json.dump(cfg, handle)
        yield run_dir, [cfg["experiment"], "--config", path]


def bench_runs(directory: str):
    """(run directory, argv) of data set 0 of each bench workload at each seed."""
    sys.path.insert(0, os.path.join(HERE, "bench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for seed in BENCH_SEEDS:
            run_dir = os.path.join(directory, f"{name}-seed{seed}")
            os.makedirs(run_dir)
            workload.generate(seed, 0, run_dir)
            yield run_dir, workload.argv(run_dir, os.path.join(run_dir, "report"))


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE, help="the checkout whose src/quadlik runs (default: this one)")
    parser.add_argument("--keep", metavar="DIR", help="run under DIR, a new directory, and keep the reports there")
    args = parser.parse_args()
    cli = import_cli(args.root)
    faults = 0
    if args.keep:
        os.makedirs(args.keep)
    with contextlib.nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory() as directory:
        for runs in (readme_runs, bench_runs):
            for run_dir, argv in runs(directory):
                inputs = set(os.listdir(run_dir))
                code = cli.main(argv)
                faults += code == 3
                written = sorted(set(os.listdir(run_dir)) - inputs)
                for filename in written or ["(no report)"]:
                    path = os.path.join(run_dir, filename)
                    sha = digest(path) if written else "-" * 64
                    print(f"{sha} {code} {os.path.basename(run_dir)}/{filename}", flush=True)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
