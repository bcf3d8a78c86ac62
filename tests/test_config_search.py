"""The config surface, searched.

One small base config per experiment and model kind, with its data files.
One numeric leaf at a time is replaced by a value of a fixed pool, and so is
each mirrored off-diagonal pair (i, j), (j, i) of a square matrix, both set
to the same value, so a matrix stays symmetric.  Each config runs through
``cli.main`` with warnings as errors, in a child process
of its own under a time limit and an address-space limit (``setrlimit`` in
the child only), so a value that gets past the size rules fails visibly
instead of exhausting the host.  Every run exits 0, 1 or 2 in time, and an
exit 1 names a config key or a data file.

Tier-1 runs a fixed part of the pool: every ``TIER1_STRIDE``-th replacement,
and the replacements that found a defect.  ``QUADLIK_CONFIG_SEARCH=full``
runs the whole pool, in a CI job of its own.

The children are forked by this file run as a script, a fresh interpreter
with one BLAS thread, so no fork copies a process that runs other threads.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from quadlik.models import AnimalModel, relationship_matrix, save_pedigree_csv, save_vector_csv, synthetic_pedigree
from quadlik.rng import derive_rng

INTS = [0, 1, 2, 3, -1, 2**31, 2**63]
REALS = [0.0, 1.0, -1.0, 0.5, 2.0, 1e-320, 1e-300, 1e-154, 1e154, 1e300, 1.7e308, -1.7e308, 356.0, 700.0]
POOL = INTS + REALS

SECONDS = 20  # a run's time limit
EXTRA_BYTES = 2**30  # a run's address space past the runner's own
TIER1_STRIDE = 23

SYNTHETIC = {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}
LAN = {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}
WISHART = {"kind": "wishart_lamn", "dim": 2, "dof": 5.0}
AR1 = {"kind": "ar1", "n": 10}
ANIMAL = {"kind": "animal", "synthetic": SYNTHETIC}
PEDIGREE = {"kind": "animal", "pedigree": "ped.csv"}
TRUTH = {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}
CHECKS = {"test_nsim": 20, "contiguity_nsim": 20, "points_per_axis": 5}

# name -> config, each small enough to run in well under a second
BASES = {
    "fit-lan": {"experiment": "fit", "model": LAN, "data": "z.csv"},
    "fit-wishart": {"experiment": "fit", "model": WISHART, "data": "w.csv"},
    "fit-ar1": {"experiment": "fit", "model": AR1, "data": "a.csv"},
    "fit-animal": {"experiment": "fit", "model": ANIMAL, "data": "y.csv"},
    "fit-pedigree": {"experiment": "fit", "model": PEDIGREE, "data": "y.csv"},
    "fit-iid_normal": {"experiment": "fit", "model": {"kind": "iid_normal", "p": 2, "n": 5}, "data": "x.csv"},
    "fit-iid_exponential": {"experiment": "fit", "model": {"kind": "iid_exponential", "n": 5}, "data": "e.csv"},
    "diagnose-lan": {"experiment": "diagnose", "model": LAN, "data": "z.csv", **CHECKS},
    "diagnose-ar1": {"experiment": "diagnose", "model": AR1, "data": "a.csv", **CHECKS},
    "diagnose-animal": {"experiment": "diagnose", "model": ANIMAL, "data": "y.csv", **CHECKS, "points_per_axis": 3},
    "bootstrap-lan": {"experiment": "bootstrap", "model": LAN, "data": "z.csv", "B": 10},
    "bootstrap-wishart": {"experiment": "bootstrap", "model": WISHART, "data": "w.csv", "B": 5, "double": True, "B2": 3},
    "lamn-verify-constant": {"experiment": "lamn-verify", "spec": {"dim": 2, "curvature": {"kind": "constant", "k": LAN["k"]}},
                             "nsim": 50, "n_deltas": 2, "test_nsim": 20},
    "lamn-verify-wishart": {"experiment": "lamn-verify", "spec": {"dim": 2, "curvature": {"kind": "wishart", "dof": 5.0}},
                            "nsim": 50, "n_deltas": 2, "test_nsim": 20},
    "ar1-study": {"experiment": "ar1-study", "thetas": [0.5], "n": 10, "mc_paths": 50, "invariance_nsim": 20,
                  "points_per_axis": 5},
    "animal-study": {"experiment": "animal-study", "model": ANIMAL, "truth": TRUTH, "B": 5},
    "animal-study-pedigree": {"experiment": "animal-study", "model": PEDIGREE, "data": "y.csv", "B": 3},
    "classical-normal": {"experiment": "classical-comparison", "psi": [0.0], "ladder": [10, 20], "replications": 3,
                         "points_per_axis": 5},
    "classical-exponential": {"experiment": "classical-comparison", "unit": "exponential", "psi": [1.0], "ladder": [10],
                              "replications": 3, "points_per_axis": 5},
}

# (base, leaves, value) replacements that found a defect: each exited 2 with
# a printed numpy warning or 3, or ran past its limit, before the size rules
# covered it, or (a mirrored pair) exited 3 when the pivot test overflowed
# and warned; tier-1 runs them all
FOUND = [
    ("ar1-study", (("mc_paths",),), 1),
    ("animal-study", (("truth", "mu"),), 1.7e308),
    ("animal-study", (("truth", "mu"),), -1.7e308),
    ("fit-iid_normal", (("model", "p"),), 2**31),
    ("fit-iid_normal", (("model", "p"),), 2**63),
    ("lamn-verify-constant", (("n_deltas",),), 2**31),
    *[(name, (("model", "k", 0, 1), ("model", "k", 1, 0)), value)
      for name in ("fit-lan", "diagnose-lan", "bootstrap-lan") for value in (1e300, 1.7e308, -1.7e308)],
    *[("lamn-verify-constant", (("spec", "curvature", "k", 0, 1), ("spec", "curvature", "k", 1, 0)), value)
      for value in (1e300, 1.7e308, -1.7e308)],
]

ERROR_NAMES = re.compile(r"quadlik: error: (config\b|\S+\.(csv|json): )")


def write_data_files(directory) -> None:
    save_vector_csv(os.path.join(directory, "z.csv"), [0.7, -0.3])
    save_vector_csv(os.path.join(directory, "w.csv"), [0.3, -0.2, 2.0, 0.5, 0.5, 1.0])
    save_vector_csv(os.path.join(directory, "a.csv"), np.linspace(-1.0, 1.0, 11) ** 2)
    # a response whose fit is interior, so diagnose's checks run
    model = AnimalModel(relationship_matrix(synthetic_pedigree(6, 7, 2, 3)))
    save_vector_csv(os.path.join(directory, "y.csv"), model.simulate_response(0.0, 1.0, 1.0, derive_rng(4, "y")))
    save_vector_csv(os.path.join(directory, "x.csv"), np.cos(np.arange(10.0)))
    save_vector_csv(os.path.join(directory, "e.csv"), [0.5, 1.5, 0.2, 2.0, 1.0])
    save_pedigree_csv(os.path.join(directory, "ped.csv"), synthetic_pedigree(6, 7, 2, 3))


def leaves(value, path=()):
    """The paths of every number in a config, lists and matrices included."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def mirrored_pairs(value, path=()):
    """The ``(i, j)`` and ``(j, i)`` leaf paths, ``i < j``, of every square
    matrix of numbers in a config."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from mirrored_pairs(item, path + (key,))
    elif isinstance(value, list):
        if value and all(isinstance(row, list) and len(row) == len(value) for row in value):
            for i in range(len(value)):
                for j in range(i + 1, len(value)):
                    yield path + (i, j), path + (j, i)
        else:
            for i, item in enumerate(value):
                yield from mirrored_pairs(item, path + (i,))


def replaced(cfg, paths, value):
    """A copy of ``cfg`` with the leaf at each of ``paths`` set to ``value``."""
    cfg = json.loads(json.dumps(cfg))
    for path in paths:
        block = cfg
        for part in path[:-1]:
            block = block[part]
        block[path[-1]] = value
    return cfg


def full_config(base: dict) -> dict:
    return {"schema_version": 1, "seed": 42, **base}


def replacements():
    """Every (base, leaves, value) of the pool, in a fixed order: each leaf alone,
    then each mirrored pair."""
    singles = [(name, (path,)) for name, base in BASES.items() for path in leaves(full_config(base))]
    pairs = [(name, pair) for name, base in BASES.items() for pair in mirrored_pairs(full_config(base))]
    return [(name, paths, value) for name, paths in singles + pairs for value in POOL]


def tier1_replacements():
    return replacements()[::TIER1_STRIDE] + FOUND


def run_all(cases, directory) -> list:
    """Each case run by the runner below: ``(exit code or "timeout", first line of stderr)``."""
    jobs = []
    for i, (name, paths, value) in enumerate(cases):
        cfg = replaced(full_config(BASES[name]), paths, value)
        config = os.path.join(directory, f"c{i}.json")
        with open(config, "w", encoding="utf8") as handle:
            json.dump(cfg, handle)
        jobs.append([BASES[name]["experiment"], config, os.path.join(directory, "r")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__], input=json.dumps(jobs), capture_output=True, text=True, env=env,
                          timeout=60 + len(jobs) * (SECONDS + 1))
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def failures(cases, results) -> list[str]:
    bad = []
    for (name, paths, value), (code, err) in zip(cases, results):
        if code not in (0, 1, 2) or (code == 1 and not ERROR_NAMES.match(err)):
            leaves_named = " and ".join(".".join(map(str, path)) for path in paths)
            bad.append(f"{name} {leaves_named} = {value!r}: exit {code}: {err}")
    return bad


@pytest.mark.skipif(os.environ.get("QUADLIK_CONFIG_SEARCH") == "full", reason="the full search runs every case")
def test_tier1_part_of_the_pool(tmp_path):
    write_data_files(tmp_path)
    cases = tier1_replacements()
    assert not failures(cases, run_all(cases, tmp_path))


@pytest.mark.skipif(os.environ.get("QUADLIK_CONFIG_SEARCH") != "full", reason="set QUADLIK_CONFIG_SEARCH=full")
def test_whole_pool(tmp_path):
    write_data_files(tmp_path)
    cases = replacements()
    bad = failures(cases, run_all(cases, tmp_path))
    assert not bad, f"{len(bad)} of {len(cases)} runs failed:\n" + "\n".join(bad[:50])


def test_every_base_config_runs(tmp_path):
    write_data_files(tmp_path)
    cases = [(name, (("seed",),), 42) for name in BASES]
    assert [code for code, _ in run_all(cases, tmp_path)] == [0] * len(BASES)


def test_found_values_stay_in_the_pool():
    assert all(case in replacements() for case in FOUND)


def test_mirrored_pairs_of_square_matrices():
    cfg = {"k": [[1, 2, 3], [2, 1, 4], [3, 4, 1]], "theta": [0.5, 1.0], "box": [[1, 2]], "m": [[1, 2], [3, 4]]}
    assert list(mirrored_pairs(cfg)) == [
        (("k", 0, 1), ("k", 1, 0)), (("k", 0, 2), ("k", 2, 0)), (("k", 1, 2), ("k", 2, 1)), (("m", 0, 1), ("m", 1, 0)),
    ]
    assert replaced(cfg, (("m", 0, 1), ("m", 1, 0)), 7)["m"] == [[1, 7], [7, 4]]


# ---------------------------------------------------------------------------
# The runner: reads jobs [experiment, config, out] as JSON on stdin and
# writes one line [exit code or "timeout", first line of stderr] a job
# ---------------------------------------------------------------------------


def _child(experiment: str, config: str, out: str, err_path: str, limit: int) -> None:
    import resource
    import warnings

    from quadlik.cli import main

    code = 98
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(fd, 2)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        warnings.simplefilter("error")
        code = main([experiment, "--config", config, "--out", out])
        sys.stderr.flush()
    finally:
        os._exit(code)


def _run(experiment: str, config: str, out: str, limit: int):
    err_path = out + ".stderr"
    pid = os.fork()
    if pid == 0:
        _child(experiment, config, out, err_path, limit)
    deadline = time.monotonic() + SECONDS
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            return "timeout", ""
        time.sleep(0.002)
    with open(err_path, encoding="utf8", errors="replace") as handle:
        err = handle.read()
    code = os.waitstatus_to_exitcode(status)
    return code, err.splitlines()[0] if err else ""


def _runner() -> None:
    import quadlik.cli  # noqa: F401  imported once, before the forks

    with open("/proc/self/statm") as handle:
        limit = int(handle.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + EXTRA_BYTES
    for experiment, config, out in json.load(sys.stdin):
        print(json.dumps(_run(experiment, config, out, limit)), flush=True)


if __name__ == "__main__":
    _runner()
