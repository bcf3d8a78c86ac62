"""quadlik benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run starts ``bench/worker.py`` in a
fresh process, which generates the workload's inputs from ``--seed``, checks
one reference-seed invocation against ``bench/reference/``, then calls
``quadlik.cli.main`` on a new seeded data set per invocation for
``--seconds`` and checks every report.  With ``--trace 0`` it also starts
set-up-only processes and prints the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each data set also runs traced and it
prints the per-layer metrics.  The last line of output is one JSON object;
the exit code is 0 only when every report was correct.  bench/README.md
defines the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Fresh processes timing imports plus input generation, besides the
# measuring process itself; set-up time is their median.
SETUP_REPEATS = 3
# One BLAS thread per process, so a two-worker run uses at most two threads
# on the two cores the workloads are sized for.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAIN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def normalized_s(inv: dict, ref_s: float) -> float:
    """Invocation time at the reference speed: wall time scaled by the
    probe's reference time over the mean of the probes around it."""
    before, after = inv["probe_s"]
    return inv["wall_s"] * ref_s * 2.0 / (before + after)


def worker(args: list[str], timeout: float) -> dict:
    """Run bench/worker.py; return its JSON line or exit on failure."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: worker {' '.join(args)} did not finish in {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: worker {' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="quadlik benchmark, one workload run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "quadlik", "cli.py")):
        sys.exit("bench: src/quadlik is missing; run from the root of a quadlik checkout")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], MAIN_TIMEOUT_S)
    untraced = [inv for inv in run["invocations"] if not inv["traced"]]
    experiment_s = statistics.median(normalized_s(inv, run["probe_ref_s"]) for inv in untraced)
    wall_s = statistics.median(inv["wall_s"] for inv in untraced)
    print(f"experiment: {len(untraced)} untraced invocations, median wall {wall_s:.6f} s, "
          f"median normalized {experiment_s:.6f} s")

    if args.trace:
        traced_s = statistics.median(
            normalized_s(inv, run["probe_ref_s"]) for inv in run["invocations"] if inv["traced"]
        )
        values = dict(run["layers"])
        values["trace.overhead_share"] = (traced_s - experiment_s) / experiment_s
        wanted = spec["per_layer"]
        print(f"traced: median normalized {traced_s:.6f} s; "
              f"{run['span_count']} spans written to {run['spans_file']}")
    else:
        setups = [run] + [worker(common + ["--setup-only", "--tag", f"setup{k}"], SETUP_TIMEOUT_S)
                          for k in range(SETUP_REPEATS)]
        replicates_per_invocation = run["replicates"] / run["reports"] if run["reports"] else 0.0
        values = {
            "experiment_s": experiment_s,
            "replicates_per_s": replicates_per_invocation / experiment_s,
            "setup_s": statistics.median(x["setup_s"] * x["setup_probe_ref_s"] / x["setup_probe_s"] for x in setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_rate": (run["operations"] - run["nao"]) / run["operations"] if run["operations"] else 0.0,
        }
        wanted = spec["end_to_end"]
        print(f"setup: median wall {statistics.median(x['setup_s'] for x in setups):.6f} s "
              f"over {len(setups)} processes")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    for line in run["nao_exits"]:
        print(f"NaO exit (counted in ok_rate): {line}")
    for failure in run["failures"]:
        print(f"CHECK FAILED: {failure}")
    correct = not run["failures"] and run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
