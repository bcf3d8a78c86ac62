"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace 1]
    python3 bench/worker.py --workload NAME --seed N --setup-only --tag TAG
    python3 bench/worker.py --workload NAME --write-reference

The default mode sets up, runs data set 0 of the reference seed (a warm-up,
checked against ``bench/reference/``), then gives one seeded data set to
each invocation for ``--seconds``; with ``--trace 1`` each data set runs
untraced, then traced.  It prints one JSON object.  ``--setup-only`` times
imports plus input generation and exits.  ``--write-reference`` rewrites
``bench/reference/<workload>.json`` from the current program.

Every quadlik call goes through ``quadlik.cli.main`` in this process.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
# A run times at least this many invocations (data sets), however short
# --seconds is, so that it has a median.
MIN_INVOCATIONS = 3
# quadlik's exit code for an experiment whose fit is NaO (the safeguarded
# Newton stopped unconverged).  That is a defined outcome, not a wrong
# answer: it is checked for consistency and counted against ok_rate.
EXIT_NAO = 2


def import_quadlik():
    """Import quadlik from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "quadlik", "cli.py")):
        raise SystemExit(f"bench: no quadlik sources under {SRC}")
    sys.path.insert(0, SRC)
    import quadlik.cli

    if not os.path.abspath(quadlik.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported quadlik from {quadlik.cli.__file__}, not {SRC}")
    return quadlik.cli


def invoke(cli, argv: list[str], out_base: str) -> tuple[int, float, bytes, bytes]:
    """One CLI experiment: (exit code, wall seconds, JSON bytes, text bytes)."""
    for ext in (".json", ".txt"):
        if os.path.exists(out_base + ext):
            os.remove(out_base + ext)
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    reports = []
    for ext in (".json", ".txt"):
        try:
            with open(out_base + ext, "rb") as handle:
                reports.append(handle.read())
        except FileNotFoundError:
            reports.append(b"")
    return code, elapsed, reports[0], reports[1]


class SpeedProbe:
    """Times a fixed loop shaped like a workload's kernel.

    Each loop iteration does a ``size`` x ``size`` Q'v product, the product
    every animal-model eval streams, plus the tiny-array operations around
    it; the loop is split over ``threads`` threads like the workload's
    replicates.  It never changes, so the ratio of an invocation's time to
    the probe times taken right before and after it measures the program
    with the host's momentary speed divided out.
    """

    def __init__(self, size: int, loops: int, threads: int) -> None:
        import numpy as np

        self.q = np.random.default_rng(0).standard_normal((size, size))
        self.v = np.ones(size)
        self.loops = loops
        self.threads = threads

    def _loop(self, loops: int) -> float:
        import numpy as np

        x = np.linspace(0.0, 1.0, 3)
        m = 2.0 * np.eye(3)
        acc = 0.0
        for i in range(loops):
            w = self.q.T @ self.v
            y = m @ x + i
            acc += float(y @ y) + float(w[0])
            np.linalg.cholesky(m)
        return acc

    def __call__(self) -> float:
        start = time.perf_counter()
        if self.threads == 1:
            self._loop(self.loops)
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                share = self.loops // self.threads
                for future in [pool.submit(self._loop, share) for _ in range(self.threads)]:
                    future.result()
        return time.perf_counter() - start


# Set-up is interpreter work (imports, input generation): a tiny-array probe
# on one thread, and its 10th-percentile time on the host it was tuned on.
SETUP_PROBE = (3, 2000, 1)
SETUP_PROBE_REF_S = 0.019


class Checker:
    """Counts invocations and records every failed exit or check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def exited(self, code: int, json_bytes: bytes, what: str) -> dict | None:
        """The parsed report of an invocation that exited 0, or exited
        ``EXIT_NAO`` because its fit is NaO; else None."""
        self.attempted += 1
        if code in (0, EXIT_NAO):
            try:
                return json.loads(json_bytes)
            except ValueError:
                code = f"{code} with an unreadable report"
        self.failed += 1
        self.failures.append(f"{what}: exit code {code}")
        return None

    def judge(self, problems: list[str], what: str) -> None:
        """A report with any problem counts as a failed invocation."""
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {m}" for m in problems)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="main", help="work subdirectory name")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    cli = import_quadlik()
    sys.path.insert(0, BENCH_DIR)
    from workloads import REFERENCE_SEED, WORKLOADS, compare_to_reference, nao_checks

    workload = WORKLOADS[args.workload]
    base = os.path.join(WORK, args.workload, args.tag)
    if os.path.isdir(base):
        shutil.rmtree(base)

    def data_set(seed: int, index: int, name: str) -> tuple[str, dict]:
        directory = os.path.join(base, name)
        os.makedirs(directory)
        return directory, workload.generate(seed, index, directory)

    ref_dir, ref_inputs = data_set(REFERENCE_SEED, 0, "reference")
    directory, inputs = data_set(args.seed, 0, "data0")
    setup_s = time.perf_counter() - T_START
    setup_probe_s = SpeedProbe(*SETUP_PROBE)()
    setup = {"setup_s": setup_s, "setup_probe_s": setup_probe_s, "setup_probe_ref_s": SETUP_PROBE_REF_S}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    ref_path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    out = os.path.join(base, "report")
    code, _, ref_json, _ = invoke(cli, workload.argv(ref_dir, out), out)
    if args.write_reference:
        if code != 0:
            raise SystemExit(f"bench: reference invocation exited {code}")
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(ref_path, "wb") as handle:
            handle.write(ref_json)
        print(f"wrote {ref_path}")
        return 0

    checker = Checker()
    ref_report = checker.exited(code, ref_json, "reference")
    if ref_report is not None:
        with open(ref_path, encoding="utf8") as handle:
            stored = json.load(handle)
        checker.judge(compare_to_reference(ref_report, stored) + workload.check(ref_report, ref_inputs),
                      "reference")

    one_worker = None
    if workload.workers > 1:
        # criterion 9: data set 0 at one worker, untimed, must give the same
        # bytes as its timed run with the workload's workers
        code, _, js, txt = invoke(cli, workload.argv(directory, out, workers=1), out)
        report = checker.exited(code, js, "data set 0 at one worker")
        if report is not None:
            one_worker = (js, txt)
            checker.judge(workload.check(report, inputs), "data set 0 at one worker")

    speed_probe = SpeedProbe(workload.probe_size, workload.probe_loops, workload.workers)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # Every timed invocation gets a data set of its own, generated untimed
    # just before it; with --trace 1 each data set runs untraced, then
    # traced.  A speed probe runs right before and right after each one.
    invocations: list[dict] = []
    replicates = nao = reports = fits = 0
    nao_exits: list[str] = []
    loop_start = time.perf_counter()
    index = 0
    while time.perf_counter() - loop_start < args.seconds or index < MIN_INVOCATIONS:
        if index:
            directory, inputs = data_set(args.seed, index, f"data{index}")
        first = one_worker if index == 0 else None
        for traced in (False, True) if tracer is not None else (False,):
            what = f"data set {index}{' traced' if traced else ''}"
            before = speed_probe()
            if traced:
                tracer.run_id = index + 1
                tracer.install()
            try:
                code, elapsed, js, txt = invoke(cli, workload.argv(directory, out), out)
            finally:
                if traced:
                    tracer.uninstall()
            invocations.append({"traced": traced, "wall_s": elapsed, "probe_s": [before, speed_probe()]})
            report = checker.exited(code, js, what)
            if report is None:
                continue
            fits += 1
            if code == EXIT_NAO:
                nao += 1
                if not traced:
                    nao_exits.append(f"{what}: fit NaO after {report.get('fit_newton_steps')} Newton steps")
                problems = nao_checks(report, inputs["cfg_seed"], workload.command)
            else:
                attempt, bad = workload.replicates(report)
                reports += 1
                replicates += attempt
                nao += bad
                problems = workload.check(report, inputs)
            if first is None:
                first = (js, txt)
                checker.judge(problems, what)
            elif (js, txt) != first:
                checker.judge(["report differs byte for byte from the same data set's other report"], what)
        index += 1

    from provenance import provenance

    result = {
        **setup,
        "probe_ref_s": workload.probe_ref_s,
        "invocations": invocations,
        "reports": reports,
        "replicates": replicates,
        # operations: each invocation's fit plus its Monte Carlo replicates
        "operations": fits + replicates,
        "nao": nao,
        "nao_exits": nao_exits,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(ROOT, args.seed),
    }
    if tracer is not None:
        from tracing import layer_metrics

        spans_path = os.path.join(base, "spans.csv")
        tracer.write_spans(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        result["span_count"] = len(tracer.spans)
        result["layers"] = layer_metrics(tracer.spans, workload.bytes_per_eval())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
