"""Span tracing of quadlik from outside the package.

``Tracer.install`` rebinds each traced function at every name a quadlik
module binds it to (``quadlik.bootstrap.safeguarded_maximize`` as well as
``quadlik.newton.safeguarded_maximize``), and patches model methods on their
classes, so the calls the program makes go through a wrapper that records a
span: name, start, end, parent span and run id.  Spans stay in memory until
``write_spans``; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "models", "core", "newton", "inference", "bootstrap",
          "funcspace", "lamn", "rng", "parallel")


def _cholesky_failed(args, kwargs, result):
    return int(result[0] is None)


def _newton_observe(args, kwargs, result):
    trace = result[1]
    return trace.steps if trace.converged else -1 - trace.steps


def _box_points(args, kwargs, result):
    return args[2].total_points


def _replicate_useful(args, kwargs, result):
    from quadlik.core import is_nao

    return int(not is_nao(result[1]))


def _is_nao_result(args, kwargs, result):
    from quadlik.core import is_nao

    return int(is_nao(result))


# (module, attribute, observe): the public functions the three workloads
# reach, wrapped at every binding site.  ``observe(args, kwargs, result)``
# stores one number on the span.
FUNCTIONS = [
    ("cli", "main", None),
    ("cli", "load_config", None),
    ("models", "relationship_matrix", None),
    ("models", "load_pedigree_csv", None),
    ("models", "load_vector_csv", None),
    ("models", "wishart_lamn_model", None),
    ("core", "cholesky_pivots", _cholesky_failed),
    ("core", "local_shift", None),
    ("newton", "safeguarded_maximize", _newton_observe),
    ("inference", "fit_mle", None),
    ("inference", "chisq_upper_quantile", None),
    ("inference", "confidence_region", None),
    ("inference", "symmetric_sqrt", None),
    ("bootstrap", "parametric_bootstrap", None),
    ("bootstrap", "double_bootstrap", None),
    ("bootstrap", "_bootstrap_level", None),
    ("bootstrap", "_one_replicate", _replicate_useful),
    ("bootstrap", "calibrate", None),
    ("funcspace", "quadraticity_report", None),
    ("funcspace", "c2_distance", _box_points),
    ("funcspace", "rudin_distance", None),
    ("funcspace", "sup_norm_on_box", _box_points),
    ("funcspace", "quadratic_fit_at", None),
    ("lamn", "sample_lamn", None),
    ("lamn", "sample_lamn_batch", None),
    ("lamn", "hessian_invariance_test", lambda a, k, r: r.n_nao),
    ("lamn", "score_normality_test", lambda a, k, r: r.n_nao),
    ("lamn", "model_contiguity_estimate", lambda a, k, r: r[2]),
    ("rng", "derive_rng", None),
]

# Factories whose returned closure is traced under its own span name.
FACTORIES = [
    ("bootstrap", "make_wald_pivot", "bootstrap.pivot"),
    ("cli", "_heritability_pivot", "bootstrap.pivot"),
]

MODEL_METHODS = ("eval", "simulate", "start", "__init__")


class Tracer:
    """Records spans of the traced quadlik calls of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, run, name, start_ns, end_ns, value)
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, observe=None, wrap_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            if name == "parallel.parallel_map":
                args = (tracer._with_parent(args[0], span_id),) + args[1:]
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            value = observe(args, kwargs, result) if observe is not None else None
            tracer.spans.append((span_id, parent, tracer.run_id, name, start, end, value))
            return wrap_result(result) if wrap_result is not None else result

        return traced

    def _with_parent(self, fn, parent_id: int):
        """Run ``fn`` in pool threads with ``parent_id`` as their parent span."""

        def call(i):
            stack = self._stack()
            if stack:
                return fn(i)
            stack.append(parent_id)
            try:
                return fn(i)
            finally:
                stack.pop()

        return call

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "quadlik" and not mod_name.startswith("quadlik."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import quadlik.cli
        import quadlik.core
        import quadlik.models
        import quadlik.parallel

        mods = {name: sys.modules[f"quadlik.{name}"] for name in LAYERS}
        for layer, attr, observe in FUNCTIONS:
            original = getattr(mods[layer], attr)
            self._rebind(original, self.wrap(f"{layer}.{attr}", original, observe))
        for layer, attr, span_name in FACTORIES:
            original = getattr(mods[layer], attr)
            factory_result = functools.partial(self.wrap, span_name)
            self._rebind(original, self.wrap(f"{layer}.{attr}", original, None, factory_result))
        original = quadlik.parallel.parallel_map
        self._rebind(original, self.wrap("parallel.parallel_map", original, lambda a, k, r: a[1]))

        self._patch_method(quadlik.cli.ReportRecord, "write", "cli.report_write")
        closure = functools.partial(self.wrap, "core.objective", observe=_is_nao_result)
        self._patch_method(quadlik.core.LikModel, "objective", "core.model_objective", closure)
        for cls in vars(quadlik.models).values():
            if isinstance(cls, type) and issubclass(cls, quadlik.core.LikModel):
                for method in MODEL_METHODS:
                    if method in vars(cls):
                        self._patch_method(cls, method, f"models.{cls.__name__}.{method}")

    def _patch_method(self, cls, method: str, name: str, wrap_result=None) -> None:
        original = vars(cls)[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self.wrap(name, original, None, wrap_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf8", newline="\n") as handle:
            handle.write("id,parent,run,name,start_ns,end_ns,value\n")
            for span in self.spans:
                handle.write(",".join("" if v is None else str(v) for v in span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def _self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for sid, parent, _, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered = 0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sid] = end - start - covered
    return out


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, bytes_per_eval: int) -> dict[str, float]:
    """Per-layer metrics of the traced invocations (one run id each).

    Counts are per invocation, the mean over the traced invocations, so rare
    events still show; ``_s`` totals are the median over them;
    ``_us_p50``/``_p99`` pool the spans of all of them.  A metric of a layer
    the workload does not exercise reads 0.
    """
    self_ns = _self_times(spans)
    by_id = {s[0]: s for s in spans}
    runs = sorted({s[2] for s in spans})
    per_run: dict[int, dict[str, float]] = {r: {} for r in runs}
    durations: dict[str, list[float]] = {}

    def add(run, key, amount):
        per_run[run][key] = per_run[run].get(key, 0.0) + amount

    def inside(span, name):
        parent = span[1]
        while parent:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor[3] == name:
                return True
            parent = ancestor[1]
        return False

    for span in spans:
        sid, _, run, name, start, end, value = span
        dur = (end - start) / 1e9
        durations.setdefault(name, []).append(dur * 1e6)
        layer = name.split(".", 1)[0]
        add(run, f"{layer}.self_s", self_ns[sid] / 1e9)
        add(run, f"calls:{name}", 1)
        add(run, f"time:{name}", dur)
        if value is not None:
            add(run, f"value:{name}", value)
        if name == "core.objective" and inside(span, "newton.safeguarded_maximize"):
            add(run, "newton_objective_calls", 1)
        if name == "core.objective":
            add(run, "objective_self_s", self_ns[sid] / 1e9)
        if name == "newton.safeguarded_maximize":
            add(run, "newton_steps", value if value >= 0 else -1 - value)
            add(run, "newton_unconverged", int(value < 0))
        if name == "parallel.parallel_map" and not inside(span, name):
            # nested maps (inner bootstrap levels) run inside an outer one
            add(run, "parallel_outer_s", dur)
        if name in ("bootstrap.parametric_bootstrap", "bootstrap.double_bootstrap"):
            add(run, "bootstrap_level_s", dur)
        if name in ("models.relationship_matrix", "models.AnimalModel.__init__",
                    "models.load_pedigree_csv", "models.wishart_lamn_model"):
            add(run, "build_s", dur)

    def med(key):
        return float(np.median([per_run[r].get(key, 0.0) for r in runs])) if runs else 0.0

    def mean(key):
        return float(np.mean([per_run[r].get(key, 0.0) for r in runs])) if runs else 0.0

    def pooled(*names):
        return [d for n in names for d in durations.get(n, [])]

    eval_names = [n for n in durations if n.startswith("models.") and n.endswith(".eval")]
    sim_names = [n for n in durations if n.startswith("models.") and n.endswith(".simulate")]
    eval_calls = sum(mean(f"calls:{n}") for n in eval_names)
    objective_calls = mean("calls:core.objective")
    fit_calls = mean("calls:newton.safeguarded_maximize")
    replicates = mean("calls:bootstrap._one_replicate")
    points = mean("value:funcspace.c2_distance") + mean("value:funcspace.sup_norm_on_box")
    grid_s = med("time:funcspace.c2_distance") + med("time:funcspace.rudin_distance")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "models.eval_calls": eval_calls,
        "models.eval_us_p50": _pct(pooled(*eval_names), 50),
        "models.eval_us_p99": _pct(pooled(*eval_names), 99),
        "models.simulate_us_p50": _pct(pooled(*sim_names), 50),
        "models.build_s": med("build_s"),
        "models.eval_bytes_computed": eval_calls * bytes_per_eval,
        "core.objective_calls": objective_calls,
        "core.objective_nao": mean("value:core.objective"),
        "core.objective_overhead_us": ratio(mean("objective_self_s") * 1e6, objective_calls),
        "core.cholesky_calls": mean("calls:core.cholesky_pivots"),
        "core.cholesky_us_p50": _pct(pooled("core.cholesky_pivots"), 50),
        "core.cholesky_fail": mean("value:core.cholesky_pivots"),
        "newton.fit_calls": fit_calls,
        "newton.fit_us_p50": _pct(pooled("newton.safeguarded_maximize"), 50),
        "newton.fit_us_p99": _pct(pooled("newton.safeguarded_maximize"), 99),
        "newton.evals_per_fit": ratio(mean("newton_objective_calls"), fit_calls),
        "newton.steps_mean": ratio(mean("newton_steps"), fit_calls),
        "newton.unconverged": mean("newton_unconverged"),
        "bootstrap.replicates": replicates,
        "bootstrap.useful_ratio": ratio(mean("value:bootstrap._one_replicate"), replicates),
        "bootstrap.pivot_us_p50": _pct(pooled("bootstrap.pivot"), 50),
        "bootstrap.level_s": med("bootstrap_level_s"),
        "bootstrap.calibrate_calls": mean("calls:bootstrap.calibrate"),
        "funcspace.report_s": med("time:funcspace.quadraticity_report"),
        "funcspace.c2_s": med("time:funcspace.c2_distance"),
        "funcspace.rudin_s": med("time:funcspace.rudin_distance"),
        "funcspace.points_evaluated": points,
        "funcspace.point_us": ratio(grid_s * 1e6, points),
        "lamn.sample_calls": mean("calls:lamn.sample_lamn"),
        "lamn.sample_us_p50": _pct(pooled("lamn.sample_lamn"), 50),
        "lamn.invariance_s": med("time:lamn.hessian_invariance_test"),
        "lamn.normality_s": med("time:lamn.score_normality_test"),
        "lamn.contiguity_s": med("time:lamn.model_contiguity_estimate"),
        "lamn.replicate_nao": mean("value:lamn.hessian_invariance_test")
        + mean("value:lamn.score_normality_test")
        + mean("value:lamn.model_contiguity_estimate"),
        "inference.fit_mle_s": med("time:inference.fit_mle"),
        "inference.chisq_quantile_calls": mean("calls:inference.chisq_upper_quantile"),
        "inference.chisq_quantile_us_p50": _pct(pooled("inference.chisq_upper_quantile"), 50),
        "rng.derive_calls": mean("calls:rng.derive_rng"),
        "rng.derive_us_p50": _pct(pooled("rng.derive_rng"), 50),
        "parallel.map_calls": mean("calls:parallel.parallel_map"),
        "parallel.tasks": mean("value:parallel.parallel_map"),
        "parallel.map_s": med("parallel_outer_s"),
        "cli.load_config_s": med("time:cli.load_config"),
        "cli.report_write_s": med("time:cli.report_write"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = med(f"{layer}.self_s")
    return metrics
