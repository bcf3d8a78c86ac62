"""Batch front-end: configuration-driven experiments with report emission.

Every run is a pure function of the config file and the data files it
references: reports are emitted as both text and JSON with floats printed
at 17 significant digits, large arrays spill to sibling CSV files, and all
randomness derives from the mandatory integer seed.  Every report ends its
run with a ``status``, from which ``main`` alone reads the exit code: 0 for
ok, 2 for NaO.  1 is an input error (a command-line usage error too) and 3
an internal error; neither writes a report.  Which entries a library result
puts in a report is decided here alone, by :data:`REPORTED`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bootstrap import CalibrationResult, DoubleBootstrapReport, PivotSamples, calibrate, double_bootstrap, make_wald_pivot, parametric_bootstrap
from .core import QuadraticForm, is_nao, local_shift
from .funcspace import GridBox, NonFiniteEvaluationError, QuadraticityReport, c2_distance, default_points_per_axis, quadraticity_report
from .inference import ConfidenceRegion, chisq_upper_quantile, confidence_region, fit_mle
from .lamn import (
    ConstantCurvature, KsTestReport, LamnSpec, WishartCurvature, contiguity_estimate, hessian_invariance_test,
    model_contiguity_estimate, score_normality_test,
)
from .models import (
    AnimalModel, AnimalParams, Ar1Model, DataFormatError, ExponentialRateIid, NormalLocationIid, PedigreeError, ar1_expected_info, ar1_simulate_paths, lan_normal_location, load_pedigree_csv, load_vector_csv,
    logit_heritability, relationship_matrix, synthetic_pedigree, wishart_lamn_model,
)
from .parallel import draw
from .newton import DEFAULT_MAX_STEPS, NewtonTrace
from .rng import derive_rng

SCHEMA_VERSION = 1
SPILL_THRESHOLD = 32

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NAO = 2
EXIT_INTERNAL_ERROR = 3


class ConfigError(ValueError):
    """The configuration is malformed; the message names the offending key."""


# ---------------------------------------------------------------------------
# Report records
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


class ReportRecord:
    """Insertion-ordered flat record of strings, ints, reals, real arrays."""

    def __init__(self) -> None:
        self._items: dict[str, object] = {}

    def put(self, key: str, value) -> None:
        if key in self._items:
            raise KeyError(f"duplicate report key {key!r}")
        if isinstance(value, (bool, np.integer)):
            value = int(value)
        elif isinstance(value, np.floating):
            value = float(value)
        elif isinstance(value, np.ndarray):
            value = [float(v) for v in value.ravel()]
        elif isinstance(value, (list, tuple)):
            value = [float(v) for v in value]
        elif not isinstance(value, (str, int, float)):
            raise TypeError(f"unsupported report value type for {key!r}: {type(value)}")
        self._items[key] = value

    def put_status(self, status: str) -> None:
        """Put ``status``, or give it a new value in its place: a Monte Carlo
        check can turn an ok fit's run NaO."""
        self._items["status"] = status

    def update(self, mapping: dict) -> None:
        for key, value in mapping.items():
            self.put(key, value)

    def put_result(self, prefix: str, result) -> None:
        """Put ``<prefix>_<field>`` for each field :data:`REPORTED` lists for ``result``'s type, in its order."""
        for field in REPORTED[type(result)]:
            self.put(f"{prefix}_{field}", getattr(result, field))

    def get(self, key: str):
        return self._items[key]

    # -- serialization ------------------------------------------------------

    def _spill(self, out_base: str) -> dict[str, str]:
        """Write oversized arrays to sibling CSVs; returns key -> filename."""
        spilled: dict[str, str] = {}
        for key, value in self._items.items():
            if isinstance(value, list) and len(value) > SPILL_THRESHOLD:
                filename = f"{os.path.basename(out_base)}__{key}.csv"
                path = os.path.join(os.path.dirname(out_base) or ".", filename)
                with open(path, "w", encoding="utf8", newline="\n") as handle:
                    for v in value:
                        handle.write(_fmt_float(float(v)).strip('"') + "\n")
                spilled[key] = filename
        return spilled

    def _rendered(self, spilled: dict[str, str], as_json: bool):
        """``(key, value as written)`` pairs; JSON quotes strings and non-finite reals."""
        real = _fmt_float if as_json else (lambda x: _fmt_float(x).strip('"'))
        for key, value in self._items.items():
            if key in spilled:
                value = "file:" + spilled[key]
            if isinstance(value, str):
                yield key, json.dumps(value) if as_json else value
            elif isinstance(value, int):
                yield key, str(value)
            elif isinstance(value, float):
                yield key, real(value)
            else:
                yield key, "[" + ", ".join(real(float(v)) for v in value) + "]"

    def to_json(self, spilled: dict[str, str]) -> str:
        parts = [f"  {json.dumps(key)}: {text}" for key, text in self._rendered(spilled, True)]
        return "{\n" + ",\n".join(parts) + "\n}\n"

    def to_text(self, spilled: dict[str, str]) -> str:
        return "\n".join(f"{key} = {text}" for key, text in self._rendered(spilled, False)) + "\n"

    def write(self, out_base: str) -> None:
        spilled = self._spill(out_base)
        with open(out_base + ".json", "w", encoding="utf8", newline="\n") as handle:
            handle.write(self.to_json(spilled))
        with open(out_base + ".txt", "w", encoding="utf8", newline="\n") as handle:
            handle.write(self.to_text(spilled))


# the fields of each library result that a report holds, in report order; the
# library types do not format themselves, so which keys a report holds is decided here
REPORTED = {
    NewtonTrace: ("steps", "converged", "final_grad_norm"),
    ConfidenceRegion: ("center", "shape", "radius_sq", "level"),
    PivotSamples: ("B", "n_nao", "seed"),
    CalibrationResult: ("level", "nominal_quantile", "calibrated_quantile"),
    DoubleBootstrapReport: ("level", "B2"),
    KsTestReport: ("statistic", "p_value", "n_summaries", "n_nao"),
    QuadraticityReport: ("d0", "d1", "d2", "rudin", "rudin_tail_bound", "anchor", "box_lower", "box_upper", "points_per_axis"),
}


def _put_pivots(record: ReportRecord, prefix: str, samples: PivotSamples) -> None:
    """A level's pivot counts, then the mean and max of its usable values where it has any."""
    record.put_result(prefix, samples)
    if samples.values.size:
        record.put(f"{prefix}_mean", samples.values.mean())
        record.put(f"{prefix}_max", samples.values.max())


def _put_ks(record: ReportRecord, prefix: str, report: KsTestReport) -> None:
    """A KS check's entries, then ``<prefix>_p_<summary>`` for each summary it tested."""
    record.put_result(prefix, report)
    for name, p in report.per_summary.items():
        record.put(f"{prefix}_p_{name}", p)


def _put_double(record: ReportRecord, report: DoubleBootstrapReport) -> None:
    """A double bootstrap's outer pivots, coverage rate, and the mean and spread of its finite inner quantiles."""
    _put_pivots(record, "double_outer", report.outer)
    record.put_result("double", report)
    record.put("double_coverage_rate", report.coverage_rate())
    quantiles = report.inner_quantiles[~np.isnan(report.inner_quantiles)]
    if quantiles.size:
        record.put("double_inner_quantile_mean", np.mean(quantiles))
        record.put("double_inner_quantile_sd", np.std(quantiles))


# ---------------------------------------------------------------------------
# Config tables
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class Key:
    """How one config key is read.

    ``kind`` names its reader in READERS; ``a|b`` reads a list with ``b``, else
    with ``a``.  ``default`` applies where the key is absent (REQUIRED: it must
    be given; defaults are shared, never modified).  ``minimum`` is an
    integer's least value; ``minimum`` and ``maximum`` bound reals, exclusive.
    A ``per_axis`` value has one entry a parameter; a single number is repeated
    only where ``kind`` reads one (``real|vector``, ``int|counts``) or as a default.
    ``table`` reads a block (``kinds``: one table a ``kind``); ``then(value,
    name)`` builds the library object the value stands for, once the sizes
    of SIZES fit.
    """

    kind: str
    default: object = REQUIRED
    minimum: float | None = None
    maximum: float | None = None
    nonempty: bool = False
    per_axis: bool = False
    choices: tuple = ()
    table: dict | None = None
    then: Callable | None = None


def _keyed(name: str, make, *args, errors=ValueError):
    """``make(*args)``, a library check's ``errors`` re-raised as a ConfigError naming the key ``name``."""
    try:
        return make(*args)
    except errors as err:
        raise ConfigError(f"{name}: {err}") from None


def _real(v) -> float:
    """``float(v)`` for a finite JSON number (``json`` also reads ``NaN``, ``Infinity``, ``-1e400``);
    TypeError for booleans, strings and the rest, ValueError for the non-finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"not a real: {v!r}")
    if (isinstance(v, int) and abs(v) > sys.float_info.max) or not math.isfinite(v):
        raise ValueError("not a finite real")
    return float(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _read_int(value, key: Key, name: str) -> int:
    if not _is_int(value):
        raise ConfigError(f"{name}: expected an integer, got {type(value).__name__}")
    if key.minimum is not None and value < key.minimum:
        kind = {0: "a non-negative count", 1: "a positive count"}.get(key.minimum, f"a count of at least {key.minimum}")
        raise ConfigError(f"{name}: must be {kind}, got {value}")
    return value


def _read_reals(value, key: Key, name: str):
    """A real, a list of reals or a list of rows of reals, by ``key.kind``."""
    try:
        if key.kind == "real":
            out = _real(value)
        elif key.kind == "vector":
            out = np.asarray([_real(v) for v in _typed(value, list, name)])
        else:
            out = np.asarray([[_real(v) for v in _typed(row, list, name)] for row in _typed(value, list, name)])
    except (TypeError, ValueError):  # a ConfigError of _typed too
        what = {"real": "a finite real", "vector": "a list of finite reals"}.get(key.kind, "a list of rows of finite reals")
        raise ConfigError(f"{name}: expected {what}") from None
    if key.kind == "matrix" and (out.ndim != 2 or out.shape[0] != out.shape[1]):
        raise ConfigError(f"{name}: expected a square matrix")
    if key.nonempty and not np.size(out):
        raise ConfigError(f"{name}: expected a non-empty list")
    low, high = key.minimum, key.maximum
    if not np.all((low is None or out > low) & (high is None or out < high)):
        bounds = "be positive and finite" if high is None else f"lie strictly between {low:g} and {high:g}"
        raise ConfigError(f"{name}: must {bounds}, got {value}")
    return out


def _read_counts(value, key: Key, name: str) -> list[int]:
    high = math.inf if key.maximum is None else key.maximum
    if not isinstance(value, list) or not value or not all(_is_int(v) and 1 <= v <= high for v in value):
        raise ConfigError(f"{name}: expected a non-empty list of positive counts" + (f" of at most {high}" if high < math.inf else ""))
    return value


def _typed(value, types, name: str):
    if not isinstance(value, types):
        raise ConfigError(f"{name}: expected {types.__name__}, got {type(value).__name__}")
    return value


def _read_block(value, key: Key, name: str) -> dict:
    table = key.table
    if key.kind == "kinds":
        kind = _value(_typed(value, dict, name), "kind", Key("str", choices=tuple(key.table)), name)
        table = {"kind": Key("str"), **key.table[kind]}
    return _read_table(value, table, name)


READERS = {
    "int": _read_int, "counts": _read_counts, "real": _read_reals, "vector": _read_reals, "matrix": _read_reals,
    "bool": lambda value, key, name: _typed(value, bool, name), "str": lambda value, key, name: _typed(value, str, name),
    "block": _read_block, "kinds": _read_block,
}


def _value(block: dict, name: str, key: Key, where: str):
    """``block[name]`` read by ``key``, or its default where absent."""
    if name not in block:
        if key.default is REQUIRED:
            raise ConfigError(f"{where}: missing required key {name!r}")
        return key.default
    full = f"{where}.{name}"
    if "|" in key.kind:  # one value for every axis, or a list of them
        single, listed = key.kind.split("|")
        key = replace(key, kind=listed if isinstance(block[name], list) else single)
    value = READERS[key.kind](block[name], key, full)
    if key.choices and value not in key.choices:
        raise ConfigError(f"{full}: expected one of {list(key.choices)}, got {value!r}")
    return value


def _read_table(block, table: dict[str, Key], where: str) -> dict:
    """Every key of ``table`` read from ``block`` once, defaults filled in;
    a key ``table`` does not name is an error."""
    unknown = set(_typed(block, dict, where)) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return {name: _value(block, name, key, where) for name, key in table.items()}


def _build(value, key: Key, name: str):
    """A value as read, with the ``then`` of every key in it and then its own
    applied; only once the sizes it holds have passed :func:`_check_sizes`.
    Every key with a ``then`` is required or defaults to None."""
    if key.table is not None:
        table = key.table[value["kind"]] if key.kind == "kinds" else key.table
        for sub, sub_key in table.items():
            if value[sub] is not None:
                value[sub] = _build(value[sub], sub_key, f"{name}.{sub}")
    return value if key.then is None else key.then(value, name)


def _lamn_spec(dim: int, curvature: dict, where: str, dim_name: str) -> LamnSpec:
    """A LAMN spec from its dimension and a curvature block: a Wishart law's
    ``dof`` and optional ``scale`` (default ``I / dof``), or a constant ``k``."""
    if "dof" not in curvature:
        law = _keyed(f"{where}.k", ConstantCurvature, curvature["k"])
    else:
        dof, scale = curvature["dof"], curvature["scale"]
        if not dof > dim - 1:
            raise ConfigError(f"{where}.dof: must exceed dim - 1 = {dim - 1}, got {dof}")
        law = _keyed(f"{where}.scale", WishartCurvature, dof, np.eye(dim) / dof if scale is None else scale)
    return _keyed(dim_name, LamnSpec, dim, law)


def _model_block(model: dict, where: str) -> dict:
    """A model block's cross-key rules; a Wishart LAMN model gets its ``spec``."""
    if model["kind"] == "wishart_lamn":
        model["spec"] = _lamn_spec(model["dim"], model, where, f"{where}.dim")
    if model["kind"] == "animal" and (model["pedigree"] is None) == (model["synthetic"] is None):
        raise ConfigError(f"{where}: give exactly one of 'pedigree' or 'synthetic'")
    return model


def _model_dim(model: dict) -> tuple[int, str]:
    """A model block's parameter dimension and the key that sets it."""
    if model["kind"] == "lan":
        return len(model["k"]), "config.model.k"
    if model["kind"] in ("wishart_lamn", "iid_normal"):
        name = "dim" if model["kind"] == "wishart_lamn" else "p"
        return model[name], f"config.model.{name}"
    return (3 if model["kind"] == "animal" else 1), "config.model.kind"


COUNT = Key("int", minimum=1)
SAMPLE = 2  # the least size of a sample whose spread or two-sample test is taken
WISHART = {"dof": Key("real"), "scale": Key("matrix", None)}


# synthetic_pedigree's check left to it: a generation of one child has no two parents to draw for the next
SYNTHETIC = Key("block", None, table={
    "founders": Key("int", minimum=2), "per_generation": COUNT, "generations": Key("int", minimum=0),
    "seed": Key("int", minimum=0),
}, then=lambda s, where: _keyed(f"{where}.per_generation", synthetic_pedigree, *s.values()))
MODEL_KINDS = {
    "lan": {"k": Key("matrix")},
    "wishart_lamn": {"dim": COUNT, **WISHART},
    "ar1": {"n": COUNT, "x0": Key("real", 1.0), "random_x0": Key("bool", False)},
    "animal": {"pedigree": Key("str", None), "synthetic": SYNTHETIC},
    "iid_normal": {"p": COUNT, "n": COUNT},
    "iid_exponential": {"n": COUNT},
}
MODEL = Key("kinds", table=MODEL_KINDS, then=_model_block)
SPEC = Key("block", table={
    "dim": COUNT,
    "curvature": Key("kinds", table={"constant": {"k": Key("matrix")}, "wishart": WISHART}),
}, then=lambda spec, where: _lamn_spec(spec["dim"], spec["curvature"], f"{where}.curvature", f"{where}.dim"))
TRUTH = Key("block", None, table={
    "mu": Key("real"), "sigma2": Key("real", minimum=0.0), "tau2": Key("real", minimum=0.0),
}, then=lambda truth, where: AnimalParams(**truth))
ALPHA = Key("real", 0.05, minimum=0.0, maximum=1.0)
DATA = Key("str")
BOX = Key("real|vector", 1.0, minimum=0.0, per_axis=True)
POINTS = Key("int|counts", None, per_axis=True)

COMMON = {"schema_version": Key("int", choices=(SCHEMA_VERSION,)), "seed": Key("int", minimum=0), "out": Key("str", None)}
EXPERIMENTS = {
    "fit": {"model": MODEL, "data": DATA, "alpha": ALPHA, "max_steps": Key("int", DEFAULT_MAX_STEPS, minimum=0)},
    "diagnose": {
        "model": MODEL, "data": DATA, "alpha": ALPHA, "box_halfwidth": BOX, "points_per_axis": POINTS,
        "test_nsim": Key("int", 500, minimum=SAMPLE), "theta_b": Key("vector", None, per_axis=True),
        "contiguity_delta": Key("vector", None, per_axis=True), "contiguity_nsim": Key("int", 2000, minimum=SAMPLE),
    },
    "bootstrap": {
        "model": MODEL, "data": DATA, "alpha": ALPHA, "B": COUNT, "double": Key("bool", False),
        "B2": Key("int", None, minimum=1), "dump_pivots": Key("bool", False),
    },
    "lamn-verify": {
        "spec": SPEC, "nsim": Key("int", 100_000, minimum=SAMPLE), "n_deltas": Key("int", 5, minimum=1),
        "delta_scale": Key("real", 1.0), "test_nsim": Key("int", 2000, minimum=SAMPLE),
        "theta_a": Key("vector", 0.0, per_axis=True), "theta_b": Key("vector", 1.0, per_axis=True),
    },
    "ar1-study": {
        "thetas": Key("vector", np.array([0.0, 0.5, 0.9, 1.0]), nonempty=True), "n": Key("int", 50, minimum=1),
        "x0": Key("real", 1.0), "mc_paths": Key("int", 100_000, minimum=SAMPLE), "theta_a": Key("real", 0.0),
        "theta_b": Key("real", 0.9), "invariance_nsim": Key("int", 2000, minimum=SAMPLE),
        "box_halfwidth": BOX, "points_per_axis": POINTS,
    },
    "animal-study": {
        "model": replace(MODEL, table={"animal": MODEL_KINDS["animal"]}), "truth": TRUTH,
        "data": Key("str", None), "alpha": ALPHA, "B": Key("int", 0, minimum=0),
    },
    "classical-comparison": {
        "unit": Key("str", "normal", choices=("normal", "exponential")),
        # the exponential unit's psi is its one rate
        "psi": Key("vector", np.array([1.0]), per_axis=True),
        # the report writes the ladder as reals, which hold an integer exactly up to 2**53
        "ladder": Key("counts", [10, 100, 1000, 10000], maximum=2**53), "replications": Key("int", 100, minimum=1),
        "tau": Key("str", "sqrt_n", choices=("sqrt_n", "one")),
        "box_halfwidth": replace(BOX, default=2.0), "points_per_axis": POINTS,
    },
}
EXPERIMENT = Key("str", choices=tuple(EXPERIMENTS))

# experiment -> its parameter dimension and the key that sets it, for per-axis keys and the grid box
PARAM_DIM = {
    "diagnose": lambda cfg: _model_dim(cfg["model"]),
    "lamn-verify": lambda cfg: (cfg["spec"].dim, "config.spec.dim"),
    "ar1-study": lambda cfg: (1, "config"),
    "classical-comparison": lambda cfg: (cfg["psi"].size if cfg["unit"] == "normal" else 1, "config.psi"),
}


def _grid_box(half: np.ndarray, points, dim: int, dim_name: str) -> GridBox:
    """The grid box centred at zero, by default with the default grid of its dimension."""
    if points is None:
        points = _keyed(dim_name, default_points_per_axis, dim)
    return _keyed("config.box_halfwidth", GridBox, -half, half, points)


STREAM_BYTES = 208  # a keyed stream at its peak, while its keys are made (tracemalloc)
# a report entry at its peak: held in the record, then written as JSON and text (tracemalloc: 350 bytes at dim 3)
REPORT_ENTRY_BYTES = 512


def _individuals(model: dict, file_n: int) -> int:
    """An animal model's N: a synthetic pedigree's, or ``file_n`` (0 until its file is read)."""
    s = model["synthetic"]
    return file_n if s is None else s["founders"] + s["per_generation"] * s["generations"]


def _row_reals(model: dict, file_n: int) -> int:
    """The reals one drawn data row of a model block holds: an animal row draws
    2N normals and holds the N reals of Q'y."""
    kind, p = model["kind"], _model_dim(model)[0]
    if kind == "animal":
        return 3 * _individuals(model, file_n)
    n = model.get("n", 1)
    return {"lan": p, "wishart_lamn": p + p * p, "ar1": n + 1}.get(kind, n * p)


# experiment -> the model block its draws come from, where it has none of its own
DRAWN = {
    "lamn-verify": lambda cfg: {"kind": "wishart_lamn", "dim": cfg["spec"]["dim"]} if "dof" in cfg["spec"]["curvature"]
    else {"kind": "lan", "k": cfg["spec"]["curvature"]["k"]},
    "ar1-study": lambda cfg: {"kind": "ar1", "n": cfg["n"]},
    # the unit at the largest rung
    "classical-comparison": lambda cfg: {"kind": "iid_normal" if cfg["unit"] == "normal" else "iid_exponential",
                                         "p": cfg["psi"].size, "n": max(cfg["ladder"])},
}


def _draw(count: int, cfg: dict, file_n: int):
    """``count`` data rows of the experiment's model, each from its own keyed stream."""
    model = DRAWN[cfg["experiment"]](cfg) if cfg["experiment"] in DRAWN else cfg["model"]
    at = f" at n = {model['n']}" if cfg["experiment"] == "classical-comparison" else ""
    return count, STREAM_BYTES + 8 * _row_reals(model, file_n), f"its draw{at}"


def _contiguity_draw(cfg: dict) -> int:
    """The bytes of one of lamn-verify's contiguity draws, z and K, all from one stream."""
    dim = cfg["spec"]["dim"]
    return 8 * dim * (dim + 1)


def _relationship(n: int, source: str):
    """A and the eigenvectors of its ``eigh``, N x N reals each; None until N is known."""
    return (n, 16 * n, f"the relationship matrix of {source} N = {n} individuals") if n else None


def _grid(points, cfg: dict, file_n: int):
    """A grid point's reals, and the two evaluations (value, gradient and Hessian)
    the quadraticity report holds there with their difference."""
    dim = PARAM_DIM[cfg["experiment"]](cfg)[0]
    total = math.prod(points) if isinstance(points, list) else points**dim
    return total, 8 * (dim + 3 * (1 + dim + dim * dim)), "its grid"


def _square(dim: int, cfg: dict, file_n: int):
    """A LAMN model's or spec's dim x dim matrices: its scale and the scale's factor, a K drawn and a Hessian."""
    return dim, 8 * (1 + 4 * dim), "its curvature"


# config key -> the (rows, bytes a row, what) it sizes, from its value, the config read and
# a pedigree file's N (0 until the file is read), or None where that N is not yet known;
# checked in this order: a model's sizes, the draws from one stream, then the keyed draws
SIZES = {
    "model.synthetic": lambda s, cfg, file_n: _relationship(_individuals(cfg["model"], file_n), "its"),
    "model.pedigree": lambda path, cfg, file_n: _relationship(file_n, f"the {_resolve(cfg, path)} pedigree's"),
    "model.dim": _square,
    "spec.dim": _square,
    # an observation and its residual (ar1-study's n too); iid_normal's p coordinates of n each, and a Hessian row
    **dict.fromkeys(["model.n", "n"], lambda n, cfg, file_n: (n, 16, "its data")),
    "model.p": lambda p, cfg, file_n: (p, 8 * (2 * cfg["model"]["n"] + p), "its data and Hessian"),
    "nsim": lambda nsim, cfg, file_n: (nsim, _contiguity_draw(cfg), "its draw"),
    # a loop's size too: each shift's draws are counted as if all were held at once
    "n_deltas": lambda shifts, cfg, file_n: (shifts, cfg["nsim"] * _contiguity_draw(cfg) + 5 * REPORT_ENTRY_BYTES,
                                             "its loop of shifts"),
    # ar1-study's paths, all from one stream, and their noise
    "mc_paths": lambda paths, cfg, file_n: (paths, 8 * (2 * cfg["n"] + 1), "its draw"),
    **dict.fromkeys(["B", "B2", "test_nsim", "contiguity_nsim", "invariance_nsim", "replications"], _draw),
    "points_per_axis": _grid,
}


def _given(cfg: dict, name: str):
    """The value of the dotted key ``name``, None where the config gives none."""
    value = cfg
    for part in name.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return value


def _check_sizes(cfg: dict, file_n: int = 0) -> None:
    """Every size of SIZES the config gives, by :func:`_check_bytes`; ``file_n``
    is a pedigree file's N once it is read."""
    for name, size in SIZES.items():
        value = _given(cfg, name)
        held = None if value is None else size(value, cfg, file_n)
        if held is not None:
            _check_bytes(f"config.{name}", *held)


def _check_bytes(name: str, rows: int, row_bytes: int, what: str) -> None:
    """What a key sizes holds at most 2**32 rows (rng.derive_streams' limit) and
    at most physical memory; ``rows`` and ``row_bytes`` are exact ints."""
    need, memory = rows * row_bytes, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if rows > 2**32 or need > memory:
        raise ConfigError(f"{name}: {what} holds {rows} rows of {row_bytes} bytes, past the 2**32 rows or the "
                          f"{memory} bytes of physical memory it may hold")


def read_config(raw, base_dir: str) -> dict:
    """Every value of a parsed config, read and checked once by its
    experiment's table; ``base_dir`` resolves its relative paths.  Library
    objects are built only once the sizes the config gives fit."""
    experiment = _value(_typed(raw, dict, "config"), "experiment", EXPERIMENT, "config")
    table = EXPERIMENTS[experiment]
    whole = Key("block", table={"experiment": EXPERIMENT, **COMMON, **table})
    cfg = _read_table(raw, whole.table, "config")
    cfg["_dir"] = base_dir
    _check_sizes(cfg)
    cfg = _build(cfg, whole, "config")
    if experiment in PARAM_DIM:
        dim, dim_name = PARAM_DIM[experiment](cfg)
        for name, key in table.items():
            value = cfg[name]
            if key.per_axis and isinstance(value, float):
                cfg[name] = np.full(dim, value)
            elif key.per_axis and isinstance(value, (list, np.ndarray)) and len(value) != dim:
                raise ConfigError(f"config.{name}: length {len(value)} does not match the parameter dimension {dim}")
        if "box_halfwidth" in table:
            cfg["box"] = _grid_box(cfg["box_halfwidth"], cfg["points_per_axis"], dim, dim_name)
    if experiment == "bootstrap" and cfg["double"] and cfg["B2"] is None:
        raise ConfigError("config.B2: required when double is true")
    if experiment == "animal-study" and cfg["data"] is None and cfg["truth"] is None:
        raise ConfigError("config: animal-study needs either 'data' or 'truth' to simulate from")
    if experiment == "classical-comparison":
        n, rate = max(cfg["ladder"]), cfg["psi"][0]
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            square = np.square(rate)
            if cfg["unit"] == "exponential" and not (rate > 0 and 0 < 1.0 / square and n / square < np.inf):
                raise ConfigError(f"config.psi: the exponential unit's rate must be positive, with unit information "
                                  f"1/psi**2 positive and information n/psi**2 at the largest rung n = {n} finite, got {rate}")
    return cfg


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its ``(key, value)`` pairs; a key repeated in it,
    whose earlier values ``json`` would drop unread, is a ConfigError."""
    block = {}
    for key, value in pairs:
        if key in block:
            raise ConfigError(f"key {key!r} is given more than once in an object")
        block[key] = value
    return block


def load_config(path: str) -> dict:
    """Read a config file and check all of it (``read_config``), before any model is built or data file opened."""
    try:
        with open(path, "r", encoding="utf8") as handle:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    except ValueError as err:  # not UTF-8, not JSON, or an integer too long to read
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return read_config(raw, os.path.dirname(os.path.abspath(path)))


def _resolve(cfg: dict, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(cfg["_dir"], path)


def _build_model(cfg: dict):
    model = cfg["model"]
    kind = model["kind"]
    if kind == "lan":
        return _keyed("config.model.k", lan_normal_location, model["k"])
    if kind == "wishart_lamn":
        return wishart_lamn_model(model["spec"])
    if kind == "ar1":
        return Ar1Model(model["n"], model["x0"], model["random_x0"])
    if kind == "animal":
        ped = model["synthetic"]
        if ped is None:  # a file's N is known once its records are counted
            ped = _data_file(load_pedigree_csv, _resolve(cfg, model["pedigree"]))
            _check_sizes(cfg, ped.size)
        return AnimalModel(relationship_matrix(ped))
    if kind == "iid_normal":
        return NormalLocationIid(model["p"], model["n"])
    return ExponentialRateIid(model["n"])


def _data_file(read, path: str):
    """``read(path)``; a data file's format error then names the file."""
    try:
        return read(path)
    except DataFormatError as err:
        err.args = (f"{path}: {err}",)
        raise


def _load_data(cfg: dict, model) -> np.ndarray:
    return _data_file(lambda path: model.parse_data(load_vector_csv(path)), _resolve(cfg, cfg["data"]))


def _standard_errors(info: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal of the inverse of a fit's information (which passes the pivot test)."""
    return np.sqrt(np.diag(np.linalg.inv(info)))


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _start_record(cfg: dict) -> ReportRecord:
    record = ReportRecord()
    record.put("schema_version", SCHEMA_VERSION)
    record.put("experiment", cfg["experiment"])
    record.put("seed", cfg["seed"])
    return record


def _put_fit(record: ReportRecord, fit, alpha: float) -> None:
    record.put_result("fit_newton", fit.trace)
    if is_nao(fit.theta_hat):
        record.put("status", "NaO")
        return
    record.put("status", "ok")
    record.put("fit_theta_hat", fit.theta_hat)
    record.put("fit_observed_info", fit.observed_info.ravel())
    record.put("fit_se", _standard_errors(fit.observed_info))
    record.put_result("fit_region", confidence_region(fit, alpha))


def run_fit(cfg: dict) -> ReportRecord:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    alpha = cfg["alpha"]
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    record.put("alpha", alpha)
    fit = fit_mle(model, data, max_steps=cfg["max_steps"])
    _put_fit(record, fit, alpha)
    if is_nao(fit.theta_hat):
        return record
    if isinstance(model, AnimalModel):
        _put_animal_fit(record, model, fit.theta_hat)
        record.put("animal_eig_clamp", model.eig_clamp)
    return record


def _put_animal_fit(record: ReportRecord, model: AnimalModel, theta_hat: np.ndarray) -> float:
    """Put an animal fit's natural parameters and logit heritability; returns the latter."""
    params = model.phi_to_params(theta_hat)
    h_hat = logit_heritability(params)
    record.update({"animal_mu": params.mu, "animal_sigma2": params.sigma2, "animal_tau2": params.tau2})
    record.put("animal_logit_heritability", h_hat)
    return h_hat


def _put_quadraticity(record: ReportRecord, shifted, box: GridBox) -> None:
    """Put the quadraticity report of a shifted objective on ``box``; the box reaching
    an NaO or non-finite evaluation is an input error of ``box_halfwidth``."""
    report = _keyed("config.box_halfwidth", quadraticity_report, shifted, np.zeros(box.dim), box, errors=NonFiniteEvaluationError)
    record.put_result("quadraticity", report)


def run_diagnose(cfg: dict) -> ReportRecord:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    seed, test_nsim, theta_b, delta = cfg["seed"], cfg["test_nsim"], cfg["theta_b"], cfg["contiguity_delta"]
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    fit = fit_mle(model, data)
    _put_fit(record, fit, cfg["alpha"])
    if is_nao(fit.theta_hat):
        return record
    theta_hat = fit.theta_hat
    p = theta_hat.size

    shifted = local_shift(model, data, theta_hat, tau=1.0)
    _put_quadraticity(record, shifted, cfg["box"])

    step = _standard_errors(fit.observed_info)
    if theta_b is None:
        theta_b = theta_hat + step
    record.put("invariance_theta_b", theta_b)
    invariance = hessian_invariance_test(model, theta_hat, theta_b, test_nsim, seed)
    _put_ks(record, "invariance", invariance)
    normality = score_normality_test(model, theta_hat, test_nsim, seed)
    _put_ks(record, "normality", normality)

    if delta is None:
        delta = step / 2.0
    mean, se_c, n_nao = model_contiguity_estimate(model, theta_hat, delta, cfg["contiguity_nsim"], seed)
    record.update({"contiguity_delta": delta, "contiguity_mean": mean, "contiguity_se": se_c, "contiguity_n_nao": n_nao})
    _checks_nao(record, invariance.p_value, normality.p_value, mean)
    return record


def run_bootstrap(cfg: dict) -> ReportRecord:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    seed, alpha, B, use_double = cfg["seed"], cfg["alpha"], cfg["B"], cfg["double"]
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    record.put("alpha", alpha)
    fit = fit_mle(model, data)
    _put_fit(record, fit, alpha)
    if is_nao(fit.theta_hat):
        return record
    pivot = make_wald_pivot(model)
    if use_double:
        # its outer level is the single bootstrap (same seed, B and streams)
        report = double_bootstrap(model, fit.theta_hat, B, cfg["B2"], pivot, seed, level=1.0 - alpha)
        samples = report.outer
    else:
        samples = parametric_bootstrap(model, fit.theta_hat, B, pivot, seed)
    _put_pivots(record, "pivot", samples)
    calibrated = math.nan  # no usable pivot leaves nothing calibrated, an NaO check
    if samples.values.size:
        cal = calibrate(samples, 1.0 - alpha, fit.theta_hat.size)
        record.put_result("calibration", cal)
        calibrated = cal.calibrated_quantile
        record.put_result("calibrated_region", ConfidenceRegion(fit.theta_hat, fit.observed_info, calibrated, 1.0 - alpha))
    if cfg["dump_pivots"]:
        record.put("pivot_values", samples.values)
    if use_double:
        _put_double(record, report)
    _checks_nao(record, calibrated, report.coverage_rate() if use_double else 0.0)
    return record


def _checks_nao(record: ReportRecord, *results: float) -> bool:
    """Whether one of a run's Monte Carlo ``results`` is NaN, a check left with
    too few usable replicates; such a run's status becomes NaO."""
    nao = bool(np.isnan(results).any())
    if nao:
        record.put_status("NaO")
    return nao


def _dev_se(mean: float, se: float, target: float) -> float:
    """``|mean - target|`` in standard errors; where ``se`` is 0, 0 if ``mean`` is
    the target and inf if not; NaN, an NaO check, if either is not finite."""
    if not (math.isfinite(mean) and math.isfinite(se)):
        return math.nan
    if se > 0:
        return abs(mean - target) / se
    return 0.0 if mean == target else math.inf


def run_lamn_verify(cfg: dict) -> ReportRecord:
    spec, seed, test_nsim, theta_a = cfg["spec"], cfg["seed"], cfg["test_nsim"], cfg["theta_a"]
    record = _start_record(cfg)
    record.put("spec_dim", spec.dim)
    record.put("spec_curvature", type(spec.curvature).__name__)

    delta_rng = derive_rng(seed, "deltas")
    devs = []
    for i in range(cfg["n_deltas"]):
        delta = cfg["delta_scale"] * (2.0 * delta_rng.random(spec.dim) - 1.0)
        mean, se, n_nao = contiguity_estimate(spec, delta, cfg["nsim"], seed, stream=i)
        devs.append(_dev_se(mean, se, 1.0))
        record.update({f"contiguity_{i}_delta": delta, f"contiguity_{i}_mean": mean, f"contiguity_{i}_se": se,
                       f"contiguity_{i}_n_nao": n_nao, f"contiguity_{i}_dev_se": devs[-1]})
    record.put("contiguity_max_dev_se", np.max(devs, initial=0.0))
    if _checks_nao(record, *devs):
        return record

    model = wishart_lamn_model(spec) if isinstance(spec.curvature, WishartCurvature) else lan_normal_location(spec.curvature.k)
    normality = score_normality_test(model, theta_a, test_nsim, seed)
    _put_ks(record, "normality", normality)
    invariance = hessian_invariance_test(model, theta_a, cfg["theta_b"], test_nsim, seed)
    _put_ks(record, "invariance", invariance)
    record.put("status", "ok")
    _checks_nao(record, normality.p_value, invariance.p_value)
    return record


def run_ar1_study(cfg: dict) -> ReportRecord:
    seed, thetas, n, x0, mc_paths = cfg["seed"], cfg["thetas"], cfg["n"], cfg["x0"], cfg["mc_paths"]
    theta_a, theta_b = np.array([cfg["theta_a"]]), np.array([cfg["theta_b"]])
    record = _start_record(cfg)
    record.put("n", n)
    record.put("x0", x0)
    record.put("thetas", thetas)

    devs = []
    for idx, theta in enumerate(thetas):
        expected = ar1_expected_info(float(theta), n, x0)
        # an exploding path overflows to a non-finite mean, which is NaO below
        with np.errstate(over="ignore", invalid="ignore"):
            paths = ar1_simulate_paths(float(theta), n, x0, mc_paths, derive_rng(seed, "ar1-mc", idx))
            info = np.sum(paths[:, :-1] ** 2, axis=1)
            # equal finite informations (n = 1: every path's is x0^2) are their
            # own mean with no spread; rounded arithmetic would report a deviation
            if np.isfinite(info[0]) and (info == info[0]).all():
                mean, se = float(info[0]), 0.0
            else:
                mean = float(info.mean())
                se = float(info.std(ddof=1) / np.sqrt(mc_paths))
        devs.append(_dev_se(mean, se, expected))
        record.update({f"info_{idx}_theta": float(theta), f"info_{idx}_recursion": expected, f"info_{idx}_mc_mean": mean,
                       f"info_{idx}_mc_se": se, f"info_{idx}_dev_se": devs[-1]})
    if _checks_nao(record, *devs):
        return record

    model = Ar1Model(n, x0)
    data = model.simulate(theta_a, derive_rng(seed, "ar1-data"))
    fit = fit_mle(model, data)
    record.put_result("fit_newton", fit.trace)
    if is_nao(fit.theta_hat):
        record.put("status", "NaO")
        return record
    record.put("status", "ok")
    record.put("fit_theta_hat", fit.theta_hat)
    shifted = local_shift(model, data, fit.theta_hat, tau=1.0)
    _put_quadraticity(record, shifted, cfg["box"])
    invariance = hessian_invariance_test(model, theta_a, theta_b, cfg["invariance_nsim"], seed)
    _put_ks(record, "invariance", invariance)
    _checks_nao(record, invariance.p_value)
    return record


def run_animal_study(cfg: dict) -> ReportRecord:
    model = _build_model(cfg)
    seed, alpha, truth = cfg["seed"], cfg["alpha"], cfg["truth"]
    record = _start_record(cfg)
    record.put("n_individuals", model.n_individuals)
    record.put("eig_clamp", model.eig_clamp)

    # with data, a given truth is only checked
    if cfg["data"] is not None:
        data = _load_data(cfg, model)
    else:
        data = model.simulate(AnimalModel.params_to_phi(truth), derive_rng(seed, "animal-data"))
        record.update({"truth_mu": truth.mu, "truth_sigma2": truth.sigma2, "truth_tau2": truth.tau2})
        record.put("truth_logit_heritability", logit_heritability(truth))

    fit = fit_mle(model, data)
    _put_fit(record, fit, alpha)
    if is_nao(fit.theta_hat):
        return record
    h_hat = _put_animal_fit(record, model, fit.theta_hat)
    # delta method on the fit: the pivot's variance, on a stack of one
    se_h = float(np.sqrt(_heritability_variance(fit.observed_info[None])[0]))
    record.put("animal_logit_heritability_se", se_h)
    z = np.sqrt(chisq_upper_quantile(1, alpha))
    record.put("wald_interval_low", h_hat - z * se_h)
    record.put("wald_interval_high", h_hat + z * se_h)

    if cfg["B"] > 0:
        pivot = _heritability_pivot(model)
        samples = parametric_bootstrap(model, fit.theta_hat, cfg["B"], pivot, seed)
        _put_pivots(record, "pivot", samples)
        calibrated = math.nan
        if samples.values.size:
            cal = calibrate(samples, 1.0 - alpha, 1)
            record.put_result("calibration", cal)
            calibrated = cal.calibrated_quantile
            half = np.sqrt(calibrated) * se_h
            record.put("calibrated_interval_low", h_hat - half)
            record.put("calibrated_interval_high", h_hat + half)
        _checks_nao(record, calibrated)
    return record


def _heritability_variance(info: np.ndarray) -> np.ndarray:
    """Delta-method variance ``c' info^-1 c`` of the logit heritability for a
    stack of informations ``(m, 3, 3)`` as :func:`~quadlik.inference.fit_stack`
    gives them: ``(m,)``, NaN where one is NaN (an NaO fit)."""
    contrast = np.array([0.0, 1.0, -1.0])  # h = phi_1 - phi_2 in the fitting coordinates
    with np.errstate(over="ignore", invalid="ignore"):
        good = ~np.isnan(info[:, 0, 0])
        cov = np.full(info.shape[:2], np.nan)
        # right-hand sides as (k, 3, 1), which every numpy reads as a stack
        cov[good] = np.linalg.solve(info[good], np.broadcast_to(contrast[:, None], (int(good.sum()), 3, 1)))[:, :, 0]
        return (cov * contrast).sum(axis=1)


def _heritability_pivot(model: AnimalModel):
    """Squared studentized logit-heritability pivot for bootstrap calibration, over
    a refit level (a :data:`~quadlik.bootstrap.PivotFn`): NaN where the fit is
    NaO or the contrast's variance is not positive."""

    def pivot(thetas: np.ndarray, infos: np.ndarray, theta_hats: np.ndarray) -> np.ndarray:
        var_h = _heritability_variance(infos)
        diff = (thetas[:, 1] - thetas[:, 2]) - (theta_hats[:, 1] - theta_hats[:, 2])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = diff * diff / var_h
        return np.where(var_h > 0, values, np.nan)

    return pivot


def run_classical_comparison(cfg: dict) -> ReportRecord:
    seed, unit, psi, ladder, replications = cfg["seed"], cfg["unit"], cfg["psi"], cfg["ladder"], cfg["replications"]
    tau_mode = cfg["tau"]
    p = psi.size
    record = _start_record(cfg)
    record.update({"unit": unit, "psi": psi, "tau_mode": tau_mode, "ladder": [float(v) for v in ladder],
                   "replications": replications})

    medians = []  # of d0, d1 and d2 at each rung
    for n_idx, n in enumerate(ladder):
        model = NormalLocationIid(p, n) if unit == "normal" else ExponentialRateIid(n)
        k_unit = model.unit_fisher(psi)
        tau, tau_sq = (np.sqrt(n), float(n)) if tau_mode == "sqrt_n" else (1.0, 1.0)

        rows = []
        for data in draw(model, [psi], replications, seed, [("classical", n_idx)]):
            shifted = local_shift(model, data, psi, tau, tau_sq)
            limit = QuadraticForm(0.0, shifted(np.zeros(p)).gradient, k_unit).objective()
            rows.append(_keyed("config.box_halfwidth", c2_distance, shifted, limit, cfg["box"], errors=NonFiniteEvaluationError))
        medians.append(np.median(rows, axis=0))
        record.put(f"ladder_{n_idx}_n", n)
        record.update({f"ladder_{n_idx}_median_d{j}": medians[-1][j] for j in range(3)})
    record.update({f"median_d{j}": [m[j] for m in medians] for j in range(3)})
    record.put("status", "ok")
    return record


RUNNERS = {
    "fit": run_fit,
    "diagnose": run_diagnose,
    "bootstrap": run_bootstrap,
    "lamn-verify": run_lamn_verify,
    "ar1-study": run_ar1_study,
    "animal-study": run_animal_study,
    "classical-comparison": run_classical_comparison,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors (exit 1), not argparse's exit 2, the NaO code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _argument_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadlik",
        description="Likelihood quadraticity experiments driven by JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility (at least 1); changes neither results nor speed",
        )
        cmd.add_argument("--out", default=None, help="report base path (overrides config)")
    return parser


# built once a process: each parse starts from a new namespace, so main may be called again and again
_PARSER = _argument_parser()

# a report's status -> the run's exit code; a runner's report says how the run ended, and nothing else does
STATUS_EXIT = {"ok": EXIT_OK, "NaO": EXIT_NAO}


def _check_out(out_base: str, name: str, cfg: dict, config_path: str) -> None:
    """No file the report writes (``<out>.json``, ``<out>.txt``, ``<out>__<key>.csv``)
    is the config or a data or pedigree file it names; ``name`` is the key of ``out_base``."""
    written = {os.path.realpath(out_base + ext) for ext in (".json", ".txt")}
    spill = os.path.join(os.path.realpath(os.path.dirname(out_base) or "."), os.path.basename(out_base) + "__")
    model = cfg.get("model") or {}
    given = [path for path in (cfg.get("data"), model.get("pedigree")) if path is not None]
    for path in [config_path] + [_resolve(cfg, path) for path in given]:
        real = os.path.realpath(path)
        if real in written or (real.startswith(spill) and real.endswith(".csv")):
            raise ConfigError(f"{name}: the report {out_base} would overwrite its input {path}")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.workers < 1:
            raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
        cfg = load_config(args.config)
        if cfg["experiment"] != args.command:
            raise ConfigError(
                f"config.experiment is {cfg['experiment']!r} but the {args.command!r} command was invoked"
            )
        out_base = args.out or cfg["out"]
        if out_base is None:
            raise ConfigError("no output path: set 'out' in the config or pass --out")
        if not args.out:
            out_base = _resolve(cfg, out_base)
        if out_base.endswith(".json") or out_base.endswith(".txt"):
            out_base = out_base.rsplit(".", 1)[0]
        _check_out(out_base, "--out" if args.out else "config.out", cfg, args.config)
        record = RUNNERS[args.command](cfg)
        code = STATUS_EXIT[record.get("status")]  # a report without a status is a program fault
        record.write(out_base)
    except (ConfigError, DataFormatError, PedigreeError, OSError) as err:
        print(f"quadlik: error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:  # a program fault, whatever its class
        print("quadlik: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
