"""Batch front-end: configuration-driven experiments with report emission.

Every run is a pure function of the config file and the data files it
references: reports are emitted as both text and JSON with floats printed
at 17 significant digits, large arrays spill to sibling CSV files, and all
randomness derives from the mandatory integer seed.  Exit codes: 0 success,
1 input error, 2 NaO result, 3 internal error.
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

from .bootstrap import calibrate, double_bootstrap, make_wald_pivot, parametric_bootstrap
from .core import QuadraticForm, is_nao, local_shift
from .funcspace import GridBox, NonFiniteEvaluationError, c2_distance, default_points_per_axis, quadraticity_report
from .inference import ConfidenceRegion, chisq_upper_quantile, confidence_region, fit_mle
from .lamn import (
    ConstantCurvature, LamnSpec, WishartCurvature, contiguity_estimate, hessian_invariance_test,
    model_contiguity_estimate, score_normality_test,
)
from .models import (
    AnimalModel, AnimalParams, Ar1Model, DataFormatError, ExponentialRateIid, NormalLocationIid, PedigreeError, ar1_expected_info, ar1_simulate_paths, lan_normal_location, load_pedigree_csv, load_vector_csv,
    logit_heritability, relationship_matrix, synthetic_pedigree, wishart_lamn_model,
)
from .parallel import draw
from .newton import DEFAULT_MAX_STEPS
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
    A ``per_axis`` value has one entry a parameter, a single real repeated.
    ``table`` reads a block (``kinds``: one table a ``kind``); ``then(value,
    name)`` builds the library object the value stands for.
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
    if not isinstance(value, list) or not value or not all(_is_int(v) and v >= 1 for v in value):
        raise ConfigError(f"{name}: expected a non-empty list of positive counts")
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
    return value if key.then is None else key.then(value, full)


def _read_table(block, table: dict[str, Key], where: str) -> dict:
    """Every key of ``table`` read from ``block`` once, defaults filled in;
    a key ``table`` does not name is an error."""
    unknown = set(_typed(block, dict, where)) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return {name: _value(block, name, key, where) for name, key in table.items()}


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


def _check_relationship(name: str, n: int, source: str) -> None:
    """The relationship matrix of N individuals fits: A and the eigenvectors
    of its ``eigh`` hold N x N reals each."""
    _check_draw(name, n, 16 * n, f"the relationship matrix of {source} N = {n} individuals")


def _synthetic(s: dict, where: str):
    """The synthetic pedigree of a block, once the model it sizes fits."""
    _check_relationship(where, s["founders"] + s["per_generation"] * s["generations"], "its")
    # synthetic_pedigree's check left to it: a generation of one child has no two parents to draw for the next
    return _keyed(f"{where}.per_generation", synthetic_pedigree, s["founders"], s["per_generation"], s["generations"], s["seed"])


SYNTHETIC = Key("block", None, table={
    "founders": Key("int", minimum=2), "per_generation": COUNT, "generations": Key("int", minimum=0),
    "seed": Key("int", minimum=0),
}, then=_synthetic)
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
        "x0": Key("real", 1.0), "mc_paths": Key("int", 100_000, minimum=1), "theta_a": Key("real", 0.0),
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
        "ladder": Key("counts", [10, 100, 1000, 10000]), "replications": Key("int", 100, minimum=1),
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


# the counts that size a draw, and the bytes a row of it holds at least: a keyed stream at its
# peak (tracemalloc), a draw of z and K (nsim) or a path of n + 1 reals (mc_paths)
DRAW_ROW_BYTES = dict.fromkeys(["B", "B2", "test_nsim", "contiguity_nsim", "invariance_nsim", "replications"], lambda cfg: 208)
DRAW_ROW_BYTES.update(nsim=lambda cfg: 8 * cfg["spec"].dim * (cfg["spec"].dim + 1), mc_paths=lambda cfg: 8 * (cfg["n"] + 1))


def _check_draw(name: str, rows: int, row_bytes: int, what: str) -> None:
    """A draw, grid or relationship matrix holds at most 2**32 rows (rng.derive_streams'
    limit) and at most physical memory; ``rows`` and ``row_bytes`` are exact ints."""
    need, memory = rows * row_bytes, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if rows > 2**32 or need > memory:
        raise ConfigError(f"{name}: {what} holds {rows} rows of {row_bytes} bytes, past the 2**32 rows or the "
                          f"{memory} bytes of physical memory it may hold")


def read_config(raw, base_dir: str) -> dict:
    """Every value of a parsed config, read and checked once by its
    experiment's table; ``base_dir`` resolves its relative paths."""
    experiment = _value(_typed(raw, dict, "config"), "experiment", EXPERIMENT, "config")
    table = EXPERIMENTS[experiment]
    cfg = _read_table(raw, {"experiment": EXPERIMENT, **COMMON, **table}, "config")
    cfg["_dir"] = base_dir
    if experiment in PARAM_DIM:
        dim, dim_name = PARAM_DIM[experiment](cfg)
        for name, key in table.items():
            value = cfg[name]
            if key.per_axis and isinstance(value, float):
                cfg[name] = np.full(dim, value)
            elif key.per_axis and isinstance(value, (list, np.ndarray)) and len(value) != dim:
                raise ConfigError(f"config.{name}: length {len(value)} does not match the parameter dimension {dim}")
        if "box_halfwidth" in table:
            points = cfg["points_per_axis"]
            if points is not None:
                # a grid point's dim reals, and the value, gradient and Hessian it is evaluated to
                total = math.prod(points) if isinstance(points, list) else points**dim
                _check_draw("config.points_per_axis", total, 8 * (1 + 2 * dim + dim * dim), "its grid")
            cfg["box"] = _grid_box(cfg["box_halfwidth"], points, dim, dim_name)
    for name in table:
        if name in DRAW_ROW_BYTES and cfg[name] is not None:
            _check_draw(f"config.{name}", cfg[name], DRAW_ROW_BYTES[name](cfg), "its draw")
    if experiment == "bootstrap" and cfg["double"] and cfg["B2"] is None:
        raise ConfigError("config.B2: required when double is true")
    if experiment == "animal-study" and cfg["data"] is None and cfg["truth"] is None:
        raise ConfigError("config: animal-study needs either 'data' or 'truth' to simulate from")
    if experiment == "classical-comparison":
        n, dim = max(cfg["ladder"]), cfg["psi"].size
        if n > 2**53:  # the report writes the ladder as reals
            raise ConfigError("config.ladder: counts must be at most 2**53, the largest integer a report real holds exactly")
        # a rung draws replications x n x dim float64 values at once
        _check_draw("config.ladder", cfg["replications"], 8 * n * dim, f"the draw at n = {n}")
        rate = cfg["psi"][0]
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            square = np.square(rate)
            if cfg["unit"] == "exponential" and not (rate > 0 and 0 < 1.0 / square and n / square < np.inf):
                raise ConfigError(f"config.psi: the exponential unit's rate must be positive, with unit information "
                                  f"1/psi**2 positive and information n/psi**2 at the largest rung n = {n} finite, got {rate}")
    return cfg


def load_config(path: str) -> dict:
    """Read a config file and check all of it (``read_config``), before any model is built or data file opened."""
    try:
        with open(path, "r", encoding="utf8") as handle:
            raw = json.load(handle)
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
            path = _resolve(cfg, model["pedigree"])
            ped = load_pedigree_csv(path)
            _check_relationship("config.model.pedigree", ped.size, f"the {path} pedigree's")
        return AnimalModel(relationship_matrix(ped))
    if kind == "iid_normal":
        return NormalLocationIid(model["p"], model["n"])
    return ExponentialRateIid(model["n"])


def _load_data(cfg: dict, model) -> np.ndarray:
    return model.parse_data(load_vector_csv(_resolve(cfg, cfg["data"])))


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


def _put_fit(record: ReportRecord, fit, alpha: float, prefix: str = "fit") -> None:
    record.update(fit.trace.to_record(f"{prefix}_newton"))
    if is_nao(fit.theta_hat):
        record.put("status", "NaO")
        return
    record.put("status", "ok")
    record.put(f"{prefix}_theta_hat", fit.theta_hat)
    record.put(f"{prefix}_observed_info", fit.observed_info.ravel())
    record.put(f"{prefix}_se", _standard_errors(fit.observed_info))
    record.update(confidence_region(fit, alpha).to_record(f"{prefix}_region"))


def run_fit(cfg: dict) -> tuple[ReportRecord, int]:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    alpha = cfg["alpha"]
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    record.put("alpha", alpha)
    fit = fit_mle(model, data, max_steps=cfg["max_steps"])
    _put_fit(record, fit, alpha)
    if is_nao(fit.theta_hat):
        return record, EXIT_NAO
    if isinstance(model, AnimalModel):
        _put_animal_fit(record, model, fit.theta_hat)
        record.put("animal_eig_clamp", model.eig_clamp)
    return record, EXIT_OK


def _put_animal_fit(record: ReportRecord, model: AnimalModel, theta_hat: np.ndarray) -> float:
    """Put an animal fit's natural parameters and logit heritability; returns the latter."""
    params = model.phi_to_params(theta_hat)
    h_hat = logit_heritability(params)
    record.update({"animal_mu": params.mu, "animal_sigma2": params.sigma2, "animal_tau2": params.tau2})
    record.put("animal_logit_heritability", h_hat)
    return h_hat


def _quadraticity(shifted, box: GridBox) -> dict:
    """The quadraticity report of a shifted objective on ``box``; the box reaching
    an NaO or non-finite evaluation is an input error of ``box_halfwidth``."""
    report = _keyed("config.box_halfwidth", quadraticity_report, shifted, np.zeros(box.dim), box, errors=NonFiniteEvaluationError)
    return report.to_record()


def run_diagnose(cfg: dict) -> tuple[ReportRecord, int]:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    seed, test_nsim, theta_b, delta = cfg["seed"], cfg["test_nsim"], cfg["theta_b"], cfg["contiguity_delta"]
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    fit = fit_mle(model, data)
    _put_fit(record, fit, cfg["alpha"])
    if is_nao(fit.theta_hat):
        return record, EXIT_NAO
    theta_hat = fit.theta_hat
    p = theta_hat.size

    shifted = local_shift(model, data, theta_hat, tau=1.0)
    record.update(_quadraticity(shifted, cfg["box"]))

    step = _standard_errors(fit.observed_info)
    if theta_b is None:
        theta_b = theta_hat + step
    record.put("invariance_theta_b", theta_b)
    invariance = hessian_invariance_test(model, theta_hat, theta_b, test_nsim, seed)
    record.update(invariance.to_record("invariance"))
    normality = score_normality_test(model, theta_hat, test_nsim, seed)
    record.update(normality.to_record("normality"))

    if delta is None:
        delta = step / 2.0
    mean, se_c, n_nao = model_contiguity_estimate(model, theta_hat, delta, cfg["contiguity_nsim"], seed)
    record.update({"contiguity_delta": delta, "contiguity_mean": mean, "contiguity_se": se_c, "contiguity_n_nao": n_nao})
    return record, _checks_exit(record, invariance.p_value, normality.p_value, mean)


def run_bootstrap(cfg: dict) -> tuple[ReportRecord, int]:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    seed, alpha, B, use_double = cfg["seed"], cfg["alpha"], cfg["B"], cfg["double"]
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    record.put("alpha", alpha)
    fit = fit_mle(model, data)
    _put_fit(record, fit, alpha)
    if is_nao(fit.theta_hat):
        return record, EXIT_NAO
    pivot = make_wald_pivot(model)
    if use_double:
        # its outer level is the single bootstrap (same seed, B and streams)
        report = double_bootstrap(model, fit.theta_hat, B, cfg["B2"], pivot, seed, level=1.0 - alpha)
        samples = report.outer
    else:
        samples = parametric_bootstrap(model, fit.theta_hat, B, pivot, seed)
    record.update(samples.to_record())
    if samples.values.size:
        cal = calibrate(samples, 1.0 - alpha, fit.theta_hat.size)
        record.update(cal.to_record())
        calibrated_region = ConfidenceRegion(
            fit.theta_hat, fit.observed_info, cal.calibrated_quantile, 1.0 - alpha
        )
        record.update(calibrated_region.to_record("calibrated_region"))
    if cfg["dump_pivots"]:
        record.put("pivot_values", samples.values)
    if use_double:
        record.update(report.to_record())
    return record, EXIT_OK


def _checks_exit(record: ReportRecord, *results: float) -> int:
    """Exit code of a run whose Monte Carlo checks gave ``results``: NaO (exit 2,
    status NaO) where one is NaN, a check left with too few usable replicates."""
    if np.isnan(results).any():
        record.put_status("NaO")
        return EXIT_NAO
    return EXIT_OK


def _dev_se(mean: float, se: float, target: float) -> float:
    """``|mean - target|`` in standard errors (0 if ``se`` is 0); NaN, an NaO check, if either is not finite."""
    if not (math.isfinite(mean) and math.isfinite(se)):
        return math.nan
    return abs(mean - target) / se if se > 0 else 0.0


def run_lamn_verify(cfg: dict) -> tuple[ReportRecord, int]:
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
    if _checks_exit(record, *devs) == EXIT_NAO:
        return record, EXIT_NAO

    model = wishart_lamn_model(spec) if isinstance(spec.curvature, WishartCurvature) else lan_normal_location(spec.curvature.k)
    normality = score_normality_test(model, theta_a, test_nsim, seed)
    record.update(normality.to_record("normality"))
    invariance = hessian_invariance_test(model, theta_a, cfg["theta_b"], test_nsim, seed)
    record.update(invariance.to_record("invariance"))
    record.put("status", "ok")
    return record, _checks_exit(record, normality.p_value, invariance.p_value)


def run_ar1_study(cfg: dict) -> tuple[ReportRecord, int]:
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
            mean = float(info.mean())
            se = float(info.std(ddof=1) / np.sqrt(mc_paths))
        devs.append(_dev_se(mean, se, expected))
        record.update({f"info_{idx}_theta": float(theta), f"info_{idx}_recursion": expected, f"info_{idx}_mc_mean": mean,
                       f"info_{idx}_mc_se": se, f"info_{idx}_dev_se": devs[-1]})
    if _checks_exit(record, *devs) == EXIT_NAO:
        return record, EXIT_NAO

    model = Ar1Model(n, x0)
    data = model.simulate(theta_a, derive_rng(seed, "ar1-data"))
    fit = fit_mle(model, data)
    record.update(fit.trace.to_record("fit_newton"))
    if is_nao(fit.theta_hat):
        record.put("status", "NaO")
        return record, EXIT_NAO
    record.put("status", "ok")
    record.put("fit_theta_hat", fit.theta_hat)
    shifted = local_shift(model, data, fit.theta_hat, tau=1.0)
    record.update(_quadraticity(shifted, cfg["box"]))
    invariance = hessian_invariance_test(model, theta_a, theta_b, cfg["invariance_nsim"], seed)
    record.update(invariance.to_record("invariance"))
    return record, _checks_exit(record, invariance.p_value)


def run_animal_study(cfg: dict) -> tuple[ReportRecord, int]:
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
        return record, EXIT_NAO
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
        record.update(samples.to_record())
        if samples.values.size:
            cal = calibrate(samples, 1.0 - alpha, 1)
            record.update(cal.to_record())
            half = np.sqrt(cal.calibrated_quantile) * se_h
            record.put("calibrated_interval_low", h_hat - half)
            record.put("calibrated_interval_high", h_hat + half)
    return record, EXIT_OK


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


def run_classical_comparison(cfg: dict) -> tuple[ReportRecord, int]:
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
    return record, EXIT_OK


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


def _argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
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
        record, code = RUNNERS[args.command](cfg)
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
