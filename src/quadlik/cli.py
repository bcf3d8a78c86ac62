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

import numpy as np

from .bootstrap import (
    calibrate,
    double_bootstrap,
    make_wald_pivot,
    parametric_bootstrap,
)
from .core import QuadraticForm, StackedEval, cholesky_pivots, is_nao, local_shift
from .funcspace import GridBox, c2_distance, quadraticity_report
from .parallel import draw
from .inference import (
    ConfidenceRegion,
    chisq_upper_quantile,
    confidence_region,
    fit_mle,
)
from .lamn import (
    ConstantCurvature,
    LamnSpec,
    WishartCurvature,
    contiguity_estimate,
    hessian_invariance_test,
    model_contiguity_estimate,
    score_normality_test,
)
from .models import (
    AnimalModel,
    AnimalParams,
    Ar1Model,
    DataFormatError,
    ExponentialRateIid,
    NormalLocationIid,
    ar1_expected_info,
    ar1_simulate_paths,
    lan_normal_location,
    load_pedigree_csv,
    load_vector_csv,
    logit_heritability,
    relationship_matrix,
    synthetic_pedigree,
    wishart_lamn_model,
)
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
        if isinstance(value, bool):
            value = int(value)
        elif isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
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

    def items(self):
        return self._items.items()

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
# Config parsing
# ---------------------------------------------------------------------------


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _get(block: dict, key: str, types, where: str, required: bool = True, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = block[key]
    if types is float:
        try:
            return _real(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}.{key}: expected a finite real") from None
    if types is int and isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected an integer, got a boolean")
    if not isinstance(value, types if isinstance(types, tuple) else (types,)):
        raise ConfigError(f"{where}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _get_count(
    block: dict, key: str, where: str, required: bool = True, default=None, minimum: int = 1
) -> int:
    """An integer of at least ``minimum`` (1: a positive count, 0: a non-negative one;
    2 for a sample size that a spread or a two-sample test needs)."""
    value = _get(block, key, int, where, required, default)
    if value is not None and value < minimum:
        kind = {0: "a non-negative count", 1: "a positive count"}.get(minimum, f"a count of at least {minimum}")
        raise ConfigError(f"{where}.{key}: must be {kind}, got {value}")
    return value


def _get_counts(block: dict, key: str, where: str, required: bool = True, default=None) -> list[int]:
    raw = _get(block, key, list, where, required, None)
    if raw is None:
        return default
    if not raw or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in raw):
        raise ConfigError(f"{where}.{key}: expected a non-empty list of positive counts")
    return raw


def _real(v) -> float:
    """``float(v)`` for a finite JSON number (``json`` also reads ``NaN``, ``Infinity``, ``-1e400``);
    TypeError for booleans, strings and the rest, ValueError for the non-finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"not a real: {v!r}")
    if (isinstance(v, int) and abs(v) > sys.float_info.max) or not math.isfinite(v):
        raise ValueError("not a finite real")
    return float(v)


def _get_vector(
    block: dict, key: str, where: str, required: bool = True, default=None, length: int | None = None
):
    """A list of reals; with ``length``, exactly that many (the parameter dimension)."""
    raw = _get(block, key, list, where, required, None)
    if raw is None:
        return default
    try:
        vec = np.asarray([_real(v) for v in raw])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: expected a list of finite reals") from None
    if length is not None and vec.size != length:
        raise ConfigError(
            f"{where}.{key}: length {vec.size} does not match the parameter dimension {length}"
        )
    return vec


def _get_matrix(block: dict, key: str, where: str, required: bool = True, default=None):
    raw = _get(block, key, list, where, required, None)
    if raw is None:
        return default
    try:
        mat = np.asarray([[_real(v) for v in row] for row in raw])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: expected a list of rows of finite reals") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{where}.{key}: expected a square matrix")
    return mat


COMMON_KEYS = {"schema_version", "experiment", "seed", "out"}

EXPERIMENT_KEYS = {
    "fit": {"model", "data", "alpha", "max_steps"},
    "diagnose": {
        "model", "data", "alpha", "box_halfwidth", "points_per_axis",
        "test_nsim", "theta_b", "contiguity_delta", "contiguity_nsim",
    },
    "bootstrap": {"model", "data", "alpha", "B", "double", "B2", "dump_pivots"},
    "lamn-verify": {"spec", "nsim", "n_deltas", "delta_scale", "test_nsim", "theta_a", "theta_b"},
    "ar1-study": {
        "thetas", "n", "x0", "mc_paths", "theta_a", "theta_b",
        "invariance_nsim", "box_halfwidth", "points_per_axis",
    },
    "animal-study": {"model", "truth", "data", "alpha", "B"},
    "classical-comparison": {
        "unit", "psi", "ladder", "replications", "tau", "box_halfwidth", "points_per_axis",
    },
}

MODEL_KINDS = {"lan", "wishart_lamn", "ar1", "animal", "iid_normal", "iid_exponential"}


def load_config(path: str) -> dict:
    """Load and strictly validate a config file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf8") as handle:
            cfg = json.load(handle)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    experiment = _get(cfg, "experiment", str, "config")
    if experiment not in EXPERIMENT_KEYS:
        raise ConfigError(f"config.experiment: unknown experiment {experiment!r}")
    _check_keys(cfg, COMMON_KEYS | EXPERIMENT_KEYS[experiment], "config")
    version = _get(cfg, "schema_version", int, "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: expected {SCHEMA_VERSION}, got {version}")
    seed = _get(cfg, "seed", int, "config")
    if seed < 0:
        raise ConfigError(f"config.seed: must be a non-negative integer, got {seed}")
    alpha = _get(cfg, "alpha", float, "config", required=False)
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ConfigError(f"config.alpha: must lie strictly between 0 and 1, got {alpha}")
    cfg["_dir"] = os.path.dirname(os.path.abspath(path))
    return cfg


def _resolve(cfg: dict, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(cfg["_dir"], path)


def _wishart_curvature(block: dict, dim: int, where: str) -> WishartCurvature:
    """``dof`` and an optional ``scale`` (default ``I / dof``)."""
    dof = _get(block, "dof", float, where)
    if not dof > dim - 1:
        raise ConfigError(f"{where}.dof: must exceed dim - 1 = {dim - 1}, got {dof}")
    scale = _get_matrix(block, "scale", where, required=False)
    return WishartCurvature(dof, np.eye(dim) / dof if scale is None else scale)


def _build_model(cfg: dict):
    block = _get(cfg, "model", dict, "config")
    kind = _get(block, "kind", str, "config.model")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"config.model.kind: unknown kind {kind!r}")
    if kind == "lan":
        _check_keys(block, {"kind", "k"}, "config.model")
        return lan_normal_location(_get_matrix(block, "k", "config.model"))
    if kind == "wishart_lamn":
        _check_keys(block, {"kind", "dim", "dof", "scale"}, "config.model")
        dim = _get_count(block, "dim", "config.model")
        return wishart_lamn_model(LamnSpec(dim, _wishart_curvature(block, dim, "config.model")))
    if kind == "ar1":
        _check_keys(block, {"kind", "n", "x0", "random_x0"}, "config.model")
        return Ar1Model(
            _get_count(block, "n", "config.model"),
            _get(block, "x0", float, "config.model", required=False, default=1.0),
            _get(block, "random_x0", bool, "config.model", required=False, default=False),
        )
    if kind == "animal":
        _check_keys(block, {"kind", "pedigree", "synthetic"}, "config.model")
        ped_path = _get(block, "pedigree", str, "config.model", required=False)
        synth = _get(block, "synthetic", dict, "config.model", required=False)
        if (ped_path is None) == (synth is None):
            raise ConfigError("config.model: give exactly one of 'pedigree' or 'synthetic'")
        if ped_path is not None:
            ped = load_pedigree_csv(_resolve(cfg, ped_path))
        else:
            where = "config.model.synthetic"
            _check_keys(synth, {"founders", "per_generation", "generations", "seed"}, where)
            ped = synthetic_pedigree(
                _get_count(synth, "founders", where, minimum=2),
                _get_count(synth, "per_generation", where),
                _get_count(synth, "generations", where, minimum=0),
                _get_count(synth, "seed", where, minimum=0),
            )
        return AnimalModel(relationship_matrix(ped))
    if kind == "iid_normal":
        _check_keys(block, {"kind", "p", "n"}, "config.model")
        return NormalLocationIid(_get_count(block, "p", "config.model"), _get_count(block, "n", "config.model"))
    _check_keys(block, {"kind", "n"}, "config.model")
    return ExponentialRateIid(_get_count(block, "n", "config.model"))


def _load_data(cfg: dict, model) -> np.ndarray:
    return model.parse_data(load_vector_csv(_resolve(cfg, _get(cfg, "data", str, "config"))))


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
    alpha = _get(cfg, "alpha", float, "config", required=False, default=0.05)
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    record.put("alpha", alpha)
    max_steps = _get_count(cfg, "max_steps", "config", required=False, default=DEFAULT_MAX_STEPS, minimum=0)
    fit = fit_mle(model, data, max_steps=max_steps)
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


def _get_box(cfg: dict, dim: int, default_halfwidth: float) -> GridBox:
    """Grid box centered at zero from ``box_halfwidth`` and ``points_per_axis``.

    Each key takes one value for every axis or a list with one per axis.
    """
    if isinstance(cfg.get("box_halfwidth"), list):
        half = _get_vector(cfg, "box_halfwidth", "config", length=dim)
    else:
        half = np.full(dim, _get(cfg, "box_halfwidth", float, "config", required=False, default=default_halfwidth))
    if not np.all((half > 0) & np.isfinite(half)):
        raise ConfigError("config.box_halfwidth: must be positive and finite")
    if isinstance(cfg.get("points_per_axis"), list):
        points = _get_counts(cfg, "points_per_axis", "config")
        if len(points) != dim:
            raise ConfigError(f"config.points_per_axis: length {len(points)} does not match the parameter dimension {dim}")
    else:
        points = _get_count(cfg, "points_per_axis", "config", required=False)
    if points is None:
        return GridBox.default(-half, half)
    return GridBox(-half, half, np.asarray(points, dtype=int))


def run_diagnose(cfg: dict) -> tuple[ReportRecord, int]:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    seed = cfg["seed"]
    alpha = _get(cfg, "alpha", float, "config", required=False, default=0.05)
    test_nsim = _get_count(cfg, "test_nsim", "config", required=False, default=500, minimum=2)
    contiguity_nsim = _get_count(cfg, "contiguity_nsim", "config", required=False, default=2000, minimum=2)
    box = _get_box(cfg, model.dim_param, 1.0)
    theta_b = _get_vector(cfg, "theta_b", "config", required=False, length=model.dim_param)
    delta = _get_vector(cfg, "contiguity_delta", "config", required=False, length=model.dim_param)
    record = _start_record(cfg)
    record.put("model_kind", cfg["model"]["kind"])
    fit = fit_mle(model, data)
    _put_fit(record, fit, alpha)
    if is_nao(fit.theta_hat):
        return record, EXIT_NAO
    theta_hat = fit.theta_hat
    p = theta_hat.size

    shifted = local_shift(model, data, theta_hat, tau=1.0)
    record.update(quadraticity_report(shifted, np.zeros(p), box).to_record())

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
    mean, se_c, n_nao = model_contiguity_estimate(model, theta_hat, delta, contiguity_nsim, seed)
    record.put("contiguity_delta", delta)
    record.put("contiguity_mean", mean)
    record.put("contiguity_se", se_c)
    record.put("contiguity_n_nao", n_nao)
    return record, _checks_exit(record, invariance.p_value, normality.p_value, mean)


def run_bootstrap(cfg: dict) -> tuple[ReportRecord, int]:
    model = _build_model(cfg)
    data = _load_data(cfg, model)
    seed = cfg["seed"]
    alpha = _get(cfg, "alpha", float, "config", required=False, default=0.05)
    B = _get_count(cfg, "B", "config")
    use_double = _get(cfg, "double", bool, "config", required=False, default=False)
    B2 = _get(cfg, "B2", int, "config", required=False, default=0)
    dump = _get(cfg, "dump_pivots", bool, "config", required=False, default=False)
    if use_double and B2 < 1:
        raise ConfigError("config.B2: required (>= 1) when double is true")
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
        report = double_bootstrap(model, fit.theta_hat, B, B2, pivot, seed, level=1.0 - alpha)
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
    if dump:
        record.put("pivot_values", samples.values)
    if use_double:
        record.update(report.to_record())
    return record, EXIT_OK


def _build_spec(cfg: dict) -> LamnSpec:
    block = _get(cfg, "spec", dict, "config")
    _check_keys(block, {"dim", "curvature"}, "config.spec")
    dim = _get_count(block, "dim", "config.spec")
    curv = _get(block, "curvature", dict, "config.spec")
    kind = _get(curv, "kind", str, "config.spec.curvature")
    if kind == "constant":
        _check_keys(curv, {"kind", "k"}, "config.spec.curvature")
        return LamnSpec(dim, ConstantCurvature(_get_matrix(curv, "k", "config.spec.curvature")))
    if kind == "wishart":
        _check_keys(curv, {"kind", "dof", "scale"}, "config.spec.curvature")
        return LamnSpec(dim, _wishart_curvature(curv, dim, "config.spec.curvature"))
    raise ConfigError(f"config.spec.curvature.kind: unknown kind {kind!r}")


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
    spec = _build_spec(cfg)
    seed = cfg["seed"]
    nsim = _get_count(cfg, "nsim", "config", required=False, default=100_000, minimum=2)
    n_deltas = _get_count(cfg, "n_deltas", "config", required=False, default=5)
    delta_scale = _get(cfg, "delta_scale", float, "config", required=False, default=1.0)
    test_nsim = _get_count(cfg, "test_nsim", "config", required=False, default=2000, minimum=2)
    theta_a = _get_vector(cfg, "theta_a", "config", required=False, default=np.zeros(spec.dim), length=spec.dim)
    theta_b = _get_vector(cfg, "theta_b", "config", required=False, default=np.ones(spec.dim), length=spec.dim)
    record = _start_record(cfg)
    record.put("spec_dim", spec.dim)
    record.put("spec_curvature", type(spec.curvature).__name__)

    delta_rng = derive_rng(seed, "deltas")
    devs = []
    for i in range(n_deltas):
        delta = delta_scale * (2.0 * delta_rng.random(spec.dim) - 1.0)
        mean, se = contiguity_estimate(spec, delta, nsim, seed, stream=i)
        devs.append(_dev_se(mean, se, 1.0))
        record.put(f"contiguity_{i}_delta", delta)
        record.put(f"contiguity_{i}_mean", mean)
        record.put(f"contiguity_{i}_se", se)
        record.put(f"contiguity_{i}_dev_se", devs[-1])
    record.put("contiguity_max_dev_se", np.max(devs, initial=0.0))
    if _checks_exit(record, *devs) == EXIT_NAO:
        return record, EXIT_NAO

    model = wishart_lamn_model(spec) if isinstance(spec.curvature, WishartCurvature) else lan_normal_location(spec.curvature.k)
    normality = score_normality_test(model, theta_a, test_nsim, seed)
    record.update(normality.to_record("normality"))
    invariance = hessian_invariance_test(model, theta_a, theta_b, test_nsim, seed)
    record.update(invariance.to_record("invariance"))
    return record, _checks_exit(record, normality.p_value, invariance.p_value)


def run_ar1_study(cfg: dict) -> tuple[ReportRecord, int]:
    seed = cfg["seed"]
    thetas = _get_vector(cfg, "thetas", "config", required=False, default=np.array([0.0, 0.5, 0.9, 1.0]))
    n = _get_count(cfg, "n", "config", required=False, default=50)
    x0 = _get(cfg, "x0", float, "config", required=False, default=1.0)
    mc_paths = _get_count(cfg, "mc_paths", "config", required=False, default=100_000)
    theta_a = _get(cfg, "theta_a", float, "config", required=False, default=0.0)
    theta_b = _get(cfg, "theta_b", float, "config", required=False, default=0.9)
    invariance_nsim = _get_count(cfg, "invariance_nsim", "config", required=False, default=2000, minimum=2)
    box = _get_box(cfg, 1, 1.0)
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
        record.put(f"info_{idx}_theta", float(theta))
        record.put(f"info_{idx}_recursion", expected)
        record.put(f"info_{idx}_mc_mean", mean)
        record.put(f"info_{idx}_mc_se", se)
        record.put(f"info_{idx}_dev_se", devs[-1])
    if _checks_exit(record, *devs) == EXIT_NAO:
        return record, EXIT_NAO

    model = Ar1Model(n, x0)
    data = model.simulate(np.array([theta_a]), derive_rng(seed, "ar1-data"))
    fit = fit_mle(model, data)
    record.update(fit.trace.to_record("fit_newton"))
    if is_nao(fit.theta_hat):
        record.put("status", "NaO")
        return record, EXIT_NAO
    record.put("status", "ok")
    record.put("fit_theta_hat", fit.theta_hat)
    shifted = local_shift(model, data, fit.theta_hat, tau=1.0)
    record.update(quadraticity_report(shifted, np.zeros(1), box).to_record())
    invariance = hessian_invariance_test(model, np.array([theta_a]), np.array([theta_b]), invariance_nsim, seed)
    record.update(invariance.to_record("invariance"))
    return record, _checks_exit(record, invariance.p_value)


def run_animal_study(cfg: dict) -> tuple[ReportRecord, int]:
    model = _build_model(cfg)
    if not isinstance(model, AnimalModel):
        raise ConfigError("config.model.kind: animal-study requires an animal model")
    seed = cfg["seed"]
    alpha = _get(cfg, "alpha", float, "config", required=False, default=0.05)
    B = _get_count(cfg, "B", "config", required=False, default=0, minimum=0)
    record = _start_record(cfg)
    record.put("n_individuals", model.n_individuals)
    record.put("eig_clamp", model.eig_clamp)

    truth_block = _get(cfg, "truth", dict, "config", required=False)
    if "data" in cfg:
        data = _load_data(cfg, model)
    else:
        if truth_block is None:
            raise ConfigError("config: animal-study needs either 'data' or 'truth' to simulate from")
        _check_keys(truth_block, {"mu", "sigma2", "tau2"}, "config.truth")
        truth = AnimalParams(
            _get(truth_block, "mu", float, "config.truth"),
            _get(truth_block, "sigma2", float, "config.truth"),
            _get(truth_block, "tau2", float, "config.truth"),
        )
        data = model.simulate(AnimalModel.params_to_phi(truth), derive_rng(seed, "animal-data"))
        record.put("truth_mu", truth.mu)
        record.put("truth_sigma2", truth.sigma2)
        record.put("truth_tau2", truth.tau2)
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

    if B > 0:
        pivot = _heritability_pivot(model)
        samples = parametric_bootstrap(model, fit.theta_hat, B, pivot, seed)
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
    stack of informations ``(m, 3, 3)``: ``(m,)``, NaN where one fails the
    pivot test."""
    contrast = np.array([0.0, 1.0, -1.0])  # h = phi_1 - phi_2 in the fitting coordinates
    with np.errstate(over="ignore", invalid="ignore"):
        good = ~np.isnan(cholesky_pivots(info)[0][:, 0, 0])
        cov = np.full(info.shape[:2], np.nan)
        # right-hand sides as (k, 3, 1), which every numpy reads as a stack
        cov[good] = np.linalg.solve(info[good], np.broadcast_to(contrast[:, None], (int(good.sum()), 3, 1)))[:, :, 0]
        return (cov * contrast).sum(axis=1)


def _heritability_pivot(model: AnimalModel):
    """Squared studentized logit-heritability pivot for bootstrap calibration, over
    a refit level: NaN where a row is NaO, its information fails the pivot test
    or the contrast's variance is not positive."""

    def pivot(ev: StackedEval, thetas: np.ndarray, theta_hats: np.ndarray) -> np.ndarray:
        var_h = _heritability_variance(-ev.parts(model.dim_param)[2])
        diff = (thetas[:, 1] - thetas[:, 2]) - (theta_hats[:, 1] - theta_hats[:, 2])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = diff * diff / var_h
        return np.where(ev.ok & (var_h > 0), values, np.nan)

    return pivot


def run_classical_comparison(cfg: dict) -> tuple[ReportRecord, int]:
    seed = cfg["seed"]
    unit = _get(cfg, "unit", str, "config", required=False, default="normal")
    if unit not in {"normal", "exponential"}:
        raise ConfigError(f"config.unit: unknown unit {unit!r}")
    # the exponential unit's psi is its one rate
    psi_length = None if unit == "normal" else 1
    psi = _get_vector(cfg, "psi", "config", required=False, default=np.array([1.0]), length=psi_length)
    if unit == "exponential" and not psi[0] > 0:
        raise ConfigError(f"config.psi: the exponential unit's rate must be positive, got {psi[0]}")
    ladder = _get_counts(cfg, "ladder", "config", required=False, default=[10, 100, 1000, 10000])
    replications = _get_count(cfg, "replications", "config", required=False, default=100)
    tau_mode = _get(cfg, "tau", str, "config", required=False, default="sqrt_n")
    if tau_mode not in {"sqrt_n", "one"}:
        raise ConfigError("config.tau: must be 'sqrt_n' or 'one'")
    p = psi.size
    box = _get_box(cfg, p, 2.0)
    record = _start_record(cfg)
    record.put("unit", unit)
    record.put("psi", psi)
    record.put("tau_mode", tau_mode)
    record.put("ladder", [float(v) for v in ladder])
    record.put("replications", replications)

    medians = {0: [], 1: [], 2: []}
    for n_idx, n in enumerate(ladder):
        model = NormalLocationIid(p, n) if unit == "normal" else ExponentialRateIid(n)
        k_unit = model.unit_fisher(psi)
        tau, tau_sq = (np.sqrt(n), float(n)) if tau_mode == "sqrt_n" else (1.0, 1.0)

        rows = []
        for data in draw(model, [psi], replications, seed, [("classical", n_idx)]):
            shifted = local_shift(model, data, psi, tau, tau_sq)
            limit = QuadraticForm(0.0, shifted(np.zeros(p)).gradient, k_unit).objective()
            rows.append(c2_distance(shifted, limit, box))
        arr = np.array(rows)
        for j in range(3):
            medians[j].append(float(np.median(arr[:, j])))
        record.put(f"ladder_{n_idx}_n", n)
        record.put(f"ladder_{n_idx}_median_d0", medians[0][-1])
        record.put(f"ladder_{n_idx}_median_d1", medians[1][-1])
        record.put(f"ladder_{n_idx}_median_d2", medians[2][-1])
    record.put("median_d0", medians[0])
    record.put("median_d1", medians[1])
    record.put("median_d2", medians[2])
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


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    try:
        if args.workers < 1:
            raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
        cfg = load_config(args.config)
        if cfg["experiment"] != args.command:
            raise ConfigError(
                f"config.experiment is {cfg['experiment']!r} but the {args.command!r} command was invoked"
            )
        out_base = args.out or cfg.get("out")
        if out_base is None:
            raise ConfigError("no output path: set 'out' in the config or pass --out")
        if not args.out:
            out_base = _resolve(cfg, out_base)
        if out_base.endswith(".json") or out_base.endswith(".txt"):
            out_base = out_base.rsplit(".", 1)[0]
        record, code = RUNNERS[args.command](cfg)
        record.write(out_base)
    except Exception as err:
        # a LinAlgError is a ValueError, but only a program bug raises one
        if isinstance(err, (ConfigError, DataFormatError, OSError, ValueError)) and not isinstance(err, np.linalg.LinAlgError):
            print(f"quadlik: error: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        print("quadlik: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
