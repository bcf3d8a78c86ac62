"""Workload definitions: seeded input generation, configs and report checks.

Inputs are generated here with numpy and scipy alone, never with quadlik, so
the program under test receives only files: a pedigree CSV, a response CSV or
a (z, k) CSV, and a JSON config.  The same ``--seed`` always gives the same
files.  The checks compare each report against oracles computed here
independently of quadlik.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import stats

ALPHA = 0.05
# Relative tolerance for floats when a report is compared with the stored
# reference report; counts and strings must match exactly.  Loose enough for
# a change of summation order, tight enough to catch a wrong result.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9
# Seed of the stored reference reports in bench/reference/.
REFERENCE_SEED = 0
# Fields whose value is rounding noise at convergence; their exact value is
# not compared with the reference (``*_converged`` is, exactly).
NOISE_SUFFIXES = ("_final_grad_norm",)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_vector(path: str, values) -> None:
    _write_lines(path, [f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel()])


# ---------------------------------------------------------------------------
# Animal model inputs: random-mating pedigree and a trait vector
# ---------------------------------------------------------------------------


def random_mating_pedigree(rng, founders: int, per_generation: int, generations: int):
    """Records (id, sire, dam) with 1-based ids; each child draws two distinct
    parents from the previous generation (the design of
    ``quadlik.synthetic_pedigree``)."""
    records = [(i + 1, None, None) for i in range(founders)]
    previous = list(range(1, founders + 1))
    next_id = founders + 1
    for _ in range(generations):
        current = []
        for _ in range(per_generation):
            i, j = rng.choice(len(previous), size=2, replace=False)
            records.append((next_id, previous[i], previous[j]))
            current.append(next_id)
            next_id += 1
        previous = current
    return records


def relationship(records) -> np.ndarray:
    """Numerator relationship matrix by the tabular method."""
    n = len(records)
    pos = {rec[0]: i for i, rec in enumerate(records)}
    a = np.zeros((n, n))
    for i, (_, sire, dam) in enumerate(records):
        s = pos[sire] if sire is not None else None
        d = pos[dam] if dam is not None else None
        row = np.zeros(i)
        if s is not None:
            row += a[s, :i]
        if d is not None:
            row += a[d, :i]
        a[i, :i] = a[:i, i] = 0.5 * row
        a[i, i] = 1.0 + (0.5 * a[s, d] if s is not None and d is not None else 0.0)
    return a


def write_pedigree(path: str, records) -> None:
    lines = ["id,sire,dam"]
    for rec_id, sire, dam in records:
        lines.append(f"{rec_id},{'' if sire is None else sire},{'' if dam is None else dam}")
    _write_lines(path, lines)


def animal_loglik(a: np.ndarray, y: np.ndarray, phi: np.ndarray):
    """Value and gradient of the Gaussian log likelihood over
    (mu, log sigma2, log tau2), constants dropped, by dense Cholesky."""
    mu, s2, t2 = float(phi[0]), math.exp(phi[1]), math.exp(phi[2])
    n = y.size
    v = s2 * a + t2 * np.eye(n)
    lower = np.linalg.cholesky(v)
    r = y - mu
    vinv = np.linalg.inv(v)
    vr = vinv @ r
    value = -float(np.log(np.diag(lower)).sum()) - 0.5 * float(r @ vr)
    avr = a @ vr
    grad = np.array(
        [
            float(vr.sum()),
            s2 * (-0.5 * float(np.sum(vinv * a)) + 0.5 * float(vr @ avr)),
            t2 * (-0.5 * float(np.trace(vinv)) + 0.5 * float(vr @ vr)),
        ]
    )
    return value, grad


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a quadlik CLI experiment at a fixed size.

    A run gives every invocation its own input set drawn from the seed.
    Where the work of one experiment depends on its data (the Newton steps of
    a bootstrap depend on the estimate it starts from), the median over many
    data sets keeps a run's figure nearly the same from one seed to the next.
    """

    name: str
    command: str
    workers: int
    # Speed probe shaped like the model's kernel (worker.SpeedProbe): a
    # probe_size x probe_size Q'v product plus tiny-array operations,
    # probe_loops times on `workers` threads; probe_ref_s is its 10th-
    # percentile time on the two-vCPU Xeon host it was tuned on, the speed
    # normalized times are reported at.
    probe_size: int
    probe_loops: int
    probe_ref_s: float

    def generate(self, seed: int, index: int, directory: str) -> dict:
        """Write input set ``index`` for ``seed`` into ``directory``; return
        the quantities the checks need."""
        raise NotImplementedError

    def replicates(self, report: dict) -> tuple[int, int]:
        """(Monte Carlo replicates attempted, NaO replicates) of one report."""
        raise NotImplementedError

    def check(self, report: dict, inputs: dict) -> list[str]:
        """Oracle checks of a report; returns the failures found."""
        raise NotImplementedError

    def bytes_per_eval(self) -> int:
        """Bytes one model eval computes on, from the array sizes (not measured)."""
        raise NotImplementedError

    def config_path(self, directory: str) -> str:
        return os.path.join(directory, "config.json")

    def write_config(self, directory: str, cfg: dict) -> None:
        base = {"schema_version": 1, "experiment": self.command}
        base.update(cfg)
        with open(self.config_path(directory), "w", encoding="utf8", newline="\n") as handle:
            json.dump(base, handle, indent=1)
            handle.write("\n")

    def argv(self, directory: str, out_base: str, workers: int | None = None) -> list[str]:
        return [
            self.command,
            "--config",
            self.config_path(directory),
            "--workers",
            str(self.workers if workers is None else workers),
            "--out",
            out_base,
        ]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def nao_checks(report: dict, cfg_seed: int, command: str) -> list[str]:
    """Checks of an NaO report (exit 2): the experiment stopped because its
    fit did not converge, and says so."""
    bad = []
    if report.get("status") != "NaO":
        bad.append(f"exit code 2 with status {report.get('status')!r}, expected 'NaO'")
    if report.get("experiment") != command:
        bad.append(f"experiment is {report.get('experiment')!r}")
    if report.get("seed") != cfg_seed:
        bad.append(f"seed is {report.get('seed')!r}, expected {cfg_seed}")
    if report.get("fit_newton_converged") != 0:
        bad.append("an NaO report whose fit converged")
    return bad


def _common_checks(report: dict, cfg_seed: int, command: str) -> list[str]:
    bad = []
    if report.get("status") != "ok":
        bad.append(f"status is {report.get('status')!r}, expected 'ok'")
    if report.get("experiment") != command:
        bad.append(f"experiment is {report.get('experiment')!r}")
    if report.get("seed") != cfg_seed:
        bad.append(f"seed is {report.get('seed')!r}, expected {cfg_seed}")
    if report.get("fit_newton_converged") != 1:
        bad.append("the fit did not converge")
    return bad


class AnimalWorkload(Workload):
    """Animal-model workloads on a random-mating pedigree."""

    founders = 40
    generations = 4
    per_generation: int
    # criterion 6's truth, heritability 2/3: on 400 seeds of the N=200
    # design no fit failed, where sigma2 = tau2 = 1 gave 3 failed fits
    truth = (0.0, 1.33, 0.67)  # mu, sigma2, tau2

    @property
    def n_individuals(self) -> int:
        return self.founders + self.generations * self.per_generation

    def bytes_per_eval(self) -> int:
        # Q' y streams the N x N eigenvector matrix once per eval
        return 8 * self.n_individuals**2

    def _animal_inputs(self, seed: int, index: int, directory: str) -> dict:
        rng = np.random.default_rng([seed, 1, index])
        records = random_mating_pedigree(rng, self.founders, self.per_generation, self.generations)
        a = relationship(records)
        mu, s2, t2 = self.truth
        n = a.shape[0]
        y = mu + math.sqrt(s2) * (np.linalg.cholesky(a) @ rng.standard_normal(n))
        y = y + math.sqrt(t2) * rng.standard_normal(n)
        write_pedigree(os.path.join(directory, "pedigree.csv"), records)
        _write_vector(os.path.join(directory, "y.csv"), y)
        # the CSV holds y at 17 significant digits, which round-trips exactly
        return {"a": a, "y": y, "cfg_seed": int(rng.integers(1, 2**31))}

    def _fit_checks(self, report: dict, inputs: dict) -> list[str]:
        """The reported estimate is a stationary point of an independent
        dense likelihood, and the reported information matches central
        differences of its gradient."""
        bad = []
        phi = np.asarray(report["fit_theta_hat"], dtype=float)
        value, grad = animal_loglik(inputs["a"], inputs["y"], phi)
        scale = 1.0 + abs(value)
        if np.max(np.abs(grad)) > 1e-6 * scale:
            bad.append(f"gradient at the reported estimate is {grad.tolist()}")
        info = np.asarray(report["fit_observed_info"], dtype=float).reshape(3, 3)
        h = 1e-5
        fd = np.zeros((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = -(animal_loglik(inputs["a"], inputs["y"], phi + e)[1]
                         - animal_loglik(inputs["a"], inputs["y"], phi - e)[1]) / (2 * h)
        if np.max(np.abs(fd - info)) > 1e-4 * max(1.0, float(np.max(np.abs(info)))):
            bad.append("observed information disagrees with finite differences")
        return bad


class AnimalBoot(AnimalWorkload):
    per_generation = 40  # N = 40 + 4 * 40 = 200
    B = 200

    def generate(self, seed: int, index: int, directory: str) -> dict:
        inputs = self._animal_inputs(seed, index, directory)
        self.write_config(
            directory,
            {
                "seed": inputs["cfg_seed"],
                "model": {"kind": "animal", "pedigree": "pedigree.csv"},
                "data": "y.csv",
                "alpha": ALPHA,
                "B": self.B,
            },
        )
        return inputs

    def replicates(self, report: dict) -> tuple[int, int]:
        return int(report["pivot_B"]), int(report["pivot_n_nao"])

    def check(self, report: dict, inputs: dict) -> list[str]:
        bad = _common_checks(report, inputs["cfg_seed"], self.command)
        if bad:
            return bad
        if report["n_individuals"] != self.n_individuals:
            bad.append(f"n_individuals is {report['n_individuals']}, expected {self.n_individuals}")
        if report["pivot_B"] != self.B:
            bad.append(f"pivot_B is {report['pivot_B']}, expected {self.B}")
        # NaO replicates are expected near a variance boundary; a tenth or
        # more means the program, not the data, went wrong
        if not 0 <= report["pivot_n_nao"] < self.B // 10:
            bad.append(f"pivot_n_nao is {report['pivot_n_nao']} of {self.B}")
        h = math.log(report["animal_sigma2"]) - math.log(report["animal_tau2"])
        if not _close(report["animal_logit_heritability"], h, 1e-12, 1e-14):
            bad.append("logit heritability is not log sigma2 - log tau2")
        se = report["animal_logit_heritability_se"]
        z = math.sqrt(stats.chi2.ppf(1.0 - ALPHA, 1))
        if not _close(report["wald_interval_high"], h + z * se, 1e-9, 1e-12):
            bad.append("Wald interval does not match the chi-square(1) quantile")
        nominal = stats.chi2.ppf(1.0 - ALPHA, 1)
        if not _close(report["calibration_nominal_quantile"], nominal, 1e-9):
            bad.append("nominal quantile is not the chi-square(1) quantile")
        half = math.sqrt(report["calibration_calibrated_quantile"]) * se
        if not _close(report["calibrated_interval_high"], h + half, 1e-9, 1e-12):
            bad.append("calibrated interval does not match the calibrated quantile")
        return bad + self._fit_checks(report, inputs)


class AnimalDiagnose(AnimalWorkload):
    per_generation = 240  # N = 40 + 4 * 240 = 1000
    test_nsim = 150
    contiguity_nsim = 300

    def generate(self, seed: int, index: int, directory: str) -> dict:
        inputs = self._animal_inputs(seed, index, directory)
        self.write_config(
            directory,
            {
                "seed": inputs["cfg_seed"],
                "model": {"kind": "animal", "pedigree": "pedigree.csv"},
                "data": "y.csv",
                "alpha": ALPHA,
                "test_nsim": self.test_nsim,
                "contiguity_nsim": self.contiguity_nsim,
            },
        )
        return inputs

    def replicates(self, report: dict) -> tuple[int, int]:
        # two invariance samples, one normality sample, the contiguity sample
        attempted = 3 * self.test_nsim + self.contiguity_nsim
        nao = report["invariance_n_nao"] + report["normality_n_nao"] + report["contiguity_n_nao"]
        return attempted, int(nao)

    def check(self, report: dict, inputs: dict) -> list[str]:
        bad = _common_checks(report, inputs["cfg_seed"], self.command)
        if bad:
            return bad
        if report["quadraticity_points_per_axis"] != [9.0, 9.0, 9.0]:
            bad.append("quadraticity grid is not the default 9^3")
        if report["quadraticity_rudin_tail_bound"] != 2.0**-9:
            bad.append("quadraticity report did not use 8 nested boxes")
        for key in ("quadraticity_d0", "quadraticity_d1", "quadraticity_d2"):
            if not (isinstance(report[key], float) and 0.0 <= report[key] < math.inf):
                bad.append(f"{key} is {report[key]!r}")
        if not 0.0 <= report["quadraticity_rudin"] <= 0.5:
            bad.append("quadraticity_rudin lies outside [0, 1/2]")
        for prefix, summaries in (("invariance", 7), ("normality", 3)):
            if report[f"{prefix}_n_summaries"] != summaries:
                bad.append(f"{prefix}_n_summaries is not {summaries}")
            if not 0.0 <= report[f"{prefix}_p_value"] <= 1.0:
                bad.append(f"{prefix}_p_value lies outside [0, 1]")
        se = np.sqrt(np.diag(np.linalg.inv(np.asarray(report["fit_observed_info"]).reshape(3, 3))))
        if not np.allclose(report["contiguity_delta"], se / 2.0, rtol=1e-9, atol=0.0):
            bad.append("contiguity_delta is not half the standard errors")
        if not report["contiguity_se"] > 0.0:
            bad.append("contiguity_se is not positive")
        return bad + self._fit_checks(report, inputs)


class LamnDoubleBoot(Workload):
    dim = 3
    dof = 5.0
    B1 = 60
    B2 = 40

    def bytes_per_eval(self) -> int:
        return 8 * (self.dim * self.dim + self.dim)

    def generate(self, seed: int, index: int, directory: str) -> dict:
        rng = np.random.default_rng([seed, 2, index])
        theta = rng.uniform(-1.0, 1.0, self.dim)
        k = stats.wishart.rvs(df=self.dof, scale=np.eye(self.dim) / self.dof, random_state=rng)
        z = k @ theta + np.linalg.cholesky(k) @ rng.standard_normal(self.dim)
        _write_vector(os.path.join(directory, "zk.csv"), np.concatenate([z, k.ravel()]))
        cfg_seed = int(rng.integers(1, 2**31))
        self.write_config(
            directory,
            {
                "seed": cfg_seed,
                "model": {"kind": "wishart_lamn", "dim": self.dim, "dof": self.dof},
                "data": "zk.csv",
                "alpha": ALPHA,
                "B": self.B1,
                "double": True,
                "B2": self.B2,
            },
        )
        return {"z": z, "k": k, "cfg_seed": cfg_seed}

    def replicates(self, report: dict) -> tuple[int, int]:
        # single level, outer level, and one inner level per outer replicate;
        # the report does not count inner NaO replicates
        b1 = int(report["double_outer_B"])
        attempted = int(report["pivot_B"]) + b1 + b1 * int(report["double_B2"])
        return attempted, int(report["pivot_n_nao"]) + int(report["double_outer_n_nao"])

    def check(self, report: dict, inputs: dict) -> list[str]:
        bad = _common_checks(report, inputs["cfg_seed"], self.command)
        if bad:
            return bad
        z, k = inputs["z"], inputs["k"]
        # exactly quadratic: the estimate is k^{-1} z and the information is k
        if not np.allclose(report["fit_theta_hat"], np.linalg.solve(k, z), rtol=1e-9, atol=1e-12):
            bad.append("fit_theta_hat is not k^{-1} z")
        if not np.allclose(report["fit_observed_info"], k.ravel(), rtol=1e-12, atol=1e-15):
            bad.append("fit_observed_info is not k")
        nominal = stats.chi2.ppf(1.0 - ALPHA, self.dim)
        if not _close(report["calibration_nominal_quantile"], nominal, 1e-9):
            bad.append("nominal quantile is not the chi-square(3) quantile")
        for key, expected in (("pivot_B", self.B1), ("double_outer_B", self.B1), ("double_B2", self.B2)):
            if report[key] != expected:
                bad.append(f"{key} is {report[key]}, expected {expected}")
        if report["pivot_n_nao"] or report["double_outer_n_nao"]:
            bad.append("an exactly quadratic refit gave NaO")
        if not _close(report["calibrated_region_radius_sq"], report["calibration_calibrated_quantile"], 1e-15):
            bad.append("calibrated region radius is not the calibrated quantile")
        # single and outer levels use the same streams, so they agree exactly
        if not _close(report["pivot_mean"], report["double_outer_mean"], 1e-12):
            bad.append("single and outer bootstrap pivots differ")
        if not 0.0 <= report["double_coverage_rate"] <= 1.0:
            bad.append("double_coverage_rate lies outside [0, 1]")
        return bad


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        AnimalBoot("animal_boot_n200", "animal-study", workers=1,
                   probe_size=200, probe_loops=1600, probe_ref_s=0.0205),
        LamnDoubleBoot("lamn_double_boot", "bootstrap", workers=2,
                       probe_size=3, probe_loops=2000, probe_ref_s=0.032),
        AnimalDiagnose("animal_diagnose_n1000", "diagnose", workers=1,
                       probe_size=1000, probe_loops=60, probe_ref_s=0.023),
    )
}


def compare_to_reference(report: dict, reference: dict) -> list[str]:
    """Counts and strings exactly, floats within REFERENCE_RTOL."""
    bad = []
    if list(report) != list(reference):
        return [f"report keys differ from the reference: {sorted(set(report) ^ set(reference))}"]
    for key, ref in reference.items():
        got = report[key]
        if key.endswith(NOISE_SUFFIXES):
            continue
        if isinstance(ref, list):
            if not isinstance(got, list) or len(got) != len(ref):
                bad.append(f"{key}: length differs from the reference")
            elif not all(_close(g, r, REFERENCE_RTOL, REFERENCE_ATOL) for g, r in zip(got, ref)):
                bad.append(f"{key}: {got} differs from the reference {ref}")
        elif isinstance(ref, int) and isinstance(got, int) or isinstance(ref, str):
            if got != ref:
                bad.append(f"{key}: {got!r} differs from the reference {ref!r}")
        elif not isinstance(got, (int, float)) or not _close(got, ref, REFERENCE_RTOL, REFERENCE_ATOL):
            # a real printed without a fraction parses as an int, so a float
            # field may be an int on either side
            bad.append(f"{key}: {got!r} differs from the reference {ref!r}")
    return bad
