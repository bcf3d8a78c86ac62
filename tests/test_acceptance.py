"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; seeds are fixed so green runs stay green.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import time

import numpy as np
from scipy import stats

from quadlik import (
    AnimalModel,
    AnimalParams,
    Ar1Model,
    ConstantCurvature,
    GridBox,
    LamnSpec,
    WishartCurvature,
    ar1_expected_info,
    ar1_simulate_paths,
    calibrate,
    chisq_upper_quantile,
    confidence_region,
    contiguity_estimate,
    derive_rng,
    fit_mle,
    hessian_invariance_test,
    is_nao,
    lan_normal_location,
    local_shift,
    make_wald_pivot,
    newton_step,
    parametric_bootstrap,
    quadratic_mle,
    quadraticity_report,
    relationship_matrix,
    sample_lamn_batch,
    standardized_estimator,
)
from quadlik.core import QuadraticForm
from quadlik.inference import MleResult, fit_stack
from quadlik.newton import NewtonTrace
from quadlik.parallel import draw
from conftest import fd_gradient, fd_hessian, natural_loglik, rel_err


def announce(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_one_step_exactness():
    start = time.time()
    rng = derive_rng(1001)
    worst = 0.0
    for i in range(1000):
        p = (1, 2, 5)[i % 3]
        g = rng.standard_normal((p, p))
        k = g @ g.T + 0.1 * np.eye(p)
        q = QuadraticForm(rng.standard_normal(), rng.standard_normal(p), k)
        start_point = 3.0 * rng.standard_normal(p)
        step = newton_step(q.objective(), start_point)
        mle = quadratic_mle(q)
        assert not is_nao(step) and not is_nao(mle)
        worst = max(worst, rel_err(step, mle))
    elapsed = time.time() - start
    announce(
        "criterion 1 (one-step exactness)",
        worst < 1e-10,
        f"max relative gap {worst:.2e} over 1000 quadratics",
        elapsed,
        1.0,
    )


def test_criterion_2_lan_coverage():
    start = time.time()
    k = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = lan_normal_location(k)
    theta = np.array([0.4, -0.7])
    alpha = 0.05
    n_reps = 10_000
    # replication i draws from derive_rng(1002, i): one stack, one stacked fit
    datas = draw(model, [theta], n_reps, 1002, [()])
    thetas, infos, _, holds, _ = fit_stack(model, datas)
    # the stacked region test: ConfidenceRegion.contains on every row, NaN (a miss) where the fit is NaO
    wald = make_wald_pivot(model)(thetas, infos, np.tile(theta, (n_reps, 1)))
    inside = wald < chisq_upper_quantile(theta.size, alpha)
    # the looped fits and regions are the oracle on a prefix, bit for bit
    for i in range(500):
        data = model.simulate(theta, derive_rng(1002, i))
        assert data.tobytes() == datas[i].tobytes()
        fit = fit_mle(model, data)
        region = confidence_region(fit, alpha)
        assert holds[i] == (not is_nao(region))
        if holds[i]:
            assert thetas[i].tobytes() == fit.theta_hat.tobytes() and infos[i].tobytes() == fit.observed_info.tobytes()
        assert inside[i] == (holds[i] and region.contains(theta))
    coverage = int(inside.sum()) / n_reps
    elapsed = time.time() - start
    announce(
        "criterion 2 (LAN Wald coverage)",
        0.94 <= coverage <= 0.96,
        f"coverage {coverage:.4f} over {n_reps} replications",
        elapsed,
        30.0,
    )


def test_criterion_3_standardized_estimator_normality():
    start = time.time()
    spec = LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0))
    theta = np.array([0.3, -0.2])
    n_reps, n_sim = 20, 10_000
    passes = 0
    for rep in range(n_reps):
        rng = derive_rng(1003, rep)
        z, kk = sample_lamn_batch(spec, theta, n_sim, rng)
        theta_hat = np.linalg.solve(kk, z[..., None])[..., 0]
        w, v = np.linalg.eigh(kk)
        roots = np.einsum("nij,nj,nkj->nik", v, np.sqrt(w), v)
        t = np.einsum("nij,nj->ni", roots, theta_hat - theta)
        if rep == 0:
            # tie the vectorized harness to the operation contract
            for i in range(50):
                fit = MleResult(theta_hat[i], kk[i], NewtonTrace(0, True, 0.0))
                op_t = standardized_estimator(fit, theta)
                assert np.allclose(op_t, t[i], atol=1e-10)
        pvals = [stats.kstest(t[:, j], "norm").pvalue for j in range(2)]
        adjusted = min(1.0, 2 * min(pvals))
        passes += int(adjusted >= 0.01)
    elapsed = time.time() - start
    announce(
        "criterion 3 (standardized-estimator normality)",
        passes >= 19,
        f"{passes}/20 harness repetitions passed the per-coordinate KS at 0.01",
        elapsed,
        120.0,
    )


def test_criterion_4_contiguity():
    start = time.time()
    specs = {
        "lan": LamnSpec(2, ConstantCurvature(np.array([[2.0, 0.5], [0.5, 1.0]]))),
        "wishart": LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0)),
    }
    rng = derive_rng(1004)
    worst = 0.0
    for name, spec in specs.items():
        for i in range(5):
            delta = rng.uniform(-1.0, 1.0, size=2)
            mean, se, _ = contiguity_estimate(spec, delta, 100_000, 1004, stream=i + (0 if name == "lan" else 5))
            dev = abs(mean - 1.0) / se
            worst = max(worst, dev)
    elapsed = time.time() - start
    announce(
        "criterion 4 (contiguity identity)",
        worst <= 4.0,
        f"max |mean-1|/se = {worst:.2f} over 2 specs x 5 deltas at nsim=1e5",
        elapsed,
        60.0,
    )


def test_criterion_5_ar1_non_example():
    start = time.time()
    # (a) curvature distance identically zero for arbitrary data and anchors
    box = GridBox([-1.0], [1.0], [33])
    d2_max = 0.0
    for i, theta in enumerate((0.0, 0.5, 0.9)):
        model = Ar1Model(50, x0=1.0)
        data = model.simulate(np.array([theta]), derive_rng(1005, i))
        fit = fit_mle(model, data)
        assert fit.converged
        shifted = local_shift(model, data, fit.theta_hat, tau=1.0)
        d2_max = max(d2_max, quadraticity_report(shifted, np.zeros(1), box).d2)
    ok_a = d2_max == 0.0

    # (b) conditional-information recursion against Monte Carlo
    worst_dev = 0.0
    for theta in (0.0, 0.5, 0.9, 1.0):
        for n in (1, 5, 50):
            paths = ar1_simulate_paths(theta, n, 1.0, 100_000, derive_rng(1005, "mc", int(theta * 10), n))
            info = np.sum(paths[:, :-1] ** 2, axis=1)
            se = info.std(ddof=1) / np.sqrt(info.size)
            gap = abs(info.mean() - ar1_expected_info(theta, n, 1.0))
            if se == 0.0:
                # n = 1: the information is x0^2 with no randomness at all
                assert gap == 0.0
                continue
            worst_dev = max(worst_dev, gap / se)
    ok_b = worst_dev <= 4.0

    # (c) power of the invariance test across parameters
    rejections = 0
    for rep in range(20):
        model = Ar1Model(50, x0=1.0)
        report = hessian_invariance_test(
            model, np.array([0.0]), np.array([0.9]), 2000, 100_000 + rep
        )
        rejections += int(report.p_value < 0.01)
    ok_c = rejections >= 19

    elapsed = time.time() - start
    announce(
        "criterion 5 (AR(1) non-example)",
        ok_a and ok_b and ok_c,
        f"d2max={d2_max}, recursion dev={worst_dev:.2f}se, power {rejections}/20",
        elapsed,
        180.0,
    )


def _three_generation_pedigree_200():
    """Balanced design: 20 founder couples, 4 children each, then 2 children
    per cross-family mating of the middle generation.  The family structure
    carries strong variance-ratio information, keeping estimates away from
    the variance boundaries."""
    from quadlik import Pedigree, PedigreeRecord

    records = [PedigreeRecord(i + 1, None, None) for i in range(40)]
    next_id = 41
    gen1 = []
    for couple in range(20):
        sire, dam = 2 * couple + 1, 2 * couple + 2
        for _ in range(4):
            records.append(PedigreeRecord(next_id, sire, dam))
            gen1.append(next_id)
            next_id += 1
    families = np.array(gen1).reshape(20, 4)
    for fam in range(20):
        mate_family = (fam + 10) % 20
        for k in range(2):
            sire = int(families[fam, k])
            dam = int(families[mate_family, k + 2])
            for _ in range(2):
                records.append(PedigreeRecord(next_id, sire, dam))
                next_id += 1
    return Pedigree(tuple(records))


def test_criterion_6_animal_model():
    start = time.time()
    ped = _three_generation_pedigree_200()
    a = relationship_matrix(ped)
    assert a.size == 200
    model = AnimalModel(a)
    truth = AnimalParams(0.0, 1.33, 0.67)
    phi_truth = AnimalModel.params_to_phi(truth)
    h_true = float(np.log(truth.sigma2) - np.log(truth.tau2))

    # analytic derivatives against finite differences at N = 200
    y0 = model.simulate(phi_truth, derive_rng(1006, "fd"))
    point = np.array([truth.mu, truth.sigma2, truth.tau2])
    _, gradient_nat, hessian_nat = natural_loglik(model, y0, point)
    value_nat = lambda v: natural_loglik(model, y0, v)[0]
    ok_fd = (
        rel_err(gradient_nat, fd_gradient(value_nat, point)) < 1e-6
        and rel_err(hessian_nat, fd_hessian(value_nat, point)) < 1e-4
    )
    q0 = model.objective(y0)
    ev_log = q0(phi_truth)
    value_log = lambda v: q0(v).value
    ok_fd = ok_fd and rel_err(ev_log.gradient, fd_gradient(value_log, phi_truth)) < 1e-6
    ok_fd = ok_fd and rel_err(ev_log.hessian, fd_hessian(value_log, phi_truth)) < 1e-4

    from quadlik.cli import _heritability_pivot

    pivot = _heritability_pivot(model)
    kappa_wald = chisq_upper_quantile(1, 0.05)
    contrast = np.array([0.0, 1.0, -1.0])
    n_reps, B = 500, 300
    converged = 0
    wald_cover = 0
    cal_cover = 0
    calibrated_used = 0
    for rep in range(n_reps):
        y = model.simulate(phi_truth, derive_rng(1006, "rep", rep))
        fit = fit_mle(model, y)
        if not fit.converged:
            continue
        converged += 1
        h_hat = float(fit.theta_hat[1] - fit.theta_hat[2])
        var_h = float(contrast @ np.linalg.solve(fit.observed_info, contrast))
        if not var_h > 0:
            continue  # counted converged, excluded from both coverages
        t0_sq = (h_hat - h_true) ** 2 / var_h
        samples = parametric_bootstrap(
            model, fit.theta_hat, B, pivot, seed=200_000 + rep
        )
        if not samples.values.size:
            continue
        kappa_cal = calibrate(samples, 0.95, 1).calibrated_quantile
        wald_cover += int(t0_sq < kappa_wald)
        cal_cover += int(t0_sq < kappa_cal)
        calibrated_used += 1

    conv_rate = converged / n_reps
    wald_rate = wald_cover / calibrated_used
    cal_rate = cal_cover / calibrated_used
    ok_conv = conv_rate >= 0.99
    ok_wald = abs(wald_rate - 0.95) <= 0.03
    ok_cal = abs(cal_rate - 0.95) <= abs(wald_rate - 0.95)
    elapsed = time.time() - start
    announce(
        "criterion 6 (animal model, N=200)",
        ok_fd and ok_conv and ok_wald and ok_cal,
        f"fd={ok_fd}, convergence {conv_rate:.3f}, wald {wald_rate:.3f}, calibrated {cal_rate:.3f}",
        elapsed,
        600.0,
    )


def test_criterion_7_classical_comparison():
    start = time.time()
    from quadlik.cli import read_config, run_classical_comparison

    base = {
        "schema_version": 1,
        "seed": 1007,
        "experiment": "classical-comparison",
        "unit": "exponential",
        "psi": [1.0],
        "ladder": [10, 100, 1000, 10000],
        "replications": 100,
        # keep psi + delta/tau inside the positive-rate domain for tau = 1 too
        "box_halfwidth": 0.9,
    }
    record = run_classical_comparison(read_config(dict(base, tau="sqrt_n"), "."))
    assert record.get("status") == "ok"
    shrink = {j: record.get(f"median_d{j}") for j in range(3)}
    ok_shrink = all(
        all(b < a for a, b in zip(seq, seq[1:])) for seq in shrink.values()
    )
    record_flat = run_classical_comparison(read_config(dict(base, tau="one"), "."))
    assert record_flat.get("status") == "ok"
    flat = {j: record_flat.get(f"median_d{j}") for j in range(3)}
    ok_flat = all(all(b >= a for a, b in zip(seq, seq[1:])) for seq in flat.values())
    elapsed = time.time() - start
    announce(
        "criterion 7 (classical comparison)",
        ok_shrink and ok_flat,
        f"sqrt-n medians strictly decreasing={ok_shrink}, tau=1 non-decreasing={ok_flat}",
        elapsed,
        300.0,
    )


def test_criterion_8_pivot_law():
    start = time.time()
    k = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = lan_normal_location(k)
    theta = np.array([0.4, -0.7])
    pivot = make_wald_pivot(model)
    passes = 0
    for rep in range(20):
        data = model.simulate(theta, derive_rng(1008, rep))
        fit = fit_mle(model, data)
        samples = parametric_bootstrap(
            model, fit.theta_hat, 5000, pivot, seed=300_000 + rep
        )
        assert samples.n_nao == 0
        pval = stats.kstest(samples.values, lambda x: stats.chi2.cdf(x, 2)).pvalue
        passes += int(pval >= 0.01)
    elapsed = time.time() - start
    announce(
        "criterion 8 (bootstrap pivot law)",
        passes >= 19,
        f"{passes}/20 repetitions passed KS vs chi-square(2) at 0.01 with B=5000",
        elapsed,
        120.0,
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    import json

    from quadlik.cli import main
    from quadlik.models import save_vector_csv

    save_vector_csv(str(tmp_path / "z.csv"), np.array([0.7, -0.3]))
    save_vector_csv(str(tmp_path / "x.csv"), ar1_simulate_paths(0.3, 30, 1.0, 1, derive_rng(9))[0])
    configs = {
        "fit": {
            "model": {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}, "data": "z.csv",
        },
        "diagnose": {
            "model": {"kind": "ar1", "n": 30}, "data": "x.csv",
            "test_nsim": 120, "contiguity_nsim": 150, "theta_b": [0.9],
        },
        "bootstrap": {
            "model": {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}, "data": "z.csv",
            "B": 48, "double": True, "B2": 8, "dump_pivots": True,
        },
        "lamn-verify": {
            "spec": {"dim": 2, "curvature": {"kind": "wishart", "dof": 5.0}},
            "nsim": 4000, "n_deltas": 2, "test_nsim": 150,
        },
        "ar1-study": {
            "thetas": [0.0, 0.9], "n": 15, "mc_paths": 5000, "invariance_nsim": 150,
        },
        "animal-study": {
            "model": {"kind": "animal", "synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}},
            "truth": {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}, "B": 24,
        },
        "classical-comparison": {
            "unit": "exponential", "psi": [1.0], "ladder": [10, 50], "replications": 12,
        },
    }
    all_ok = True
    for name, extra in configs.items():
        cfg = {"schema_version": 1, "experiment": name, "seed": 77, "out": f"{name}-report"}
        cfg.update(extra)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for workers in ("1", "8"):
            code = main([name, "--config", str(cfg_path), "--workers", workers])
            assert code == 0, name
            blob = (tmp_path / f"{name}-report.json").read_bytes()
            blob += (tmp_path / f"{name}-report.txt").read_bytes()
            for spill in sorted(tmp_path.glob(f"{name}-report__*.csv")):
                blob += spill.read_bytes()
            blobs.append(blob)
        if blobs[0] != blobs[1]:
            all_ok = False
    elapsed = time.time() - start
    announce(
        "criterion 9 (CLI determinism across workers)",
        all_ok,
        "byte-identical reports for workers 1 and 8 across all 7 commands",
        elapsed,
        60.0,
    )
