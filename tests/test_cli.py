import json
import re
import warnings

import numpy as np
import pytest

import quadlik.cli
import quadlik.lamn
import quadlik.parallel
from quadlik.cli import EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_NAO, EXIT_OK, ReportRecord, main
from quadlik.funcspace import GridBox
from quadlik.models import (
    AnimalModel,
    ar1_simulate_paths,
    relationship_matrix,
    save_pedigree_csv,
    save_vector_csv,
    synthetic_pedigree,
)
from quadlik.rng import derive_rng


def write_config(tmp_path, name, **cfg):
    cfg.setdefault("schema_version", 1)
    cfg.setdefault("seed", 42)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(tmp_path, base):
    with open(tmp_path / f"{base}.json", "r") as handle:
        return json.load(handle)


def lan_setup(tmp_path):
    save_vector_csv(str(tmp_path / "z.csv"), np.array([0.7, -0.3]))
    return {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}


class TestReportRecord:
    def test_rejects_duplicate_keys(self):
        record = ReportRecord()
        record.put("a", 1)
        with pytest.raises(KeyError, match="duplicate report key 'a'"):
            record.put("a", 2)

    def test_seventeen_digit_floats(self):
        record = ReportRecord()
        record.put("x", 1.0 / 3.0)
        assert "0.33333333333333331" in record.to_json({})

    def test_bools_become_ints(self):
        record = ReportRecord()
        record.put("flag", True)
        assert record.get("flag") == 1

    def test_spill_over_threshold(self, tmp_path):
        record = ReportRecord()
        record.put("big", np.arange(100.0))
        base = str(tmp_path / "rep")
        record.write(base)
        report = read_report(tmp_path, "rep")
        assert report["big"] == "file:rep__big.csv"
        spilled = np.loadtxt(tmp_path / "rep__big.csv")
        assert np.array_equal(spilled, np.arange(100.0))


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv",
            out="r", typo_key=1,
        )
        assert main(["fit", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", schema_version=9, experiment="fit",
            model=lan_setup(tmp_path), data="z.csv", out="r",
        )
        assert main(["fit", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "experiment": "fit",
            "model": lan_setup(tmp_path), "data": "z.csv", "out": "r",
        }))
        assert main(["fit", "--config", str(path)]) == EXIT_INPUT_ERROR

    def test_experiment_command_mismatch(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="r",
        )
        assert main(["diagnose", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["fit", "--config", str(path)]) == EXIT_INPUT_ERROR

    def test_missing_out(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv")
        assert main(["fit", "--config", cfg]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "experiment, extra, message",
        [
            ("fit", {"seed": -1}, "config.seed"),
            ("lamn-verify", {"seed": -5}, "config.seed"),
            ("fit", {"alpha": 1.5}, "config.alpha"),
            ("fit", {"alpha": 0.0}, "config.alpha"),
            ("fit", {"alpha": 1}, "config.alpha"),
            ("bootstrap", {"alpha": -0.1, "B": 4}, "config.alpha"),
            ("fit-nao", {"alpha": 1.5}, "config.alpha"),
        ],
        ids=["seed-negative", "lamn-seed-negative", "alpha-above-one", "alpha-zero", "alpha-one",
             "bootstrap-alpha-negative", "alpha-on-nao-data"],
    )
    def test_seed_and_alpha_checked_before_the_fit(self, tmp_path, capsys, monkeypatch, experiment, extra, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("the config should be rejected before any fit")

        monkeypatch.setattr(quadlik.cli, "fit_mle", no_fit)
        if experiment == "lamn-verify":
            cfg = {"spec": {"dim": 2, "curvature": {"kind": "constant", "k": [[1.0, 0.0], [0.0, 1.0]]}}}
        elif experiment == "fit-nao":
            # data whose fit ends NaO: the rate start 1 / mean(x) = 1 / 0 lies outside the domain
            experiment = "fit"
            save_vector_csv(str(tmp_path / "x.csv"), np.zeros(3))
            cfg = {"model": {"kind": "iid_exponential", "n": 3}, "data": "x.csv"}
        else:
            cfg = {"model": lan_setup(tmp_path), "data": "z.csv"}
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg, **extra)
        assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="r",
        )
        assert main(["fit", "--config", cfg, "--workers", workers]) == EXIT_INPUT_ERROR
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestFitCommand:
    def test_lan_fit_is_closed_form(self, tmp_path):
        model = lan_setup(tmp_path)
        cfg = write_config(tmp_path, "c.json", experiment="fit", model=model, data="z.csv", out="r")
        assert main(["fit", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        k = np.array(model["k"])
        expected = np.linalg.solve(k, [0.7, -0.3])
        assert np.allclose(report["fit_theta_hat"], expected, atol=1e-10)
        assert report["status"] == "ok"

    def test_nao_exit_code(self, tmp_path):
        model = lan_setup(tmp_path)
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model=model, data="z.csv", out="r", max_steps=0,
        )
        assert main(["fit", "--config", cfg]) == EXIT_NAO
        assert read_report(tmp_path, "r")["status"] == "NaO"

    def test_malformed_pedigree_reports_line(self, tmp_path, capsys):
        (tmp_path / "ped.csv").write_text("id,sire,dam\n1,,\n2,9,\n")
        save_vector_csv(str(tmp_path / "y.csv"), np.zeros(2))
        cfg = write_config(
            tmp_path, "c.json", experiment="fit",
            model={"kind": "animal", "pedigree": "ped.csv"}, data="y.csv", out="r",
        )
        assert main(["fit", "--config", cfg]) == EXIT_INPUT_ERROR
        assert "line 3" in capsys.readouterr().err

    def test_wishart_data_with_non_definite_k_names_a_line(self, tmp_path, capsys):
        save_vector_csv(str(tmp_path / "d.csv"), np.array([0.3, -0.2, 1.0, 0.0, 0.0, -1.0]))
        cfg = write_config(
            tmp_path, "c.json", experiment="fit",
            model={"kind": "wishart_lamn", "dim": 2, "dof": 3.0}, data="d.csv", out="r",
        )
        assert main(["fit", "--config", cfg]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"quadlik: error: {tmp_path / 'd.csv'}: line 1: k (values 3 to 6)")
        assert not (tmp_path / "r.json").exists()

    def test_missing_data_file(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="nope.csv", out="r",
        )
        assert main(["fit", "--config", cfg]) == EXIT_INPUT_ERROR


class TestDiagnoseCommand:
    def test_ar1_non_example_signature(self, tmp_path):
        save_vector_csv(str(tmp_path / "x.csv"), ar1_simulate_paths(0.0, 50, 1.0, 1, derive_rng(3))[0])
        cfg = write_config(
            tmp_path, "c.json", experiment="diagnose",
            model={"kind": "ar1", "n": 50}, data="x.csv", out="r",
            theta_b=[0.9], test_nsim=600, contiguity_nsim=500,
        )
        assert main(["diagnose", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert report["quadraticity_d2"] == 0.0
        assert report["invariance_p_value"] < 0.01
        assert abs(report["contiguity_mean"] - 1.0) <= 4 * report["contiguity_se"]

    def test_lan_all_quadraticity_zero(self, tmp_path):
        model = lan_setup(tmp_path)
        cfg = write_config(
            tmp_path, "c.json", experiment="diagnose", model=model, data="z.csv", out="r",
            test_nsim=200, contiguity_nsim=200,
        )
        assert main(["diagnose", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert report["quadraticity_d0"] < 1e-10
        assert report["quadraticity_d1"] < 1e-10
        assert report["quadraticity_d2"] == 0.0
        assert report["invariance_p_value"] > 0.01


class TestBootstrapCommand:
    def test_seed_repetition_identical_pivots(self, tmp_path):
        model = lan_setup(tmp_path)
        cfg = write_config(
            tmp_path, "c.json", experiment="bootstrap", model=model, data="z.csv",
            B=40, dump_pivots=True, out="r",
        )
        assert main(["bootstrap", "--config", cfg]) == EXIT_OK
        first = np.loadtxt(tmp_path / "r__pivot_values.csv")
        assert main(["bootstrap", "--config", cfg]) == EXIT_OK
        second = np.loadtxt(tmp_path / "r__pivot_values.csv")
        assert np.array_equal(first, second)

    def test_smoke_b2(self, tmp_path):
        model = lan_setup(tmp_path)
        cfg = write_config(
            tmp_path, "c.json", experiment="bootstrap", model=model, data="z.csv", B=2, out="r",
        )
        assert main(["bootstrap", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert report["pivot_B"] == 2
        assert "calibration_calibrated_quantile" in report

    def test_double_requires_b2(self, tmp_path):
        model = lan_setup(tmp_path)
        cfg = write_config(
            tmp_path, "c.json", experiment="bootstrap", model=model, data="z.csv",
            B=2, double=True, out="r",
        )
        assert main(["bootstrap", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_double_runs_its_outer_level_once(self, tmp_path, monkeypatch):
        # the single bootstrap's samples come from the double bootstrap's outer level
        def single(*args, **kwargs):
            raise AssertionError("a double bootstrap should not run the single bootstrap as well")

        monkeypatch.setattr(quadlik.cli, "parametric_bootstrap", single)
        cfg = write_config(
            tmp_path, "c.json", experiment="bootstrap", model=lan_setup(tmp_path), data="z.csv",
            B=6, double=True, B2=4, out="r",
        )
        assert main(["bootstrap", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert report["pivot_B"] == report["double_outer_B"] == 6
        assert report["pivot_mean"] == report["double_outer_mean"]


class TestDeterminism:
    def test_animal_study_golden_across_runs_and_workers(self, tmp_path):
        ped = synthetic_pedigree(6, 7, 2, 11)
        save_pedigree_csv(str(tmp_path / "ped.csv"), ped)
        cfg = write_config(
            tmp_path, "c.json", experiment="animal-study",
            model={"kind": "animal", "pedigree": "ped.csv"},
            truth={"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}, B=16, out="r",
        )
        outputs = []
        for workers in ("1", "8", "1"):
            assert main(["animal-study", "--config", cfg, "--workers", workers]) == EXIT_OK
            outputs.append((tmp_path / "r.json").read_bytes() + (tmp_path / "r.txt").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_lamn_verify_workers_invariant(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="lamn-verify",
            spec={"dim": 2, "curvature": {"kind": "wishart", "dof": 5.0}},
            nsim=5000, n_deltas=2, test_nsim=200, out="r",
        )
        blobs = []
        for workers in ("1", "4"):
            assert main(["lamn-verify", "--config", cfg, "--workers", workers]) == EXIT_OK
            blobs.append((tmp_path / "r.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestStudies:
    def test_ar1_study_recursion_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="ar1-study", thetas=[0.0, 0.9], n=10,
            mc_paths=20000, invariance_nsim=400, out="r",
        )
        assert main(["ar1-study", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        for idx in (0, 1):
            assert report[f"info_{idx}_dev_se"] <= 4.0
        assert report["quadraticity_d2"] == 0.0

    def test_classical_comparison_shrinks_with_sqrt_n(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="classical-comparison", unit="exponential",
            psi=[1.0], ladder=[10, 1000], replications=30, out="r",
        )
        assert main(["classical-comparison", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert report["median_d0"][1] < report["median_d0"][0]
        assert report["median_d2"][1] < report["median_d2"][0]

    def test_classical_comparison_single_rung(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="classical-comparison", unit="normal",
            psi=[0.0], ladder=[50], replications=5, out="r",
        )
        assert main(["classical-comparison", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert len(report["median_d0"]) == 1
        assert report["median_d2"][0] == 0.0  # exactly quadratic unit

    def test_animal_study_reports_interval(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="animal-study",
            model={"kind": "animal", "synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}},
            truth={"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}, B=24, out="r",
        )
        assert main(["animal-study", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert report["wald_interval_low"] < report["animal_logit_heritability"] < report["wald_interval_high"]
        assert "calibrated_interval_low" in report

class TestCountValidation:
    SYNTHETIC = {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}

    @pytest.mark.parametrize(
        "experiment, block, key",
        [
            ("fit", {"model": {"kind": "ar1", "n": 0}}, "config.model.n"),
            ("fit", {"model": {"kind": "iid_normal", "p": 1, "n": 0}}, "config.model.n"),
            ("fit", {"model": {"kind": "iid_exponential", "n": -3}}, "config.model.n"),
            ("fit", {"model": {"kind": "iid_normal", "p": -1, "n": 3}}, "config.model.p"),
            ("fit", {"model": {"kind": "wishart_lamn", "dim": 0, "dof": 3.0}}, "config.model.dim"),
            ("lamn-verify", {"spec": {"dim": 0, "curvature": {"kind": "wishart", "dof": 3.0}}}, "config.spec.dim"),
            ("fit", {"synthetic": {"founders": 1}}, "config.model.synthetic.founders"),
            ("fit", {"synthetic": {"per_generation": -2}}, "config.model.synthetic.per_generation"),
            ("fit", {"synthetic": {"generations": -1}}, "config.model.synthetic.generations"),
            ("fit", {"synthetic": {"seed": -1}}, "config.model.synthetic.seed"),
            # one child a generation has no two parents to draw for the next
            ("fit", {"synthetic": {"per_generation": 1, "generations": 2}}, "per_generation"),
            # the spread of one path, info.std(ddof=1), warned and exited 2
            ("ar1-study", {"thetas": [0.5], "n": 10, "mc_paths": 1}, "config.mc_paths: must be a count of at least 2, got 1"),
        ],
        ids=["ar1-n", "iid_normal-n", "iid_exponential-n", "iid_normal-p", "wishart-dim", "spec-dim",
             "founders", "per_generation", "generations", "pedigree-seed", "one-child-generations", "one-path"],
    )
    def test_count_keys_name_themselves(self, tmp_path, capsys, experiment, block, key):
        if "synthetic" in block:
            block = {"model": {"kind": "animal", "synthetic": {**self.SYNTHETIC, **block["synthetic"]}}}
        if experiment == "fit":
            block = {**block, "data": "x.csv"}
        cfg = write_config(tmp_path, "c.json", experiment=experiment, out="r", **block)
        assert main([experiment, "--config", cfg]) == EXIT_INPUT_ERROR
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.txt").exists()

    def test_nonpositive_counts_rejected(self, tmp_path):
        model = lan_setup(tmp_path)
        cfg = write_config(
            tmp_path, "c.json", experiment="bootstrap", model=model, data="z.csv",
            B=0, out="r",
        )
        assert main(["bootstrap", "--config", cfg]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "ladder", [[10, 0], [2.7], ["5"], [True]], ids=["zero", "fraction", "string", "bool"]
    )
    def test_bad_ladder_rejected(self, tmp_path, capsys, ladder):
        cfg = write_config(
            tmp_path, "c.json", experiment="classical-comparison", unit="normal",
            psi=[0.0], ladder=ladder, out="r",
        )
        assert main(["classical-comparison", "--config", cfg]) == EXIT_INPUT_ERROR
        assert "config.ladder" in capsys.readouterr().err


class TestBoxValidation:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("box_halfwidth", True),
            ("points_per_axis", [2.7]),
            ("box_halfwidth", "wide"),
            ("points_per_axis", [5, 5, 5]),
        ],
    )
    def test_bad_box_value_names_key(self, tmp_path, capsys, key, value):
        cfg = write_config(
            tmp_path, "c.json", experiment="diagnose", model=lan_setup(tmp_path), data="z.csv",
            out="r", test_nsim=50, contiguity_nsim=50, **{key: value},
        )
        assert main(["diagnose", "--config", cfg]) == EXIT_INPUT_ERROR
        assert f"config.{key}" in capsys.readouterr().err

    def test_per_axis_lists_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="diagnose", model=lan_setup(tmp_path), data="z.csv",
            out="r", test_nsim=50, contiguity_nsim=50, box_halfwidth=[1, 0.5], points_per_axis=[5, 3],
        )
        assert main(["diagnose", "--config", cfg]) == EXIT_OK
        assert read_report(tmp_path, "r")["quadraticity_points_per_axis"] == [5, 3]


class TestSampleSizeAndBoxKeys:
    """Sample sizes are counts of at least 2, box half-widths positive and
    finite and ``thetas`` non-empty; a bad value exits 1 naming its key,
    before any fit or simulation."""

    @pytest.mark.parametrize(
        "experiment, key, value, message",
        [
            ("diagnose", "test_nsim", 1, "at least 2"),
            ("diagnose", "contiguity_nsim", 1, "at least 2"),
            ("lamn-verify", "test_nsim", 1, "at least 2"),
            ("lamn-verify", "nsim", 1, "at least 2"),
            ("ar1-study", "invariance_nsim", 1, "at least 2"),
            ("diagnose", "box_halfwidth", 0, "positive and finite"),
            ("diagnose", "box_halfwidth", -1, "positive and finite"),
            ("diagnose", "box_halfwidth", [1.0, 0.0], "positive and finite"),
            ("ar1-study", "box_halfwidth", -0.5, "positive and finite"),
            ("ar1-study", "thetas", [], "non-empty"),
        ],
        ids=[
            "diagnose-test_nsim", "diagnose-contiguity_nsim", "lamn-test_nsim", "lamn-nsim",
            "ar1-invariance_nsim", "box-zero", "box-negative", "box-axis-zero", "ar1-box-negative", "ar1-thetas-empty",
        ],
    )
    def test_rejected_before_the_work(self, tmp_path, capsys, monkeypatch, experiment, key, value, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the config should be rejected before any fit or simulation")

        for name in ("fit_mle", "contiguity_estimate", "ar1_simulate_paths"):
            monkeypatch.setattr(quadlik.cli, name, no_work)
        if experiment == "diagnose":
            cfg = {"model": lan_setup(tmp_path), "data": "z.csv"}
        elif experiment == "lamn-verify":
            cfg = {"spec": {"dim": 2, "curvature": {"kind": "constant", "k": [[1.0, 0.0], [0.0, 1.0]]}}}
        else:
            cfg = {"n": 10}
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg, **{key: value})
        assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"config.{key}" in err and message in err
        assert not (tmp_path / "r.json").exists()

    def test_two_replicates_run(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="diagnose", model=lan_setup(tmp_path), data="z.csv",
            out="r", test_nsim=2, contiguity_nsim=2,
        )
        assert main(["diagnose", "--config", cfg]) == EXIT_OK
        report = read_report(tmp_path, "r")
        assert report["normality_n_nao"] == 0 and report["contiguity_n_nao"] == 0

    def test_overflowing_box_exits_without_a_warning(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(quadlik.cli, "fit_mle", lambda *a, **k: pytest.fail("fit before the box check"))
        cfg = write_config(
            tmp_path, "c.json", experiment="diagnose", model=lan_setup(tmp_path), data="z.csv",
            out="r", box_halfwidth=1e308,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["diagnose", "--config", cfg]) == EXIT_INPUT_ERROR
        assert "overflows" in capsys.readouterr().err


class TestRealValidation:
    @pytest.mark.parametrize(
        "experiment, extra, key",
        [
            ("diagnose", {"theta_b": [True, "1.5"], "test_nsim": 50, "contiguity_nsim": 50}, "config.theta_b"),
            ("fit", {"model": {"kind": "lan", "k": [[True, 0], [0, "2"]]}}, "config.model.k"),
        ],
        ids=["vector", "matrix"],
    )
    def test_booleans_and_strings_rejected(self, tmp_path, capsys, experiment, extra, key):
        cfg = {"model": lan_setup(tmp_path), "data": "z.csv", "out": "r"}
        cfg.update(extra)
        path = write_config(tmp_path, "c.json", experiment=experiment, **cfg)
        assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        assert key in capsys.readouterr().err


class TestNonFiniteReals:
    """Python's ``json`` reads ``NaN``, ``Infinity`` and ``-1e400`` (as -inf);
    any of them, or an integer past the float range, exits 1 naming its key."""

    LAMN_SPEC = {"dim": 2, "curvature": {"kind": "constant", "k": [[1.0, 0.0], [0.0, 1.0]]}}

    @pytest.mark.parametrize(
        "experiment, extra, raw, key",
        [
            ("lamn-verify", {"delta_scale": float("nan")}, None, "config.delta_scale"),
            ("lamn-verify", {"delta_scale": "RAW"}, "-1e400", "config.delta_scale"),
            ("lamn-verify", {"theta_b": [float("nan"), 1.0]}, None, "config.theta_b"),
            ("ar1-study", {"theta_b": float("inf")}, None, "config.theta_b"),
            ("ar1-study", {"x0": 10**400}, None, "config.x0"),
            ("fit", {"model": {"kind": "lan", "k": [[float("inf"), 0.0], [0.0, 1.0]]}}, None, "config.model.k"),
            ("fit", {"model": {"kind": "lan", "k": [[1.0, 0.0], [0.0, "RAW"]]}}, "1e400", "config.model.k"),
        ],
        ids=["delta_scale-nan", "delta_scale-minus-1e400", "theta_b-vector-nan", "theta_b-infinity",
             "x0-huge-integer", "model.k-infinity", "model.k-1e400"],
    )
    def test_rejected_naming_key(self, tmp_path, capsys, monkeypatch, experiment, extra, raw, key):
        for name in ("fit_mle", "contiguity_estimate", "ar1_simulate_paths"):
            monkeypatch.setattr(quadlik.cli, name, lambda *a, **k: pytest.fail("work before the config check"))
        if experiment == "lamn-verify":
            cfg = {"spec": self.LAMN_SPEC, "nsim": 100, "n_deltas": 1, "test_nsim": 50}
        elif experiment == "ar1-study":
            cfg = {"n": 10}
        else:
            cfg = {"model": lan_setup(tmp_path), "data": "z.csv"}
        cfg.update(extra)
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        if raw is not None:
            with open(path, encoding="utf8") as handle:
                text = handle.read().replace('"RAW"', raw)
            with open(path, "w", encoding="utf8") as handle:
                handle.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestAnimalStudyKeys:
    @pytest.mark.parametrize("key, value", [("box_halfwidth", True), ("points_per_axis", "x")])
    def test_unused_box_keys_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(
            tmp_path, "c.json", experiment="animal-study",
            model={"kind": "animal", "synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}},
            truth={"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}, out="r", **{key: value},
        )
        assert main(["animal-study", "--config", cfg]) == EXIT_INPUT_ERROR
        assert "unknown keys" in capsys.readouterr().err


class TestVectorLength:
    @pytest.mark.parametrize(
        "experiment, extra, key",
        [
            ("diagnose", {"theta_b": [1.0]}, "theta_b"),
            ("diagnose", {"contiguity_delta": [1, 2, 3]}, "contiguity_delta"),
            ("lamn-verify", {"theta_a": [0.0]}, "theta_a"),
            ("lamn-verify", {"theta_b": [1.0, 1.0, 1.0]}, "theta_b"),
        ],
        ids=["diagnose-theta_b", "diagnose-contiguity_delta", "lamn-theta_a", "lamn-theta_b"],
    )
    def test_wrong_length_names_key(self, tmp_path, capsys, experiment, extra, key):
        if experiment == "diagnose":
            cfg = {"model": lan_setup(tmp_path), "data": "z.csv", "test_nsim": 50, "contiguity_nsim": 50}
        else:
            cfg = {
                "spec": {"dim": 2, "curvature": {"kind": "constant", "k": [[1.0, 0.0], [0.0, 1.0]]}},
                "nsim": 100, "n_deltas": 1, "test_nsim": 50,
            }
        cfg.update(extra)
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"config.{key}" in err and "parameter dimension 2" in err
        assert not (tmp_path / "r.json").exists()


class TestNaoStart:
    def test_nao_start_exits_nao(self, tmp_path):
        # for a sample of zeros the rate start 1 / mean(x) is 1 / 0, outside the
        # positive domain (a negative observation is an input error)
        save_vector_csv(str(tmp_path / "x.csv"), np.zeros(3))
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model={"kind": "iid_exponential", "n": 3},
            data="x.csv", out="r",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg]) == EXIT_NAO
        report = read_report(tmp_path, "r")
        assert report["status"] == "NaO"
        assert report["fit_newton_steps"] == 0
        assert report["fit_newton_converged"] == 0

    def test_rate_start_near_the_float_maximum(self, tmp_path):
        # the start 1 / mean(x) = 5e299 squares to inf; the fit stops there at once
        save_vector_csv(str(tmp_path / "x.csv"), np.array([1e-300, 2e-300, 3e-300]))
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model={"kind": "iid_exponential", "n": 3}, data="x.csv", out="r"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg]) == EXIT_NAO
        # its information, 0, fails the pivot test: the fit is NaO and not converged
        assert (tmp_path / "r.json").read_text() == (
            '{\n  "schema_version": 1,\n  "experiment": "fit",\n  "seed": 42,\n'
            '  "model_kind": "iid_exponential",\n  "alpha": 0.050000000000000003,\n'
            '  "fit_newton_steps": 0,\n  "fit_newton_converged": 0,\n  "fit_newton_final_grad_norm": 0,\n'
            '  "status": "NaO"\n}\n'
        )


class TestInternalError:
    def test_unclassified_exception_exits_three_with_traceback(self, tmp_path, capsys, monkeypatch):
        self.check(tmp_path, capsys, monkeypatch, RuntimeError("a bug, not an input error"))

    def test_linalg_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # a ValueError subclass, but no input should raise one
        self.check(tmp_path, capsys, monkeypatch, np.linalg.LinAlgError("Singular matrix"))

    def test_plain_value_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # only the classified input errors exit 1
        self.check(tmp_path, capsys, monkeypatch, ValueError("a bug"))

    @staticmethod
    def check(tmp_path, capsys, monkeypatch, error):
        def broken(cfg):
            raise error

        monkeypatch.setitem(quadlik.cli.RUNNERS, "fit", broken)
        cfg = write_config(tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="r")
        assert main(["fit", "--config", cfg]) == EXIT_INTERNAL_ERROR == 3
        err = capsys.readouterr().err
        assert err.startswith("quadlik: internal error\n")
        assert "Traceback" in err and f"{type(error).__name__}: {error}" in err
        assert not (tmp_path / "r.json").exists()

    def test_duplicate_report_key_exits_three(self, tmp_path, capsys, monkeypatch):
        def twice(cfg):
            record = quadlik.cli._start_record(cfg)
            record.put("seed", 1)
            return record

        monkeypatch.setitem(quadlik.cli.RUNNERS, "fit", twice)
        cfg = write_config(tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="r")
        assert main(["fit", "--config", cfg]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert err.startswith("quadlik: internal error\n")
        assert "KeyError: \"duplicate report key 'seed'\"" in err
        assert not (tmp_path / "r.json").exists()


class TestStepAndReplicateCounts:
    @pytest.mark.parametrize(
        "experiment, extra, message",
        [
            ("fit", {"max_steps": -7}, "config.max_steps"),
            ("fit", {"max_steps": 2.5}, "config.max_steps"),
            ("fit", {"max_steps": True}, "config.max_steps"),
            ("bootstrap", {"B": 5, "max_steps": 0}, "max_steps"),
            ("animal-study", {"B": -4}, "config.B"),
            ("animal-study", {"B": "200"}, "config.B"),
            # B2 is a positive count wherever it is given
            ("bootstrap", {"B": 3, "B2": 0}, "config.B2: must be a positive count"),
            ("bootstrap", {"B": 3, "B2": -3}, "config.B2: must be a positive count"),
            ("bootstrap", {"B": 3, "B2": 0, "double": True}, "config.B2: must be a positive count"),
        ],
        ids=["fit-negative", "fit-fraction", "fit-bool", "bootstrap-unread", "animal-negative", "animal-string",
             "b2-zero", "b2-negative", "b2-zero-double"],
    )
    def test_bad_count_exits_input_error(self, tmp_path, capsys, experiment, extra, message):
        if experiment == "animal-study":
            cfg = {
                "model": {"kind": "animal", "synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}},
                "truth": {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0},
            }
        else:
            cfg = {"model": lan_setup(tmp_path), "data": "z.csv"}
        cfg.update(extra)
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_zero_bootstrap_size_skips_the_bootstrap(self, tmp_path):
        path = write_config(
            tmp_path, "c.json", experiment="animal-study", out="r", B=0,
            model={"kind": "animal", "synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}},
            truth={"mu": 0.0, "sigma2": 1.0, "tau2": 1.0},
        )
        assert main(["animal-study", "--config", path]) == EXIT_OK
        assert "pivot_B" not in read_report(tmp_path, "r")


class TestWishartDof:
    @pytest.mark.parametrize(
        "experiment, dof, key",
        [("fit", 0, "config.model.dof"), ("lamn-verify", -1, "config.spec.curvature.dof")],
        ids=["fit-model", "lamn-verify-spec"],
    )
    def test_dof_at_or_below_dim_minus_one_names_key(self, tmp_path, capsys, experiment, dof, key):
        if experiment == "fit":
            save_vector_csv(str(tmp_path / "d.csv"), np.array([0.5, -0.2, 1.0, 0.1, 0.1, 2.0]))
            cfg = {"model": {"kind": "wishart_lamn", "dim": 2, "dof": dof}, "data": "d.csv"}
        else:
            cfg = {"spec": {"dim": 2, "curvature": {"kind": "wishart", "dof": dof}}, "nsim": 100, "n_deltas": 1}
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestNonFiniteMonteCarloChecks:
    """A Monte Carlo check whose mean or standard error is not finite, or that
    is left with too few usable replicates, is NaO.  One whose standard error
    is 0 is 0 standard errors off its target where its mean is the target,
    and inf where it is not."""

    def run(self, tmp_path, experiment, **cfg):
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([experiment, "--config", path])
        return code, read_report(tmp_path, "r")

    def test_lamn_verify_overflowing_contiguity(self, tmp_path):
        spec = {"dim": 2, "curvature": {"kind": "wishart", "dof": 4}}
        code, report = self.run(tmp_path, "lamn-verify", spec=spec, nsim=200, n_deltas=2, delta_scale=1e200)
        assert code == EXIT_NAO and report["status"] == "NaO"
        assert report["contiguity_0_mean"] == report["contiguity_0_se"] == "nan"
        assert report["contiguity_0_dev_se"] == report["contiguity_max_dev_se"] == "nan"

    def test_lamn_verify_underflowing_contiguity(self, tmp_path):
        # at delta_scale 1000 every exp(q) underflows to 0: a mean of 0 with se 0 fails the check
        spec = {"dim": 1, "curvature": {"kind": "constant", "k": [[1]]}}
        code, report = self.run(tmp_path, "lamn-verify", seed=1, spec=spec, nsim=2000, n_deltas=3, delta_scale=1000,
                                test_nsim=200)
        assert code == EXIT_OK
        for i in range(3):
            assert report[f"contiguity_{i}_mean"] == report[f"contiguity_{i}_se"] == 0
            assert report[f"contiguity_{i}_dev_se"] == "inf"
        assert report["contiguity_max_dev_se"] == "inf"

    def test_ar1_study_constant_information(self, tmp_path):
        # at n = 1 every path's information is x0^2, the recursion's: se 0, and 0 off
        code, report = self.run(tmp_path, "ar1-study", thetas=[0.5], n=1, mc_paths=50, invariance_nsim=20)
        assert code == EXIT_OK and report["info_0_mc_se"] == 0 and report["info_0_dev_se"] == 0

    def test_ar1_study_exploding_paths(self, tmp_path):
        code, report = self.run(tmp_path, "ar1-study", thetas=[0.5, 1e200], n=10, mc_paths=200)
        assert code == EXIT_NAO and report["status"] == "NaO"
        assert report["info_0_dev_se"] <= 4.0
        assert report["info_1_mc_se"] == report["info_1_dev_se"] == "nan"

    def test_ar1_study_overflowing_start(self, tmp_path):
        # x0 ** 2 overflows: the recursion's expected information is inf, not a traceback
        code, report = self.run(tmp_path, "ar1-study", thetas=[0.5], n=10, x0=1e200, mc_paths=100)
        assert code == EXIT_NAO and report["status"] == "NaO"
        assert report["info_0_recursion"] == "inf" and report["info_0_dev_se"] == "nan"

    def test_ar1_study_exploding_invariance_draws(self, tmp_path):
        # at theta_b = 1e200 the model's stacked draws and its kernel overflow:
        # every invariance replicate is NaO, without a numeric warning
        code, report = self.run(tmp_path, "ar1-study", thetas=[0.5], theta_b=1e200, n=10, invariance_nsim=50)
        assert code == EXIT_NAO and report["status"] == "NaO"

    def test_ar1_study_exploding_data(self, tmp_path):
        # at theta_a = 1e200 the simulated path explodes: its fit is NaO, not an input error
        code, report = self.run(tmp_path, "ar1-study", thetas=[0.5], theta_a=1e200, n=10, mc_paths=100, invariance_nsim=50)
        assert code == EXIT_NAO and report["status"] == "NaO"
        assert report["fit_newton_converged"] == 0 and "fit_theta_hat" not in report

    def test_diagnose_fit_at_the_variance_boundary(self, tmp_path):
        # the fit converges at log sigma2 = -18 with almost no information on
        # that axis, so the default theta_b = theta_hat + se puts log sigma2
        # past the bound where the model has no draws: every replicate there is NaO
        save_pedigree_csv(str(tmp_path / "ped.csv"), synthetic_pedigree(6, 7, 2, 3))
        save_vector_csv(str(tmp_path / "y.csv"), derive_rng(2, "y").standard_normal(20))
        code, report = self.run(
            tmp_path, "diagnose", seed=1, model={"kind": "animal", "pedigree": "ped.csv"}, data="y.csv",
            test_nsim=60, contiguity_nsim=60,
        )
        assert code == EXIT_NAO and report["status"] == "NaO"
        assert report["fit_newton_converged"] == 1 and report["fit_theta_hat"][1] < -18
        assert report["invariance_theta_b"][1] > 700
        assert report["invariance_p_value"] == "nan" and report["invariance_n_summaries"] == 0
        assert report["contiguity_mean"] == "nan" and report["contiguity_n_nao"] == 60


class TestClassicalExponentialPsi:
    """The exponential unit's psi is one finite positive rate, whose information
    is finite at the ladder's largest rung."""

    @pytest.mark.parametrize(
        "psi", [[0], [-1], [1, 2], [1e-300], [1e300], [1e-154]],
        ids=["zero", "negative", "two-entries", "information-overflows", "information-underflows",
             "rung-information-overflows"],
    )
    def test_bad_rate_names_key(self, tmp_path, capsys, psi):
        path = write_config(
            tmp_path, "c.json", experiment="classical-comparison", out="r",
            unit="exponential", psi=psi, ladder=[10], replications=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classical-comparison", "--config", path]) == EXIT_INPUT_ERROR
        assert "config.psi" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestClassicalLadderBounds:
    """A ladder count must fit a report real exactly, and the largest rung's
    draw must fit in physical memory; both are checked before any draw."""

    @pytest.mark.parametrize("ladder, named", [([10**400], "config.ladder"), ([10, 2**53 + 1], "config.ladder"),
                                               ([10**12], "config.replications: its draw at n = 1000000000000 holds 3 rows")],
                             ids=["past-a-double", "past-2**53", "past-physical-memory"])
    def test_rejected_before_any_draw(self, tmp_path, capsys, monkeypatch, ladder, named):
        def no_draw(*args):
            raise AssertionError("the ladder was drawn")

        monkeypatch.setattr(quadlik.cli, "draw", no_draw)
        path = write_config(
            tmp_path, "c.json", experiment="classical-comparison", out="r",
            unit="exponential", ladder=ladder, replications=3,
        )
        assert main(["classical-comparison", "--config", path]) == EXIT_INPUT_ERROR
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestDrawCountBounds:
    """A count that sizes a draw must keep it within 2**32 rows and physical
    memory; past either, the run exits 1 naming the count, before any draw."""

    LAN = {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}
    ANIMAL = {"model": {"kind": "animal", "synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}},
              "truth": {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}}
    WISHART_100 = {"dim": 100, "curvature": {"kind": "wishart", "dof": 100.0}}

    @pytest.mark.parametrize(
        "experiment, cfg, key",
        [
            ("bootstrap", {"model": LAN, "data": "z.csv", "B": 10**13}, "config.B"),
            ("bootstrap", {"model": LAN, "data": "z.csv", "B": 10**400}, "config.B"),
            ("bootstrap", {"model": LAN, "data": "z.csv", "B": 5, "double": True, "B2": 2**32 + 1}, "config.B2"),
            ("animal-study", {**ANIMAL, "B": 2**32 + 1}, "config.B"),
            ("diagnose", {"model": LAN, "data": "z.csv", "test_nsim": 2**32 + 1}, "config.test_nsim"),
            ("diagnose", {"model": LAN, "data": "z.csv", "contiguity_nsim": 2**32 + 1}, "config.contiguity_nsim"),
            ("lamn-verify", {"spec": {"dim": 1, "curvature": {"kind": "constant", "k": [[1.0]]}}, "nsim": 10**13},
             "config.nsim"),
            # 2**32 draws of a 100 x 100 K and z: 3.5e14 bytes
            ("lamn-verify", {"spec": WISHART_100, "nsim": 2**32}, "config.nsim"),
            ("lamn-verify", {"spec": {"dim": 1, "curvature": {"kind": "constant", "k": [[1.0]]}}, "test_nsim": 2**32 + 1},
             "config.test_nsim"),
            ("ar1-study", {"invariance_nsim": 2**32 + 1}, "config.invariance_nsim"),
            ("ar1-study", {"mc_paths": 2**32 + 1}, "config.mc_paths"),
            # 2**32 paths of 2**20 + 1 reals: 3.6e16 bytes
            ("ar1-study", {"n": 2**20, "mc_paths": 2**32}, "config.mc_paths"),
            ("classical-comparison", {"replications": 2**32 + 1}, "config.replications"),
        ],
        ids=["B", "B-past-a-double", "B2", "animal-B", "diagnose-test_nsim", "contiguity_nsim", "nsim",
             "nsim-past-physical-memory", "lamn-test_nsim", "invariance_nsim", "mc_paths", "mc_paths-past-physical-memory",
             "replications"],
    )
    def test_rejected_before_any_draw(self, tmp_path, capsys, monkeypatch, experiment, cfg, key):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        for module, name in [(quadlik.parallel, "derive_streams"), (quadlik.cli, "derive_rng"), (quadlik.lamn, "derive_rng")]:
            monkeypatch.setattr(module, name, no_draw)
        lan_setup(tmp_path)
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        # classical-comparison's draw names its largest rung
        assert re.search(f"{key}: its draw( at n = [0-9]+)? holds", capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()


    def test_stream_keys_counted_at_their_peak(self, tmp_path, capsys, monkeypatch):
        # with physical memory shrunk to 1,000 pages, a B between memory / 224
        # and memory / 32 passes at 16 bytes a stream key, but not at the 208
        # bytes a keyed stream peaks at while its keys are made; each row also
        # holds its data row, the 16 bytes of a LAN z of dimension 2
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        sysconf = quadlik.cli.os.sysconf
        monkeypatch.setattr(quadlik.cli.os, "sysconf", lambda name: 1000 if name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr(quadlik.parallel, "derive_streams", no_draw)
        memory = 1000 * sysconf("SC_PAGE_SIZE")
        path = write_config(tmp_path, "c.json", experiment="bootstrap", out="r", model=self.LAN, data="z.csv",
                            B=memory // 100)
        lan_setup(tmp_path)
        assert memory // 224 < memory // 100 < memory // 32
        assert main(["bootstrap", "--config", path]) == EXIT_INPUT_ERROR
        assert f"config.B: its draw holds {memory // 100} rows of 224 bytes" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestSizeBoundsBeforeAllocation:
    """A grid's points and a synthetic pedigree's N are exact ints, checked
    by the draw rule when the config is read: past 2**32 rows or physical
    memory they are input errors naming their key.  Only ``load_config``
    runs, so nothing is allocated."""

    SYNTHETIC = {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}

    @pytest.mark.parametrize(
        "experiment, cfg, key",
        [
            # 10**12 points: np.prod gave the count, 7.28 TiB of grid
            ("diagnose", {"model": "lan", "points_per_axis": [10**6, 10**6]}, "config.points_per_axis"),
            # 2**64 points, which np.prod wrapped to 0
            ("diagnose", {"model": "lan", "points_per_axis": [2**32, 2**32]}, "config.points_per_axis"),
            ("diagnose", {"model": "lan", "points_per_axis": 10**6}, "config.points_per_axis"),
            # 2**32 points of one real and its 4 evaluated ones: 1.7e11 bytes
            ("ar1-study", {"points_per_axis": [2**32]}, "config.points_per_axis"),
            ("classical-comparison", {"points_per_axis": [10**400]}, "config.points_per_axis"),
            ("animal-study", {"synthetic": {**SYNTHETIC, "founders": 10**6, "generations": 0}}, "config.model.synthetic"),
            ("animal-study", {"synthetic": {**SYNTHETIC, "per_generation": 2**31, "generations": 2}}, "config.model.synthetic"),
            ("diagnose", {"synthetic": {**SYNTHETIC, "founders": 10**400}}, "config.model.synthetic"),
        ],
        ids=["grid-10**12", "grid-2**64", "grid-one-count", "ar1-grid", "classical-grid", "founders",
             "generations", "diagnose-founders"],
    )
    def test_rejected_when_read(self, tmp_path, monkeypatch, experiment, cfg, key):
        def no_build(*args):
            raise AssertionError("the pedigree was built")

        monkeypatch.setattr(quadlik.cli, "synthetic_pedigree", no_build)
        cfg = dict(cfg)
        if cfg.pop("model", None) == "lan":
            cfg.update(model=lan_setup(tmp_path), data="z.csv")
        if "synthetic" in cfg:
            cfg["model"] = {"kind": "animal", "synthetic": cfg.pop("synthetic")}
            cfg.update({"data": "y.csv"} if experiment == "diagnose" else {"truth": {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}})
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        with pytest.raises(quadlik.cli.ConfigError, match=f"^{key}: .* holds [0-9]+ rows of [0-9]+ bytes, past the 2\\*\\*32 rows"):
            quadlik.cli.load_config(path)

    def test_pedigree_file_checked_before_a_is_built(self, tmp_path, capsys, monkeypatch):
        # a file's N is known once its records are read; with physical memory
        # shrunk to one page, N = 20 is past it, and A is never built
        save_pedigree_csv(str(tmp_path / "ped.csv"), synthetic_pedigree(6, 7, 2, 3))
        save_vector_csv(str(tmp_path / "y.csv"), np.linspace(-1.0, 1.0, 20))
        path = write_config(tmp_path, "c.json", experiment="fit", out="r",
                            model={"kind": "animal", "pedigree": "ped.csv"}, data="y.csv")
        assert main(["fit", "--config", path]) in (EXIT_OK, EXIT_NAO)

        def no_build(*args):
            raise AssertionError("the relationship matrix was built")

        sysconf = quadlik.cli.os.sysconf
        monkeypatch.setattr(quadlik.cli.os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr(quadlik.cli, "relationship_matrix", no_build)
        capsys.readouterr()
        assert main(["fit", "--config", path, "--out", str(tmp_path / "s")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "config.model.pedigree: " in err and str(tmp_path / "ped.csv") in err and "N = 20 individuals" in err
        assert not (tmp_path / "s.json").exists()

    def test_grid_points_are_counted_exactly(self):
        assert GridBox([0.0, 0.0], [1.0, 1.0], [2**32, 2**32]).total_points == 2**64
        assert GridBox([0.0, 0.0], [1.0, 1.0], [10**10, 10**10]).total_points == 10**20

    def test_largest_accepted_sizes_are_read(self, tmp_path):
        # a 60**3 grid and N = 2**11 individuals are far inside both bounds
        path = write_config(tmp_path, "c.json", experiment="diagnose", out="r", model=lan_setup(tmp_path),
                            data="z.csv", points_per_axis=[600, 600])
        assert quadlik.cli.load_config(path)["box"].total_points == 360_000
        synthetic = {"founders": 2**10, "per_generation": 2**9, "generations": 2, "seed": 3}
        path = write_config(tmp_path, "a.json", experiment="animal-study", out="r",
                            model={"kind": "animal", "synthetic": synthetic}, truth={"mu": 0.0, "sigma2": 1.0, "tau2": 1.0})
        assert quadlik.cli.load_config(path)["model"]["synthetic"].size == 2**11


class TestSizeRules:
    """One table, ``SIZES``, states the rows and the bytes a row of everything a
    config key sizes; ``_check_bytes`` checks each, when the config is read
    and again once a pedigree file's N is known."""

    SYNTHETIC_200 = {"founders": 20, "per_generation": 90, "generations": 2, "seed": 3}
    CONSTANT = {"dim": 2, "curvature": {"kind": "constant", "k": [[1.0, 0.0], [0.0, 1.0]]}}

    @pytest.mark.parametrize(
        "experiment, cfg, sizes",
        [
            # a keyed stream at its 208-byte peak, and a LAN z of 2 reals
            ("bootstrap", {"model": "lan", "B": 20}, [("config.B", 20, 224)]),
            # A and its eigenvectors; an animal row draws 2N normals and holds N reals of Q'y
            ("animal-study", {"model": {"kind": "animal", "synthetic": SYNTHETIC_200}, "B": 7},
             [("config.model.synthetic", 200, 3200), ("config.B", 7, 208 + 24 * 200)]),
            # one stream's z and K; each shift's nsim draws and its 5 report entries of 512 bytes
            ("lamn-verify", {"spec": CONSTANT, "nsim": 50, "n_deltas": 3, "test_nsim": 20},
             [("config.spec.dim", 2, 72), ("config.nsim", 50, 48), ("config.n_deltas", 3, 50 * 48 + 5 * 512),
              ("config.test_nsim", 20, 224)]),
            # a grid point's 2 reals, and two evaluations of 1 + 2 + 4 reals with their difference
            ("diagnose", {"model": "lan", "points_per_axis": [4, 5]},
             [("config.test_nsim", 500, 224), ("config.contiguity_nsim", 2000, 224), ("config.points_per_axis", 20, 184)]),
            # n observations, then p coordinates of n data, n residuals and a Hessian row each
            ("fit", {"model": {"kind": "iid_normal", "p": 3, "n": 5}}, [("config.model.n", 5, 16), ("config.model.p", 3, 104)]),
            ("ar1-study", {"n": 10, "mc_paths": 50},
             [("config.n", 10, 16), ("config.mc_paths", 50, 8 * 21), ("config.invariance_nsim", 2000, 208 + 8 * 11)]),
            # the unit's samples at the largest rung, n x p reals
            ("classical-comparison", {"psi": [0.0, 0.0], "ladder": [10, 30], "replications": 4},
             [("config.replications", 4, 208 + 8 * 60)]),
        ],
        ids=["lan-B", "animal", "lamn-verify", "grid", "iid_normal", "ar1-study", "classical"],
    )
    def test_each_key_states_its_bytes(self, tmp_path, monkeypatch, experiment, cfg, sizes):
        checked = []
        monkeypatch.setattr(quadlik.cli, "_check_bytes", lambda name, rows, row_bytes, what: checked.append((name, rows, row_bytes)))
        cfg = dict(cfg)
        if cfg.get("model") == "lan":
            cfg.update(model=lan_setup(tmp_path), data="z.csv")
        if experiment == "animal-study":
            cfg["truth"] = {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}
        if experiment == "fit":
            cfg["data"] = "x.csv"
        quadlik.cli.load_config(write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg))
        assert checked == sizes

    @pytest.mark.parametrize(
        "experiment, cfg, patched, named",
        [
            # a 16 GiB OpenBox, then numpy's "Maximum allowed dimension exceeded": both exited 3
            ("fit", {"model": {"kind": "iid_normal", "p": 2**31, "n": 1}}, "NormalLocationIid", "config.model.p"),
            ("fit", {"model": {"kind": "iid_normal", "p": 2**63, "n": 1}}, "NormalLocationIid", "config.model.p"),
            ("fit", {"model": {"kind": "iid_normal", "p": 1, "n": 2**63}}, "NormalLocationIid", "config.model.n"),
            ("fit", {"model": {"kind": "wishart_lamn", "dim": 2**31, "dof": 1e300}}, "_lamn_spec", "config.model.dim"),
            ("lamn-verify", {"spec": {"dim": 2**31, "curvature": {"kind": "wishart", "dof": 1e300}}}, "_lamn_spec",
             "config.spec.dim"),
            # 2**32 draws, at the rows' limit: it ran on past 10 s
            ("lamn-verify", {"spec": CONSTANT, "nsim": 2, "n_deltas": 2**31}, "contiguity_estimate", "config.n_deltas"),
        ],
        ids=["p-2**31", "p-2**63", "n-2**63", "wishart-dim", "spec-dim", "n_deltas"],
    )
    def test_exit_one_before_any_allocation(self, tmp_path, capsys, monkeypatch, experiment, cfg, patched, named):
        monkeypatch.setattr(quadlik.cli, patched, lambda *a, **k: pytest.fail(f"{patched} was called"))
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", data="x.csv", **cfg) if experiment == "fit" \
            else write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"quadlik: error: {named}: ")

    def test_animal_draw_counts_its_rows(self, tmp_path):
        # B 10**7 at N = 200 passed at 208 bytes a row (2.1 GB); z1 and z2 alone need 32 GB
        path = write_config(tmp_path, "c.json", experiment="animal-study", out="r", B=10**7,
                            model={"kind": "animal", "synthetic": self.SYNTHETIC_200}, truth={"mu": 0.0, "sigma2": 1.0, "tau2": 1.0})
        with pytest.raises(quadlik.cli.ConfigError, match="^config.B: its draw holds 10000000 rows of 5008 bytes"):
            quadlik.cli.load_config(path)

    def test_pedigree_file_draws_checked_once_n_is_read(self, tmp_path, capsys, monkeypatch):
        # with physical memory shrunk to 1,000 pages, B = 10,000 passes at the 208
        # bytes a row known before the file is read, but not at the 688 of N = 20
        save_pedigree_csv(str(tmp_path / "ped.csv"), synthetic_pedigree(6, 7, 2, 3))
        save_vector_csv(str(tmp_path / "y.csv"), np.linspace(-1.0, 1.0, 20))
        sysconf = quadlik.cli.os.sysconf
        monkeypatch.setattr(quadlik.cli.os, "sysconf", lambda name: 1000 if name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr(quadlik.parallel, "derive_streams", lambda *a: pytest.fail("a draw was made"))
        path = write_config(tmp_path, "c.json", experiment="animal-study", out="r", B=10_000, data="y.csv",
                            model={"kind": "animal", "pedigree": "ped.csv"})
        assert 10_000 * 208 < 1000 * sysconf("SC_PAGE_SIZE") < 10_000 * 688
        quadlik.cli.load_config(path)
        assert main(["animal-study", "--config", path]) == EXIT_INPUT_ERROR
        assert "config.B: its draw holds 10000 rows of 688 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", [1.7e308, -1.7e308])
    def test_truth_whose_draw_overflows_is_nao(self, tmp_path, mu):
        # mu Q'1 overflowed with a warning: exit 2 with it printed, or 3 under -W error
        path = write_config(tmp_path, "c.json", experiment="animal-study", out="r", B=5,
                            model={"kind": "animal", "synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}},
                            truth={"mu": mu, "sigma2": 1.0, "tau2": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["animal-study", "--config", path]) == EXIT_NAO
        assert read_report(tmp_path, "r")["status"] == "NaO"


class TestDataFileErrorsNameTheFile:
    """A data file's format error names the file, then its line; a file that
    is not UTF-8 names it once."""

    @pytest.mark.parametrize(
        "model, content, message",
        [
            ({"kind": "wishart_lamn", "dim": 2, "dof": 5.0}, "1\n2\n3\n4\n5\n6\n7\n",
             "line 1: expected 6 values (z then k row-major), got 7"),
            ({"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}, "0.5\n1.0\nfoo\n", "line 3: expected a number, got 'foo'"),
            ({"kind": "animal", "pedigree": "d.csv"}, "id,sire,dam\n1,,\n1,,\n", "line 3: record 1: duplicate id"),
            ({"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}, b"0.5\n\xff\n", "line 2: not UTF-8 text (invalid start byte)"),
            ({"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}, "\n \n\n", "line 1: no data rows"),
            ({"kind": "animal", "pedigree": "d.csv"}, "id,sire,dam\nx,,\n", "line 2: id must be an integer, got 'x'"),
            ({"kind": "animal", "pedigree": "d.csv"}, "id,sire,dam\n1,,\n2,1,0\n", "line 3: dam must be a positive id, got 0"),
            ({"kind": "animal", "pedigree": "d.csv"}, "id,sire,dam\n1,\n", "line 2: expected 3 fields, got 2"),
            ({"kind": "animal", "pedigree": "d.csv"}, "id,sire,dam\n,1,2\n", "line 2: id may not be blank"),
            ({"kind": "animal", "pedigree": "d.csv"}, "id,sire,dam\n", "line 1: no pedigree records"),
            ({"kind": "iid_exponential", "n": 3}, "1.5\n-0.5\n2.0\n",
             "line 1: value 2 is -0.5, but an exponential observation is at least 0"),
            # zeros are observations; the first negative value is named
            ({"kind": "iid_exponential", "n": 4}, "0\n0\n-1e-300\n-2\n",
             "line 1: value 3 is -1e-300, but an exponential observation is at least 0"),
        ],
        ids=["wishart-row", "vector-csv", "pedigree", "not-utf8", "vector-blank-lines-only", "pedigree-id-not-integer",
             "pedigree-dam-zero", "pedigree-two-fields", "pedigree-blank-id", "pedigree-header-only",
             "exponential-negative", "exponential-negative-after-zeros"],
    )
    def test_error_names_file_and_line(self, tmp_path, capsys, model, content, message):
        data = tmp_path / "d.csv"
        data.write_bytes(content if isinstance(content, bytes) else content.encode())
        path = write_config(tmp_path, "c.json", experiment="fit", out="r", model=model, data="d.csv")
        assert main(["fit", "--config", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"quadlik: error: {data}: {message}\n"


class TestArgumentParser:
    """The parser is built once a process, and ``main`` parses with it again
    and again, as the bench worker calls it."""

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        def no_parser(*args, **kwargs):
            raise AssertionError("a parser was built")

        monkeypatch.setattr(quadlik.cli.argparse, "ArgumentParser", no_parser)
        path = write_config(tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="r")
        assert main(["fit", "--config", path]) == EXIT_OK

    def test_repeated_calls_keep_no_state(self, tmp_path, capsys):
        fit = write_config(tmp_path, "fit.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="f")
        boot = write_config(tmp_path, "boot.json", experiment="bootstrap", model=lan_setup(tmp_path), data="z.csv",
                            out="b", B=20)
        assert main(["fit", "--config", fit, "--workers", "2", "--out", str(tmp_path / "g")]) == EXIT_OK
        assert main(["fit"]) == EXIT_INPUT_ERROR and "quadlik: error: " in capsys.readouterr().err
        assert main(["bootstrap", "--config", boot]) == EXIT_OK
        assert main(["fit", "--config", fit]) == EXIT_OK
        assert (tmp_path / "f.json").read_bytes() == (tmp_path / "g.json").read_bytes()
        assert read_report(tmp_path, "b")["experiment"] == "bootstrap"
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0 and "classical-comparison" in capsys.readouterr().out


class TestExtremeRealsWithoutWarnings:
    """Finite but extreme config reals overflow inside a kernel or a start: those
    rows are NaO, so the run exits as it would without numeric warnings."""

    LAN = {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}
    TRUTH = {"mu": 1e300, "sigma2": 1.0, "tau2": 1.0}
    SYNTHETIC = {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}

    @pytest.mark.parametrize(
        "experiment, cfg, code",
        [
            ("diagnose", {"model": LAN, "data": "z.csv", "test_nsim": 50, "contiguity_nsim": 50,
                          "theta_b": [1e300, 1e300]}, EXIT_NAO),
            ("diagnose", {"model": LAN, "data": "z.csv", "test_nsim": 50, "contiguity_nsim": 50,
                          "contiguity_delta": [1e300, 1e300]}, EXIT_NAO),
            ("ar1-study", {"thetas": [0.5], "n": 10, "mc_paths": 50, "invariance_nsim": 50, "box_halfwidth": 1e200},
             EXIT_INPUT_ERROR),
            ("animal-study", {"model": {"kind": "animal", "synthetic": SYNTHETIC}, "truth": TRUTH, "B": 8}, EXIT_NAO),
            # y.csv has variances 1e12: at the box's corner, log variances near -229,
            # the animal kernel's rt^2 / w^3 overflows
            ("diagnose", {"seed": 1, "model": {"kind": "animal", "synthetic": SYNTHETIC}, "data": "y.csv",
                          "box_halfwidth": [1, 257.2, 254.8], "points_per_axis": 3, "test_nsim": 20,
                          "contiguity_nsim": 20}, EXIT_INPUT_ERROR),
        ],
        ids=["diagnose-theta_b", "diagnose-contiguity_delta", "ar1-study-box_halfwidth", "animal-study-truth-mu",
             "diagnose-animal-box_halfwidth"],
    )
    def test_exit_code_under_warnings_as_errors(self, tmp_path, capsys, experiment, cfg, code):
        lan_setup(tmp_path)
        animal = AnimalModel(relationship_matrix(synthetic_pedigree(6, 7, 2, 3)))
        save_vector_csv(str(tmp_path / "y.csv"), animal.simulate_response(0.0, 1e12, 1e12, derive_rng(4, "y")))
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([experiment, "--config", path]) == code
        if code == EXIT_INPUT_ERROR:
            assert capsys.readouterr().err.startswith("quadlik: error: config.box_halfwidth: ")


class TestInputErrorsNameTheirKey:
    """A library constructor's check on a config value or a data row, and a file
    that is not UTF-8, exit 1 with an error naming the config key, the line or the file."""

    SYNTHETIC = {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}
    TRUTH = {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}

    @pytest.mark.parametrize(
        "experiment, cfg, named",
        [
            ("fit", {"model": {"kind": "lan", "k": [[1, 2], [2, 1]]}, "data": "z.csv"}, "config.model.k"),
            ("fit", {"model": {"kind": "wishart_lamn", "dim": 2, "dof": 3.0, "scale": [[1, 2], [2, 1]]}, "data": "z.csv"},
             "config.model.scale"),
            ("lamn-verify", {"spec": {"dim": 2, "curvature": {"kind": "constant", "k": [[1, 2], [2, 1]]}}},
             "config.spec.curvature.k"),
            ("lamn-verify", {"spec": {"dim": 3, "curvature": {"kind": "constant", "k": [[1, 0], [0, 1]]}}},
             "config.spec.dim"),
            ("fit", {"model": {"kind": "animal", "synthetic": dict(SYNTHETIC, per_generation=1)}, "data": "z.csv"},
             "config.model.synthetic.per_generation"),
            ("animal-study", {"model": {"kind": "animal", "synthetic": SYNTHETIC}, "truth": dict(TRUTH, sigma2=-1)},
             "config.truth.sigma2"),
            ("diagnose", {"model": {"kind": "lan", "k": np.eye(4).tolist()}, "data": "z.csv"}, "config.model.k"),
            ("classical-comparison", {"psi": [0, 0, 0, 0], "ladder": [10], "replications": 2}, "config.psi"),
            ("diagnose", {"model": {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}, "data": "z.csv", "box_halfwidth": 1e308},
             "config.box_halfwidth"),
            ("fit", b'{"schema_version": 1, "experiment": "fit", "seed": 1, "out": "\xff"}', "c.json"),
            ("fit", b"[1]", "c.json: top level must be an object"),
            ("fit", {"model": {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}, "data": "bad.csv"}, "bad.csv"),
            ("fit", {"model": {"kind": "animal", "pedigree": "bad.csv"}, "data": "z.csv"}, "bad.csv"),
            # not symmetric, whatever the pivot test makes of the lower triangle (I in the first and third)
            ("lamn-verify", {"spec": {"dim": 2, "curvature": {"kind": "constant", "k": [[1, -10], [0, 1]]}}},
             "config.spec.curvature.k: constant curvature is not symmetric"),
            ("bootstrap", {"model": {"kind": "lan", "k": [[2, 1], [0, 2]]}, "data": "z.csv", "B": 20},
             "config.model.k: curvature is not symmetric"),
            ("diagnose", {"model": {"kind": "lan", "k": [[1, -10], [0, 1]]}, "data": "z.csv"},
             "config.model.k: curvature is not symmetric"),
            ("fit", {"model": {"kind": "wishart_lamn", "dim": 2, "dof": 5.0}, "data": "w.csv"},
             "line 1: k (values 3 to 6) is not symmetric"),
            ("fit", {"model": {"kind": "lan", "k": [[1e308, -1e308], [1e308, 1e308]]}, "data": "z.csv"},
             "config.model.k: curvature is not symmetric"),
            ("fit", {"model": {"kind": "animal", "pedigree": "z.csv", "synthetic": SYNTHETIC}, "data": "z.csv"},
             "config.model: give exactly one of 'pedigree' or 'synthetic'"),
            ("fit", {"model": {"kind": "animal"}, "data": "z.csv"}, "config.model: give exactly one of 'pedigree' or 'synthetic'"),
            ("animal-study", {"model": {"kind": "animal", "synthetic": SYNTHETIC}},
             "config: animal-study needs either 'data' or 'truth'"),
            ("fit", {"model": {"kind": "lan", "k": [[1, 2]]}, "data": "z.csv"}, "config.model.k: expected a square matrix"),
            ("fit", {"model": [1], "data": "z.csv"}, "config.model: expected dict, got list"),
            # symmetric, whose pivot test overflows: it fails without a warning
            ("fit", {"model": {"kind": "lan", "k": [[1, 1e300], [1e300, 1]]}, "data": "z.csv"},
             "config.model.k: curvature must be positive definite"),
            ("lamn-verify", {"spec": {"dim": 2, "curvature": {"kind": "constant", "k": [[1, 1e300], [1e300, 1]]}}},
             "config.spec.curvature.k: constant curvature must be positive definite"),
            ("fit", {"model": {"kind": "wishart_lamn", "dim": 2, "dof": 3.0, "scale": [[1, 1e200], [1e200, 1]]},
                     "data": "z.csv"}, "config.model.scale: scale must be positive definite"),
            ("fit", {"model": {"kind": "wishart_lamn", "dim": 2, "dof": 5.0}, "data": "wk.csv"},
             "wk.csv: line 1: k (values 3 to 6) must be positive definite"),
        ],
        ids=["lan-k", "wishart-scale", "constant-k", "spec-dim", "per_generation", "truth-sigma2",
             "diagnose-dimension", "psi-dimension", "box-overflow", "config-file", "config-top-level-a-list",
             "data-file", "pedigree-file", "asymmetric-constant-k", "asymmetric-lan-bootstrap", "asymmetric-lan-diagnose",
             "asymmetric-wishart-data", "asymmetric-huge-lan-k", "animal-pedigree-and-synthetic",
             "animal-neither-pedigree-nor-synthetic", "animal-study-neither-data-nor-truth", "lan-k-not-square", "model-a-list",
             "overflowing-lan-k", "overflowing-constant-k", "overflowing-wishart-scale", "overflowing-wishart-data"],
    )
    def test_exits_one_naming_key_or_file(self, tmp_path, capsys, monkeypatch, experiment, cfg, named):
        monkeypatch.setattr(quadlik.cli, "fit_mle", lambda *a, **k: pytest.fail("fit on an invalid config"))
        save_vector_csv(str(tmp_path / "z.csv"), np.array([0.7, -0.3]))
        save_vector_csv(str(tmp_path / "w.csv"), np.array([0.3, -0.2, 1.0, 0.4, 0.0, 1.0]))
        save_vector_csv(str(tmp_path / "wk.csv"), np.array([0.3, -0.2, 1.0, 1e300, 1e300, 1.0]))
        # byte 0xff on line 2 of a data file, line 3 of a pedigree
        (tmp_path / "bad.csv").write_bytes(b"id,sire,dam\n1,,\n\xff,,\n" if "pedigree" in str(cfg) else b"0.5\n\xff\n")
        if isinstance(cfg, bytes):
            path = tmp_path / "c.json"
            path.write_bytes(cfg)
            path = str(path)
        else:
            path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([experiment, "--config", path]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("quadlik: error: ") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()


class TestStatusOfEveryExperiment:
    """The exit code is read from the report's ``status`` alone: ok exits 0 and
    NaO exits 2.  Every experiment puts a status; classical-comparison, which
    has no NaO outcome, says ok."""

    SYNTHETIC = {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3}
    LAN = {"kind": "lan", "k": [[2.0, 0.5], [0.5, 1.0]]}
    CONFIGS = {
        "fit": {"model": LAN, "data": "z.csv"},
        "diagnose": {"model": LAN, "data": "z.csv", "test_nsim": 50, "contiguity_nsim": 50},
        "bootstrap": {"model": LAN, "data": "z.csv", "B": 20},
        "lamn-verify": {"spec": {"dim": 2, "curvature": {"kind": "wishart", "dof": 5.0}}, "nsim": 200, "n_deltas": 2,
                        "test_nsim": 50},
        "ar1-study": {"thetas": [0.0, 0.5], "n": 10, "mc_paths": 200, "invariance_nsim": 50},
        "animal-study": {"model": {"kind": "animal", "synthetic": SYNTHETIC}, "truth": {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0},
                         "B": 8},
        "classical-comparison": {"unit": "normal", "psi": [0.0], "ladder": [50], "replications": 5},
    }
    # a config of each experiment that can end NaO, which ends so; x.csv holds [0, 0, 0],
    # whose exponential rate start 1 / mean(x) = 1 / 0 lies outside the domain
    NAO_START = {"model": {"kind": "iid_exponential", "n": 3}, "data": "x.csv"}
    NAO_CONFIGS = {
        "fit": NAO_START,
        "diagnose": dict(CONFIGS["diagnose"], theta_b=[1e300, 1e300]),
        "bootstrap": dict(NAO_START, B=20),
        "lamn-verify": dict(CONFIGS["lamn-verify"], delta_scale=1e200),
        "ar1-study": dict(CONFIGS["ar1-study"], thetas=[0.5, 1e200]),
        "animal-study": dict(CONFIGS["animal-study"], truth={"mu": 1e300, "sigma2": 1.0, "tau2": 1.0}),
    }
    # bootstraps with no usable replicate; w.csv holds z = (0.5, 0.2), k = [[1, 0.1], [0.1, 1]].
    # At dof 1.0000000001 no K drawn passes the pivot test, so no pivot is finite and
    # nothing is calibrated; at dof 1.01 and seed 1 one outer refit in 3 is NaO and
    # every inner level of the other two is, so the double coverage rate is NaN
    WISHART = {"kind": "wishart_lamn", "dim": 2, "dof": 1.0000000001}
    NO_PIVOT = {"model": WISHART, "data": "w.csv", "B": 3}
    NAO_CASES = {
        **{experiment: (experiment, cfg) for experiment, cfg in NAO_CONFIGS.items()},
        "bootstrap-no-usable-pivot": ("bootstrap", NO_PIVOT),
        "bootstrap-double-no-usable-pivot": ("bootstrap", dict(NO_PIVOT, double=True, B2=2)),
        "bootstrap-double-no-coverage": ("bootstrap", dict(NO_PIVOT, model=dict(WISHART, dof=1.01), seed=1, double=True, B2=2)),
    }

    def run(self, tmp_path, experiment, cfg):
        save_vector_csv(str(tmp_path / "z.csv"), np.array([0.7, -0.3]))
        save_vector_csv(str(tmp_path / "x.csv"), np.zeros(3))
        save_vector_csv(str(tmp_path / "w.csv"), np.array([0.5, 0.2, 1.0, 0.1, 0.1, 1.0]))
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([experiment, "--config", path])
        report = read_report(tmp_path, "r")
        assert code == {"ok": EXIT_OK, "NaO": EXIT_NAO}[report["status"]]
        return code, report

    def test_all_seven_experiments_are_covered(self):
        assert sorted(self.CONFIGS) == sorted(quadlik.cli.RUNNERS)
        assert sorted(self.NAO_CONFIGS) == sorted(set(quadlik.cli.RUNNERS) - {"classical-comparison"})

    @pytest.mark.parametrize("experiment", list(CONFIGS))
    def test_exit_zero_report_says_ok(self, tmp_path, experiment):
        code, report = self.run(tmp_path, experiment, self.CONFIGS[experiment])
        assert code == EXIT_OK
        if experiment in ("lamn-verify", "classical-comparison"):
            assert list(report)[-1] == "status"

    @pytest.mark.parametrize("experiment, cfg", list(NAO_CASES.values()), ids=list(NAO_CASES))
    def test_exit_two_report_says_nao(self, tmp_path, experiment, cfg):
        code, report = self.run(tmp_path, experiment, cfg)
        assert code == EXIT_NAO
        if cfg.get("data") == "w.csv":
            # the fit was ok: its status keeps its place, next to the fit's trace
            keys = list(report)
            assert keys[keys.index("fit_newton_final_grad_norm") + 1] == "status"
            assert ("calibration_level" in report) == (report["pivot_n_nao"] < 3)

    def test_animal_study_without_a_usable_pivot_exits_two(self, tmp_path, monkeypatch):
        nan_pivot = lambda model: lambda thetas, infos, theta_hats: np.full(len(thetas), np.nan)  # noqa: E731
        monkeypatch.setattr(quadlik.cli, "_heritability_pivot", nan_pivot)
        code, report = self.run(tmp_path, "animal-study", self.CONFIGS["animal-study"])
        assert code == EXIT_NAO and report["pivot_n_nao"] == report["pivot_B"] == 8
        assert "calibration_level" not in report and report["wald_interval_low"] < report["wald_interval_high"]

    @pytest.mark.parametrize("experiment", list(CONFIGS))
    def test_every_runner_returns_its_report_alone(self, tmp_path, experiment):
        save_vector_csv(str(tmp_path / "z.csv"), np.array([0.7, -0.3]))
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", **self.CONFIGS[experiment])
        record = quadlik.cli.RUNNERS[experiment](quadlik.cli.load_config(path))
        assert isinstance(record, ReportRecord) and record.get("status") == "ok"

    @pytest.mark.parametrize("status", [None, "done"])
    def test_report_without_a_known_status_is_a_fault(self, tmp_path, capsys, monkeypatch, status):
        def runner(cfg):
            record = quadlik.cli._start_record(cfg)
            if status is not None:
                record.put("status", status)
            return record

        monkeypatch.setitem(quadlik.cli.RUNNERS, "fit", runner)
        path = write_config(tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="r")
        assert main(["fit", "--config", path]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert err.startswith("quadlik: internal error\n") and "KeyError" in err
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.txt").exists()


class TestUsageErrors:
    """A command-line usage error is an input error, exit 1, never argparse's
    exit 2, which is the NaO code; ``--help`` exits 0."""

    @pytest.mark.parametrize("argv", [
        [], ["fit"], ["fit", "--config"], ["fit", "--config", "c.json", "--workers", "abc"],
        ["fit", "--config", "c.json", "--bogus"], ["nonesuch", "--config", "c.json"],
    ], ids=["no-command", "no-config", "config-without-path", "workers-abc", "unknown-flag", "unknown-command"])
    def test_usage_error_exits_one(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="r")
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: quadlik") and "\nquadlik: error: " in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_command_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["fit", "--help"])
        assert stop.value.code == 0 and "--config" in capsys.readouterr().out


class TestRepeatedConfigKeys:
    """json keeps the last value of a repeated key; a config that repeats one,
    at any depth, is an input error naming the key and the file."""

    @pytest.mark.parametrize("text, key", [
        ('{"schema_version": 1, "experiment": "fit", "seed": 1, "seed": 2, "model": MODEL, "data": "z.csv", "out": "r"}',
         "seed"),
        ('{"schema_version": 1, "experiment": "fit", "seed": 1, "model": MODEL, "model": MODEL, "data": "z.csv", "out": "r"}',
         "model"),
        ('{"schema_version": 1, "experiment": "fit", "seed": 1, "alpha": 0.05, "alpha": 0.5, "model": MODEL, '
         '"data": "z.csv", "out": "r"}', "alpha"),
        ('{"schema_version": 1, "experiment": "fit", "seed": 1, "model": {"kind": "lan", "k": [[1.0]], '
         '"k": [[2.0]]}, "data": "z.csv", "out": "r"}', "k"),
        ('{"schema_version": 1, "experiment": "animal-study", "seed": 1, "model": {"kind": "animal", '
         '"synthetic": {"founders": 6, "per_generation": 7, "generations": 2, "seed": 3, "seed": 4}}, '
         '"truth": {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}, "out": "r"}', "seed"),
    ], ids=["top-seed", "top-model", "top-alpha", "nested-k", "doubly-nested-seed"])
    def test_repeated_key_is_an_input_error(self, tmp_path, capsys, text, key):
        model = json.dumps(lan_setup(tmp_path))
        path = tmp_path / "c.json"
        path.write_text(text.replace("MODEL", model))
        experiment = json.loads(text.replace("MODEL", model))["experiment"]
        assert main([experiment, "--config", str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"quadlik: error: {path}: key {key!r} is given more than once")
        assert not (tmp_path / "r.json").exists()


class TestNoReportOverwritesAnInput:
    """A report base whose files would be the config or a data or pedigree file
    it names is an input error of ``config.out`` or ``--out``, before the run."""

    def check(self, tmp_path, capsys, argv, named, victim):
        before = victim.read_bytes()
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"quadlik: error: {named}: ") and str(victim.name) in err
        assert victim.read_bytes() == before

    @pytest.mark.parametrize("out", ["c2", "c2.json", "./c2"])
    def test_config_is_not_its_own_report(self, tmp_path, capsys, out):
        path = write_config(tmp_path, "c2.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out=out)
        self.check(tmp_path, capsys, ["fit", "--config", path], "config.out", tmp_path / "c2.json")
        # a report next to its config runs
        path = write_config(tmp_path, "c3.json", experiment="fit", model=lan_setup(tmp_path), data="z.csv", out="c2")
        assert main(["fit", "--config", path]) == EXIT_OK

    def test_data_file_is_not_a_report(self, tmp_path, capsys):
        save_vector_csv(str(tmp_path / "z.txt"), np.array([0.7, -0.3]))
        path = write_config(tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="z.txt", out="r")
        self.check(tmp_path, capsys, ["fit", "--config", path, "--out", str(tmp_path / "z")], "--out",
                   tmp_path / "z.txt")

    def test_pedigree_file_is_not_a_report(self, tmp_path, capsys):
        save_pedigree_csv(str(tmp_path / "ped.json"), synthetic_pedigree(6, 7, 2, 3))
        path = write_config(tmp_path, "c.json", experiment="animal-study", model={"kind": "animal", "pedigree": "ped.json"},
                            truth={"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}, out="ped")
        self.check(tmp_path, capsys, ["animal-study", "--config", path], "config.out", tmp_path / "ped.json")

    def test_data_file_is_not_a_spilled_array(self, tmp_path, capsys):
        # a pivot dump of 40 values spills to r__pivot_values.csv
        save_vector_csv(str(tmp_path / "r__pivot_values.csv"), np.array([0.7, -0.3]))
        path = write_config(tmp_path, "c.json", experiment="bootstrap", model=lan_setup(tmp_path),
                            data="r__pivot_values.csv", B=40, dump_pivots=True, out="r")
        self.check(tmp_path, capsys, ["bootstrap", "--config", path], "config.out", tmp_path / "r__pivot_values.csv")


class TestTruthNextToData:
    def test_truth_checked_next_to_data(self, tmp_path, capsys):
        # a key is read and checked whenever it is given, even where the run does not use it
        save_pedigree_csv(str(tmp_path / "ped.csv"), synthetic_pedigree(6, 7, 2, 3))
        save_vector_csv(str(tmp_path / "y.csv"), derive_rng(2, "y").standard_normal(20))
        model = {"kind": "animal", "pedigree": "ped.csv"}
        bad = write_config(tmp_path, "bad.json", experiment="animal-study", model=model, data="y.csv",
                           truth={"bogus": 1}, out="r")
        assert main(["animal-study", "--config", bad]) == EXIT_INPUT_ERROR
        assert "config.truth: unknown keys ['bogus']" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        # a valid truth next to data is checked, and the report is that of the data alone
        reports = []
        for truth in ({}, {"truth": {"mu": 0.0, "sigma2": 1.0, "tau2": 1.0}}):
            good = write_config(tmp_path, "good.json", experiment="animal-study", model=model, data="y.csv",
                                out="r", **truth)
            assert main(["animal-study", "--config", good]) == EXIT_OK
            reports.append((tmp_path / "r.json").read_bytes())
        assert reports[0] == reports[1] and b"truth_mu" not in reports[0]


class TestSingularWishartDraws:
    """At dof near dim - 1 some of the Bartlett draws are numerically
    singular.  A K that fails the pivot test is an NaO row: every experiment
    counts them and exits 0 or 2, without a warning.  The data set is z = 0,
    K = I / 2 at dim 3."""

    CONFIGS = {
        "bootstrap": {"B": 200, "double": True, "B2": 40},
        "diagnose": {"test_nsim": 50, "contiguity_nsim": 50},
        "lamn-verify": {"nsim": 1000, "test_nsim": 50},
    }

    @pytest.mark.parametrize("dof", [2.01, 2.2])
    @pytest.mark.parametrize("experiment", list(CONFIGS))
    def test_singular_draws_are_counted_nao(self, tmp_path, experiment, dof):
        save_vector_csv(str(tmp_path / "d.csv"), np.concatenate([np.zeros(3), np.eye(3).ravel() / 2]))
        if experiment == "lamn-verify":
            cfg = {"spec": {"dim": 3, "curvature": {"kind": "wishart", "dof": dof}}}
        else:
            cfg = {"model": {"kind": "wishart_lamn", "dim": 3, "dof": dof}, "data": "d.csv"}
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", seed=3, **cfg, **self.CONFIGS[experiment])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([experiment, "--config", path])
        report = read_report(tmp_path, "r")
        assert code in (EXIT_OK, EXIT_NAO) and report["status"] == ("NaO" if code == EXIT_NAO else "ok")
        if experiment == "lamn-verify":
            # each contiguity check drops and counts its NaO rows, and the run goes on
            assert code == EXIT_OK and all(0 < report[f"contiguity_{i}_n_nao"] < 1000 for i in range(5))
        else:
            assert sum(v for k, v in report.items() if k.endswith("_n_nao")) > 0
        if experiment == "bootstrap":
            assert 0 < report["pivot_n_nao"] < 200


class TestDrawsWithoutAFiniteResult:
    """A draw or evaluation of an iid model that overflows, or a centre with no
    draw, is NaO, so the run exits 2 with or without warnings as errors."""

    def run(self, tmp_path, experiment, model, data, **cfg):
        save_vector_csv(str(tmp_path / "x.csv"), np.array(data))
        path = write_config(tmp_path, "c.json", experiment=experiment, out="r", model=model, data="x.csv", **cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([experiment, "--config", path]) == EXIT_NAO
        return read_report(tmp_path, "r")

    @pytest.mark.parametrize("experiment", ["fit", "diagnose"])
    def test_iid_normal_overflow(self, tmp_path, experiment):
        model = {"kind": "iid_normal", "p": 1, "n": 3}
        assert self.run(tmp_path, experiment, model, [1e200, -1e200, 3e200])["status"] == "NaO"

    @pytest.mark.parametrize("theta_b", [-1.0, 0.0, 1e-320])
    def test_exponential_centre_without_a_draw(self, tmp_path, theta_b):
        model = {"kind": "iid_exponential", "n": 4}
        report = self.run(tmp_path, "diagnose", model, [1.0, 2.0, 0.5, 1.5], theta_b=[theta_b], box_halfwidth=0.1,
                          test_nsim=20, contiguity_nsim=20)
        assert report["status"] == "NaO" and report["invariance_n_nao"] == 20
