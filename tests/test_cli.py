import json
import warnings

import numpy as np
import pytest

import quadlik.cli
from quadlik.cli import EXIT_INPUT_ERROR, EXIT_NAO, EXIT_OK, ReportRecord, main
from quadlik.models import ar1_simulate, save_pedigree_csv, save_vector_csv, synthetic_pedigree
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
        with pytest.raises(ValueError, match="duplicate"):
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
            # data whose fit ends NaO: the rate start 1 / mean(x) lies outside the domain
            experiment = "fit"
            save_vector_csv(str(tmp_path / "x.csv"), np.array([-1.0, -2.0, -3.0]))
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

    def test_missing_data_file(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model=lan_setup(tmp_path), data="nope.csv", out="r",
        )
        assert main(["fit", "--config", cfg]) == EXIT_INPUT_ERROR


class TestDiagnoseCommand:
    def test_ar1_non_example_signature(self, tmp_path):
        save_vector_csv(str(tmp_path / "x.csv"), ar1_simulate(0.0, 50, 1.0, derive_rng(3)).x)
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
    """Sample sizes are counts of at least 2 and box half-widths positive and
    finite; a bad value exits 1 naming its key, before any fit or simulation."""

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
        ],
        ids=[
            "diagnose-test_nsim", "diagnose-contiguity_nsim", "lamn-test_nsim", "lamn-nsim",
            "ar1-invariance_nsim", "box-zero", "box-negative", "box-axis-zero", "ar1-box-negative",
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
        # the rate start 1 / mean(x) = -0.5 lies outside the positive domain
        save_vector_csv(str(tmp_path / "x.csv"), np.array([-1.0, -2.0, -3.0]))
        cfg = write_config(
            tmp_path, "c.json", experiment="fit", model={"kind": "iid_exponential", "n": 3},
            data="x.csv", out="r",
        )
        assert main(["fit", "--config", cfg]) == EXIT_NAO
        report = read_report(tmp_path, "r")
        assert report["status"] == "NaO"
        assert report["fit_newton_steps"] == 0
        assert report["fit_newton_converged"] == 0


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
        ],
        ids=["fit-negative", "fit-fraction", "fit-bool", "bootstrap-unread", "animal-negative", "animal-string"],
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
    """A Monte Carlo check whose mean or standard error is not finite is NaO."""

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

    def test_ar1_study_exploding_paths(self, tmp_path):
        code, report = self.run(tmp_path, "ar1-study", thetas=[0.5, 1e200], n=10, mc_paths=200)
        assert code == EXIT_NAO and report["status"] == "NaO"
        assert report["info_0_dev_se"] <= 4.0
        assert report["info_1_mc_se"] == report["info_1_dev_se"] == "nan"
