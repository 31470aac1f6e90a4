import json
import math

import numpy as np
import pytest

from ope_ci.cli import main
from ope_ci.cpgen import EpsConfig, cp_gen_detailed
from ope_ci.errors import OpeCiError
from ope_ci.harness import fields_read, make_env_spec
from ope_ci.mdp import read_jsonl_dataset
from ope_ci.models import GaussianRegressionModel


def run_cli(*args) -> int:
    return main([str(a) for a in args])


# baseline's settings flags: the field each sets and the value tests give it
BASELINE_SETTINGS = {"--nsynth": ("n_synth", 40), "--rollouts": ("dm_rollouts", 50),
                     "--nboot": ("n_boot", 200)}


def baseline_settings(method) -> list:
    """The flags and values of ``BASELINE_SETTINGS`` that ``method`` reads."""
    read = fields_read(method, "gaussian")
    return [item for flag, (field, value) in BASELINE_SETTINGS.items() if field in read
            for item in (flag, value)]


@pytest.fixture
def small_dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    code = run_cli(
        "simulate", "--env", "inventory", "--policy", "behavior",
        "--n", 60, "--seed", 7, "--out", path,
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_dataset_and_sidecar(self, small_dataset):
        ds = read_jsonl_dataset(small_dataset)
        assert len(ds) == 60
        assert ds.horizon == 20
        assert ds.discount == 1.0

    def test_target_policy_dataset_differs(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_cli("simulate", "--policy", "behavior", "--n", 5, "--seed", 1, "--out", a)
        run_cli("simulate", "--policy", "target", "--n", 5, "--seed", 1, "--out", b)
        assert a.read_bytes() != b.read_bytes()

    def test_finite_env_supported(self, tmp_path):
        out = tmp_path / "f.jsonl"
        assert run_cli(
            "simulate", "--env", "finite", "--n", 10, "--seed", 2,
            "--gamma", 0.9, "--out", out,
        ) == 0
        ds = read_jsonl_dataset(out)
        assert ds.discount == 0.9


class TestCpgenCommand:
    def test_result_schema(self, small_dataset, tmp_path):
        out = tmp_path / "cp.json"
        code = run_cli(
            "cpgen", "--data", small_dataset, "--s0", "5.0", "--alpha", 0.1,
            "--M", 2, "--Ngen", 2, "--rollouts", 32, "--seed", 3, "--out", out,
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert list(result) == ["point", "lo", "hi", "alpha", "n_cal_pairs", "eps_s", "eps_r"]
        assert result["lo"] <= result["point"] <= result["hi"]
        assert result["n_cal_pairs"] == 30 * 2

    def test_eps_flags_reach_the_band(self, small_dataset, tmp_path):
        out = tmp_path / "cp.json"
        code = run_cli(
            "cpgen", "--data", small_dataset, "--s0", "5.0", "--alpha", 0.1,
            "--M", 2, "--Ngen", 2, "--rollouts", 32, "--eps-state", 0.5,
            "--eps-score", 300, "--seed", 3, "--out", out,
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["eps_s"] == 0.5
        assert result["eps_r"] == 300.0
        spec = make_env_spec("inventory", s0=(5.0,))
        direct = cp_gen_detailed(
            read_jsonl_dataset(small_dataset), spec.behavior, spec.target, (5.0,), 0.1,
            M=2, N_gen=2, n_pe_rollouts=32, cfg=EpsConfig(0.5, 300.0),
            model_factory=lambda: GaussianRegressionModel(
                degree=2, state_box=spec.env.state_box
            ),
            rng=np.random.default_rng(3),
        )
        assert (result["lo"], result["hi"]) == (direct.interval.lower, direct.interval.upper)

    def test_rerun_byte_identical(self, small_dataset, tmp_path):
        args = [
            "cpgen", "--data", small_dataset, "--s0", "5.0", "--alpha", 0.1,
            "--M", 2, "--Ngen", 2, "--rollouts", 32, "--seed", 3,
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestDrppiCommand:
    def test_result_schema(self, small_dataset, tmp_path):
        out = tmp_path / "dr.json"
        code = run_cli(
            "drppi", "--data", small_dataset, "--correction", "pdis",
            "--Nf", 100, "--M", 2, "--alpha", 0.05, "--crossfit",
            "--seed", 11, "--out", out,
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert list(result) == [
            "estimate", "variance", "lo", "hi", "alpha", "correction", "crossfit",
        ]
        assert result["lo"] <= result["estimate"] <= result["hi"]
        assert result["variance"] > 0
        assert result["crossfit"] is True

    def test_no_crossfit_flag(self, small_dataset, tmp_path):
        out = tmp_path / "dr2.json"
        run_cli(
            "drppi", "--data", small_dataset, "--Nf", 100, "--M", 2,
            "--no-crossfit", "--seed", 11, "--out", out,
        )
        assert json.loads(out.read_text())["crossfit"] is False

    def test_rerun_byte_identical(self, small_dataset, tmp_path):
        args = [
            "drppi", "--data", small_dataset, "--correction", "wis",
            "--Nf", 80, "--M", 2, "--seed", 5,
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestBaselineCommand:
    @pytest.mark.parametrize("method", ["is", "wis", "pdis", "augis", "dm", "dr", "augdr"])
    def test_every_method_emits_schema(self, small_dataset, tmp_path, method):
        out = tmp_path / f"{method}.json"
        code = run_cli(
            "baseline", "--data", small_dataset, "--method", method,
            "--bound", "clt" if method not in ("dm",) else "bootstrap",
            *baseline_settings(method),
            "--seed", 9, "--out", out,
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert list(result) == [
            "estimate", "variance", "lo", "hi", "alpha", "method", "bound",
        ]
        assert result["method"] == method

    def test_rerun_byte_identical(self, small_dataset, tmp_path):
        args = [
            "baseline", "--data", small_dataset, "--method", "augis",
            "--bound", "bootstrap", "--nsynth", 30, "--nboot", 200, "--seed", 2,
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestCoverageCommand:
    def test_csv_output_and_exit_code(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = run_cli(
            "coverage", "--env", "finite", "--method", "is:clt",
            "--n", 30, "--trials", 3, "--alpha", 0.1, "--gamma", 0.9,
            "--seed", 1, "--out", out,
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "method,trials,coverage,mean_width,mean_point_error,ground_truth,alpha,config_digest"

    def test_cache_dir_used(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "cov.csv"
        code = run_cli(
            "coverage", "--env", "inventory", "--method", "is:clt",
            "--n", 10, "--trials", 2, "--seed", 1, "--cache-dir", cache,
            "--out", out,
        )
        assert code == 0
        assert list(cache.glob("ground_truth_*.json"))

    def test_rerun_byte_identical_with_and_without_cache(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        args = [
            "coverage", "--env", "inventory", "--method", "drppi:is",
            "--n", 12, "--trials", 2, "--Nf", 40, "--M", 2, "--seed", 4,
            "--cache-dir", cache,
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(*args, "--out", a)  # computes and caches the ground truth
        run_cli(*args, "--out", b)  # reads it back
        assert a.read_bytes() == b.read_bytes()

    def test_several_specs_give_one_study_of_one_spec_rows(self, tmp_path):
        """One CSV of several specs holds, row for row, the CSVs of each spec
        alone: the study shares datasets, not results."""
        args = ["--env", "finite", "--gamma", 0.9, "--n", 30, "--trials", 2, "--seed", 3]
        specs = ["wis:clt", "drppi:is", "is:bootstrap", "drppi:pdis"]
        together = tmp_path / "all.csv"
        assert run_cli("coverage", "--method", *specs, *args, "--out", together) == 0
        rows = []
        for spec in specs:
            one = tmp_path / "one.csv"
            assert run_cli("coverage", "--method", spec, *args, "--out", one) == 0
            header, row = one.read_text().splitlines()
            rows.append(row)
        assert together.read_text().splitlines() == [header, *sorted(rows)]

    @pytest.mark.parametrize("methods", [["is"], ["drppi:pdis"], ["cpgen", "is:clt"]])
    def test_s0_with_a_population_method_refused_before_ground_truth(
        self, tmp_path, capsys, monkeypatch, methods
    ):
        # exited 0 with the coverage of population intervals against V(s0)
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.ground_truth_value", no_ground_truth)
        out = tmp_path / "cov.csv"
        code = run_cli(
            "coverage", "--method", *methods, "--n", 20, "--trials", 2, "--s0", 0,
            "--seed", 1, "--out", out,
        )
        assert code == 2
        err = single_error_line(capsys)
        assert err == f"error: --s0 applies to cpgen only, not to {methods[-1]!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, n, message",
        [
            (["simulate"], -1, "n must be at least 1, got -1"),
            (["simulate"], 0, "n must be at least 1, got 0"),
            (["coverage", "--method", "is", "--trials", 2], 0,
             "n_trajectories must be at least 1, got 0"),
            (["coverage", "--method", "is", "--trials", 2], -3,
             "n_trajectories must be at least 1, got -3"),
        ],
        ids=["simulate-negative", "simulate-zero", "coverage-zero", "coverage-negative"],
    )
    def test_fewer_than_one_trajectory_exits_two(
        self, tmp_path, capsys, monkeypatch, command, n, message
    ):
        # printed numpy's "negative dimensions are not allowed"; coverage
        # computed the 100k-rollout ground truth first
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.ground_truth_value", no_ground_truth)
        out = tmp_path / "out"
        code = run_cli(*command, "--n", n, "--seed", 1, "--out", out)
        assert code == 2
        assert single_error_line(capsys) == f"error: {message}\n"
        assert not out.exists()

    def test_method_error_exit_code_two(self, tmp_path, capsys):
        # a two-trajectory dataset is too small for the cross-fit estimator
        code = run_cli(
            "coverage", "--env", "inventory", "--method", "drppi:pdis",
            "--n", 2, "--trials", 1, "--seed", 1, "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMethodSpecs:
    @pytest.mark.parametrize(
        "method",
        ["dm:foo", "cpgen:xyz", "dr:x", "augdr:x", "drppi:foo", "is:foo", "augis:x",
         "is:clt:x", "bogus", "dm:"],
    )
    def test_bad_spec_refused_before_ground_truth(self, tmp_path, capsys, monkeypatch, method):
        # these ran the 100k-rollout ground truth first, then either wrote a
        # row under the spec's label or failed in a trial
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.monte_carlo_value", no_ground_truth)
        out = tmp_path / "bad.csv"
        code = run_cli(
            "coverage", "--method", method, "--s0", 5, "--n", 50, "--trials", 2,
            "--seed", 1, "--out", out,
        )
        assert code == 2
        err = single_error_line(capsys)
        assert repr(method) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("method", "bound"),
        [("is", "clt"), ("augis", "clt"), ("dm", "bootstrap"), ("dr", "clt"), ("augdr", "clt")],
    )
    def test_default_bound_is_the_one_used(self, small_dataset, tmp_path, method, bound):
        # dm recorded "clt" for its bootstrap interval
        out, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        args = ["baseline", "--data", small_dataset, "--method", method, "--seed", 9,
                *baseline_settings(method)]
        assert run_cli(*args, "--out", out) == 0
        assert run_cli(*args, "--bound", bound, "--out", explicit) == 0
        assert json.loads(out.read_text())["bound"] == bound
        assert out.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize(
        ("method", "bound"), [("dm", "clt"), ("dr", "bootstrap"), ("augdr", "bootstrap")]
    )
    def test_bound_the_method_cannot_give_exits_two(
        self, small_dataset, tmp_path, capsys, method, bound
    ):
        # dr --bound bootstrap wrote "bootstrap" for the CLT interval
        out = tmp_path / "out.json"
        code = run_cli(
            "baseline", "--data", small_dataset, "--method", method, "--bound", bound,
            "--seed", 1, "--out", out,
        )
        assert code == 2
        assert single_error_line(capsys).startswith(f"error: --bound {bound} ")
        assert not out.exists()

    def test_cpgen_without_s0_refused_before_ground_truth(self, tmp_path, capsys, monkeypatch):
        # ran the 100k-rollout ground truth before it failed
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.monte_carlo_value", no_ground_truth)
        out = tmp_path / "nos0.csv"
        code = run_cli(
            "coverage", "--method", "cpgen", "--n", 20, "--trials", 1, "--seed", 1,
            "--out", out,
        )
        assert code == 2
        err = single_error_line(capsys)
        assert "fixed s0" in err
        # the message named the library's EnvSpec, not the flag
        assert err == "error: cpgen studies need a fixed s0; pass its coordinates with --s0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "methods", [["is", "is"], ["is", "is:clt"], ["drppi:pdis", "dm", "drppi"]]
    )
    def test_repeated_spec_refused_before_ground_truth(
        self, tmp_path, capsys, monkeypatch, methods
    ):
        # wrote one row per spelling, each with the same config_digest
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.monte_carlo_value", no_ground_truth)
        out = tmp_path / "twice.csv"
        code = run_cli(
            "coverage", "--method", *methods, "--n", 20, "--trials", 1, "--seed", 1,
            "--out", out,
        )
        assert code == 2
        err = single_error_line(capsys)
        assert err.startswith("error: --method ")
        assert f"{methods[0]!r} and {methods[-1]!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "methods, flags, flag",
        [
            (["is"], ["--Nf", 50], "--Nf"),
            (["is"], ["--bias", 0.5], "--bias"),
            (["is"], ["--model", "oracle"], "--model"),
            (["is", "dr"], ["--no-crossfit"], "--crossfit"),
            (["augis:clt"], ["--model", "oracle", "--bias", 0.5], "--bias"),
        ],
        ids=["nf", "bias", "model", "no-crossfit", "bias-under-oracle"],
    )
    def test_setting_no_spec_reads_refused_before_ground_truth(
        self, tmp_path, capsys, monkeypatch, methods, flags, flag
    ):
        # wrote the figures of the default settings under another config_digest
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.monte_carlo_value", no_ground_truth)
        out = tmp_path / "unread.csv"
        code = run_cli(
            "coverage", "--method", *methods, *flags, "--n", 20, "--trials", 1, "--seed", 1,
            "--out", out,
        )
        assert code == 2
        assert single_error_line(capsys) == (
            f"error: {flag} is read by none of {', '.join(map(repr, methods))}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, spec",
        [
            (["baseline", "--method", "dr", "--nboot", 500], "--nboot", "dr:clt"),
            (["baseline", "--method", "dr", "--nsynth", 3], "--nsynth", "dr:clt"),
            (["baseline", "--method", "is", "--model", "oracle"], "--model", "is:clt"),
            (["baseline", "--method", "augis", "--model", "oracle", "--degree", 1], "--degree",
             "augis:clt"),
            (["cpgen", "--s0", "5.0", "--model", "oracle", "--degree", 1], "--degree", "cpgen"),
            (["drppi", "--model", "oracle", "--degree", 1], "--degree", "drppi:pdis"),
        ],
        ids=["baseline-nboot", "baseline-nsynth", "baseline-model", "baseline-degree",
             "cpgen-degree", "drppi-degree"],
    )
    def test_setting_the_method_does_not_read_refused(
        self, small_dataset, tmp_path, capsys, command, flag, spec
    ):
        # baseline --method dr --nboot 500 wrote the file of the default settings
        out = tmp_path / "unread.json"
        code = run_cli(*command, "--data", small_dataset, "--seed", 1, "--out", out)
        assert code == 2
        assert single_error_line(capsys) == f"error: {flag} is read by none of {spec!r}\n"
        assert not out.exists()

    def test_coverage_ngen_reaches_the_study(self, tmp_path, monkeypatch):
        # coverage had no --Ngen, the remedy the unbounded-band message names
        seen = {}

        def study(*args, config, **kwargs):
            seen["config"] = config
            raise OpeCiError("study stopped")

        monkeypatch.setattr("ope_ci.cli.run_coverage_study", study)
        code = run_cli(
            "coverage", "--method", "cpgen", "--s0", 5, "--Ngen", 7, "--n", 20,
            "--trials", 1, "--seed", 1, "--out", tmp_path / "cov.csv",
        )
        assert code == 2
        assert seen["config"].cpgen_n_gen == 7


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1, "nan"])
    @pytest.mark.parametrize("command", ["cpgen", "drppi", "baseline", "coverage"])
    def test_out_of_range_alpha_exits_two_before_any_work(
        self, tmp_path, capsys, command, alpha
    ):
        # the dataset path does not exist, so only an up-front check can
        # produce the alpha message
        extra = {
            "cpgen": ["--data", tmp_path / "missing.jsonl", "--s0", "5.0"],
            "drppi": ["--data", tmp_path / "missing.jsonl"],
            "baseline": ["--data", tmp_path / "missing.jsonl", "--method", "dr"],
            "coverage": ["--method", "is:clt", "--n", 10, "--trials", 1],
        }[command]
        out = tmp_path / "out.json"
        code = run_cli(command, *extra, "--alpha", alpha, "--seed", 1, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --alpha must lie in (0, 1)")
        assert err.count("\n") == 1
        assert not out.exists()


class TestDiscountValidation:
    @pytest.mark.parametrize("gamma", [0, 1.5, -0.5, "nan"])
    def test_coverage_refuses_gamma_before_ground_truth(
        self, tmp_path, capsys, monkeypatch, gamma
    ):
        # ran and cached the 100k-rollout ground truth of the invalid discount,
        # then failed with a message that did not name --gamma
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.monte_carlo_value", no_ground_truth)
        cache, out = tmp_path / "cache", tmp_path / "cov.csv"
        code = run_cli(
            "coverage", "--method", "is", "--n", 20, "--trials", 1, "--seed", 1,
            "--gamma", gamma, "--cache-dir", cache, "--out", out,
        )
        assert code == 2
        assert single_error_line(capsys).startswith("error: --gamma must lie in (0, 1]")
        assert not list(tmp_path.glob("**/ground_truth_*.json"))
        assert not out.exists()

    def test_simulate_refuses_gamma_before_rollout(self, tmp_path, capsys, monkeypatch):
        def no_rollout(*args, **kwargs):
            raise AssertionError("the dataset was rolled out")

        monkeypatch.setattr("ope_ci.envs.Simulator.sample_dataset", no_rollout)
        out = tmp_path / "d.jsonl"
        code = run_cli("simulate", "--n", 5, "--seed", 1, "--gamma", 2, "--out", out)
        assert code == 2
        assert single_error_line(capsys).startswith("error: --gamma must lie in (0, 1]")
        assert not out.exists()


class TestInitialStateFlag:
    @pytest.mark.parametrize("s0", ["abc", "5,5", "5,", ""])
    def test_cpgen_s0_that_is_not_one_number_exits_two(
        self, small_dataset, tmp_path, capsys, s0
    ):
        # "abc" gave float()'s message and "5,5" a state-box message
        out = tmp_path / "cp.json"
        code = run_cli("cpgen", "--data", small_dataset, f"--s0={s0}", "--seed", 1, "--out", out)
        assert code == 2
        err = single_error_line(capsys)
        assert err == f"error: --s0 takes 1 comma-separated number(s) for inventory, got {s0!r}\n"
        assert not out.exists()

    def test_coverage_s0_that_is_not_a_number_refused_before_ground_truth(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.monte_carlo_value", no_ground_truth)
        out = tmp_path / "cov.csv"
        code = run_cli(
            "coverage", "--method", "cpgen", "--s0", "abc", "--n", 20, "--trials", 1,
            "--seed", 1, "--out", out,
        )
        assert code == 2
        assert single_error_line(capsys).startswith("error: --s0 takes 1 comma-separated")
        assert not out.exists()


class TestValueErrorsExitTwo:
    @pytest.mark.parametrize(
        "command, flag",
        [
            (["cpgen", "--s0", "5.0", "--eps-state", -1], "--eps-state"),
            (["cpgen", "--s0", "5.0", "--M", 0], "--M"),
            (["cpgen", "--s0", "5.0", "--Ngen", 0], "--Ngen"),
            (["cpgen", "--s0", "5.0", "--rollouts", 0], "--rollouts"),
            (["cpgen", "--s0", "5.0", "--rollouts", -1], "--rollouts"),
            (["drppi", "--Nf", 1], "--Nf"),
            (["drppi", "--M", 0], "--M"),
            (["baseline", "--method", "is", "--bound", "bootstrap", "--nboot", 0], "--nboot"),
            (["baseline", "--method", "augdr", "--nsynth", -3], "--nsynth"),
            (["baseline", "--method", "augis", "--nsynth", -5], "--nsynth"),
            (["baseline", "--method", "dm", "--rollouts", 0], "--rollouts"),
            (["baseline", "--method", "dm", "--rollouts", 1], "--rollouts"),
            (["baseline", "--method", "is", "--nboot", 99], "--nboot"),
            (["baseline", "--method", "is", "--degree", 3], "--degree"),
            (["cpgen", "--s0", "5.0", "--degree", 0], "--degree"),
            (["cpgen", "--s0", "5.0", "--eps-state", "nan"], "--eps-state"),
            (["cpgen", "--s0", "5.0", "--eps-state", "inf"], "--eps-state"),
            (["cpgen", "--s0", "5.0", "--eps-score", "nan"], "--eps-score"),
            (["cpgen", "--s0", "5.0", "--eps-score", "inf"], "--eps-score"),
        ],
        ids=[
            "cpgen-eps-state", "cpgen-m", "cpgen-ngen", "cpgen-rollouts-zero",
            "cpgen-rollouts-negative", "drppi-nf", "drppi-m", "baseline-nboot",
            "baseline-augdr-nsynth", "baseline-augis-nsynth", "baseline-dm-rollouts-zero",
            "baseline-dm-rollouts-one", "baseline-clt-nboot", "baseline-is-degree",
            "cpgen-degree", "cpgen-eps-state-nan", "cpgen-eps-state-inf",
            "cpgen-eps-score-nan", "cpgen-eps-score-inf",
        ],
    )
    def test_out_of_range_flag_exits_two(
        self, small_dataset, tmp_path, capsys, command, flag
    ):
        out = tmp_path / "out.json"
        code = run_cli(*command, "--data", small_dataset, "--seed", 1, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--method", "augdr", "--nsynth", -3], "--nsynth"),
            (["--method", "drppi:pdis", "--Nf", 1], "--Nf"),
            (["--method", "drppi:pdis", "--M", 0], "--M"),
            (["--method", "cpgen", "--s0", 5, "--Ngen", 0], "--Ngen"),
        ],
        ids=["augdr-nsynth", "drppi-nf", "drppi-m", "cpgen-ngen"],
    )
    def test_coverage_rejects_flag_before_ground_truth(self, tmp_path, capsys, flags, flag):
        cache, out = tmp_path / "cache", tmp_path / "cov.csv"
        code = run_cli(
            "coverage", *flags, "--n", 20, "--trials", 1, "--cache-dir", cache,
            "--seed", 1, "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be at least ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("**/ground_truth_*.json"))
        assert not out.exists()

    @pytest.mark.parametrize("bias", ["nan", "inf"])
    def test_coverage_nonfinite_bias_refused_before_ground_truth(
        self, tmp_path, capsys, monkeypatch, bias
    ):
        # ran the ground truth and a trial, then failed as "lower nan exceeds upper nan"
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("the ground truth was computed")

        monkeypatch.setattr("ope_ci.harness.monte_carlo_value", no_ground_truth)
        out = tmp_path / "cov.csv"
        code = run_cli(
            "coverage", "--model", "biased", "--bias", bias, "--method", "augis",
            "--n", 20, "--trials", 1, "--seed", 1, "--out", out,
        )
        assert code == 2
        assert single_error_line(capsys).startswith("error: --bias must be finite")
        assert not out.exists()

    def test_unbounded_band_exits_two(self, tmp_path, capsys):
        data, out = tmp_path / "smoke.jsonl", tmp_path / "edge.json"
        assert run_cli("simulate", "--n", 50, "--seed", 1, "--out", data) == 0
        code = run_cli(
            "cpgen", "--data", data, "--s0", 5, "--seed", 1, "--alpha", 0.01, "--out", out
        )
        assert code == 2
        err = single_error_line(capsys)
        assert err.endswith("use a larger N_gen (--Ngen) or a larger alpha\n")
        assert not out.exists()

    def test_coverage_stops_at_the_first_unbounded_band(self, tmp_path, capsys):
        # the study does not skip or widen an unbounded trial: it exits 2
        # and names the flag that bounds the band
        out = tmp_path / "cov.csv"
        code = run_cli(
            "coverage", "--method", "cpgen", "--s0", 5, "--n", 50, "--trials", 5,
            "--alpha", 0.01, "--seed", 1, "--out", out,
        )
        assert code == 2
        assert "--Ngen" in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["baseline", "--method", "is"], ["drppi", "--Nf", 100, "--M", 2]],
        ids=["baseline-is", "drppi"],
    )
    def test_nonfinite_state_in_dataset_exits_two(
        self, small_dataset, tmp_path, capsys, command
    ):
        lines = small_dataset.read_text().splitlines()
        record = json.loads(lines[3])
        record["states"][5][0] = math.nan
        lines[3] = json.dumps(record)  # written as the token NaN
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        bad.with_name("bad.jsonl.meta.json").write_text(
            small_dataset.with_name("data.jsonl.meta.json").read_text()
        )
        out = tmp_path / "out.json"
        code = run_cli(*command, "--data", bad, "--seed", 1, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: states and rewards must be finite\n"
        assert not out.exists()


def rewrite_record(source, target, edit):
    """Copy the dataset at ``source`` and its sidecar to ``target``, passing
    the fourth line's record through ``edit``."""
    lines = source.read_text().splitlines()
    lines[3] = edit(json.loads(lines[3]))
    target.write_text("\n".join(lines) + "\n")
    target.with_name(target.name + ".meta.json").write_text(
        source.with_name(source.name + ".meta.json").read_text()
    )
    return target


def single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


class TestOutOfRangeActions:
    @pytest.mark.parametrize("action", [-1, 11])
    @pytest.mark.parametrize(
        "command",
        [["baseline", "--method", "is"], ["drppi", "--Nf", 100, "--M", 2]],
        ids=["baseline-is", "drppi"],
    )
    def test_exits_two_with_zero_behavior_probability(
        self, small_dataset, tmp_path, capsys, command, action
    ):
        # 11 lies past the last action 10, and -1 must not read as action 10
        def edit(record):
            record["actions"][2] = action
            return json.dumps(record)

        bad = rewrite_record(small_dataset, tmp_path / "bad.jsonl", edit)
        out = tmp_path / "out.json"
        code = run_cli(*command, "--data", bad, "--seed", 1, "--out", out)
        assert code == 2
        assert "zero probability" in single_error_line(capsys)
        assert not out.exists()


class TestOutOfRangeInitialState:
    @pytest.mark.parametrize("s0", ["7", "-1"])
    @pytest.mark.parametrize("model", ["oracle", "gaussian"])
    def test_cpgen_finite_exits_two(self, tmp_path, capsys, model, s0):
        # -1 must not read as the last state
        data = tmp_path / "finite.jsonl"
        assert run_cli(
            "simulate", "--env", "finite", "--n", 40, "--seed", 1, "--out", data
        ) == 0
        out = tmp_path / "out.json"
        code = run_cli(
            "cpgen", "--env", "finite", "--model", model, "--data", data,
            f"--s0={s0}", "--M", 2, "--Ngen", 2, "--rollouts", 32,
            "--seed", 1, "--out", out,
        )
        assert code == 2
        assert f"state [{float(s0)}] lies outside" in single_error_line(capsys)
        assert not out.exists()


class TestDatasetFileErrors:
    def run_drppi(self, data, tmp_path):
        out = tmp_path / "out.json"
        code = run_cli("drppi", "--data", data, "--Nf", 100, "--seed", 1, "--out", out)
        assert not out.exists()
        return code

    def test_missing_data_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert self.run_drppi(missing, tmp_path) == 2
        err = single_error_line(capsys)
        assert str(missing) in err and ".meta.json" not in err

    def test_missing_sidecar(self, small_dataset, tmp_path, capsys):
        data = tmp_path / "copy.jsonl"
        data.write_text(small_dataset.read_text())
        assert self.run_drppi(data, tmp_path) == 2
        assert f"{data}.meta.json" in single_error_line(capsys)

    @pytest.mark.parametrize("key", ["states", "actions", "rewards"])
    def test_record_without_key(self, small_dataset, tmp_path, capsys, key):
        def edit(record):
            del record[key]
            return json.dumps(record)

        bad = rewrite_record(small_dataset, tmp_path / "bad.jsonl", edit)
        assert self.run_drppi(bad, tmp_path) == 2
        assert f"{bad} line 4:" in single_error_line(capsys)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda record: {**record, "actions": 5},
            lambda record: {**record, "rewards": 5},
            lambda record: {**record, "rewards": record["rewards"][:-1]},
        ],
        ids=["int-actions", "int-rewards", "one-reward-short"],
    )
    def test_record_fields_not_lists_of_one_length(self, small_dataset, tmp_path, capsys, edit):
        bad = rewrite_record(
            small_dataset, tmp_path / "bad.jsonl", lambda record: json.dumps(edit(record))
        )
        assert self.run_drppi(bad, tmp_path) == 2
        assert f"{bad} line 4:" in single_error_line(capsys)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda record: {**record, "states": [[*s, *s] for s in record["states"]]},
            lambda record: {**record, "states": [[1.0], [1.0, 2.0], *record["states"][2:]]},
            lambda record: {**record, "rewards": ["many", *record["rewards"][1:]]},
        ],
        ids=["two-dimensional-states", "ragged-states", "non-numeric-reward"],
    )
    def test_record_values_of_wrong_shape_or_type(
        self, small_dataset, tmp_path, capsys, edit
    ):
        bad = rewrite_record(
            small_dataset, tmp_path / "bad.jsonl", lambda record: json.dumps(edit(record))
        )
        assert self.run_drppi(bad, tmp_path) == 2
        assert f"{bad} line 4:" in single_error_line(capsys)

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("horizon", None), ("horizon", 20.9), ("horizon", 20.0), ("horizon", True),
            ("horizon", "20"), ("gamma", [1]), ("gamma", "x"), ("gamma", True),
            ("gamma", None),
        ],
    )
    def test_sidecar_value_of_wrong_type(self, small_dataset, tmp_path, capsys, key, value):
        # null and [1] ended in a TypeError traceback, 20.9 was read as 20,
        # true as 1, and "x" gave a message that named no file
        bad = rewrite_record(small_dataset, tmp_path / "bad.jsonl", json.dumps)
        meta_path = bad.with_name(bad.name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, key: value}) + "\n")
        assert self.run_drppi(bad, tmp_path) == 2
        kind = "an integer" if key == "horizon" else "a number"
        assert f"{meta_path}: {key} must be {kind}, got " in single_error_line(capsys)

    def edit_sidecar(self, small_dataset, tmp_path, **changes):
        """A copy of the dataset whose sidecar takes ``changes``; a change to
        None deletes its key."""
        bad = rewrite_record(small_dataset, tmp_path / "bad.jsonl", json.dumps)
        meta_path = bad.with_name(bad.name + ".meta.json")
        meta = {**json.loads(meta_path.read_text()), **changes}
        meta = {key: value for key, value in meta.items() if value is not None}
        meta_path.write_text(json.dumps(meta) + "\n")
        return bad, meta_path

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("gamma", 1.5, "gamma must lie in (0, 1], got 1.5"),
            ("gamma", 0.0, "gamma must lie in (0, 1], got 0.0"),
            ("gamma", -1, "gamma must lie in (0, 1], got -1"),
            ("horizon", 0, "horizon must be at least 1, got 0"),
            ("horizon", 2, "horizon 2 is below the longest trajectory's 20 steps"),
            ("horizon", 19, "horizon 19 is below the longest trajectory's 20 steps"),
            ("state_dim", 7, "state_dim 7 differs from the 1 coordinates of the states"),
            ("state_dim", 1.0, "state_dim must be an integer, got 1.0"),
            ("state_dim", "1", "state_dim must be an integer, got '1'"),
        ],
    )
    def test_sidecar_value_out_of_range(
        self, small_dataset, tmp_path, capsys, key, value, message
    ):
        # gamma 1.5 and horizon 2 exited 2 with messages that named no file,
        # and state_dim 7 over one-coordinate states was not read at all
        bad, meta_path = self.edit_sidecar(small_dataset, tmp_path, **{key: value})
        assert self.run_drppi(bad, tmp_path) == 2
        assert single_error_line(capsys) == f"error: {meta_path}: {message}\n"

    def test_sidecar_without_state_dim_is_read(self, small_dataset, tmp_path):
        data, _ = self.edit_sidecar(small_dataset, tmp_path, state_dim=None)
        out = tmp_path / "out.json"
        assert run_cli("drppi", "--data", data, "--Nf", 100, "--seed", 1, "--out", out) == 0
        assert math.isfinite(json.loads(out.read_text())["lo"])

    def test_malformed_json_line(self, small_dataset, tmp_path, capsys):
        bad = rewrite_record(
            small_dataset, tmp_path / "bad.jsonl", lambda record: json.dumps(record)[:-9]
        )
        assert self.run_drppi(bad, tmp_path) == 2
        err = single_error_line(capsys)
        assert f"{bad} line 4: malformed JSON" in err
        assert "column" not in err


# Each interval command, with arguments small enough for a 40-trajectory file
# and an initial state that both environments accept.
INTERVAL_COMMANDS = {
    "cpgen": ["cpgen", "--s0", "1", "--M", 2, "--Ngen", 2, "--rollouts", 32],
    "drppi": ["drppi", "--Nf", 100, "--M", 2],
    "baseline-is": ["baseline", "--method", "is"],
}


class TestEnvironmentMismatch:
    def simulate(self, tmp_path, env):
        data = tmp_path / f"{env}.jsonl"
        assert run_cli("simulate", "--env", env, "--n", 40, "--seed", 1, "--out", data) == 0
        return data

    def test_simulate_records_the_environment(self, tmp_path):
        for env in ("inventory", "finite"):
            data = self.simulate(tmp_path, env)
            meta = json.loads(data.with_name(data.name + ".meta.json").read_text())
            assert meta["env"] == env

    @pytest.mark.parametrize("command", INTERVAL_COMMANDS.values(), ids=INTERVAL_COMMANDS)
    @pytest.mark.parametrize(
        ("source", "claimed"), [("finite", "inventory"), ("inventory", "finite")]
    )
    def test_other_environment_exits_two(self, tmp_path, capsys, command, source, claimed):
        # finite data read as inventory gave a finite interval, and inventory
        # data read as finite ended in an IndexError traceback
        data = self.simulate(tmp_path, source)
        out = tmp_path / "out.json"
        code = run_cli(*command, "--env", claimed, "--data", data, "--seed", 1, "--out", out)
        assert code == 2
        err = single_error_line(capsys)
        assert f"{data}.meta.json" in err and f"'{source}'" in err and f"'{claimed}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", INTERVAL_COMMANDS.values(), ids=INTERVAL_COMMANDS)
    def test_sidecar_without_environment_is_read(self, tmp_path, command):
        data = self.simulate(tmp_path, "inventory")
        meta_path = data.with_name(data.name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        del meta["env"]
        meta_path.write_text(json.dumps(meta) + "\n")
        out = tmp_path / "out.json"
        assert run_cli(*command, "--data", data, "--seed", 1, "--out", out) == 0
        assert math.isfinite(json.loads(out.read_text())["lo"])
