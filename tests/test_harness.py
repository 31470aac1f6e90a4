import csv
import json

import numpy as np
import pytest

from ope_ci.harness import (
    CSV_COLUMNS,
    METHODS,
    StudyConfig,
    TrialDetails,
    config_digest,
    derive_seed,
    emit_results,
    fields_read,
    ground_truth_value,
    make_env_spec,
    make_method,
    run_coverage_study,
)
from ope_ci.models import GaussianRegressionModel

# every name:qualifier the registry takes; cpgen takes no qualifier
METHOD_SPECS = [
    f"{name}:{qualifier}" if qualifier else name
    for name, entry in METHODS.items()
    for qualifier in entry.qualifiers or (None,)
]


class TestSeedDerivation:
    def test_no_collisions_across_trials(self):
        seeds = {derive_seed(12345, t) for t in range(100_000)}
        assert len(seeds) == 100_000

    def test_derived_streams_differ(self):
        a = np.random.default_rng(derive_seed(7, 0)).random(4)
        b = np.random.default_rng(derive_seed(7, 1)).random(4)
        assert not np.allclose(a, b)

    def test_deterministic(self):
        assert derive_seed(99, 3) == derive_seed(99, 3)

    def test_digest_stable_under_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})


class TestGroundTruth:
    def test_finite_env_is_exact(self):
        spec = make_env_spec("finite", discount=0.9)
        from ope_ci.envs import oracle_value

        assert ground_truth_value(spec, 1) == oracle_value(
            spec.env, spec.target, 0.9
        )

    def test_inventory_cached_value_identical(self, tmp_path):
        spec = make_env_spec("inventory")
        spec = type(spec)(**{**spec.__dict__, "value_rollouts": 2000})
        fresh = ground_truth_value(spec, 5, cache_dir=tmp_path)
        cached = ground_truth_value(spec, 5, cache_dir=tmp_path)
        assert fresh == cached
        # one complete entry and no temporary file left beside it
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert files[0].match("ground_truth_*.json")
        assert json.loads(files[0].read_text())["value"] == fresh

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        spec = make_env_spec("inventory")
        spec = type(spec)(**{**spec.__dict__, "value_rollouts": 1000})

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("ope_ci.harness.os.replace", fail)
        with pytest.raises(OSError):
            ground_truth_value(spec, 6, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_conditional_ground_truth_differs(self, tmp_path):
        spec_pop = make_env_spec("finite", discount=0.9)
        spec_s0 = make_env_spec("finite", s0=(2.0,), discount=0.9)
        assert ground_truth_value(spec_pop, 1) != ground_truth_value(spec_s0, 1)

    def test_cache_env_var_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPE_CI_CACHE_DIR", str(tmp_path))
        spec = make_env_spec("inventory")
        spec = type(spec)(**{**spec.__dict__, "value_rollouts": 1000})
        ground_truth_value(spec, 9)
        assert list(tmp_path.glob("ground_truth_*.json"))


class TestEnvSpec:
    @pytest.mark.parametrize(
        "name, s0",
        [
            ("finite", (7.0,)), ("finite", (-1.0,)),
            ("inventory", (11.0,)), ("inventory", (5.0, 1.0)),
        ],
    )
    def test_initial_state_outside_state_box_rejected(self, name, s0):
        # -1 must not read as the finite MDP's last state
        with pytest.raises(ValueError, match="lies outside the state box"):
            make_env_spec(name, s0=s0)


# config_digest of the default StudyConfig's describe(), which every coverage
# report's config_digest covers.
DEFAULT_CONFIG_DIGEST = "5d50e0eac2f7"


class TestStudyConfig:
    @pytest.mark.parametrize(
        "field, least",
        [("n_model_rollouts", 2), ("pairs_per_trajectory", 1), ("cpgen_m", 1),
         ("cpgen_n_gen", 1), ("cpgen_rollouts", 1), ("n_synth", 0), ("dm_rollouts", 2),
         ("n_boot", 100)],
    )
    def test_count_below_least_rejected(self, field, least):
        StudyConfig(**{field: least})
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got"):
            StudyConfig(**{field: least - 1})

    @pytest.mark.parametrize("degree", [0, 3])
    def test_degree_outside_one_two_rejected(self, degree):
        StudyConfig(model_degree=1)
        with pytest.raises(ValueError, match=f"^model_degree must be 1 or 2, got {degree}$"):
            StudyConfig(model_degree=degree)

    @pytest.mark.parametrize("field", ["model", "clip"])
    def test_unknown_model_or_clip_rejected(self, field):
        # built without error, and a study ran its ground truth before failing
        with pytest.raises(ValueError, match=f"^{field} must be one of .*, got 'bogus'$"):
            StudyConfig(**{field: "bogus"})

    def test_default_digest_unchanged(self):
        assert config_digest(StudyConfig().describe()) == DEFAULT_CONFIG_DIGEST


class TestCoverageStudy:
    def test_single_trial_coverage_is_zero_or_one(self):
        spec = make_env_spec("finite", discount=0.9)
        report = run_coverage_study(spec, "is:clt", 50, 1, 0.05, 3)
        assert report.empirical_coverage in (0.0, 1.0)

    def test_same_seed_identical_report(self):
        spec = make_env_spec("finite", discount=0.9)
        r1 = run_coverage_study(spec, "pdis:clt", 40, 5, 0.1, 11)
        r2 = run_coverage_study(spec, "pdis:clt", 40, 5, 0.1, 11)
        assert r1 == r2

    def test_clt_over_plain_returns_nominal_coverage(self):
        # target = behavior turns is:clt into a textbook CLT mean interval
        spec = make_env_spec("finite", discount=0.9)
        spec = type(spec)(**{**spec.__dict__, "target": spec.behavior})
        report = run_coverage_study(spec, "is:clt", 100, 500, 0.05, 21)
        assert 0.92 <= report.empirical_coverage <= 0.98

    def test_details_align_with_report(self):
        spec = make_env_spec("finite", discount=0.9)
        report, details = run_coverage_study(
            spec, "drppi:is", 20, 6, 0.1, 13,
            config=StudyConfig(model="oracle", n_model_rollouts=32,
                               pairs_per_trajectory=2),
            return_details=True,
        )
        assert report.trials == 6
        assert details.covered.sum() / 6 == report.empirical_coverage
        assert np.isfinite(details.variances).all()  # drppi exposes variances
        assert report.mean_width == pytest.approx(
            float((details.uppers - details.lowers).mean())
        )

    @pytest.mark.parametrize("method", METHOD_SPECS)
    def test_every_method_interval_carries_its_point(self, method):
        # coverage studies read the point error from ``interval.point``
        spec = make_env_spec("inventory", s0=(5.0,))
        config = StudyConfig(n_model_rollouts=32, pairs_per_trajectory=2, cpgen_rollouts=32,
                             n_synth=40, dm_rollouts=32, n_boot=200)
        run = make_method([method], spec, config, ground_truth=0.0)
        rng = np.random.default_rng(8)
        dataset = spec.env.sample_dataset(spec.behavior, 60, rng, spec.discount)
        point = run(dataset, 0.1, rng)[0].interval.point
        assert isinstance(point, float) and np.isfinite(point)

    @pytest.mark.parametrize("model", ["gaussian", "oracle", "biased"])
    @pytest.mark.parametrize("method", METHOD_SPECS)
    def test_a_trial_reads_the_declared_fields(self, method, model):
        """The settings a spec's trial reads are those its registry entry
        declares under the model kind, which the CLI's refusal relies on."""
        read = set()

        class Recording(StudyConfig):
            def __getattribute__(self, name):
                if name in StudyConfig.__dataclass_fields__:
                    read.add(name)
                return super().__getattribute__(name)

        config = Recording(model=model, n_model_rollouts=32, pairs_per_trajectory=2,
                           cpgen_rollouts=32, n_synth=40, dm_rollouts=32, n_boot=200)
        spec = make_env_spec("inventory", s0=(5.0,))
        dataset = spec.env.sample_dataset(spec.behavior, 60, np.random.default_rng(8))
        read.clear()  # construction checks every field
        run = make_method([method], spec, config, ground_truth=50.0)
        run(dataset, 0.2, np.random.default_rng(9))
        assert read == fields_read(method, model)

    def test_cpgen_method_requires_s0(self):
        spec = make_env_spec("finite", discount=0.9)
        with pytest.raises(ValueError):
            run_coverage_study(spec, "cpgen", 20, 2, 0.1, 1)

    def test_drppi_out_of_range_alpha_rejected(self):
        spec = make_env_spec("finite", discount=0.9)
        with pytest.raises(ValueError):
            run_coverage_study(spec, "drppi:pdis", 20, 1, 1.5, 1)

    @pytest.mark.parametrize("method", ["is", "cpgen"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_out_of_range_alpha_rejected_before_ground_truth(
        self, method, alpha, monkeypatch
    ):
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("ground truth computed before the alpha check")

        monkeypatch.setattr("ope_ci.harness.ground_truth_value", no_ground_truth)
        spec = make_env_spec("finite", s0=(1.0,), discount=0.9)
        with pytest.raises(ValueError, match="alpha"):
            run_coverage_study(spec, method, 20, 1, alpha, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_fewer_than_one_trajectory_rejected_before_ground_truth(self, n, monkeypatch):
        # numpy refused a negative size only after the ground truth, and a
        # zero-trajectory dataset failed inside the first method
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("ground truth computed before the size check")

        monkeypatch.setattr("ope_ci.harness.ground_truth_value", no_ground_truth)
        spec = make_env_spec("finite", discount=0.9)
        with pytest.raises(ValueError, match=f"^n_trajectories must be at least 1, got {n}$"):
            run_coverage_study(spec, "is", n, 1, 0.1, 1)

    def test_unknown_method_rejected(self):
        spec = make_env_spec("finite", discount=0.9)
        with pytest.raises(ValueError):
            run_coverage_study(spec, "nonsense", 20, 2, 0.1, 1)

    def test_bad_or_empty_sequence_rejected_before_ground_truth(self, monkeypatch):
        def no_ground_truth(*args, **kwargs):
            raise AssertionError("ground truth computed before the spec check")

        monkeypatch.setattr("ope_ci.harness.ground_truth_value", no_ground_truth)
        spec = make_env_spec("finite", discount=0.9)
        with pytest.raises(ValueError, match="dm:foo"):
            run_coverage_study(spec, ["is", "drppi:wis", "dm:foo"], 20, 1, 0.1, 1)
        with pytest.raises(ValueError, match="no method specs"):
            run_coverage_study(spec, [], 20, 1, 0.1, 1)


SMALL = StudyConfig(n_model_rollouts=32, pairs_per_trajectory=2, cpgen_rollouts=32,
                    n_synth=40, dm_rollouts=32, n_boot=200)


def small_truth_spec(s0=None):
    spec = make_env_spec("inventory", s0=s0)
    return type(spec)(**{**spec.__dict__, "value_rollouts": 2000})


class TestManySpecStudy:
    def test_each_spec_equals_its_one_spec_study(self):
        """Every registry spec (cpgen at a fixed s0), plus two that repeat a
        kind under another spelling: each (report, details) pair of one study
        of all of them equals that spec's study alone, field by field."""
        spec = small_truth_spec(s0=(5.0,))
        methods = [*METHOD_SPECS, "drppi", "is"]
        together = run_coverage_study(
            spec, methods, 40, 3, 0.1, 17, config=SMALL, return_details=True
        )
        assert [report.method for report, _ in together] == methods
        for method, (report, details) in zip(methods, together):
            alone, alone_details = run_coverage_study(
                spec, method, 40, 3, 0.1, 17, config=SMALL, return_details=True
            )
            assert report == alone
            for field in TrialDetails.__dataclass_fields__:
                got, want = getattr(details, field), getattr(alone_details, field)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field

    def test_one_draw_per_trial_and_one_fit_per_drppi_fold(self, monkeypatch):
        spec = small_truth_spec()
        draws, fits = [], []
        sample, fit = type(spec.env).sample_dataset, GaussianRegressionModel.fit
        monkeypatch.setattr(type(spec.env), "sample_dataset",
                            lambda *args: draws.append(1) or sample(*args))
        monkeypatch.setattr(GaussianRegressionModel, "fit",
                            lambda *args: fits.append(1) or fit(*args))
        reports = run_coverage_study(
            spec, ["is:clt", "drppi:is", "drppi:wis", "drppi:pdis"], 40, 3, 0.1, 5,
            config=SMALL,
        )
        assert [r.method for r in reports] == ["is:clt", "drppi:is", "drppi:wis", "drppi:pdis"]
        assert len(draws) == 3
        assert len(fits) == 3 * 2  # two cross-fit folds per trial

    def test_drppi_corrections_share_one_ratio_table_per_fold(self, monkeypatch):
        """Each cross-fit fold reads all three corrections from one step-ratio
        table: two tables per trial, not one per correction and fold."""
        import ope_ci.reweighting as reweighting

        tables, table = [], reweighting.step_ratio_table
        monkeypatch.setattr(reweighting, "step_ratio_table",
                            lambda *args: tables.append(1) or table(*args))
        run_coverage_study(small_truth_spec(), ["drppi:is", "drppi:wis", "drppi:pdis"],
                           40, 3, 0.1, 5, config=SMALL)
        assert len(tables) == 3 * 2


class TestEmitResults:
    def make_reports(self):
        spec = make_env_spec("finite", discount=0.9)
        r1 = run_coverage_study(spec, "is:clt", 30, 3, 0.1, 5)
        r2 = run_coverage_study(spec, "wis:clt", 30, 3, 0.1, 5)
        return [r2, r1]  # deliberately out of order

    def test_csv_columns_and_round_trip(self, tmp_path):
        reports = self.make_reports()
        out = tmp_path / "cov.csv"
        emit_results(reports, out, "csv")
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert [r["method"] for r in rows] == ["is:clt", "wis:clt"]  # sorted
        by_method = {r.method: r for r in reports}
        for row in rows:
            want = by_method[row["method"]]
            assert float(row["coverage"]) == want.empirical_coverage
            assert float(row["mean_width"]) == want.mean_width
            assert float(row["ground_truth"]) == want.ground_truth
            assert int(row["trials"]) == want.trials

    def test_json_mirrors_fields(self, tmp_path):
        reports = self.make_reports()
        out = tmp_path / "cov.json"
        emit_results(reports, out, "json")
        rows = json.loads(out.read_text())
        assert [r["method"] for r in rows] == ["is:clt", "wis:clt"]
        assert set(rows[0]) == set(CSV_COLUMNS)

    def test_single_report_single_row(self, tmp_path):
        reports = self.make_reports()[:1]
        out = tmp_path / "one.csv"
        emit_results(reports, out, "csv")
        assert len(out.read_text().strip().splitlines()) == 2

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "x.csv")
