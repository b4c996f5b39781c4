import json
import re

import pytest

from eegbench import cli, config
from eegbench.config import DEFAULTS, ENV_CORPUS_ROOT, build_config, validate_config
from eegbench.errors import ConfigError


@pytest.fixture()
def minimal_config(tmp_path, corpus_root):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"corpus_root": str(corpus_root)}))
    return path


class TestValidateConfig:
    def test_minimal_fills_all_defaults(self, minimal_config):
        cfg = validate_config(minimal_config)
        assert cfg.extractors == ["wfe", "db2", "db4", "coif1", "mfcc"]
        assert cfg.models == ["lda", "qda", "knn", "nb", "svm", "rf", "gb"]
        assert cfg.schemes == ["imbalanced", "balanced"]
        assert cfg.kfold_plan.k == 10
        assert cfg.holdout_plan.n_repeats == 50
        assert cfg.holdout_plan.test_fraction == 0.2
        assert cfg.master_seed == DEFAULTS["master_seed"]

    def test_unknown_key_is_named(self, tmp_path, corpus_root):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"corpus_root": str(corpus_root), "modles": []}))
        with pytest.raises(ConfigError, match="modles"):
            validate_config(path)

    def test_nested_unknown_key(self, corpus_root):
        with pytest.raises(ConfigError, match=r"kfold\..*folds"):
            build_config({"corpus_root": str(corpus_root), "kfold": {"folds": 3}})

    def test_docstring_lists_the_schema_keys(self):
        listed = set()
        for line in config.__doc__.splitlines():
            if line.startswith("* "):
                listed.update(re.findall(r"``(\w+)``", line.split(" -- ")[0]))
        assert listed == set(config._SCHEMA)

    def test_unknown_model_and_extractor(self, corpus_root):
        with pytest.raises(ConfigError, match="mlp"):
            build_config({"corpus_root": str(corpus_root), "models": ["mlp"]})
        with pytest.raises(ConfigError, match="fft"):
            build_config({"corpus_root": str(corpus_root), "extractors": ["fft"]})

    def test_missing_corpus_root(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_CORPUS_ROOT, raising=False)
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="corpus_root"):
            validate_config(path)

    def test_env_var_override(self, tmp_path, corpus_root, monkeypatch):
        monkeypatch.setenv(ENV_CORPUS_ROOT, str(corpus_root))
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = validate_config(path)
        assert cfg.corpus_root == corpus_root

    def test_round_trip_is_identical(self, minimal_config, tmp_path):
        cfg = validate_config(minimal_config)
        emitted = tmp_path / "normalized.json"
        emitted.write_text(json.dumps(cfg.normalized()))
        again = validate_config(emitted)
        assert again.normalized() == cfg.normalized()
        assert again.digest() == cfg.digest()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            validate_config(path)

    def test_plan_validation_propagates(self, corpus_root):
        with pytest.raises(ConfigError, match="k-fold"):
            build_config({"corpus_root": str(corpus_root), "kfold": {"k": 1}})

    def test_bad_variance_target(self, corpus_root):
        with pytest.raises(ConfigError, match="unknown key 'pca_variance_target'"):
            build_config({"corpus_root": str(corpus_root), "pca_variance_target": 1.5})

    # the extraction, model and PCA settings are constants: a block or value
    # for them, even an empty one or one that held the default, is an unknown key
    @pytest.mark.parametrize("section, options, message", [
        ("wavelet", {"extension_mode": "periodic"}, "unknown key 'wavelet'"),
        ("wavelet", {"threshold_method": "median"}, "unknown key 'wavelet'"),
        ("wavelet", {"levels": 0}, "unknown key 'wavelet'"),
        ("mfcc", {"log_base": "ten"}, "unknown key 'mfcc'"),
        ("mfcc", {"frame_len": 64, "frame_step": 128}, "unknown key 'mfcc'"),
        ("mfcc", {"n_filters": 10, "n_coeffs": 12}, "unknown key 'mfcc'"),
        ("mfcc", {"frame_len": 5000}, "unknown key 'mfcc'"),
        ("mfcc", {"n_filters": 300}, "unknown key 'mfcc'"),
        ("strict_corpus", False, "unknown key 'strict_corpus'"),
        ("wavelet", {"levels": 20}, "unknown key 'wavelet'"),
        ("wavelet", {}, "unknown key 'wavelet'"),
        ("mfcc", {}, "unknown key 'mfcc'"),
        ("wavelet", {"levels": 4, "extension_mode": "periodized"}, "unknown key 'wavelet'"),
        ("mfcc", {"n_filters": 26}, "unknown key 'mfcc'"),
        ("hyperparams", {"svm": {"kernel": "foo"}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"knn": {"k": "three"}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_features": 0}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_features": 0.5}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_features": -3}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_features": "log2"}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_features": True}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_depth": 0}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_depth": -1}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"max_depth": "x"}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"gb": {"max_depth": 0}}, "unknown key 'hyperparams'"),
        # bool subclasses int: true must not pass as 1, nor false as 0
        ("jobs", True, "jobs"),
        ("master_seed", False, "master_seed"),
        ("wavelet", {"levels": True}, "unknown key 'wavelet'"),
        ("kfold", {"n_repeats": True}, "n_repeats"),
        ("holdout", {"n_repeats": True}, "n_repeats"),
        ("mfcc", {"frame_step": True}, "unknown key 'mfcc'"),
        ("hyperparams", {"knn": {"k": True}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"rf": {"n_trees": True}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"gb": {"n_stages": True}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"svm": {"C": True}}, "unknown key 'hyperparams'"),
        ("hyperparams", {"lda": {"ridge": True}}, "unknown key 'hyperparams'"),
        ("hyperparams", {}, "unknown key 'hyperparams'"),
        ("pca_variance_target", 0.95, "unknown key 'pca_variance_target'"),
        ("pca_variance_target", None, "unknown key 'pca_variance_target'"),
        ("schemes", ["balanced", "imbalanced", "balanced"], "duplicate scheme 'balanced'"),
        ("extractors", ["db2", "db2", "mfcc"], "duplicate extractor 'db2'"),
        ("models", ["lda", "lda", "knn"], "duplicate model 'lda'"),
    ], ids=["extension_mode", "threshold_method", "levels", "log_base", "frame_step",
            "n_coeffs", "mfcc_frame_too_long", "mfcc_too_many_filters", "strict_corpus",
            "levels_too_deep", "wavelet_empty", "mfcc_empty", "wavelet_default",
            "mfcc_default", "svm_kernel", "knn_k", "rf_max_features_0",
            "rf_max_features_half", "rf_max_features_negative", "rf_max_features_log2",
            "rf_max_features_bool", "rf_max_depth_0", "rf_max_depth_negative",
            "rf_max_depth_text", "gb_max_depth_0", "jobs_bool", "master_seed_bool",
            "levels_bool", "kfold_n_repeats_bool", "holdout_n_repeats_bool",
            "frame_step_bool", "knn_k_bool", "rf_n_trees_bool", "gb_n_stages_bool",
            "svm_C_bool", "lda_ridge_bool", "hyperparams_empty", "pca_variance_target",
            "pca_variance_target_null", "schemes_duplicate", "extractors_duplicate",
            "models_duplicate"])
    def test_bad_option_values(self, corpus_root, section, options, message):
        with pytest.raises(ConfigError, match=message):
            build_config({"corpus_root": str(corpus_root), section: options})

    def test_off_default_options_accepted(self, corpus_root):
        cfg = build_config({
            "corpus_root": str(corpus_root),
            "kfold": {"k": 5, "n_repeats": 2},
            "profile": "custom",
        })
        assert cfg.kfold_plan.k == 5
        assert cfg.profile == "custom"


class TestCli:
    def test_validate_subcommand(self, minimal_config, capsys):
        assert cli.main(["validate", str(minimal_config)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["profile"] == "reproduction"

    def test_validate_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"corpus_root": "/nonexistent-dir-xyz"}))
        assert cli.main(["validate", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_validate_rejects_bad_option_value(self, tmp_path, corpus_root, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"corpus_root": str(corpus_root),
                                    "holdout": {"test_fraction": 1.5}}))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("options", [
        {"wavelet": {"levels": 20}},
        {"hyperparams": {"svm": {"kernel": "foo"}}},
        {"hyperparams": {"knn": {"k": "three"}}},
        {"mfcc": {"frame_len": 5000}},
        {"mfcc": {"n_filters": 300}},
        {"wavelet": {}},
        {"mfcc": {}},
        # the smallest class holds 100 recordings in either scheme
        {"kfold": {"k": 200}},
        {"holdout": {"test_fraction": 0.001}},
        {"hyperparams": {}},
        {"pca_variance_target": None},
        {"extractors": ["db2", "db2", "mfcc"], "models": ["lda", "lda", "knn"], "jobs": 2},
    ], ids=["levels_too_deep", "svm_kernel", "knn_k", "mfcc_frame_too_long",
            "mfcc_too_many_filters", "wavelet_empty", "mfcc_empty", "kfold_k_200",
            "holdout_fraction_0_001", "hyperparams_empty", "pca_variance_target_null",
            "duplicate_levels"])
    def test_unrunnable_values_fail_before_corpus_load(self, tmp_path, corpus_root, capsys,
                                                       monkeypatch, options):
        from eegbench import runner

        def no_load(*args, **kwargs):
            raise AssertionError("corpus loaded before the configuration was rejected")

        monkeypatch.setattr(runner, "load_corpus", no_load)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"corpus_root": str(corpus_root), **options}))
        for command in ("validate", "run"):
            assert cli.main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("via", ["--out", "output_dir"])
    def test_run_output_under_a_file_fails_before_any_work(self, tmp_path, corpus_root,
                                                           capsys, monkeypatch, via):
        from eegbench import runner

        def no_build(*args, **kwargs):
            raise AssertionError("datasets built before the output path was rejected")

        monkeypatch.setattr(runner, "build_datasets", no_build)
        blocker = tmp_path / "file"
        blocker.write_text("keep")
        out = blocker / "report"
        raw = {"corpus_root": str(corpus_root)}
        if via == "output_dir":
            raw["output_dir"] = str(out)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        argv = ["run", str(path), "--quiet"] + (["--out", str(out)] if via == "--out" else [])
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: a parent of the output path is not a directory: {out}\n")
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_run_rejects_jobs_below_one(self, minimal_config, capsys, monkeypatch, jobs):
        from eegbench import runner

        def no_load(*args, **kwargs):
            raise AssertionError("corpus loaded before --jobs was rejected")

        monkeypatch.setattr(runner, "load_corpus", no_load)
        assert cli.main(["run", str(minimal_config), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == "config error: jobs must be at least 1\n"

    def test_stats_unanalysable_csv_is_data_error(self, tmp_path, corpus_root, capsys):
        # one k-fold repeat gives one replication per cell, too few for the ANOVA
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus_root": str(corpus_root), "output_dir": str(tmp_path / "report"),
            "schemes": ["balanced"], "extractors": ["mfcc", "db2"], "models": ["lda", "nb"],
            "kfold": {"k": 2}, "holdout": {"n_repeats": 1}}))
        assert cli.main(["run", str(cfg), "--quiet"]) == 0
        capsys.readouterr()
        assert cli.main(["stats", str(tmp_path / "report" / "cells_kfold.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "two replications per cell" in err

    def test_stats_failure_leaves_no_partial_tables(self, tmp_path, capsys):
        from eegbench.reporting import write_long_csv

        # balanced can be analysed (three replications per cell); imbalanced,
        # analysed after it, cannot (one replication per cell)
        rows = []
        for i, (extractor, model) in enumerate([("db2", "lda"), ("db2", "nb"),
                                                ("mfcc", "lda"), ("mfcc", "nb")]):
            acc = [0.80 + 0.03 * i + 0.01 * r * (i % 3 + 1) for r in range(3)]
            rows += [("balanced", extractor, model, r, a, a, a) for r, a in enumerate(acc)]
            rows.append(("imbalanced", extractor, model, 0, acc[0], acc[0], acc[0]))
        write_long_csv(rows, tmp_path / "cells.csv")
        out = tmp_path / "o"
        assert cli.main(["stats", str(tmp_path / "cells.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "two replications per cell" in err
        left = [p.name for pattern in ("anova_*", "omega_squared_*", "hsd_*", "inference_*")
                for p in out.glob(pattern)]
        assert left == []
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith("o.tmp-")] == []

    def test_stats_rejects_duplicated_rows(self, tmp_path, capsys):
        from eegbench.reporting import write_long_csv

        rows = [("balanced", extractor, model, r, 0.8 + 0.05 * i + 0.01 * r * (i + 1), 0.8, 0.9)
                for i, (extractor, model) in enumerate([("db2", "lda"), ("db2", "nb"),
                                                        ("mfcc", "lda"), ("mfcc", "nb")])
                for r in range(3)]
        path = tmp_path / "cells.csv"
        write_long_csv(rows, path)
        assert cli.main(["stats", str(path), "--out", str(tmp_path / "once")]) == 0
        capsys.readouterr()
        write_long_csv(rows + rows, path)
        out = tmp_path / "twice"
        assert cli.main(["stats", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"data error: {path}: duplicate row for "
                                           "scheme=balanced extractor=db2 model=lda "
                                           "replication=0\n")
        assert not out.exists()

    def test_stats_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli.main(["stats", str(tmp_path / "none.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_stats_out_existing_file_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        from eegbench import reporting

        def no_read(*args, **kwargs):
            raise AssertionError("cells CSV read before --out was rejected")

        monkeypatch.setattr(reporting, "read_long_csv", no_read)
        out = tmp_path / "o"
        out.write_text("keep")
        assert cli.main(["stats", str(tmp_path / "cells.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: output path is not a directory: {out}\n"
        assert out.read_text() == "keep"

    def test_synth_writes_layout(self, tmp_path, capsys, monkeypatch):
        import eegbench.synthetic as synthetic

        # keep runtime small: 2 files per set
        monkeypatch.setattr(synthetic, "SIGNALS_PER_SET", 2)
        assert cli.main(["synth", str(tmp_path / "corpus")]) == 0
        for tag in ("Z", "O", "N", "F", "S"):
            assert sorted(p.name for p in (tmp_path / "corpus" / tag).iterdir()) == \
                [f"{tag}001.txt", f"{tag}002.txt"]
        assert len((tmp_path / "corpus" / "S" / "S002.txt").read_text().split()) == 4097

    def test_features_dump(self, tmp_path, corpus_root, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus_root": str(corpus_root),
            "schemes": ["balanced"],
            "extractors": ["mfcc"],
        }))
        out = tmp_path / "features.csv"
        assert cli.main(["features", str(cfg), "--scheme", "balanced",
                         "--extractor", "mfcc", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 201
        assert lines[0].endswith(",label")

    def test_features_unknown_extractor_in_config(self, tmp_path, corpus_root):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus_root": str(corpus_root), "extractors": ["mfcc"]}))
        assert cli.main(["features", str(cfg), "--extractor", "db4",
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_features_out_directory_fails_before_extraction(self, tmp_path, corpus_root,
                                                            capsys, monkeypatch):
        from eegbench import runner

        def no_load(*args, **kwargs):
            raise AssertionError("corpus loaded before --out was rejected")

        monkeypatch.setattr(runner, "load_corpus", no_load)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_root": str(corpus_root), "extractors": ["mfcc"]}))
        assert cli.main(["features", str(cfg), "--extractor", "mfcc",
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: output path is a directory: {tmp_path}\n"

    def test_features_out_creates_missing_parent(self, tmp_path, corpus_root, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_root": str(corpus_root), "extractors": ["mfcc"]}))
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert cli.main(["features", str(cfg), "--scheme", "balanced", "--extractor", "mfcc",
                         "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 201

    def test_features_scheme_defaults_to_first_configured(self, tmp_path, corpus_root, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus_root": str(corpus_root), "schemes": ["balanced"], "extractors": ["mfcc"]}))
        out = tmp_path / "x.csv"
        assert cli.main(["features", str(cfg), "--extractor", "mfcc", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 201
