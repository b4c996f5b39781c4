import dataclasses
import json

import pytest

from eegbench import cli
from eegbench.config import DEFAULTS, ENV_CORPUS_ROOT, build_config, validate_config
from eegbench.errors import ConfigError
from eegbench.mfcc import MfccConfig


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
        assert cfg.pca_variance_target == 0.95
        assert cfg.master_seed == DEFAULTS["master_seed"]

    def test_unknown_key_is_named(self, tmp_path, corpus_root):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"corpus_root": str(corpus_root), "modles": []}))
        with pytest.raises(ConfigError, match="modles"):
            validate_config(path)

    def test_nested_unknown_key(self, corpus_root):
        with pytest.raises(ConfigError, match=r"hyperparams\.knn\..*neighbors"):
            build_config({"corpus_root": str(corpus_root),
                          "hyperparams": {"knn": {"neighbors": 3}}})

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
        with pytest.raises(ConfigError, match="variance"):
            build_config({"corpus_root": str(corpus_root), "pca_variance_target": 1.5})

    @pytest.mark.parametrize("section, options, message", [
        ("wavelet", {"extension_mode": "periodic"}, "extension_mode"),
        ("wavelet", {"threshold_method": "median"}, "threshold_method"),
        ("wavelet", {"levels": 0}, "levels"),
        ("mfcc", {"log_base": "ten"}, "log_base"),
        ("mfcc", {"frame_len": 64, "frame_step": 128}, "frame_step"),
        ("mfcc", {"n_filters": 10, "n_coeffs": 12}, "coefficients"),
        ("mfcc", {"frame_len": 5000}, "shorter than one 5000-sample frame"),
        ("mfcc", {"n_filters": 300}, "covers no FFT bin"),
        ("strict_corpus", False, "unknown key 'strict_corpus'"),
        ("wavelet", {"levels": 20}, "levels"),
        ("hyperparams", {"svm": {"kernel": "foo"}}, "kernel"),
        ("hyperparams", {"knn": {"k": "three"}}, r"hyperparams\.knn"),
        ("hyperparams", {"rf": {"max_features": 0}}, r"hyperparams\.rf: max_features"),
        ("hyperparams", {"rf": {"max_features": 0.5}}, r"hyperparams\.rf: max_features"),
        ("hyperparams", {"rf": {"max_features": -3}}, r"hyperparams\.rf: max_features"),
        ("hyperparams", {"rf": {"max_features": "log2"}}, r"hyperparams\.rf: max_features"),
        ("hyperparams", {"rf": {"max_features": True}}, r"hyperparams\.rf: max_features"),
        ("hyperparams", {"rf": {"max_depth": 0}}, r"hyperparams\.rf: max_depth"),
        ("hyperparams", {"rf": {"max_depth": -1}}, r"hyperparams\.rf: max_depth"),
        ("hyperparams", {"rf": {"max_depth": "x"}}, r"hyperparams\.rf: max_depth"),
        ("hyperparams", {"gb": {"max_depth": 0}}, r"hyperparams\.gb: max_depth"),
        # bool subclasses int: true must not pass as 1, nor false as 0
        ("jobs", True, "jobs"),
        ("master_seed", False, "master_seed"),
        ("wavelet", {"levels": True}, "levels"),
        ("kfold", {"n_repeats": True}, "n_repeats"),
        ("holdout", {"n_repeats": True}, "n_repeats"),
        ("mfcc", {"frame_step": True}, "frame_step"),
        ("hyperparams", {"knn": {"k": True}}, r"hyperparams\.knn: k"),
        ("hyperparams", {"rf": {"n_trees": True}}, r"hyperparams\.rf: n_trees"),
        ("hyperparams", {"gb": {"n_stages": True}}, r"hyperparams\.gb: n_stages"),
        ("hyperparams", {"svm": {"C": True}}, r"hyperparams\.svm: C"),
        ("hyperparams", {"lda": {"ridge": True}}, r"hyperparams\.lda: ridge"),
    ], ids=["extension_mode", "threshold_method", "levels", "log_base", "frame_step",
            "n_coeffs", "mfcc_frame_too_long", "mfcc_too_many_filters", "strict_corpus",
            "levels_too_deep", "svm_kernel", "knn_k", "rf_max_features_0",
            "rf_max_features_half", "rf_max_features_negative", "rf_max_features_log2",
            "rf_max_features_bool", "rf_max_depth_0", "rf_max_depth_negative",
            "rf_max_depth_text", "gb_max_depth_0", "jobs_bool", "master_seed_bool",
            "levels_bool", "kfold_n_repeats_bool", "holdout_n_repeats_bool",
            "frame_step_bool", "knn_k_bool", "rf_n_trees_bool", "gb_n_stages_bool",
            "svm_C_bool", "lda_ridge_bool"])
    def test_bad_option_values(self, corpus_root, section, options, message):
        with pytest.raises(ConfigError, match=message):
            build_config({"corpus_root": str(corpus_root), section: options})

    def test_mfcc_keys_are_the_config_fields(self, corpus_root):
        for f in dataclasses.fields(MfccConfig):
            value = getattr(MfccConfig(), f.name)
            cfg = build_config({"corpus_root": str(corpus_root), "mfcc": {f.name: value}})
            assert cfg.mfcc_options == {f.name: value}
        with pytest.raises(ConfigError, match=r"unknown key mfcc\.'log_base'"):
            build_config({"corpus_root": str(corpus_root), "mfcc": {"log_base": "natural"}})

    def test_levels_limited_by_filter_length(self, corpus_root):
        # 4 097 samples leave 5 coefficients after ten levels: a four-tap db2
        # takes an eleventh level, an eight-tap db4 does not
        raw = {"corpus_root": str(corpus_root), "wavelet": {"levels": 11}}
        assert build_config({**raw, "extractors": ["db2", "mfcc"]}).wavelet_options["levels"] == 11
        with pytest.raises(ConfigError, match="db4"):
            build_config({**raw, "extractors": ["db2", "db4"]})

    def test_off_default_options_accepted(self, corpus_root):
        cfg = build_config({
            "corpus_root": str(corpus_root),
            "wavelet": {"extension_mode": "symmetric", "threshold_method": "hard",
                        "levels": 1, "denoise": False},
            "mfcc": {"n_filters": 20},
            "hyperparams": {"svm": {"kernel": "poly"}},
        })
        assert cfg.wavelet_options["extension_mode"] == "symmetric"
        assert cfg.mfcc_options == {"n_filters": 20}


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
                                    "wavelet": {"extension_mode": "periodic"}}))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("options", [
        {"wavelet": {"levels": 20}},
        {"hyperparams": {"svm": {"kernel": "foo"}}},
        {"hyperparams": {"knn": {"k": "three"}}},
        {"mfcc": {"frame_len": 5000}},
        {"mfcc": {"n_filters": 300}},
    ], ids=["levels_too_deep", "svm_kernel", "knn_k", "mfcc_frame_too_long",
            "mfcc_too_many_filters"])
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

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_run_rejects_jobs_below_one(self, minimal_config, capsys, monkeypatch, jobs):
        from eegbench import runner

        def no_load(*args, **kwargs):
            raise AssertionError("corpus loaded before --jobs was rejected")

        monkeypatch.setattr(runner, "load_corpus", no_load)
        assert cli.main(["run", str(minimal_config), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == "config error: jobs must be at least 1\n"

    def test_stats_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli.main(["stats", str(tmp_path / "none.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        assert "data error" in capsys.readouterr().err

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
