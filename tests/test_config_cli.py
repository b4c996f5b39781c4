import json

import pytest

from eegbench import cli
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
    ], ids=["extension_mode", "threshold_method", "levels", "log_base", "frame_step",
            "n_coeffs"])
    def test_bad_option_values(self, corpus_root, section, options, message):
        with pytest.raises(ConfigError, match=message):
            build_config({"corpus_root": str(corpus_root), section: options})

    def test_off_default_options_accepted(self, corpus_root):
        cfg = build_config({
            "corpus_root": str(corpus_root),
            "wavelet": {"extension_mode": "symmetric", "threshold_method": "hard",
                        "levels": 1, "denoise": False},
            "mfcc": {"log_base": "base10"},
            "hyperparams": {"svm": {"kernel": "poly"}},
        })
        assert cfg.wavelet_options["extension_mode"] == "symmetric"
        assert cfg.mfcc_options == {"log_base": "base10"}


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

    def test_stats_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli.main(["stats", str(tmp_path / "none.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_synth_writes_layout(self, tmp_path, capsys, monkeypatch):
        import eegbench.synthetic as synthetic

        def tiny(root, seed=0, per_set=100, n_samples=4097):
            return synthetic.write_corpus.__wrapped__(root, seed, 2, 128) \
                if hasattr(synthetic.write_corpus, "__wrapped__") else None

        # keep runtime small: 2 files of 128 samples per set
        real = synthetic.write_corpus
        monkeypatch.setattr(
            synthetic, "write_corpus",
            lambda root, seed=0: real(root, seed=seed, per_set=2, n_samples=256))
        assert cli.main(["synth", str(tmp_path / "corpus")]) == 0
        assert (tmp_path / "corpus" / "S" / "S001.txt").exists()

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
