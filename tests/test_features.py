import math

import numpy as np
import pytest

from eegbench import features as ft
from eegbench import wavelet as wv
from eegbench.corpus import load_signal


class TestBandStatistics:
    def test_alternating_vector_hand_values(self):
        s = ft.band_statistics([1.0, -1.0, 1.0, -1.0])
        assert s["mean"] == 0.0
        assert s["median"] == 0.0
        assert s["energy"] == 1.0
        assert s["variance"] == 1.0
        assert s["total_variation"] == 6.0
        assert s["iqr"] == 2.0
        assert s["kurtosis"] == 1.0
        # fft of [1,-1,1,-1] is [0, 0, 4, 0]; positive bins |X|^2/N = [0, 4]
        assert s["psd_max"] == pytest.approx(4.0, abs=1e-12)
        assert s["psd_min"] == pytest.approx(0.0, abs=1e-12)

    def test_constant_vector(self):
        s = ft.band_statistics(np.full(8, 2.5))
        assert s["variance"] == 0.0
        assert s["energy"] == pytest.approx(6.25)
        assert s["total_variation"] == 0.0
        assert s["iqr"] == 0.0
        assert s["kurtosis"] == 0.0  # degenerate-sigma convention

    def test_gaussian_kurtosis_monte_carlo(self):
        x = np.random.default_rng(123).normal(size=100_000)
        assert ft.band_statistics(x)["kurtosis"] == pytest.approx(3.0, abs=0.1)

    def test_rejects_tiny_vectors(self):
        with pytest.raises(ValueError):
            ft.band_statistics([1.0, 2.0, 3.0])

    def test_permutation_invariance_except_total_variation(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=64)
        perm = rng.permutation(x)
        a, b = ft.band_statistics(x), ft.band_statistics(perm)
        for key in ("mean", "median", "variance", "energy", "shannon_entropy", "iqr", "kurtosis"):
            assert a[key] == pytest.approx(b[key], rel=1e-9), key
        assert abs(a["total_variation"] - b["total_variation"]) > 1e-6


class TestShannonEntropy:
    def test_single_nonzero_coefficient(self):
        assert ft.shannon_entropy([0.0, 5.0, 0.0]) == 0.0

    def test_uniform_magnitudes(self):
        n = 16
        assert ft.shannon_entropy(np.full(n, -2.0)) == pytest.approx(math.log(n), rel=1e-12)

    def test_hand_computed_212(self):
        # p = (4/6, 1/6, 1/6)
        expected = -(4 / 6 * math.log(4 / 6) + 2 * (1 / 6) * math.log(1 / 6))
        assert ft.shannon_entropy([2.0, 1.0, 1.0]) == pytest.approx(expected, rel=1e-12)
        assert ft.shannon_entropy([2.0, 1.0, 1.0]) == pytest.approx(0.8675, abs=1e-4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        assert ft.shannon_entropy(17.0 * x) == pytest.approx(ft.shannon_entropy(x), abs=1e-10)

    def test_all_zero(self):
        assert ft.shannon_entropy(np.zeros(5)) == 0.0


class TestAssemble:
    def test_relative_powers_sum_to_one(self):
        rng = np.random.default_rng(0)
        for family in ft.WAVELET_EXTRACTORS:
            fv = ft.assemble_features(rng.normal(size=512), family)
            rel = [v for v, n in zip(fv.values, fv.names) if n.endswith("relative_power")]
            assert len(rel) == 5
            assert sum(rel) == pytest.approx(1.0, abs=1e-10)

    def test_constant_signal_zero_detail_energy(self):
        fv = ft.assemble_features(np.full(256, 4.0), "db4", denoise=False)
        details = [v for v, n in zip(fv.values, fv.names)
                   if n.startswith("d") and n.endswith("_energy")]
        assert len(details) == 4
        assert max(details) < 1e-20

    def test_wavelet_feature_count(self):
        fv = ft.assemble_features(np.random.default_rng(1).normal(size=512), "db2")
        assert len(fv.values) == 5 * (len(ft.BAND_STAT_NAMES) + len(ft.EXTRA_BAND_NAMES))

    def test_one_spectrum_per_band_stack(self, monkeypatch):
        # psd_max/psd_min and spectral_entropy share one rfft per band stack
        calls = []
        psd = ft._psd_positive_bins
        monkeypatch.setattr(ft, "_psd_positive_bins", lambda x: calls.append(x.shape) or psd(x))
        stack = np.random.default_rng(3).normal(size=(3, 512))
        fv = ft.wavelet_band_features(stack, "db4", levels=4)
        assert fv.values.shape == (3, 5 * (len(ft.BAND_STAT_NAMES) + len(ft.EXTRA_BAND_NAMES)))
        assert len(calls) == 5

    def test_wfe_is_identity(self):
        x = np.arange(16.0)
        fv = ft.assemble_features(x, "wfe")
        assert np.array_equal(fv.values, x)
        assert fv.names[0] == "sample_0000"

    def test_mfcc_route(self):
        fv = ft.assemble_features(np.random.default_rng(3).normal(size=4097), "mfcc")
        assert len(fv.values) == 28

    def test_unknown_extractor(self):
        with pytest.raises(ValueError, match="unknown extractor"):
            ft.assemble_features(np.zeros(64), "fft")

    def test_fixed_width_across_instances(self):
        rng = np.random.default_rng(5)
        instances = [rng.normal(size=512) for _ in range(12)]
        fm = ft.extract_matrix(instances, [0] * 12, "coif1")
        assert fm.values.shape == (12, 75)
        assert len(set(fm.feature_names)) == 75


@pytest.fixture(scope="module")
def signals(corpus_root):
    """Recordings from three sets, a count that is no multiple of the block."""
    paths = [p for tag in ("Z", "F", "S") for p in sorted((corpus_root / tag).iterdir())[:7]]
    return [load_signal(p, p.parent.name).samples for p in paths[:2 * ft.EXTRACT_BLOCK + 3]]


def reference_band_statistics(x):
    """One band at a time, in Python-float arithmetic where the rounding matters."""
    mu = x.mean()
    dev = x - mu
    var = float(np.mean(dev ** 2))
    sq = x * x
    p = sq / sq.sum()
    psd = (np.abs(np.fft.rfft(x)) ** 2 / x.size)[1:]
    q1, q3 = np.percentile(x, [25.0, 75.0])
    return {
        "mean": float(mu), "median": float(np.median(x)), "std": float(np.sqrt(var)),
        "variance": var, "energy": float(np.mean(x ** 2)),
        "psd_max": float(psd.max()), "psd_min": float(psd.min()),
        "shannon_entropy": float(-np.sum(p[p > 0] * np.log(p[p > 0]))),
        "iqr": float(q3 - q1), "kurtosis": float(np.mean(dev ** 4) / var ** 2),
        "total_variation": float(np.sum(np.abs(np.diff(x)))),
    }


def rows_one_at_a_time(signals, extractor, **options):
    return np.vstack([ft.assemble_features(x, extractor, **options).values for x in signals])


class TestBatchedExtraction:
    @pytest.mark.parametrize("extractor, options", [
        ("db2", {}), ("db4", {}), ("coif1", {}), ("mfcc", {}),
        ("db4", {"extension_mode": "symmetric"}),
        ("coif1", {"threshold_method": "hard"}),
        ("db2", {"extension_mode": "symmetric", "threshold_method": "hard", "levels": 6}),
    ], ids=["db2", "db4", "coif1", "mfcc", "db4-symmetric", "coif1-hard",
            "db2-symmetric-hard-6"])
    def test_blocks_equal_one_row_calls(self, signals, extractor, options):
        assert len(signals) % ft.EXTRACT_BLOCK
        fm = ft.extract_matrix(signals, [0] * len(signals), extractor, **options)
        assert fm.values.tobytes() == rows_one_at_a_time(signals, extractor, **options).tobytes()

    def test_kurtosis_divides_by_python_float_square(self):
        # C pow and np.square round var² differently in about 1 of 700 rows here
        X = np.random.default_rng(1).normal(size=(2000, 16))
        kurt = ft.band_statistics(X)["kurtosis"]
        for value, x in zip(kurt, X):
            dev = x - x.mean()
            var = float(np.mean(dev ** 2))
            assert value == float(np.mean(dev ** 4) / var ** 2)

    def test_band_statistics_equal_scalar_reference(self, signals):
        # denoised bands hold exact zeros, which the entropy must skip
        filt = wv.filter_for("db4")
        bands = wv.wavedec(wv.denoise(np.stack(signals), filt), filt).bands
        for band in bands:
            stats = ft.band_statistics(band)
            for i, row in enumerate(band):
                assert {k: v[i] for k, v in stats.items()} == reference_band_statistics(row)


class TestFeatureMatrix:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            ft.FeatureMatrix(np.zeros((2, 2)), ["a", "a"], np.zeros(2))

    def test_rejects_nan(self):
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            ft.FeatureMatrix(bad, ["a", "b"], np.zeros(1))

    def test_csv_round_shape(self, tmp_path):
        fm = ft.FeatureMatrix(np.array([[1.5, 2.5], [3.5, 4.5]]), ["f1", "f2"],
                              np.array([0, 1]))
        p = tmp_path / "m.csv"
        fm.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "f1,f2,label"
        assert lines[1].endswith(",0") and lines[2].endswith(",1")


def svd_pca_reference(X, target):
    """k, ratios and sign-fixed components from a thin SVD of the centred rows."""
    _, svals, vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    ratios = svals ** 2 / np.sum(svals ** 2)
    k = int(np.searchsorted(np.cumsum(ratios), target - 1e-12) + 1)
    comps = vt[:k].copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return k, ratios, comps


def max_orthonormality_error(components):
    return np.abs(components @ components.T - np.eye(components.shape[0])).max()


class TestPca:
    @pytest.mark.parametrize("shape", [(40, 300), (300, 40)], ids=["wide", "tall"])
    def test_matches_svd_reference(self, shape):
        rng = np.random.default_rng(21)
        X = rng.normal(size=shape) * rng.uniform(0.1, 3.0, size=shape[1])
        k, ratios, comps = svd_pca_reference(X, 0.95)
        model = ft.pca_fit(X, variance_target=0.95)
        assert model.n_components == k
        assert np.abs(model.explained_variance_ratio - ratios).max() < 1e-12
        assert np.abs(model.components - comps).max() < 1e-10

    def test_ill_conditioned_wide_axes_orthonormal(self):
        # column scales 0.7^i: the kept eigenvalues span about 12 decades
        X = np.random.default_rng(3).normal(size=(60, 300)) * 0.7 ** np.arange(300)
        model = ft.pca_fit(X, variance_target=1.0)
        assert model.n_components > 30
        assert max_orthonormality_error(model.components) < 1e-10

    @pytest.mark.parametrize("target", [0.95, 1.0])
    def test_rank_deficient_wide(self, target):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 5)) @ rng.normal(size=(5, 100))
        model = ft.pca_fit(X, variance_target=target)
        assert np.all(np.isfinite(model.components))
        assert np.all(np.isfinite(model.explained_variance_ratio))
        assert model.n_components == 5
        assert max_orthonormality_error(model.components) < 1e-10

    def test_collinear_data_one_component(self):
        t = np.linspace(-1, 1, 50)
        X = np.column_stack([t, 2 * t])
        model = ft.pca_fit(X, variance_target=0.95)
        assert model.n_components == 1
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_gaussian_equal_ratios(self):
        X = np.random.default_rng(77).normal(size=(10_000, 2))
        model = ft.pca_fit(X, variance_target=1.0)
        r = model.explained_variance_ratio
        assert abs(r[0] - r[1]) < 0.05

    def test_full_reconstruction(self):
        X = np.random.default_rng(6).normal(size=(40, 7))
        model = ft.pca_fit(X, variance_target=1.0)
        reduced = ft.pca_apply(model, X)
        recon = reduced @ model.components + model.mean
        assert np.abs(recon - X).max() < 1e-8

    def test_axes_orthonormal(self):
        X = np.random.default_rng(8).normal(size=(60, 10)) * np.arange(1, 11)
        model = ft.pca_fit(X, variance_target=0.99)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(model.n_components)).max() < 1e-10

    def test_ratios_sorted_and_bounded(self):
        X = np.random.default_rng(4).normal(size=(30, 6))
        model = ft.pca_fit(X)
        r = model.explained_variance_ratio
        assert np.all(np.diff(r) <= 1e-15)
        assert np.all(r >= 0)
        assert r.sum() <= 1 + 1e-12

    def test_zero_variance_input(self):
        X = np.ones((5, 3))
        model = ft.pca_fit(X)
        assert model.n_components == 0
        assert ft.pca_apply(model, X).shape == (5, 0)

    def test_apply_never_mutates_model(self):
        X = np.random.default_rng(12).normal(size=(25, 4))
        model = ft.pca_fit(X)
        before = model.state_digest()
        ft.pca_apply(model, np.random.default_rng(13).normal(size=(9, 4)))
        assert model.state_digest() == before

    def test_apply_column_mismatch(self):
        model = ft.pca_fit(np.random.default_rng(1).normal(size=(10, 4)))
        with pytest.raises(ValueError, match="column count"):
            ft.pca_apply(model, np.zeros((3, 5)))

    def test_variance_target_validation(self):
        X = np.random.default_rng(1).normal(size=(10, 3))
        with pytest.raises(ValueError):
            ft.pca_fit(X, variance_target=0.0)
        with pytest.raises(ValueError):
            ft.pca_fit(X, variance_target=1.5)
