import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eegbench import features as ft
from eegbench import wavelet as wv
from eegbench.corpus import SET_TAGS, load_signal
from eegbench.runner import EXTRACT_BLOCK
from eegbench.synthetic import synthesize_signal


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
        for family in ("db2", "db4", "coif1"):
            fm = ft.extract_matrix([rng.normal(size=512)], [0], family)
            rel = [v for v, n in zip(fm.values[0], fm.feature_names)
                   if n.endswith("relative_power")]
            assert len(rel) == 5
            assert sum(rel) == pytest.approx(1.0, abs=1e-10)

    def test_constant_signal_zero_detail_energy(self):
        fm = ft.extract_matrix([np.full(256, 4.0)], [0], "db4")
        details = [v for v, n in zip(fm.values[0], fm.feature_names)
                   if n.startswith("d") and n.endswith("_energy")]
        assert len(details) == 4
        assert max(details) < 1e-20

    def test_wavelet_feature_count(self):
        fm = ft.extract_matrix([np.random.default_rng(1).normal(size=512)], [0], "db2")
        assert len(fm.values[0]) == 75     # 5 bands x 15 statistics

    def test_one_spectrum_per_band_stack(self, monkeypatch):
        # psd_max/psd_min and spectral_entropy share one rfft per band stack
        calls = []
        psd = ft._psd_positive_bins
        monkeypatch.setattr(ft, "_psd_positive_bins", lambda x: calls.append(x.shape) or psd(x))
        stack = np.random.default_rng(3).normal(size=(3, 512))
        values, names = ft.wavelet_band_features(stack, "db4")
        assert values.shape == (3, 75) and len(names) == 75
        assert len(calls) == 5

    def test_wfe_is_identity(self):
        x = np.arange(16.0)
        fm = ft.extract_matrix([x], [0], "wfe")
        assert np.array_equal(fm.values, [x])
        assert fm.feature_names[0] == "sample_0000"

    def test_mfcc_route(self):
        fm = ft.extract_matrix([np.random.default_rng(3).normal(size=4097)], [0], "mfcc")
        assert len(fm.values[0]) == 28

    def test_unknown_extractor(self):
        with pytest.raises(ValueError, match="unknown extractor"):
            ft.extract_matrix(np.zeros((1, 64)), [0], "fft")

    def test_fixed_width_across_instances(self):
        rng = np.random.default_rng(5)
        instances = [rng.normal(size=512) for _ in range(12)]
        fm = ft.extract_matrix(instances, [0] * 12, "coif1")
        assert fm.values.shape == (12, 75)
        assert len(set(fm.feature_names)) == 75


@pytest.fixture(scope="module")
def signals(corpus_root):
    """Recordings from three sets, two whole runner tasks and three signals
    more, as the float64 rows of one matrix, the way the corpus holds them."""
    count = 2 * EXTRACT_BLOCK + 3
    paths = [p for tag in ("Z", "F", "S")
             for p in sorted((corpus_root / tag).iterdir())[:-(-count // 3)]]
    return np.array([load_signal(p) for p in paths[:count]], dtype=float)


def reference_band_statistics(x):
    """One band at a time, each formula written out for that row alone."""
    mu = x.mean()
    dev = x - mu
    sq = dev * dev
    var = float(np.mean(sq))
    energy = x * x
    p = energy / energy.sum()
    psd = (np.abs(np.fft.rfft(x)) ** 2 / x.size)[1:]
    q1, q3 = np.percentile(x, [25.0, 75.0])
    return {
        "mean": float(mu), "median": float(np.median(x)), "std": float(np.sqrt(var)),
        "variance": var, "energy": float(np.mean(x ** 2)),
        "psd_max": float(psd.max()), "psd_min": float(psd.min()),
        "shannon_entropy": float(-np.sum(p * np.log(np.where(p > 0, p, 1.0)))),
        "iqr": float(q3 - q1), "kurtosis": float(np.mean(sq * sq)) / (var * var),
        "total_variation": float(np.sum(np.abs(np.diff(x)))),
    }


def rows_one_at_a_time(signals, extractor):
    return np.vstack([ft.extract_matrix(x[None], [0], extractor).values for x in signals])


class TestBatchedExtraction:
    @pytest.mark.parametrize("extractor", ["wfe", "db2", "db4", "coif1", "mfcc"])
    def test_blocks_equal_one_row_calls(self, signals, extractor):
        # one 67-row stack, longer than any runner task, row for row
        assert len(signals) == 67
        fm = ft.extract_matrix(signals, [0] * len(signals), extractor)
        assert fm.values.tobytes() == rows_one_at_a_time(signals, extractor).tobytes()

    def test_block_memory_is_bounded(self, signals):
        # one runner task: 8.7 MB measured at a block of 32; a synthesis that
        # builds every tap's values and a flat index for one bincount took
        # it to 12.3 MB
        block = signals[:EXTRACT_BLOCK]
        assert {x.size for x in block} == {4097}
        tracemalloc.start()
        try:
            ft.extract_matrix(block, [0] * EXTRACT_BLOCK, "db4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_kurtosis_is_mean_fourth_power_over_variance_product(self):
        # kurtosis = mean((d*d)*(d*d)) / (var*var), var = mean(d*d): plain
        # products, not numpy's SIMD pow (dev ** 4) or C pow (var ** 2), which
        # round differently in most of these rows
        X = np.random.default_rng(1).normal(size=(2000, 16))
        stats = ft.band_statistics(X)
        for value, variance, x in zip(stats["kurtosis"], stats["variance"], X):
            dev = x - x.mean()
            sq = dev * dev
            var = float(np.mean(sq))
            assert variance == var
            assert value == float(np.mean(sq * sq)) / (var * var)

    def test_band_statistics_equal_scalar_reference(self, signals):
        # denoised bands hold exact zeros, which add 0 to the stacked entropy
        filt = wv.filter_for("db4")
        bands = wv.wavedec(wv.denoise(np.stack(signals), filt), filt).bands
        for band in bands:
            stats = ft.band_statistics(band)
            for i, row in enumerate(band):
                assert {k: v[i] for k, v in stats.items()} == reference_band_statistics(row)

    def test_denoised_db4_statistics_match_scipy(self, signals):
        # an oracle the code does not share: scipy's moments and its entr sum
        import scipy.stats
        filt = wv.filter_for("db4")
        sb = wv.wavedec(wv.denoise(signals, filt), filt)
        fm = ft.extract_matrix(signals, [0] * len(signals), "db4")
        column = {name: fm.values[:, j] for j, name in enumerate(fm.feature_names)}
        zero_terms = 0
        for band, name in zip(sb.bands, sb.names):
            zero_terms += np.sum(np.any(band == 0.0, axis=-1))
            psd = ft._psd_positive_bins(band)
            expected = {
                "kurtosis": scipy.stats.kurtosis(band, axis=-1, fisher=False),
                "shannon_entropy": scipy.stats.entropy(band * band, axis=-1),
                "spectral_entropy": scipy.stats.entropy(psd, axis=-1),
            }
            for key, want in expected.items():
                got = column[f"{name}_{key}"]
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (name, key)
        assert zero_terms > len(signals)

    def test_constant_and_zero_rows(self):
        # a constant row has kurtosis 0, an all-zero row entropy 0, and
        # neither touches its neighbours
        X = np.random.default_rng(4).normal(size=(4, 64))
        X[1] = 2.5
        X[2] = 0.0
        stats = ft.band_statistics(X)
        assert stats["kurtosis"][1] == stats["kurtosis"][2] == 0.0
        assert stats["shannon_entropy"][2] == 0.0
        assert ft._entropy(ft._psd_positive_bins(X))[1:3].tolist() == [0.0, 0.0]
        for i in (0, 3):
            one = ft.band_statistics(X[i])
            assert {k: float(v[i]) for k, v in stats.items()} == one


HOST_BITS = """
import hashlib
import numpy as np
from eegbench.features import band_statistics
stats = band_statistics(np.random.default_rng(11).normal(size=(300, 257)))
for key in ("variance", "kurtosis"):
    print(key, hashlib.sha256(stats[key].tobytes()).hexdigest())
"""


def test_variance_and_kurtosis_bits_do_not_depend_on_simd_dispatch():
    """``variance`` and ``kurtosis`` bytes equal with and without numpy's
    AVX-512 kernels, in two fresh interpreters (the variable is read when
    numpy loads). The entropies are left out on purpose: they go through
    numpy's ``log``, whose AVX-512 and libm kernels round differently."""
    src = str(Path(ft.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    capped = {**env, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    default, without_avx512 = (
        subprocess.run([sys.executable, "-c", HOST_BITS], capture_output=True, text=True,
                       check=True, env=e).stdout for e in (env, capped))
    assert "kurtosis" in default
    assert default == without_avx512


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
    @pytest.mark.parametrize("case", ["wide", "ill_conditioned", "factor400"])
    def test_wide_axes_match_triangular_cholesky_qr(self, case, target):
        # the Cholesky-QR step with scipy's triangular solve, which pca_fit
        # replaces by numpy's LU solve
        from scipy.linalg import solve_triangular

        if case == "factor400":
            X, train, _, _ = factor_case(400, 50.0)
            X = X[train]
        elif case == "ill_conditioned":
            X = np.random.default_rng(3).normal(size=(60, 300)) * 0.7 ** np.arange(300)
        else:
            X = np.random.default_rng(21).normal(size=(40, 300))
        centred = X - X.mean(axis=0)
        evals, evecs = np.linalg.eigh(centred @ centred.T)
        evals, evecs = np.clip(evals[::-1], 0.0, None), evecs[:, ::-1]
        model = ft.pca_fit(X, target)
        k = model.n_components
        axes = centred.T @ (evecs[:, :k] / np.sqrt(evals[:k]))
        ref = solve_triangular(np.linalg.cholesky(axes.T @ axes), axes.T, lower=True)
        ref *= np.where(ref[np.arange(k), np.abs(ref).argmax(axis=1)] < 0, -1.0, 1.0)[:, None]
        assert k > 1
        assert np.abs(model.components - ref).max() < 1e-13

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

    @pytest.mark.parametrize("shape", [(40, 300), (300, 40)], ids=["wide", "tall"])
    def test_fit_leaves_input_alone_by_default(self, shape):
        X = np.random.default_rng(22).normal(size=shape) + 5.0
        before = X.copy()
        ft.pca_fit(X, variance_target=0.95)
        assert X.tobytes() == before.tobytes()

    def test_apply_never_mutates_model(self):
        X = np.random.default_rng(12).normal(size=(25, 4))
        model = ft.pca_fit(X)
        before = [a.copy() for a in (model.mean, model.components, model.explained_variance_ratio)]
        ft.pca_apply(model, np.random.default_rng(13).normal(size=(9, 4)))
        after = (model.mean, model.components, model.explained_variance_ratio)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

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


def factor_case(n_train, offset):
    """500 x 4 097: 20 latent factors and noise, around a column offset of
    ``offset`` standard normals; a random split with ``n_train`` training rows."""
    rng = np.random.default_rng(31)
    X = (rng.normal(size=(500, 20)) @ rng.normal(size=(20, 4097))
         + 0.3 * rng.normal(size=(500, 4097)) + rng.normal(size=4097) * offset)
    order = rng.permutation(500)
    return X, np.sort(order[:n_train]), np.sort(order[n_train:]), 0.95


def gram_case(name):
    """(X, training rows, test rows, variance target) for ``TestGramPcaSplit``."""
    rng = np.random.default_rng(31)
    if name == "rank_deficient":
        X = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 100)) + 7.0
        train = np.arange(0, 30, 3)
        return X, train, np.setdiff1d(np.arange(30), train), 0.99
    if name == "ill_conditioned":
        # column scales 0.7^i: the kept eigenvalues span about 12 decades
        X = rng.normal(size=(80, 300)) * 0.7 ** np.arange(300)
        return X, np.arange(60), np.arange(60, 80), 1.0
    if name == "zero_variance":
        return np.full((30, 100), 3.0), np.arange(20), np.arange(20, 30), 0.95
    n_train, offset = name.split("_offset")
    return factor_case(int(n_train[len("factor"):]), float(offset))


class TestGramPcaSplit:
    """The Gram split against ``pca_fit`` + ``pca_apply`` on the training rows."""

    # The largest error over the largest training projection. The Gram
    # matrix is not centred, so its rounding grows with r², r the rms
    # column mean over the rms column spread of the training rows: measured
    # 0.8e-15 to 1.7e-15 times (1 + r²) for r from 4 to 2 200 (the session
    # corpus has r = 0.05). The ill-conditioned case keeps eigenvalues 12
    # decades below the first and measured 1.1e-10.
    BASE_RTOL = {"factor333_offset50": 1e-14, "factor400_offset50": 1e-14,
                 "factor400_offset1000": 1e-14, "rank_deficient": 1e-14,
                 "ill_conditioned": 1e-9, "zero_variance": 0.0}

    @pytest.mark.parametrize("name", list(BASE_RTOL))
    def test_matches_primal_fit(self, name):
        X, train, test, target = gram_case(name)
        before = X.copy()
        train_proj, test_proj = ft.gram_pca_split(X, X @ X.T, train, test, target)
        assert X.tobytes() == before.tobytes()
        model = ft.pca_fit(X[train], target)
        ref_train, ref_test = ft.pca_apply(model, X[train]), ft.pca_apply(model, X[test])
        assert train_proj.shape == ref_train.shape == (len(train), model.n_components)
        assert test_proj.shape == ref_test.shape == (len(test), model.n_components)
        if name == "zero_variance":
            assert model.n_components == 0
            return
        assert model.n_components > 1
        r2 = np.mean(model.mean ** 2) / np.mean(X[train].var(axis=0))
        bound = self.BASE_RTOL[name] * (1.0 + r2) * np.abs(ref_train).max()
        assert np.abs(train_proj - ref_train).max() <= bound
        assert np.abs(test_proj - ref_test).max() <= bound

    def test_large_dc_offset_matches_svd_oracle(self):
        # column means about 2 000 times the column spread, as a recording
        # with a large DC offset would give: the uncentred Gram matrix loses
        # about r² of its relative precision, and a split must still agree
        # with the SVD of the centred training rows to 1e-14 (1 + r²) of the
        # largest projection, about 4e-8 here (measured 1.1e-8)
        rng = np.random.default_rng(32)
        X = rng.normal(size=(120, 20)) @ rng.normal(size=(20, 1500)) + 0.3 * rng.normal(size=(120, 1500))
        X += rng.normal(size=1500) * 2000.0 * np.sqrt(np.mean(X.var(axis=0)))
        order = rng.permutation(120)
        train, test = np.sort(order[:96]), np.sort(order[96:])
        train_proj, test_proj = ft.gram_pca_split(X, X @ X.T, train, test, 0.95)

        mean = X[train].mean(axis=0)
        U, S, Vt = np.linalg.svd(X[train] - mean, full_matrices=False)
        k = int(np.searchsorted(np.cumsum(S ** 2 / np.sum(S ** 2)), 0.95 - 1e-12) + 1)
        assert train_proj.shape == (96, k) and test_proj.shape == (24, k) and k > 10
        sign = np.sign(np.sum(U[:, :k] * train_proj, axis=0))
        ref_train = U[:, :k] * (S[:k] * sign)
        ref_test = (X[test] - mean) @ (Vt[:k].T * sign)
        r2 = np.mean(mean ** 2) / np.mean(X[train].var(axis=0))
        assert 1500 ** 2 < r2 < 2500 ** 2
        bound = 1e-14 * (1.0 + r2) * np.abs(ref_train).max()
        assert np.abs(train_proj - ref_train).max() <= bound
        assert np.abs(test_proj - ref_test).max() <= bound

    def test_sign_tie_across_column_blocks_takes_the_first(self):
        # column 300 (second block) is column 10 negated and both dominate the
        # first axis: its two largest loadings tie, and the first is positive
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 600))
        X[:, 10] *= 100.0
        X[:, 300] = -X[:, 10]
        train, test = np.arange(40), np.arange(40, 60)
        assert ft.SIGN_BLOCK <= 300 < 2 * ft.SIGN_BLOCK
        model = ft.pca_fit(X[train], 0.95)
        assert model.components[0, 10] == -model.components[0, 300] > 0
        train_proj, test_proj = ft.gram_pca_split(X, X @ X.T, train, test, 0.95)
        ref_train = ft.pca_apply(model, X[train])
        scale = np.abs(ref_train).max()
        assert np.abs(train_proj - ref_train).max() <= 1e-12 * scale
        assert np.abs(test_proj - ft.pca_apply(model, X[test])).max() <= 1e-12 * scale


class TestDefaultExtractionBits:
    """Each extractor's output, pinned bit for bit.

    sha256 over the matrix bytes, then the feature names joined by newlines,
    of ten synthetic recordings (two per set, seed 3), recorded with numpy
    2.4.6 and its bundled OpenBLAS 0.3.31 on x86-64; another BLAS
    build may round the filter products differently. Two kinds of column
    still depend on the CPU through numpy's ``log``, which runs its own
    kernel on AVX-512 hosts and libm's elsewhere: ``mfcc``'s log filterbank
    energies (its pin moves with AVX-512 disabled) and the wavelet
    families' Shannon and spectral entropies (these ten recordings keep
    their bits; of the seed-7 corpus's 37 500 values per family, 5 ``db4``
    and 4 ``coif1`` entropies do not). Kurtosis and variance come from
    plain products, which round the same on every IEEE host.
    """

    EXPECTED = {
        "db2": "b5fa466d4c9473784c50e0e0c31d3597a4a24c9df8359f2d2735c96ab873c501",
        "db4": "983b33adf4478138d20f36bd643fa1d9a2b4951883177fb964c1cbd84af08f7e",
        "coif1": "34d7e65bb6cf7fd4f074323be22cdd821423a45ddd0acc1ed989d971d183fd61",
        "mfcc": "083278f8d11ab0c7f80013b6fc65d9561792ce0127b9dff0fc55f984dd8cf3df",
    }

    @pytest.mark.parametrize("extractor", list(EXPECTED))
    def test_matrix_hash(self, extractor):
        signals = [synthesize_signal(tag, i, seed=3) for tag in SET_TAGS for i in range(2)]
        fm = ft.extract_matrix(signals, [tag == "S" for tag in SET_TAGS for _ in range(2)],
                               extractor)
        digest = hashlib.sha256(np.ascontiguousarray(fm.values).tobytes())
        digest.update("\n".join(fm.feature_names).encode())
        assert digest.hexdigest() == self.EXPECTED[extractor]
