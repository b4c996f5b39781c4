"""Statistical features from wavelet sub-bands (or raw signals) and PCA reduction.

The three feature routes mirror the benchmark's extractor menu:

* ``db2`` / ``db4`` / ``coif1`` -- denoise, 4-level decomposition, then a
  fixed statistic set per band,
* ``mfcc`` -- the aggregated cepstral vector from :mod:`eegbench.mfcc`,
* ``wfe`` -- no extraction at all, raw samples straight into the matrix.

Extraction works along the last axis: a ``(..., n)`` array is a stack of
signals and yields a ``(..., width)`` stack of feature rows, each row
bit-for-bit the one its signal gives alone; a 1-D signal gives one row.
``extract_matrix`` feeds the extractors a few signals at a time.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import mfcc as mfcc_mod
from . import wavelet as wv

EXTRACTORS = ("wfe", "db2", "db4", "coif1", "mfcc")
WAVELET_EXTRACTORS = ("db2", "db4", "coif1")

BAND_STAT_NAMES = (
    "mean", "median", "std", "variance", "energy", "psd_max", "psd_min",
    "shannon_entropy", "iqr", "kurtosis", "total_variation",
)
EXTRA_BAND_NAMES = ("max", "min", "relative_power", "spectral_entropy")

# signals stacked per extraction call: larger blocks save little time and
# raise the parent process's peak memory
EXTRACT_BLOCK = 8


def _entropy(weights):
    # -sum(p log p) of p = weights / sum(weights) along the last axis; a zero
    # row has entropy 0. Each row sums its nonzero terms only: a full row
    # with zeros in it would change numpy's pairwise summation order.
    w = np.asarray(weights, dtype=float)
    total = w.sum(axis=-1, keepdims=True)
    p = np.divide(w, total, out=np.zeros_like(w), where=total > 0)
    out = []
    for row in p.reshape(-1, p.shape[-1]):
        q = row[row > 0]
        out.append(-np.sum(q * np.log(q)) if q.size else 0.0)
    return np.array(out).reshape(p.shape[:-1])[()]


def shannon_entropy(coeffs):
    """Energy-distribution entropy of a coefficient vector (per row).

    Treats p_i = x_i^2 / sum(x^2) as a probability distribution (scale
    invariant). Zero terms contribute nothing; an all-zero vector has
    entropy 0.
    """
    x = np.asarray(coeffs, dtype=float)
    if x.size == 0:
        raise ValueError("empty coefficient vector")
    return _entropy(x * x)


def _psd_positive_bins(x: np.ndarray) -> np.ndarray:
    # squared FFT modulus over N, positive-frequency bins only
    spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2 / x.shape[-1]
    return spec[..., 1:]


def band_statistics(coeffs, psd=None) -> dict:
    """The per-band statistic set; population (1/N) moment conventions.

    Each value is a float for a 1-D band and an array over the leading
    axes for a stack of bands. ``psd`` is the band's ``_psd_positive_bins``
    when the caller has it already.
    """
    x = np.asarray(coeffs, dtype=float)
    if x.shape[-1] < 4:
        raise ValueError("need at least four coefficients")
    mu = x.mean(axis=-1)
    dev = x - mu[..., None]
    var = np.mean(dev ** 2, axis=-1)
    # squared as Python floats (C pow): np.square rounds some rows differently
    var_sq = np.array([v ** 2 for v in np.ravel(var).tolist()]).reshape(np.shape(var))
    kurt = np.divide(np.mean(dev ** 4, axis=-1), var_sq,
                     out=np.zeros(np.shape(var)), where=var > 0)
    psd = _psd_positive_bins(x) if psd is None else psd
    q1, q3 = np.percentile(x, [25.0, 75.0], axis=-1)
    stats = {
        "mean": mu,
        "median": np.median(x, axis=-1),
        "std": np.sqrt(var),
        "variance": var,
        "energy": np.mean(x ** 2, axis=-1),
        "psd_max": psd.max(axis=-1),
        "psd_min": psd.min(axis=-1),
        "shannon_entropy": shannon_entropy(x),
        "iqr": q3 - q1,
        "kurtosis": kurt,
        "total_variation": np.sum(np.abs(np.diff(x, axis=-1)), axis=-1),
    }
    if x.ndim == 1:
        return {key: float(val) for key, val in stats.items()}
    return stats


@dataclass
class FeatureVector:
    """Feature values (one row, or a stack of rows along the leading axes) and their names."""

    values: np.ndarray
    names: list


def wavelet_band_features(samples, family: str, levels: int = 4,
                          extension_mode: str = "periodized", denoise: bool = True,
                          threshold_method: str = "soft") -> FeatureVector:
    filt = wv.filter_for(family)
    x = np.asarray(samples, dtype=float)
    if denoise:
        x = wv.denoise(x, filt, levels, extension_mode, threshold_method)
    sb = wv.wavedec(x, filt, levels, extension_mode)
    raw_powers = np.stack([np.sum(b * b, axis=-1) for b in sb.bands], axis=-1)
    total = raw_powers.sum(axis=-1, keepdims=True)
    rel = np.divide(raw_powers, total, out=np.zeros_like(raw_powers), where=total > 0)
    columns, names = [], []
    for j, (band, name) in enumerate(zip(sb.bands, sb.names)):
        psd = _psd_positive_bins(band)
        stats = band_statistics(band, psd)
        stats["max"] = band.max(axis=-1)
        stats["min"] = band.min(axis=-1)
        stats["relative_power"] = rel[..., j]
        stats["spectral_entropy"] = _entropy(psd)
        for key, val in stats.items():
            names.append(f"{name}_{key}")
            columns.append(val)
    return FeatureVector(np.stack(columns, axis=-1), names)


@functools.lru_cache(maxsize=4)
def _sample_names(n_samples: int) -> tuple:
    # formatted once per signal length, not once per signal
    return tuple(f"sample_{i:04d}" for i in range(n_samples))


def assemble_features(samples, extractor: str, *,
                      mfcc_config: mfcc_mod.MfccConfig = mfcc_mod.MfccConfig(),
                      levels: int = 4,
                      extension_mode: str = "periodized",
                      denoise: bool = True,
                      threshold_method: str = "soft") -> FeatureVector:
    """Feature values for any of the benchmark extractors, along the last axis.

    The wavelet keywords are the keys of a run configuration's
    ``wavelet`` object, so its options pass through unchanged.
    """
    if extractor not in EXTRACTORS:
        raise ValueError(f"unknown extractor {extractor!r}; expected one of {EXTRACTORS}")
    x = np.asarray(samples, dtype=float)
    if extractor == "wfe":
        return FeatureVector(x.copy(), list(_sample_names(x.shape[-1])))
    if extractor == "mfcc":
        return FeatureVector(mfcc_mod.mfcc_features(x, mfcc_config),
                             mfcc_mod.mfcc_feature_names(mfcc_config))
    return wavelet_band_features(x, extractor, levels, extension_mode, denoise, threshold_method)


@dataclass
class FeatureMatrix:
    """Instances as rows, named features as columns, labels aligned by row."""

    values: np.ndarray
    feature_names: list
    labels: np.ndarray

    def __post_init__(self):
        if len(self.feature_names) != len(set(self.feature_names)):
            raise ValueError("duplicate feature names")
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError("column count does not match feature names")
        if self.labels.shape[0] != self.values.shape[0]:
            raise ValueError("label count does not match row count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix contains non-finite values")

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.feature_names) + ["label"])
            for row, label in zip(self.values, self.labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])


def extract_matrix(instances, labels, extractor: str, **kwargs) -> FeatureMatrix:
    """Extract one row per instance.

    The instances are equal-length recordings (``corpus.load_corpus``
    admits no other); they are stacked ``EXTRACT_BLOCK`` at a time, so the
    transients stay a few signals in size.
    """
    signals = [np.asarray(inst, dtype=float) for inst in instances]
    blocks, names = [], None
    for start in range(0, len(signals), EXTRACT_BLOCK):
        fv = assemble_features(np.stack(signals[start:start + EXTRACT_BLOCK]), extractor, **kwargs)
        names = names or fv.names
        blocks.append(fv.values)
    return FeatureMatrix(np.vstack(blocks), list(names), np.asarray(labels, dtype=int))


@dataclass
class PcaModel:
    """Centered principal-axis projection fitted on training rows only."""

    mean: np.ndarray
    components: np.ndarray          # (n_components, n_features), orthonormal rows
    explained_variance_ratio: np.ndarray
    n_components: int

    def state_digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(self.mean.tobytes())
        h.update(self.components.tobytes())
        h.update(self.explained_variance_ratio.tobytes())
        h.update(str(self.n_components).encode())
        return h.hexdigest()


def pca_fit(matrix, variance_target: float = 0.95) -> PcaModel:
    """Principal axes of the sample covariance, retaining the smallest
    component count whose cumulative explained variance reaches the target.

    The spectrum comes from ``eigh`` of the smaller Gram matrix of the
    centred rows. A tall matrix (rows >= columns) uses ``Xcᵀ Xc``, whose
    eigenvectors are the axes. A wide one uses ``Xc Xcᵀ`` -- the method of
    snapshots (Sirovich, Q. Appl. Math. 45, 1987) -- and maps each kept
    row-space eigenvector ``u`` to the axis ``Xcᵀ u / √λ``; one Cholesky-QR
    pass then re-orthonormalises those axes, so the components are
    orthonormal for any target, however far apart the kept eigenvalues lie.
    A zero-variance input keeps no component.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    if not 0.0 < variance_target <= 1.0:
        raise ValueError("variance_target must be in (0, 1]")
    mean = X.mean(axis=0)
    centered = X - mean
    wide = X.shape[0] < X.shape[1]
    evals, evecs = np.linalg.eigh(centered @ centered.T if wide else centered.T @ centered)
    evals = np.clip(evals[::-1], 0.0, None)
    evecs = evecs[:, ::-1]
    variances = evals / (X.shape[0] - 1)
    total = variances.sum()
    if total <= 0.0:
        return PcaModel(mean, np.empty((0, X.shape[1])), np.zeros(0), 0)
    ratios = variances / total
    cum = np.cumsum(ratios)
    k = int(np.searchsorted(cum, variance_target - 1e-12) + 1)
    if wide:
        # Cholesky-QR (axes R⁻¹, RᵀR = axesᵀ axes): mapped axes whose λ is
        # many orders below λ₁ drift from orthonormal without it
        axes = centered.T @ (evecs[:, :k] / np.sqrt(evals[:k]))
        chol = np.linalg.cholesky(axes.T @ axes)
        comps = solve_triangular(chol, axes.T, lower=True)
    else:
        comps = evecs[:, :k].T.copy()
    # sign convention: largest-magnitude loading of each axis is positive
    for row in comps:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean, comps, ratios, k)


def pca_apply(model: PcaModel, matrix) -> np.ndarray:
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.mean.size:
        raise ValueError(
            f"column count {X.shape[1] if X.ndim == 2 else 'n/a'} does not match "
            f"the fitted model's {model.mean.size}"
        )
    return (X - model.mean) @ model.components.T
