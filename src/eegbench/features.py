"""Statistical features from wavelet sub-bands (or raw signals) and PCA reduction.

The three feature routes mirror the benchmark's extractor menu:

* ``db2`` / ``db4`` / ``coif1`` -- denoise, 4-level decomposition, then a
  fixed statistic set per band,
* ``mfcc`` -- the aggregated cepstral vector from :mod:`eegbench.mfcc`,
* ``wfe`` -- no extraction at all, raw samples straight into the matrix.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

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


def shannon_entropy(coeffs, normalized: bool = True) -> float:
    """Energy-distribution entropy of a coefficient vector.

    Default form treats p_i = x_i^2 / sum(x^2) as a probability
    distribution (scale invariant). ``normalized=False`` gives the raw
    -sum(x^2 log x^2) variant instead. Zero terms contribute nothing;
    an all-zero vector has entropy 0.
    """
    x = np.asarray(coeffs, dtype=float)
    if x.size == 0:
        raise ValueError("empty coefficient vector")
    sq = x * x
    total = sq.sum()
    if total == 0.0:
        return 0.0
    if normalized:
        p = sq / total
        nz = p > 0
        return float(-np.sum(p[nz] * np.log(p[nz])))
    nz = sq > 0
    return float(-np.sum(sq[nz] * np.log(sq[nz])))


def _psd_positive_bins(x: np.ndarray) -> np.ndarray:
    # squared FFT modulus over N, positive-frequency bins only
    spec = np.abs(np.fft.rfft(x)) ** 2 / x.size
    return spec[1:]


def band_statistics(coeffs) -> dict:
    """The per-band statistic set; population (1/N) moment conventions."""
    x = np.asarray(coeffs, dtype=float)
    if x.size < 4:
        raise ValueError("need at least four coefficients")
    mu = x.mean()
    dev = x - mu
    var = float(np.mean(dev ** 2))
    std = float(np.sqrt(var))
    if var > 0:
        kurt = float(np.mean(dev ** 4) / var ** 2)
    else:
        kurt = 0.0
    psd = _psd_positive_bins(x)
    q1, q3 = np.percentile(x, [25.0, 75.0])
    return {
        "mean": float(mu),
        "median": float(np.median(x)),
        "std": std,
        "variance": var,
        "energy": float(np.mean(x ** 2)),
        "psd_max": float(psd.max()),
        "psd_min": float(psd.min()),
        "shannon_entropy": shannon_entropy(x),
        "iqr": float(q3 - q1),
        "kurtosis": kurt,
        "total_variation": float(np.sum(np.abs(np.diff(x)))),
    }


@dataclass
class FeatureVector:
    values: np.ndarray
    names: list
    extractor_tag: str


def wavelet_band_features(samples, family: str, levels: int = 4,
                          mode: str = "periodized", denoise_first: bool = True,
                          threshold_method: str = "soft") -> FeatureVector:
    filt = wv.filter_for(family)
    x = np.asarray(samples, dtype=float)
    if denoise_first:
        x = wv.denoise(x, filt, levels, mode, threshold_method)
    sb = wv.wavedec(x, filt, levels, mode)
    raw_powers = np.array([float(np.sum(b * b)) for b in sb.bands])
    total = raw_powers.sum()
    rel = raw_powers / total if total > 0 else np.zeros_like(raw_powers)
    values, names = [], []
    for band, name, rp in zip(sb.bands, sb.names, rel):
        stats = band_statistics(band)
        psd = _psd_positive_bins(band)
        p = psd / psd.sum() if psd.sum() > 0 else psd
        nz = p > 0
        spectral_entropy = float(-np.sum(p[nz] * np.log(p[nz]))) if nz.any() else 0.0
        stats["max"] = float(band.max())
        stats["min"] = float(band.min())
        stats["relative_power"] = float(rp)
        stats["spectral_entropy"] = spectral_entropy
        for key, val in stats.items():
            names.append(f"{name}_{key}")
            values.append(val)
    return FeatureVector(np.array(values), names, family)


@functools.lru_cache(maxsize=4)
def _sample_names(n_samples: int) -> tuple:
    # formatted once per signal length, not once per signal
    return tuple(f"sample_{i:04d}" for i in range(n_samples))


def assemble_features(samples, extractor: str, *,
                      mfcc_config: mfcc_mod.MfccConfig | None = None,
                      sample_rate: float = 173.61,
                      wavelet_levels: int = 4,
                      extension_mode: str = "periodized",
                      denoise_first: bool = True,
                      threshold_method: str = "soft") -> FeatureVector:
    """One instance vector for any of the benchmark extractors."""
    if extractor not in EXTRACTORS:
        raise ValueError(f"unknown extractor {extractor!r}; expected one of {EXTRACTORS}")
    x = np.asarray(samples, dtype=float)
    if extractor == "wfe":
        return FeatureVector(x.copy(), list(_sample_names(x.size)), "wfe")
    if extractor == "mfcc":
        cfg = mfcc_config or mfcc_mod.MfccConfig()
        return FeatureVector(
            mfcc_mod.mfcc_features(x, cfg, sample_rate),
            mfcc_mod.mfcc_feature_names(cfg),
            "mfcc",
        )
    return wavelet_band_features(
        x, extractor, wavelet_levels, extension_mode, denoise_first, threshold_method
    )


@dataclass
class FeatureMatrix:
    """Instances as rows, named features as columns, labels aligned by row."""

    values: np.ndarray
    feature_names: list
    labels: np.ndarray
    extractor_tag: str
    source_ids: list = field(default_factory=list)

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


def extract_matrix(instances, labels, extractor: str, source_ids=None, **kwargs) -> FeatureMatrix:
    """Extract one row per instance; all rows must share a single width."""
    rows, names = [], None
    for inst in instances:
        fv = assemble_features(inst, extractor, **kwargs)
        if names is None:
            names = fv.names
        elif len(fv.values) != len(names):
            raise ValueError(
                f"inconsistent feature width under {extractor!r}: "
                f"{len(fv.values)} != {len(names)}"
            )
        rows.append(fv.values)
    return FeatureMatrix(
        np.vstack(rows), list(names), np.asarray(labels, dtype=int),
        extractor, list(source_ids or []),
    )


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


def pca_fit(matrix, variance_target: float = 0.95, strict: bool = False) -> PcaModel:
    """Principal axes of the sample covariance, retaining the smallest
    component count whose cumulative explained variance reaches the target.

    The spectrum comes from ``eigh`` of the smaller Gram matrix of the
    centred rows. A tall matrix (rows >= columns) uses ``Xcᵀ Xc``, whose
    eigenvectors are the axes. A wide one uses ``Xc Xcᵀ`` -- the method of
    snapshots (Sirovich, Q. Appl. Math. 45, 1987) -- and maps each kept
    row-space eigenvector ``u`` to the axis ``Xcᵀ u / √λ``; one Cholesky-QR
    pass then re-orthonormalises those axes, so the components are
    orthonormal for any target, however far apart the kept eigenvalues lie.
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
        if strict:
            raise ValueError("zero-variance input")
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
