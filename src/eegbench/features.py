"""Statistical features from wavelet sub-bands (or raw signals) and PCA reduction.

The three feature routes mirror the benchmark's extractor menu:

* ``db2`` / ``db4`` / ``coif1`` -- denoise, ``wavelet.LEVELS``-level
  decomposition, then 15 statistics per band (75 features),
* ``mfcc`` -- the aggregated cepstral vector from :mod:`eegbench.mfcc`,
* ``wfe`` -- no extraction at all: the samples matrix itself, not copied.

``extract_matrix`` is the one entry: it alone dispatches on the extractor
name, and it feeds ``mfcc`` and the wavelet families ``EXTRACT_BLOCK``
rows of the samples at a time. Those work along the last axis: a
``(..., n)`` stack of signals yields a ``(..., width)`` stack of feature
rows, each row bit-for-bit the one its signal gives in a one-row stack.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from . import mfcc as mfcc_mod
from . import wavelet as wv

EXTRACTORS = ("wfe", "db2", "db4", "coif1", "mfcc")

# signals stacked per extraction call. In a 2-job db2/db4/coif1/mfcc run on the
# 500-signal corpus the largest pool worker's ru_maxrss through extraction was
# 50 MB at 8, 57 at 32 and 67 at 64: at 32 it stays under the parent's 60.6 MB
# peak, which the scipy.special import for the inference reports sets at the end.
EXTRACT_BLOCK = 32


def _entropy(weights):
    # -sum(p log p) of p = weights / sum(weights) along the last axis; a zero
    # row has entropy 0. Rows without a zero term are summed as one stack;
    # a row with zeros sums its nonzero terms only, alone, because the zeros
    # would change numpy's pairwise summation order.
    w = np.asarray(weights, dtype=float)
    total = w.sum(axis=-1, keepdims=True)
    p = np.divide(w, total, out=np.zeros_like(w), where=total > 0)
    rows = p.reshape(-1, p.shape[-1])
    full = np.all(rows > 0, axis=-1)
    out = np.zeros(rows.shape[0])
    q = rows[full]
    out[full] = -np.sum(q * np.log(q), axis=-1)
    for i in np.flatnonzero(~full):
        q = rows[i][rows[i] > 0]
        out[i] = -np.sum(q * np.log(q)) if q.size else 0.0
    return out.reshape(p.shape[:-1])[()]


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
    ordered = np.sort(x, axis=-1)
    stats = {
        "mean": mu,
        "median": wv.sorted_median(ordered),
        "std": np.sqrt(var),
        "variance": var,
        "energy": np.mean(x ** 2, axis=-1),
        "psd_max": psd.max(axis=-1),
        "psd_min": psd.min(axis=-1),
        "shannon_entropy": shannon_entropy(x),
        "iqr": wv.sorted_percentile(ordered, 0.75) - wv.sorted_percentile(ordered, 0.25),
        "kurtosis": kurt,
        "total_variation": np.sum(np.abs(np.diff(x, axis=-1)), axis=-1),
    }
    if x.ndim == 1:
        return {key: float(val) for key, val in stats.items()}
    return stats


def wavelet_band_features(samples, family: str) -> tuple:
    """(values, names): the 75 band statistics of each signal along the last axis."""
    filt = wv.filter_for(family)
    sb = wv.wavedec(wv.denoise(samples, filt), filt)
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
    return np.stack(columns, axis=-1), names


@dataclass
class FeatureMatrix:
    """Instances as rows, named features as columns, labels aligned by row.

    ``gram``, when set, is ``values @ values.T``; a wide matrix's split PCA
    works from it (``gram_pca_split``).
    """

    values: np.ndarray
    feature_names: list
    labels: np.ndarray
    gram: np.ndarray | None = None

    def __post_init__(self):
        # without a set or a matrix-sized temporary: sorting pairs duplicates; min/max carry nan/inf
        if any(a == b for a, b in itertools.pairwise(sorted(self.feature_names))):
            raise ValueError("duplicate feature names")
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError("column count does not match feature names")
        if self.labels.shape[0] != self.values.shape[0]:
            raise ValueError("label count does not match row count")
        if not np.isfinite([self.values.min(initial=0.0), self.values.max(initial=0.0)]).all():
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


def extract_matrix(samples, labels, extractor: str) -> FeatureMatrix:
    """One feature row per row of ``samples``, a (recordings, samples) matrix.

    ``wfe``'s values are ``samples`` itself, a float64 matrix without a
    copy. ``mfcc`` and the wavelet families get its rows ``EXTRACT_BLOCK``
    at a time, so their transients stay one block in size.
    """
    if extractor not in EXTRACTORS:
        raise ValueError(f"unknown extractor {extractor!r}; expected one of {EXTRACTORS}")
    x = np.asarray(samples, dtype=float)
    if extractor == "wfe":
        values, names = x, [f"sample_{i:04d}" for i in range(x.shape[1])]
    elif extractor == "mfcc":
        values = np.vstack([mfcc_mod.mfcc_features(x[start:start + EXTRACT_BLOCK])
                            for start in range(0, len(x), EXTRACT_BLOCK)])
        names = mfcc_mod.mfcc_feature_names()
    else:
        blocks = [wavelet_band_features(x[start:start + EXTRACT_BLOCK], extractor)
                  for start in range(0, len(x), EXTRACT_BLOCK)]
        values, names = np.vstack([v for v, _ in blocks]), blocks[0][1]
    return FeatureMatrix(values, names, np.asarray(labels, dtype=int))


@dataclass
class PcaModel:
    """Centered principal-axis projection fitted on training rows only."""

    mean: np.ndarray
    components: np.ndarray          # (n_components, n_features), orthonormal rows
    explained_variance_ratio: np.ndarray
    n_components: int


def _spectrum(centred_gram, n_rows: int, variance_target: float):
    """(eigenvalues clipped at 0, eigenvectors, explained-variance ratios,
    kept count k) of the centred Gram matrix of ``n_rows`` rows, largest
    first: the one PCA spectrum rule. A zero spectrum keeps nothing."""
    evals, evecs = np.linalg.eigh(centred_gram)
    evals = np.clip(evals[::-1], 0.0, None)
    evecs = evecs[:, ::-1]
    variances = evals / (n_rows - 1)
    total = variances.sum()
    if total <= 0.0:
        return evals, evecs, np.zeros(0), 0
    ratios = variances / total
    k = int(np.searchsorted(np.cumsum(ratios), variance_target - 1e-12) + 1)
    return evals, evecs, ratios, k


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
    Its solve with the Cholesky factor is numpy's LU solve, so this module
    never imports ``scipy.linalg``.
    A zero-variance input keeps no component. ``matrix`` is left alone.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    if not 0.0 < variance_target <= 1.0:
        raise ValueError("variance_target must be in (0, 1]")
    mean = X.mean(axis=0)
    centered = X - mean
    wide = X.shape[0] < X.shape[1]
    evals, evecs, ratios, k = _spectrum(centered @ centered.T if wide else centered.T @ centered,
                                        X.shape[0], variance_target)
    if k == 0:
        return PcaModel(mean, np.empty((0, X.shape[1])), ratios, 0)
    if wide:
        # Cholesky-QR (axes R⁻¹, RᵀR = axesᵀ axes): mapped axes whose λ is
        # many orders below λ₁ drift from orthonormal without it
        axes = centered.T @ (evecs[:, :k] / np.sqrt(evals[:k]))
        chol = np.linalg.cholesky(axes.T @ axes)
        comps = np.linalg.solve(chol, axes.T)
    else:
        comps = evecs[:, :k].T.copy()
    # sign convention: largest-magnitude loading of each axis is positive
    for row in comps:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean, comps, ratios, k)


# training-row columns read per step when signing the axes of a Gram split
SIGN_BLOCK = 256


def gram_pca_split(X, gram, train_idx, test_idx, variance_target: float):
    """(training, test) rows of a wide ``X`` projected on the principal
    axes of its training rows, from ``gram = X Xᵀ``.

    The blocks of ``gram`` are centred with the training means alone:
    ``K = Xc Xcᵀ`` and, for the test rows, kernel PCA's centred test
    kernel ``Kt`` (Schölkopf, Smola & Müller, Neural Computation 10,
    1998). The kept eigenpairs (u, λ) of ``K``, ``k`` by ``pca_fit``'s
    rule, project the training rows to ``u √λ`` and the test rows to
    ``Kt u / √λ``: what ``pca_apply`` of ``pca_fit(X[train_idx])`` gives,
    up to rounding. Each axis takes ``pca_fit``'s sign, its first
    largest-magnitude loading in ``Xcᵀ u`` positive, computed
    ``SIGN_BLOCK`` columns at a time, so the split never holds the
    training rows or the axes whole.
    """
    K = gram[np.ix_(train_idx, train_idx)]
    cross = gram[np.ix_(test_idx, train_idx)]
    row_mean = K.mean(axis=1)
    K -= row_mean[:, None] + row_mean - row_mean.mean()
    cross -= cross.mean(axis=1)[:, None] + row_mean - row_mean.mean()
    evals, evecs, _, k = _spectrum(K, len(train_idx), variance_target)
    U = evecs[:, :k].copy()
    kept = np.arange(k)
    best = np.zeros(k)
    negative = np.zeros(k, dtype=bool)
    for start in range(0, X.shape[1], SIGN_BLOCK):
        block = X[train_idx, start:start + SIGN_BLOCK]
        block -= block.mean(axis=0)
        loads = block.T @ U
        top = loads[np.abs(loads).argmax(axis=0), kept]
        ahead = np.abs(top) > best
        best[ahead] = np.abs(top[ahead])
        negative[ahead] = top[ahead] < 0
    U[:, negative] *= -1.0
    root = np.sqrt(evals[:k])
    return U * root, (cross @ U) / root


def pca_apply(model: PcaModel, matrix) -> np.ndarray:
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.mean.size:
        raise ValueError(
            f"column count {X.shape[1] if X.ndim == 2 else 'n/a'} does not match "
            f"the fitted model's {model.mean.size}"
        )
    return (X - model.mean) @ model.components.T
