"""Orthogonal wavelet filter banks, multilevel decomposition, and denoising.

The decomposition is a two-channel decimated filter bank applied
recursively on the approximation path. In ``periodized`` mode the
transform is orthogonal (energy preserving) and exactly invertible;
odd-length inputs are padded with a single zero so both properties hold
at every level. ``symmetric`` mode mirrors the signal edges instead,
trading orthogonality for reduced edge artifacts, and is still exactly
invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SUPPORTED_FAMILIES = ("haar", "db2", "db4", "coif1")
EXTENSION_MODES = ("periodized", "symmetric")
THRESHOLD_METHODS = ("soft", "hard")

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ7 = math.sqrt(7.0)

# Scaling (low-pass) coefficients in direct order, normalized so that
# sum(lo) = sqrt(2). haar/db2/coif1 have closed forms; db4 values come
# from spectral factorization carried out at 60-digit precision.
_LOWPASS = {
    "haar": (1.0 / _SQ2, 1.0 / _SQ2),
    "db2": (
        (1.0 + _SQ3) / (4.0 * _SQ2),
        (3.0 + _SQ3) / (4.0 * _SQ2),
        (3.0 - _SQ3) / (4.0 * _SQ2),
        (1.0 - _SQ3) / (4.0 * _SQ2),
    ),
    "db4": (
        0.2303778133088965008633,
        0.7148465705529156470899,
        0.6308807679298589078817,
        -0.02798376941685985421141,
        -0.1870348117190930840796,
        0.03084138183556076362722,
        0.03288301166688519973541,
        -0.01059740178506903210488,
    ),
    "coif1": (
        (1.0 - _SQ7) * _SQ2 / 32.0,
        (5.0 + _SQ7) * _SQ2 / 32.0,
        (14.0 + 2.0 * _SQ7) * _SQ2 / 32.0,
        (14.0 - 2.0 * _SQ7) * _SQ2 / 32.0,
        (1.0 - _SQ7) * _SQ2 / 32.0,
        (-3.0 + _SQ7) * _SQ2 / 32.0,
    ),
}

# Number of vanishing moments of the analysis high-pass filter.
VANISHING_MOMENTS = {"haar": 1, "db2": 2, "db4": 4, "coif1": 2}


@dataclass(frozen=True)
class WaveletFilter:
    """Analysis/synthesis filter quadruple for one wavelet family."""

    family: str
    lo_dec: np.ndarray
    hi_dec: np.ndarray
    lo_rec: np.ndarray
    hi_rec: np.ndarray

    def __len__(self):
        return self.lo_dec.size


def filter_for(family: str) -> WaveletFilter:
    """Return the filter bank for one of the supported families.

    The high-pass filter is the quadrature mirror of the low-pass:
    hi[i] = (-1)^i * lo[L-1-i]; reconstruction filters are the time
    reverses of the analysis pair.
    """
    if family not in _LOWPASS:
        raise ValueError(
            f"unsupported wavelet family {family!r}; expected one of {SUPPORTED_FAMILIES}"
        )
    lo = np.array(_LOWPASS[family], dtype=float)
    sign = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0)
    hi = sign * lo[::-1]
    return WaveletFilter(family, lo, hi, lo[::-1].copy(), hi[::-1].copy())


def _windows(x: np.ndarray, length: int, start: int, count: int, wrap: int | None):
    k = np.arange(count)[:, None]
    i = np.arange(length)[None, :]
    idx = 2 * k + start + i
    if wrap is not None:
        idx %= wrap
    return x[idx]


def analyze_level(signal, filt: WaveletFilter, mode: str = "periodized"):
    """One analysis step: return (approximation, detail) coefficients.

    Periodized mode circularly convolves and decimates by two; odd-length
    inputs are zero-padded to even length first, so the output length is
    always ceil(n/2). Symmetric mode mirrors L-1 samples at each edge and
    yields floor((n+L-1)/2) coefficients per band.
    """
    x = np.asarray(signal, dtype=float)
    n = x.size
    L = len(filt)
    if n < L:
        raise ValueError(f"signal length {n} shorter than filter length {L}")
    if mode == "periodized":
        if n % 2:
            x = np.append(x, 0.0)
            n += 1
        win = _windows(x, L, 0, n // 2, wrap=n)
    elif mode == "symmetric":
        p = L - 1
        ext = np.concatenate([x[:p][::-1], x, x[-p:][::-1]])
        win = _windows(ext, L, 1, (n + L - 1) // 2, wrap=None)
    else:
        raise ValueError(f"unknown extension mode {mode!r}")
    return win @ filt.lo_dec, win @ filt.hi_dec


def synthesize_level(approx, detail, filt: WaveletFilter, out_len: int, mode: str = "periodized"):
    """Invert one analysis step, recovering a signal of length ``out_len``."""
    a = np.asarray(approx, dtype=float)
    d = np.asarray(detail, dtype=float)
    if a.size != d.size:
        raise ValueError("approximation and detail lengths differ")
    L = len(filt)
    nc = a.size
    vals = np.outer(a, filt.lo_dec) + np.outer(d, filt.hi_dec)
    if mode == "periodized":
        n = 2 * nc
        if n not in (out_len, out_len + 1):
            raise ValueError(f"coefficient length {nc} inconsistent with output length {out_len}")
        k = np.arange(nc)[:, None]
        idx = (2 * k + np.arange(L)[None, :]) % n
        buf = np.zeros(n)
        np.add.at(buf, idx.ravel(), vals.ravel())
        return buf[:out_len]
    if mode == "symmetric":
        if nc != (out_len + L - 1) // 2:
            raise ValueError(f"coefficient length {nc} inconsistent with output length {out_len}")
        k = np.arange(nc)[:, None]
        idx = 2 * k + 1 + np.arange(L)[None, :]
        buf = np.zeros(max(int(idx.max()) + 1, L - 1 + out_len))
        np.add.at(buf, idx.ravel(), vals.ravel())
        return buf[L - 1:L - 1 + out_len]
    raise ValueError(f"unknown extension mode {mode!r}")


@dataclass
class SubBands:
    """Coefficient bands of a multilevel decomposition, coarse to fine.

    ``bands`` holds [A_L, D_L, ..., D_1]; ``level_lengths`` records the
    input length at each analysis step (needed for exact inversion) and
    ``band_hz`` the frequency range each band covers at the recording's
    sample rate.
    """

    bands: list
    names: list
    family: str
    mode: str
    level_lengths: list
    band_hz: list = field(default_factory=list)

    @property
    def levels(self) -> int:
        return len(self.bands) - 1

    def energy(self) -> float:
        return float(sum(np.sum(b * b) for b in self.bands))


def band_frequency_ranges(sample_rate: float, levels: int):
    """Frequency span (low, high) in Hz for [A_L, D_L, ..., D_1]."""
    nyquist = sample_rate / 2.0
    ranges = [(0.0, nyquist / 2 ** levels)]
    for j in range(levels, 0, -1):
        ranges.append((nyquist / 2 ** j, nyquist / 2 ** (j - 1)))
    return ranges


def wavedec(signal, filt: WaveletFilter, levels: int = 4, mode: str = "periodized",
            sample_rate: float | None = None) -> SubBands:
    """Decompose ``signal`` into [A_levels, D_levels, ..., D_1]."""
    x = np.asarray(signal, dtype=float)
    if 2 ** levels > x.size:
        raise ValueError(f"{levels} levels need at least {2 ** levels} samples, got {x.size}")
    details = []
    lengths = []
    cur = x
    for _ in range(levels):
        lengths.append(cur.size)
        cur, d = analyze_level(cur, filt, mode)
        details.append(d)
    bands = [cur] + details[::-1]
    names = [f"a{levels}"] + [f"d{j}" for j in range(levels, 0, -1)]
    hz = band_frequency_ranges(sample_rate, levels) if sample_rate else []
    return SubBands(bands, names, filt.family, mode, lengths, hz)


def waverec(subbands: SubBands, filt: WaveletFilter):
    """Invert :func:`wavedec` exactly (up to floating-point error)."""
    if filt.family != subbands.family:
        raise ValueError(f"filter family {filt.family!r} != decomposition family {subbands.family!r}")
    if len(subbands.level_lengths) != subbands.levels:
        raise ValueError("bookkeeping inconsistent: one input length per level required")
    cur = subbands.bands[0]
    for detail, out_len in zip(subbands.bands[1:], subbands.level_lengths[::-1]):
        cur = synthesize_level(cur, detail, filt, out_len, subbands.mode)
    return cur


def universal_threshold(detail_coeffs, n: int) -> float:
    """Noise cutoff sigma_hat * sqrt(2 ln n).

    The noise scale is the robust MAD estimate from the finest detail
    band: median(|d|) / 0.6745.
    """
    d = np.asarray(detail_coeffs, dtype=float)
    if d.size == 0:
        raise ValueError("empty detail band")
    if n < 2:
        raise ValueError("need at least two samples")
    sigma = np.median(np.abs(d)) / 0.6745
    return float(sigma * math.sqrt(2.0 * math.log(n)))


def soft_threshold(coeffs, lam: float):
    c = np.asarray(coeffs, dtype=float)
    return np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)


def hard_threshold(coeffs, lam: float):
    c = np.asarray(coeffs, dtype=float)
    return np.where(np.abs(c) > lam, c, 0.0)


def denoise(signal, filt: WaveletFilter, levels: int = 4, mode: str = "periodized",
            method: str = "soft"):
    """Threshold-denoise a signal; output has the input's length.

    Every detail band is shrunk with one global cutoff derived from the
    finest band; the approximation band passes through untouched.
    """
    if method not in THRESHOLD_METHODS:
        raise ValueError(f"unknown threshold method {method!r}")
    x = np.asarray(signal, dtype=float)
    sb = wavedec(x, filt, levels, mode)
    lam = universal_threshold(sb.bands[-1], x.size)
    shrink = soft_threshold if method == "soft" else hard_threshold
    sb.bands[1:] = [shrink(d, lam) for d in sb.bands[1:]]
    return waverec(sb, filt)
