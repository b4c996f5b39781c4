"""Orthogonal wavelet filter banks, multilevel decomposition, and denoising.

The decomposition is a two-channel decimated filter bank applied
recursively on the approximation path, ``LEVELS`` deep. The signal is
extended periodically (``periodized``), so the transform is orthogonal
(energy preserving) and exactly invertible; odd-length inputs are padded
with a single zero so both properties hold at every level. Denoising is
soft shrinkage of every detail band at the universal threshold (Donoho &
Johnstone, Biometrika 81, 1994).

Every transform works along the last axis: a ``(..., n)`` array is a
stack of signals, each decomposed, thresholded and rebuilt on its own,
and a 1-D signal is the one-row case. Row for row, a stack gives the same
bits as its signals passed one at a time. Analysis multiplies each
signal's windows by the filters; synthesis overlap-adds the weighted
coefficients as shifted whole-band adds, in the order the windows would
add them one by one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_FAMILIES = ("haar", "db2", "db4", "coif1")
LEVELS = 4

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


@dataclass(frozen=True)
class WaveletFilter:
    """Analysis filter pair for one wavelet family; synthesis reuses it."""

    family: str
    lo_dec: np.ndarray
    hi_dec: np.ndarray

    def __len__(self):
        return self.lo_dec.size


def filter_for(family: str) -> WaveletFilter:
    """Return the filter bank for one of the supported families.

    The high-pass filter is the quadrature mirror of the low-pass:
    hi[i] = (-1)^i * lo[L-1-i]. Synthesis needs no filters of its own:
    ``synthesize_level`` overlap-adds the coefficients weighted by this
    same analysis pair.
    """
    if family not in _LOWPASS:
        raise ValueError(
            f"unsupported wavelet family {family!r}; expected one of {SUPPORTED_FAMILIES}"
        )
    lo = np.array(_LOWPASS[family], dtype=float)
    sign = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0)
    hi = sign * lo[::-1]
    return WaveletFilter(family, lo, hi)


@functools.lru_cache(maxsize=32)
def _taps(n: int, L: int) -> np.ndarray:
    # row k holds the L sample indices under window k, 2k .. 2k+L-1 mod n (n even);
    # shared between calls, so read-only
    taps = (2 * np.arange(n // 2)[:, None] + np.arange(L)[None, :]) % n
    taps.flags.writeable = False
    return taps


def analyze_level(signal, filt: WaveletFilter):
    """One analysis step: return (approximation, detail) coefficients.

    Circularly convolves and decimates by two; odd-length inputs are
    zero-padded to even length first, so the output length is always
    ceil(n/2).
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    L = len(filt)
    if n < L:
        raise ValueError(f"signal length {n} shorter than filter length {L}")
    if n % 2:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
        n += 1
    # np.take, unlike x[..., taps], returns each signal's windows C-contiguous,
    # so the filter products round as they do for a single signal
    win = np.take(x, _taps(n, L), axis=-1)
    return win @ filt.lo_dec, win @ filt.hi_dec


def synthesize_level(approx, detail, filt: WaveletFilter, out_len: int):
    """Invert one analysis step, recovering a signal of length ``out_len``.

    Output sample ``2m + p`` is the overlap-add of ``a·lo[p+2r] + d·hi[p+2r]``
    taken at coefficient ``m - r`` (mod ``nc``), for r = 0 .. L/2-1. The
    terms are added from zero in ascending window order, as ``np.add.at``
    over the analysis windows adds them: r descending, and in the first
    L/2 - 1 outputs of each parity, where the windows wrap, the wrapped
    terms (r > m) last.
    """
    a = np.asarray(approx, dtype=float)
    d = np.asarray(detail, dtype=float)
    if a.shape != d.shape:
        raise ValueError("approximation and detail lengths differ")
    h = len(filt) // 2
    nc = a.shape[-1]
    if 2 * nc not in (out_len, out_len + 1):
        raise ValueError(f"coefficient length {nc} inconsistent with output length {out_len}")
    if nc < h:
        raise ValueError(f"{nc} coefficients are fewer than half the filter length {2 * h}")
    out = np.zeros(a.shape[:-1] + (2, nc))
    for p in (0, 1):
        lo, hi, acc = filt.lo_dec[p::2], filt.hi_dec[p::2], out[..., p, :]
        for r in range(h - 1, -1, -1):
            acc[..., h - 1:] += a[..., h - 1 - r:nc - r] * lo[r] + d[..., h - 1 - r:nc - r] * hi[r]
        for m in range(h - 1):
            for r in (*range(m, -1, -1), *range(h - 1, m, -1)):
                acc[..., m] += a[..., m - r] * lo[r] + d[..., m - r] * hi[r]
    return np.swapaxes(out, -1, -2).reshape(a.shape[:-1] + (2 * nc,))[..., :out_len]


@dataclass
class SubBands:
    """Coefficient bands of a multilevel decomposition, coarse to fine.

    ``bands`` holds [A_L, D_L, ..., D_1]; ``level_lengths`` records the
    input length at each analysis step (needed for exact inversion).
    """

    bands: list
    names: list
    family: str
    level_lengths: list

    @property
    def levels(self) -> int:
        return len(self.bands) - 1


def wavedec(signal, filt: WaveletFilter, levels: int = LEVELS,
            mode: str = "periodized") -> SubBands:
    """Decompose ``signal`` into [A_levels, D_levels, ..., D_1].

    ``mode`` names the boundary rule; ``"periodized"`` is the only one.
    """
    if mode != "periodized":
        raise ValueError(f"unknown extension mode {mode!r}; only 'periodized' is supported")
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    if levels > n.bit_length() - 1:
        raise ValueError(f"{levels} levels need at least 2**{levels} samples, got {n}")
    details = []
    lengths = []
    cur = x
    for _ in range(levels):
        lengths.append(cur.shape[-1])
        cur, d = analyze_level(cur, filt)
        details.append(d)
    bands = [cur] + details[::-1]
    names = [f"a{levels}"] + [f"d{j}" for j in range(levels, 0, -1)]
    return SubBands(bands, names, filt.family, lengths)


def waverec(subbands: SubBands, filt: WaveletFilter):
    """Invert :func:`wavedec` exactly (up to floating-point error)."""
    if filt.family != subbands.family:
        raise ValueError(f"filter family {filt.family!r} != decomposition family {subbands.family!r}")
    if len(subbands.level_lengths) != subbands.levels:
        raise ValueError("bookkeeping inconsistent: one input length per level required")
    cur = subbands.bands[0]
    for detail, out_len in zip(subbands.bands[1:], subbands.level_lengths[::-1]):
        cur = synthesize_level(cur, detail, filt, out_len)
    return cur


def sorted_median(s):
    """``np.median`` along the last axis of ``s``, already sorted along it."""
    n = s.shape[-1]
    # the mean of the middle one or two, as np.median takes it
    return np.mean(s[..., (n - 1) // 2:n // 2 + 1], axis=-1)


def sorted_percentile(s, q: float):
    """``np.percentile(x, 100 * q, axis=-1)`` for ``s = np.sort(x, axis=-1)``.

    numpy's linear rule, step for step: the virtual index, its floor and
    fraction ``t``, then numpy's lerp, which counts down from the upper
    value when ``t >= 0.5``. Needs 0 <= q < 1 and two values a row.
    """
    n = s.shape[-1]
    alpha = beta = 1
    virtual = n * q + (alpha + q * (1 - alpha - beta)) - 1
    i = math.floor(virtual)
    t = virtual - i
    lower, upper = s[..., i], s[..., i + 1]
    diff = upper - lower
    return upper - diff * (1 - t) if t >= 0.5 else lower + diff * t


def universal_threshold(detail_coeffs, n: int):
    """Noise cutoff sigma_hat * sqrt(2 ln n), one per signal.

    The noise scale is the robust MAD estimate from the finest detail
    band: median(|d|) / 0.6745.
    """
    d = np.asarray(detail_coeffs, dtype=float)
    if d.size == 0:
        raise ValueError("empty detail band")
    if n < 2:
        raise ValueError("need at least two samples")
    sigma = sorted_median(np.sort(np.abs(d), axis=-1)) / 0.6745
    return sigma * math.sqrt(2.0 * math.log(n))


def soft_threshold(coeffs, lam: float):
    c = np.asarray(coeffs, dtype=float)
    return np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)


def denoise(signal, filt: WaveletFilter):
    """Soft-threshold denoise a signal; output has the input's length.

    Every detail band of a ``LEVELS``-deep decomposition is shrunk with one
    cutoff derived from that signal's finest band; the approximation band
    passes through untouched.
    """
    x = np.asarray(signal, dtype=float)
    sb = wavedec(x, filt)
    lam = np.expand_dims(universal_threshold(sb.bands[-1], x.shape[-1]), -1)
    sb.bands[1:] = [soft_threshold(d, lam) for d in sb.bands[1:]]
    return waverec(sb, filt)
