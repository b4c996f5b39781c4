"""Mel-frequency cepstral features for single-channel recordings.

Chain: pre-emphasis -> framing -> Hamming window -> power spectrum ->
triangular mel filter bank -> log energies -> type-II cosine transform.
Per-frame cepstra are aggregated into one fixed-length vector (mean and
standard deviation of each kept coefficient).

The chain works along the last axis: a ``(..., n)`` array is a stack of
signals and yields one cepstral vector per signal, each bit-for-bit the
vector its signal gives alone; a 1-D signal is the one-row case.

The mel scale has no base or scale setting. Any warping
m(f) = delta * log_b(1 + f / nu) spaces the filter centres at
nu * ((1 + f_N / nu) ** (i / (K + 1)) - 1), i = 0..K+1, for K filters up to
the Nyquist frequency f_N (O'Shaughnessy, Speech Communication, 1987):
delta and the log base b cancel, and only nu shapes the bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SAMPLE_RATE_HZ

ENERGY_FLOOR = 1e-12
HAMMING_A = 0.54
HAMMING_B = 0.46
MEL_DELTA = 2595.0
MEL_NU = 700.0


@dataclass(frozen=True)
class MfccConfig:
    frame_len: int = 256
    frame_step: int = 128
    preemph_alpha: float = 0.97
    n_filters: int = 26
    n_coeffs: int = 14

    def __post_init__(self):
        if not 0 < self.frame_step <= self.frame_len:
            raise ValueError("need 0 < frame_step <= frame_len")
        if self.n_coeffs > self.n_filters:
            raise ValueError("cannot keep more coefficients than filters")
        if not 0.0 <= self.preemph_alpha < 1.0:
            raise ValueError("pre-emphasis coefficient must be in [0, 1)")

    @property
    def nfft(self) -> int:
        n = 1
        while n < self.frame_len:
            n *= 2
        return n


def pre_emphasize(signal, alpha: float):
    """y[0] = x[0]; y[n] = x[n] - alpha * x[n-1]."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("pre-emphasis coefficient must be in [0, 1)")
    x = np.asarray(signal, dtype=float)
    y = x.copy()
    y[..., 1:] -= alpha * x[..., :-1]
    return y


def frame_count(signal_len: int, frame_len: int, frame_step: int) -> int:
    if signal_len < frame_len:
        raise ValueError(f"signal of {signal_len} samples shorter than one {frame_len}-sample frame")
    return (signal_len - frame_len) // frame_step + 1


def frame_signal(signal, frame_len: int, frame_step: int):
    """Slice into overlapping frames; trailing samples that do not fill a frame are dropped."""
    x = np.asarray(signal, dtype=float)
    n_frames = frame_count(x.shape[-1], frame_len, frame_step)
    idx = np.arange(frame_len)[None, :] + frame_step * np.arange(n_frames)[:, None]
    return np.take(x, idx, axis=-1)


def hamming_window(n_points: int):
    """H[k] = a - b cos(2 pi k / (N-1)), a = 0.54, b = 0.46."""
    if n_points < 2:
        raise ValueError("window needs at least two points")
    k = np.arange(n_points)
    return HAMMING_A - HAMMING_B * np.cos(2.0 * np.pi * k / (n_points - 1))


def hz_to_mel(freq_hz):
    """Warp linear frequency onto the mel axis: delta * ln(1 + f/nu)."""
    f = np.asarray(freq_hz, dtype=float)
    if np.any(f < 0):
        raise ValueError("negative frequency")
    out = MEL_DELTA * np.log(1.0 + f / MEL_NU)
    return float(out) if np.isscalar(freq_hz) else out


def mel_to_hz(mel):
    out = MEL_NU * np.expm1(np.asarray(mel, dtype=float) / MEL_DELTA)
    return float(out) if np.isscalar(mel) else out


def power_spectrum(frames, nfft: int):
    """Per frame |FFT|^2 on the one-sided bins 0..nfft/2."""
    f = np.atleast_2d(np.asarray(frames, dtype=float))
    spec = np.fft.rfft(f, n=nfft, axis=-1)
    return np.abs(spec) ** 2


def mel_filter_centers(n_filters: int, sample_rate: float):
    """Peak frequencies (Hz) of filters spaced evenly on the mel axis up to Nyquist."""
    top = hz_to_mel(sample_rate / 2.0)
    mels = np.linspace(0.0, top, n_filters + 2)
    return mel_to_hz(mels)


def mel_filterbank(n_filters: int, nfft: int, sample_rate: float):
    """Triangular filters as a (n_filters, nfft//2 + 1) matrix, each row peaking at 1."""
    if n_filters < 1:
        raise ValueError("need at least one filter")
    edges = mel_filter_centers(n_filters, sample_rate)
    bin_freqs = np.arange(nfft // 2 + 1) * sample_rate / nfft
    fb = np.zeros((n_filters, bin_freqs.size))
    for m in range(n_filters):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        tri = np.maximum(0.0, np.minimum(up, down))
        peak = tri.max()
        if peak <= 0.0:
            raise ValueError(
                f"filter {m} covers no FFT bin; {n_filters} filters exceed the "
                f"resolution of a {nfft}-point FFT at {sample_rate} Hz"
            )
        fb[m] = tri / peak
    return fb


def _dct_ii_matrix(n_coeffs: int, n_inputs: int):
    n = np.arange(n_coeffs)[:, None]
    m = np.arange(n_inputs)[None, :]
    return np.cos(np.pi * n * (m + 0.5) / n_inputs)


def mfcc_frames(signal, config: MfccConfig = MfccConfig()):
    """Cepstra for every frame, shape (..., n_frames, n_coeffs)."""
    x = pre_emphasize(signal, config.preemph_alpha)
    frames = frame_signal(x, config.frame_len, config.frame_step)
    frames = frames * hamming_window(config.frame_len)
    pspec = power_spectrum(frames, config.nfft)
    fb = mel_filterbank(config.n_filters, config.nfft, SAMPLE_RATE_HZ)
    energies = pspec @ fb.T
    log_energies = np.log(np.maximum(energies, ENERGY_FLOOR))
    return log_energies @ _dct_ii_matrix(config.n_coeffs, config.n_filters).T


def mfcc_feature_names(config: MfccConfig = MfccConfig()):
    p = config.n_coeffs
    return [f"mfcc_mean_{i:02d}" for i in range(p)] + [f"mfcc_std_{i:02d}" for i in range(p)]


def mfcc_features(signal, config: MfccConfig = MfccConfig()):
    """One instance vector: per-coefficient mean then standard deviation across frames."""
    cepstra = mfcc_frames(signal, config)
    return np.concatenate([cepstra.mean(axis=-2), cepstra.std(axis=-2)], axis=-1)
