"""Deterministic synthetic corpus in the Bonn on-disk layout.

The real recordings are distributed under a research license and are not
bundled; this module writes a surrogate tree (Z/O/N/F/S directories, 100
single-column integer files each) whose classes mimic the statistical
contrasts that matter to the benchmark: broadband colored background
activity everywhere, sporadic sharp transients in the interictal sets,
and large coherent discharges with phase-locked spikes in the seizure
set. Small confuser subpopulations (rhythmic bursts, artifact-laden
strong alpha, low-voltage fast seizures) overlap the classes in both
amplitude and average spectrum, so the remaining separation lives in
temporal structure: coherent carriers and sparse spikes versus
Gaussian-textured noise of the same spectral shape.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import EXPECTED_SAMPLES, SAMPLE_RATE_HZ, SET_TAGS, SIGNALS_PER_SET

_TAG_CODE = {tag: i for i, tag in enumerate(SET_TAGS)}


def _rms(x):
    return float(np.sqrt(np.mean(x * x))) or 1.0


def _shaped_noise(rng, n, fs, envelope_fn):
    """Gaussian noise with the given one-sided spectral amplitude envelope."""
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    env = envelope_fn(freqs)
    env[0] = 0.0
    spec = env * (rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size))
    sig = np.fft.irfft(spec, n)
    return sig / _rms(sig)


def _pink_noise(rng, n, fs, f_lo=1.5, f_hi=40.0, slope=1.6):
    # flat below f_lo (the recordings' high-pass corner), 1/f^slope above
    def env(f):
        out = np.zeros_like(f)
        band = (f > 0) & (f <= f_hi)
        out[band] = (f_lo / np.maximum(f[band], f_lo)) ** slope
        return out

    return _shaped_noise(rng, n, fs, env)


def _band_noise(rng, n, fs, center, half_width):
    def env(f):
        return np.exp(-0.5 * ((f - center) / half_width) ** 2)

    return _shaped_noise(rng, n, fs, env)


def _spike_band_noise(rng, n, fs, width_lo, width_hi):
    """Gaussian noise whose spectrum matches a train of biphasic transients
    with widths in [width_lo, width_hi] seconds. Unlike an actual sparse
    train it carries no outlier coefficients, so wavelet thresholding
    removes it."""
    widths = np.linspace(width_lo, width_hi, 5)

    def env(f):
        out = np.zeros_like(f)
        for w in widths:
            out += w * w * f * np.exp(-0.5 * (2.0 * np.pi * f * w) ** 2)
        return out

    return _shaped_noise(rng, n, fs, env)


def _spike_train(rng, n, fs, count, width_lo, width_hi):
    """Sparse biphasic transients (derivative-of-Gaussian shape)."""
    sig = np.zeros(n)
    if count <= 0:
        return sig
    centers = rng.uniform(0.05, 0.95, count) * n
    widths = rng.uniform(width_lo, width_hi, count) * fs
    signs = rng.choice([-1.0, 1.0], count)
    idx = np.arange(n)
    for c, w, s in zip(centers, widths, signs):
        z = (idx - c) / w
        mask = np.abs(z) < 6
        sig[mask] += s * (-z[mask]) * np.exp(-0.5 * z[mask] ** 2)
    return sig


def _chirp(rng, t, f_start, f_end, harmonic_weights):
    """Coherent discharge whose frequency glides from f_start to f_end."""
    T = t[-1] if t[-1] > 0 else 1.0
    phase = 2.0 * np.pi * (f_start * t + (f_end - f_start) * t * t / (2.0 * T))
    sig = np.sin(phase + rng.uniform(0, 2 * np.pi))
    for mult, w in enumerate(harmonic_weights, start=2):
        sig += w * np.sin(mult * phase + rng.uniform(0, 2 * np.pi))
    return sig


def _chirp_noise(rng, t, f_start, f_end, harmonic_weights, k=8):
    """Gaussian-textured stack with the same gliding average spectrum as a
    coherent chirp: incoherent rate-jittered chirps."""
    sig = np.zeros_like(t)
    for _ in range(k):
        j = rng.uniform(-0.25, 0.25)
        sig += _chirp(rng, t, f_start + j, f_end + j, harmonic_weights)
    return sig / _rms(sig)


def _locked_spikes(rng, t, freq, prob, width_lo, width_hi, fs):
    """Sharp transients phase-locked to a discharge rhythm."""
    n = t.size
    period = fs / freq
    centers = np.arange(period / 2, n - period / 2, period)
    keep = rng.uniform(size=centers.size) < prob
    sig = np.zeros(n)
    idx = np.arange(n)
    for c in centers[keep] + rng.normal(0, period * 0.05, keep.sum()):
        w = rng.uniform(width_lo, width_hi) * fs
        z = (idx - c) / w
        mask = np.abs(z) < 6
        sig[mask] += rng.choice([-1.0, 1.0]) * (-z[mask]) * np.exp(-0.5 * z[mask] ** 2)
    return sig


def synthesize_signal(tag: str, index: int, seed: int = 0) -> np.ndarray:
    """Integer sample vector for one surrogate recording."""
    if tag not in SET_TAGS:
        raise ValueError(f"unknown set tag {tag!r}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_CODE[tag], index)))
    n = EXPECTED_SAMPLES
    fs = SAMPLE_RATE_HZ
    t = np.arange(n) / fs

    background = _pink_noise(rng, n, fs)
    white = rng.normal(size=n)

    def slow_envelope():
        return 1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.2, 0.8) * t
                                  + rng.uniform(0, 2 * np.pi))

    def dense_spike_noise(width_lo, width_hi):
        return _spike_band_noise(rng, n, fs, width_lo, width_hi)

    if tag == "Z":
        scale = 40.0 * rng.lognormal(0.0, 0.28)
        sig = background + 0.5 * _band_noise(rng, n, fs, rng.uniform(9.5, 11.5), 1.6) \
            + 0.06 * white
    elif tag == "O":
        if rng.uniform() < 0.16:
            # strong alpha plus muscle-artifact noise: amplitude and spectrum
            # in the low-voltage-fast seizure range, Gaussian texture
            scale = 140.0 * rng.lognormal(0.0, 0.20)
            f0 = rng.uniform(10.8, 11.2)
            body = (_band_noise(rng, n, fs, f0, 1.5)
                    + rng.uniform(0.15, 0.4) * _band_noise(rng, n, fs, 2 * f0, 2.5)
                    + rng.uniform(0.5, 0.8) * dense_spike_noise(0.004, 0.007)
                    + rng.uniform(0.3, 0.5) * dense_spike_noise(0.008, 0.016)) * slow_envelope()
            sig = body / _rms(body) + 0.35 * background + 0.05 * white
        else:
            scale = 52.0 * rng.lognormal(0.0, 0.28)
            sig = background + 1.6 * _band_noise(rng, n, fs, rng.uniform(9.0, 11.5), 1.8) \
                + 0.06 * white
    elif tag == "N":
        scale = 70.0 * rng.lognormal(0.0, 0.30)
        sig = (background + rng.uniform(0.9, 1.6) * _band_noise(rng, n, fs, rng.uniform(3.0, 5.5), 2.0)
               + 0.06 * white
               + 2.0 * _spike_train(rng, n, fs, rng.poisson(4), 0.03, 0.08))
    elif tag == "F":
        if rng.uniform() < 0.20:
            # rhythmic theta burst: gliding narrowband power and spike-band
            # noise that mimic the seizure spectrum, but with Gaussian
            # texture (no coherent carrier, no locked spikes)
            scale = 175.0 * rng.lognormal(0.0, 0.20)
            f_hi = rng.uniform(5.0, 9.0)
            f_lo = rng.uniform(2.5, 4.5)
            burst = (rng.uniform(0.75, 1.3) * _chirp_noise(rng, t, f_hi, f_lo,
                                   (rng.uniform(0.3, 0.9), rng.uniform(0.1, 0.6)))
                     + rng.uniform(0.5, 0.8) * dense_spike_noise(0.004, 0.008)
                     + rng.uniform(0.3, 0.55) * dense_spike_noise(0.008, 0.016)) * slow_envelope()
            sig = burst / _rms(burst) + 0.35 * background + 0.05 * white
        else:
            scale = 90.0 * rng.lognormal(0.0, 0.35)
            sig = (background + rng.uniform(0.9, 1.7) * _band_noise(rng, n, fs, rng.uniform(3.0, 5.5), 2.0)
                   + 0.06 * white
                   + rng.uniform(2.0, 4.0) * _spike_train(rng, n, fs, rng.poisson(10), 0.025, 0.07)
                   + 0.5 * _band_noise(rng, n, fs, 40.0, 10.0))
    else:  # S
        if rng.uniform() < 0.15:
            # low-voltage fast variant: drifting high-frequency discharge in
            # the strong-alpha amplitude range
            scale = 150.0 * rng.lognormal(0.0, 0.20)
            f0 = rng.uniform(10.8, 11.2)
            discharge = _chirp_noise(rng, t, f0 - 1.0, f0 + 1.0,
                                     (rng.uniform(0.15, 0.4),))
            sharp = _locked_spikes(rng, t, f0 / 2.0, 0.5, 0.004, 0.007, fs)
            medium = _locked_spikes(rng, t, f0 / 2.0, 0.5, 0.008, 0.016, fs)
            spikes = rng.uniform(0.35, 0.6) * sharp / max(_rms(sharp), 1e-9) \
                + rng.uniform(0.2, 0.4) * medium / max(_rms(medium), 1e-9)
        else:
            scale = 260.0 * rng.lognormal(0.0, 0.15)
            f_hi = rng.uniform(6.7, 7.3)
            f_lo = rng.uniform(3.2, 3.8)
            harmonics = (rng.uniform(0.3, 0.9), rng.uniform(0.1, 0.6))
            discharge = rng.uniform(0.75, 1.3) * _chirp_noise(rng, t, f_hi, f_lo, harmonics)
            sharp = _locked_spikes(rng, t, (f_hi + f_lo) / 2.0, 0.6,
                                   0.004, 0.008, fs)
            medium = _locked_spikes(rng, t, (f_hi + f_lo) / 2.0, 0.6,
                                    0.008, 0.016, fs)
            spikes = rng.uniform(0.35, 0.6) * sharp / max(_rms(sharp), 1e-9) \
                + rng.uniform(0.2, 0.45) * medium / max(_rms(medium), 1e-9)
        body = (discharge + spikes) * slow_envelope()
        sig = body / _rms(body) + 0.35 * background + 0.05 * white

    sig = sig / _rms(sig) * scale
    return np.clip(np.round(sig), -6000, 6000).astype(int)


def write_corpus(root, seed: int = 0) -> Path:
    """Write the surrogate tree under ``root``; returns the root path."""
    root = Path(root)
    for tag in SET_TAGS:
        set_dir = root / tag
        set_dir.mkdir(parents=True, exist_ok=True)
        for i in range(SIGNALS_PER_SET):
            samples = synthesize_signal(tag, i, seed)
            path = set_dir / f"{tag}{i + 1:03d}.txt"
            path.write_text("\n".join(str(v) for v in samples) + "\n")
    return root
