import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegbench import mfcc


def test_config_validation():
    with pytest.raises(ValueError):
        mfcc.MfccConfig(frame_step=0)
    with pytest.raises(ValueError):
        mfcc.MfccConfig(frame_step=512, frame_len=256)
    with pytest.raises(ValueError):
        mfcc.MfccConfig(n_coeffs=30, n_filters=26)
    with pytest.raises(ValueError):
        mfcc.MfccConfig(preemph_alpha=1.0)


def test_nfft_next_power_of_two():
    assert mfcc.MfccConfig(frame_len=256, frame_step=128).nfft == 256
    assert mfcc.MfccConfig(frame_len=300, frame_step=128).nfft == 512


def test_preemphasis_identity_at_zero_alpha():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(mfcc.pre_emphasize(x, 0.0), x)


def test_preemphasis_constant_signal():
    y = mfcc.pre_emphasize(np.full(5, 2.0), 0.97)
    expected = [2.0] + [2.0 - 0.97 * 2.0] * 4
    assert np.allclose(y, expected, atol=1e-15)


def test_preemphasis_impulse_response():
    x = np.zeros(5)
    x[0] = 1.0
    assert np.allclose(mfcc.pre_emphasize(x, 0.5), [1.0, -0.5, 0.0, 0.0, 0.0], atol=0)


def test_hamming_endpoints_and_midpoint():
    w = mfcc.hamming_window(101)
    assert w[0] == pytest.approx(0.08, abs=1e-12)
    assert w[-1] == pytest.approx(0.08, abs=1e-12)
    assert w[50] == pytest.approx(1.0, abs=1e-12)


def test_hamming_symmetry():
    w = mfcc.hamming_window(64)
    assert np.allclose(w, w[::-1], atol=1e-15)


def test_hamming_rejects_single_point():
    with pytest.raises(ValueError):
        mfcc.hamming_window(1)


def test_mel_at_zero():
    assert mfcc.hz_to_mel(0.0) == 0.0


def test_mel_at_nu_natural_log():
    # delta * ln 2 at f = nu
    assert mfcc.hz_to_mel(700.0) == pytest.approx(2595.0 * math.log(2.0), rel=1e-12)
    assert mfcc.hz_to_mel(700.0) == pytest.approx(1798.7, abs=0.1)


def test_mel_monotone_and_invertible():
    f = np.linspace(0, 86.8, 200)
    m = mfcc.hz_to_mel(f)
    assert np.all(np.diff(m) > 0)
    assert np.allclose(mfcc.mel_to_hz(m), f, atol=1e-9)


def test_mel_rejects_negative_frequency():
    with pytest.raises(ValueError):
        mfcc.hz_to_mel(-1.0)


def test_frame_count_formula():
    assert mfcc.frame_count(4097, 256, 128) == 31


@given(
    st.integers(2, 64),
    st.integers(1, 64),
    st.integers(0, 500),
)
@settings(max_examples=100, deadline=None)
def test_frame_count_property(frame_len, step_raw, extra):
    step = min(step_raw, frame_len)
    n = frame_len + extra
    frames = mfcc.frame_signal(np.zeros(n), frame_len, step)
    assert frames.shape == ((n - frame_len) // step + 1, frame_len)


def test_frame_signal_too_short():
    with pytest.raises(ValueError, match="shorter"):
        mfcc.frame_signal(np.zeros(10), 16, 8)


def test_power_spectrum_zero_frame():
    out = mfcc.power_spectrum(np.zeros((2, 64)), 64)
    assert out.shape == (2, 33)
    assert np.all(out == 0)


def test_power_spectrum_tone_concentration():
    n = 256
    k = 32
    x = np.sin(2 * np.pi * k * np.arange(n) / n)
    p = mfcc.power_spectrum(x, n)[0]
    assert p[k] / p.sum() > 0.99


def test_power_spectrum_parseval_full():
    rng = np.random.default_rng(2)
    x = rng.normal(size=128)
    full = np.abs(np.fft.fft(x, 128)) ** 2
    assert full.sum() / 128 == pytest.approx((x ** 2).sum(), rel=1e-12)
    # one-sided output agrees with the full spectrum's first half
    one = mfcc.power_spectrum(x, 128)[0]
    assert np.allclose(one, full[:65], atol=1e-9)


def test_filterbank_shape_nonnegative_unimodal():
    fb = mfcc.mel_filterbank(26, 256, 173.61)
    assert fb.shape == (26, 129)
    assert np.all(fb >= 0)
    assert np.allclose(fb.max(axis=1), 1.0, atol=0)
    for row in fb:
        sign_changes = np.sum(np.abs(np.diff(np.sign(np.diff(row[row >= 0])))) > 0)
        peak = row.argmax()
        assert np.all(np.diff(row[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(row[peak:]) <= 1e-12)


def test_filterbank_centers_match_inverse_mel():
    centers = mfcc.mel_filter_centers(26, 173.61)[1:-1]
    # independent recomputation
    top = 2595.0 * math.log(1 + (173.61 / 2) / 700.0)
    expected = [700.0 * (math.exp(m / 2595.0) - 1) for m in np.linspace(0, top, 28)[1:-1]]
    assert np.allclose(centers, expected, rtol=1e-12)
    assert np.all(np.diff(centers) > 0)


def test_filterbank_too_many_filters():
    with pytest.raises(ValueError, match="resolution"):
        mfcc.mel_filterbank(64, 32, 173.61)


def test_per_frame_coefficient_count():
    rng = np.random.default_rng(0)
    cep = mfcc.mfcc_frames(rng.normal(size=4097))
    assert cep.shape == (31, 14)


def test_identical_frames_have_zero_std():
    cfg = mfcc.MfccConfig(frame_len=8, frame_step=4, preemph_alpha=0.0,
                          n_filters=4, n_coeffs=3)
    base = np.array([1.0, 2.0, -1.0, 0.5])
    signal = np.tile(base, 6)  # every frame sees the same 8 samples
    cep = mfcc.mfcc_frames(signal, cfg)
    feats = mfcc.mfcc_features(signal, cfg)
    assert np.allclose(cep.std(axis=0), 0.0, atol=1e-12)
    assert np.allclose(feats[: cfg.n_coeffs], cep[0], atol=1e-12)
    assert np.allclose(feats[cfg.n_coeffs:], 0.0, atol=1e-12)


def _naive_mfcc(signal, cfg, sample_rate):
    """Independent slow reference: explicit loops and direct DFT sums.

    The Hamming and mel constants are written out, not read from the module.
    """
    x = [float(signal[0])] + [
        float(signal[i]) - cfg.preemph_alpha * float(signal[i - 1])
        for i in range(1, len(signal))
    ]
    n_frames = (len(x) - cfg.frame_len) // cfg.frame_step + 1
    nfft = cfg.nfft
    # mel edges
    def to_mel(f):
        return 2595.0 * math.log(1 + f / 700.0)

    def from_mel(m):
        return 700.0 * (math.exp(m / 2595.0) - 1)

    top = to_mel(sample_rate / 2)
    edges = [from_mel(top * j / (cfg.n_filters + 1)) for j in range(cfg.n_filters + 2)]
    bin_freqs = [k * sample_rate / nfft for k in range(nfft // 2 + 1)]
    fb = []
    for m in range(cfg.n_filters):
        row = []
        for f in bin_freqs:
            up = (f - edges[m]) / (edges[m + 1] - edges[m])
            down = (edges[m + 2] - f) / (edges[m + 2] - edges[m + 1])
            row.append(max(0.0, min(up, down)))
        peak = max(row)
        fb.append([v / peak for v in row])
    out = []
    for fr in range(n_frames):
        start = fr * cfg.frame_step
        frame = [
            x[start + k] * (0.54 - 0.46 * math.cos(2 * math.pi * k / (cfg.frame_len - 1)))
            for k in range(cfg.frame_len)
        ]
        pspec = []
        for k in range(nfft // 2 + 1):
            re = sum(frame[t] * math.cos(2 * math.pi * k * t / nfft) for t in range(len(frame)))
            im = sum(-frame[t] * math.sin(2 * math.pi * k * t / nfft) for t in range(len(frame)))
            pspec.append(re * re + im * im)
        theta = [
            math.log(max(sum(p * w for p, w in zip(pspec, fb[m])), mfcc.ENERGY_FLOOR))
            for m in range(cfg.n_filters)
        ]
        cep = [
            sum(theta[m] * math.cos(math.pi * n * (m + 0.5) / cfg.n_filters) for m in range(cfg.n_filters))
            for n in range(cfg.n_coeffs)
        ]
        out.append(cep)
    return np.array(out)


@pytest.mark.parametrize("kind", ["constant", "random"])
def test_against_naive_oracle(kind):
    cfg = mfcc.MfccConfig(frame_len=32, frame_step=16, n_filters=8, n_coeffs=5)
    if kind == "constant":
        signal = np.full(64, 5.0)
    else:
        signal = np.random.default_rng(11).normal(size=80)
    fast = mfcc.mfcc_frames(signal, cfg)
    slow = _naive_mfcc(signal, cfg, 173.61)
    assert fast.shape == slow.shape
    assert np.abs(fast - slow).max() < 1e-8


def test_positive_scaling_touches_only_c0_mean():
    rng = np.random.default_rng(4)
    x = rng.normal(size=2048) + 0.1
    f1 = mfcc.mfcc_features(x)
    f2 = mfcc.mfcc_features(3.7 * x)
    p = 14
    # coefficient 0 mean shifts by n_filters * log(c^2)
    assert f2[0] - f1[0] == pytest.approx(26 * math.log(3.7 ** 2), rel=1e-6)
    assert np.abs(f2[1:p] - f1[1:p]).max() < 1e-8
    assert np.abs(f2[p:] - f1[p:]).max() < 1e-8


def test_feature_names_align():
    names = mfcc.mfcc_feature_names()
    assert len(names) == 28
    assert names[0] == "mfcc_mean_00"
    assert names[-1] == "mfcc_std_13"
    vec = mfcc.mfcc_features(np.random.default_rng(1).normal(size=4097))
    assert vec.shape == (28,)
    assert np.all(np.isfinite(vec))


def test_stacked_signals_equal_single_signals():
    X = np.random.default_rng(9).normal(size=(5, 4097)) * 80.0
    feats = mfcc.mfcc_features(X)
    assert feats.shape == (5, 28)
    for row, x in zip(feats, X):
        assert row.tobytes() == mfcc.mfcc_features(x).tobytes()
