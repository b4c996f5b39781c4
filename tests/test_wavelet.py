import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegbench import wavelet as wv


ALL_FAMILIES = list(wv.SUPPORTED_FAMILIES)
# vanishing moments of each family's analysis high-pass filter
VANISHING_MOMENTS = {"haar": 1, "db2": 2, "db4": 4, "coif1": 2}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_filter_invariants(family):
    f = wv.filter_for(family)
    lo, hi = f.lo_dec, f.hi_dec
    L = len(f)
    assert L == {"haar": 2, "db2": 4, "coif1": 6, "db4": 8}[family]
    assert abs(lo.sum() - math.sqrt(2)) < 1e-12
    assert abs((lo ** 2).sum() - 1.0) < 1e-12
    # quadrature mirror relation
    for i in range(L):
        assert hi[i] == pytest.approx((-1) ** i * lo[L - 1 - i], abs=0)
    # high-pass vanishing moments
    for m in range(VANISHING_MOMENTS[family]):
        assert abs(sum(i ** m * hi[i] for i in range(L))) < 1e-10
    # even-shift self orthogonality
    for s in range(1, L // 2):
        assert abs(np.dot(lo[: L - 2 * s], lo[2 * s:])) < 1e-12


def test_filter_for_unknown_family():
    with pytest.raises(ValueError, match="dmey"):
        wv.filter_for("dmey")


def test_haar_lowpass_values():
    f = wv.filter_for("haar")
    assert np.allclose(f.lo_dec, [1 / math.sqrt(2)] * 2, atol=0)


def test_db2_closed_form():
    # four-tap solution of the orthonormality + two vanishing-moment equations
    s3 = math.sqrt(3)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2))
    f = wv.filter_for("db2")
    assert np.allclose(f.lo_dec, expected, atol=1e-15)


def test_analyze_constant_signal_haar():
    f = wv.filter_for("haar")
    a, d = wv.analyze_level([1.0, 1.0, 1.0, 1.0], f)
    assert np.allclose(a, [math.sqrt(2)] * 2, atol=1e-15)
    assert np.allclose(d, 0.0, atol=1e-15)


def test_analyze_alternating_signal_haar():
    f = wv.filter_for("haar")
    a, d = wv.analyze_level([1.0, -1.0, 1.0, -1.0], f)
    assert np.allclose(a, 0.0, atol=1e-15)
    assert np.allclose(d, [math.sqrt(2)] * 2, atol=1e-15)


def test_analyze_energy_split_db4():
    f = wv.filter_for("db4")
    x = np.random.default_rng(7).normal(size=64)
    a, d = wv.analyze_level(x, f)
    assert (a ** 2).sum() + (d ** 2).sum() == pytest.approx((x ** 2).sum(), abs=1e-10)


def test_analyze_rejects_short_signal():
    f = wv.filter_for("db4")
    with pytest.raises(ValueError, match="shorter"):
        wv.analyze_level([1.0, 2.0], f)


def test_wavedec_band_lengths_4096():
    f = wv.filter_for("db2")
    sb = wv.wavedec(np.zeros(4096), f)
    assert [b.size for b in sb.bands] == [256, 256, 512, 1024, 2048]
    assert sb.names == ["a4", "d4", "d3", "d2", "d1"]


def test_wavedec_band_lengths_odd_input():
    # odd lengths are zero-padded per level: 4097 -> 2049 -> 1025 -> 513 -> 257
    f = wv.filter_for("haar")
    sb = wv.wavedec(np.zeros(4097), f)
    assert [b.size for b in sb.bands] == [257, 257, 513, 1025, 2049]


def test_wavedec_constant_signal_has_zero_details():
    for family in ALL_FAMILIES:
        f = wv.filter_for(family)
        sb = wv.wavedec(np.full(256, 3.25), f)
        for d in sb.bands[1:]:
            assert np.abs(d).max() < 1e-12


def test_wavedec_too_many_levels():
    f = wv.filter_for("haar")
    with pytest.raises(ValueError, match="levels"):
        wv.wavedec(np.zeros(8), f, levels=4)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [64, 1000, 4097])
def test_roundtrip_and_parseval_periodized(family, n):
    rng = np.random.default_rng(42)
    f = wv.filter_for(family)
    x = rng.normal(size=n)
    sb = wv.wavedec(x, f)
    rec = wv.waverec(sb, f)
    assert rec.size == n
    assert np.abs(rec - x).max() < 1e-8
    ex = (x ** 2).sum()
    assert abs(sum(np.sum(b * b) for b in sb.bands) - ex) / ex < 1e-8


def test_wavedec_rejects_other_modes():
    with pytest.raises(ValueError, match="symmetric"):
        wv.wavedec(np.zeros(64), wv.filter_for("db2"), 4, "symmetric")


def test_zero_bands_reconstruct_to_zero():
    f = wv.filter_for("db2")
    sb = wv.wavedec(np.zeros(128), f)
    assert np.abs(wv.waverec(sb, f)).max() == 0.0


def test_impulse_roundtrip():
    f = wv.filter_for("coif1")
    x = np.zeros(256)
    x[100] = 1.0
    rec = wv.waverec(wv.wavedec(x, f), f)
    assert np.abs(rec - x).max() < 1e-10


def test_waverec_family_mismatch():
    sb = wv.wavedec(np.zeros(64), wv.filter_for("haar"))
    with pytest.raises(ValueError, match="family"):
        wv.waverec(sb, wv.filter_for("db2"))


def test_universal_threshold_unit_sigma():
    # median |d| = 0.6745 makes the noise estimate exactly 1
    d = np.array([0.6745, -0.6745, 0.6745, 0.6745, -0.6745])
    lam = wv.universal_threshold(d, 4097)
    assert lam == pytest.approx(math.sqrt(2 * math.log(4097)), abs=1e-12)
    assert lam == pytest.approx(4.0787, abs=5e-4)


def test_universal_threshold_zero_band():
    assert wv.universal_threshold(np.zeros(100), 100) == 0.0


def test_universal_threshold_homogeneous():
    rng = np.random.default_rng(0)
    d = rng.normal(size=501)
    lam = wv.universal_threshold(d, 1000)
    assert wv.universal_threshold(3.5 * d, 1000) == pytest.approx(3.5 * lam, rel=1e-12)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50),
    st.floats(0, 1e5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_soft_threshold_is_shrinkage(coeffs, lam):
    c = np.asarray(coeffs)
    out = wv.soft_threshold(c, lam)
    assert np.all(np.abs(out) <= np.abs(c) + 1e-15)
    nonzero = out != 0
    assert np.all(np.sign(out[nonzero]) == np.sign(c[nonzero]))


def test_denoise_zero_signal():
    f = wv.filter_for("db4")
    out = wv.denoise(np.zeros(512), f)
    assert out.shape == (512,)
    assert np.abs(out).max() == 0.0


def test_denoise_preserves_length_odd():
    f = wv.filter_for("coif1")
    rng = np.random.default_rng(1)
    assert wv.denoise(rng.normal(size=4097), f).shape == (4097,)


def test_denoise_improves_snr_on_noisy_sinusoid():
    # 2 Hz tone at the recording rate; noise scaled for 5 dB input SNR
    fs = 173.61
    n = 4097
    t = np.arange(n) / fs
    clean = np.sin(2 * np.pi * 2.0 * t)
    p_signal = np.mean(clean ** 2)
    sigma = math.sqrt(p_signal / 10 ** 0.5)
    f = wv.filter_for("db4")
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        noisy = clean + sigma * rng.normal(size=n)
        den = wv.denoise(noisy, f)
        snr_in = p_signal / np.mean((noisy - clean) ** 2)
        snr_out = p_signal / np.mean((den - clean) ** 2)
        wins += snr_out > snr_in
    assert wins >= 95


def test_denoise_shrinks_pure_noise():
    f = wv.filter_for("db2")
    rng = np.random.default_rng(5)
    x = rng.normal(size=2048)
    out = wv.denoise(x, f)
    assert (out ** 2).sum() < (x ** 2).sum()



# "periodized" is the one mode, spelt out as perfbench's DWT check passes it
@pytest.mark.parametrize("family", ["db2", "db4", "coif1"])
@pytest.mark.parametrize("mode", ["periodized"])
def test_stacked_signals_equal_single_signals(family, mode):
    f = wv.filter_for(family)
    X = np.random.default_rng(17).normal(size=(2, 3, 1001)) * 50.0
    sb = wv.wavedec(X, f, 4, mode)
    rec = wv.waverec(sb, f)
    denoised = wv.denoise(X, f)
    for i in np.ndindex(X.shape[:-1]):
        one = wv.wavedec(X[i], f, 4, mode)
        for stacked, single in zip(sb.bands, one.bands):
            assert stacked[i].tobytes() == single.tobytes()
        assert rec[i].tobytes() == wv.waverec(one, f).tobytes()
        assert denoised[i].tobytes() == wv.denoise(X[i], f).tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_synthesis_adds_in_add_at_order(family):
    # several taps overlap each output sample, so the order of the sums shows;
    # at nc = L/2, the fewest coefficients analysis leaves, every window wraps
    f = wv.filter_for(family)
    L = len(f)
    rng = np.random.default_rng(4)
    for nc in (L // 2, L // 2 + 1, 100):
        n = 2 * nc
        a, d = rng.normal(size=(2, 3, nc))
        a[:, ::3] = 0.0
        d[:, 1::4] = -0.0
        k = np.arange(nc)[:, None]
        for out_len in (n, n - 1):
            stacked = wv.synthesize_level(a, d, f, out_len)
            for i in range(3):
                vals = np.outer(a[i], f.lo_dec) + np.outer(d[i], f.hi_dec)
                buf = np.zeros(n)
                np.add.at(buf, ((2 * k + np.arange(L)) % n).ravel(), vals.ravel())
                assert stacked[i].tobytes() == buf[:out_len].tobytes()
                one = wv.synthesize_level(a[i], d[i], f, out_len)
                assert one.tobytes() == buf[:out_len].tobytes()


def test_synthesis_rejects_fewer_coefficients_than_half_the_filter():
    f = wv.filter_for("db4")
    with pytest.raises(ValueError, match="fewer than half"):
        wv.synthesize_level(np.ones(3), np.ones(3), f, 6)


def _quantile_rows(n, rng):
    """Rows of length n: noise, ties, exact zeros, -0.0, and both zeros mixed."""
    x = rng.normal(size=n)
    rows = [x, np.round(2 * x) / 2, np.where(np.abs(x) < 0.7, 0.0, x),
            np.where(np.abs(x) < 0.7, -0.0, x), np.full(n, -0.0), np.full(n, 3.0),
            np.where(x < 0, -0.0, 0.0), np.where(np.abs(x) < 0.5, -0.0, np.round(x))]
    return np.array(rows)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 33, 34, 35, 36, 257, 298, 299])
def test_sorted_quantiles_equal_numpy(n):
    # np.partition may leave either zero at an index of a row that holds both
    # 0.0 and -0.0, so there a quartile can differ from np.percentile in the
    # sign of a zero only; every other row must match bit for bit
    rng = np.random.default_rng(n)
    for X in (_quantile_rows(n, rng), rng.normal(size=(3, 2, n))):
        s = np.sort(X, axis=-1)
        both_zeros = (np.any((X == 0) & np.signbit(X), axis=-1)
                      & np.any((X == 0) & ~np.signbit(X), axis=-1))
        assert wv.sorted_median(s).tobytes() == np.median(X, axis=-1).tobytes()
        for q, ref in zip((0.25, 0.75), np.percentile(X, [25.0, 75.0], axis=-1)):
            got = wv.sorted_percentile(s, q)
            assert np.array_equal(got, ref)
            assert got[~both_zeros].tobytes() == ref[~both_zeros].tobytes()
        for row, srow in zip(X.reshape(-1, n), s.reshape(-1, n)):
            assert wv.sorted_median(srow).tobytes() == np.median(row).tobytes()
