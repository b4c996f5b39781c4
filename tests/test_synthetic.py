import hashlib

import numpy as np
import pytest

from eegbench import synthetic
from eegbench.corpus import EXPECTED_SAMPLES, SAMPLE_RATE_HZ

# sha256 of the seed-0 corpus: each file's root-relative POSIX path and "\n",
# then its bytes, over the files in sorted order
CORPUS_SHA256 = "36d0dc5efc13569d83a50ff2b1e05841cc674f78128c730802c28cfe9645ac37"


def corpus_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.txt")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\n")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_corpus_bytes_pinned(corpus_root):
    assert corpus_digest(corpus_root) == CORPUS_SHA256


# Copies of the per-transient loops that `synthetic._transients` replaced,
# kept as the reference it must equal bit for bit.

def reference_transients(n, centers, widths, signs):
    sig = np.zeros(n)
    idx = np.arange(n)
    for c, w, s in zip(centers, widths, signs):
        z = (idx - c) / w
        mask = np.abs(z) < 6
        sig[mask] += s * (-z[mask]) * np.exp(-0.5 * z[mask] ** 2)
    return sig


def reference_spike_train(rng, n, fs, count, width_lo, width_hi):
    sig = np.zeros(n)
    if count <= 0:
        return sig
    centers = rng.uniform(0.05, 0.95, count) * n
    widths = rng.uniform(width_lo, width_hi, count) * fs
    signs = rng.choice([-1.0, 1.0], count)
    return reference_transients(n, centers, widths, signs)


def reference_locked_spikes(rng, t, freq, prob, width_lo, width_hi, fs):
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


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


N = 300


@pytest.mark.parametrize("centers, widths, signs", [
    ([0.0, 0.4, 3.0], [2.5, 4.0, 1.7], [1.0, -1.0, 1.0]),
    ([N - 1.0, N - 1.6, N - 4.0], [2.5, 4.0, 1.7], [-1.0, 1.0, 1.0]),
    ([-3.0, N + 2.5], [2.0, 2.0], [1.0, 1.0]),
    ([150.0, 151.5, 153.25, 149.0], [6.0, 5.0, 3.0, 6.0], [1.0, -1.0, 1.0, -1.0]),
    ([40.3, 40.9, 200.5], [0.2, 0.69, 0.93], [-1.0, 1.0, -1.0]),
    ([], [], []),
], ids=["clipped_at_0", "clipped_at_n_minus_1", "centre_off_signal",
        "overlapping_opposite_signs", "widths_under_one_sample", "none"])
def test_transients_equal_reference_loop(centers, widths, signs):
    args = [np.asarray(v, dtype=float) for v in (centers, widths, signs)]
    assert_same_bits(synthetic._transients(N, *args), reference_transients(N, *args))


@pytest.mark.parametrize("count, width_lo, width_hi", [
    (0, 0.03, 0.08), (4, 0.03, 0.08), (40, 0.025, 0.07), (60, 0.001, 0.005),
])
def test_spike_train_equals_reference(count, width_lo, width_hi):
    args = (EXPECTED_SAMPLES, SAMPLE_RATE_HZ, count, width_lo, width_hi)
    for seed in range(3):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_bits(synthetic._spike_train(new, *args), reference_spike_train(ref, *args))
        assert new.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("freq, prob, width_lo, width_hi", [
    (5.5, 0.5, 0.004, 0.007), (5.0, 0.6, 0.008, 0.016), (5.0, 1.0, 0.001, 0.003),
    (5.5, 0.0, 0.004, 0.007),
])
def test_locked_spikes_equal_reference(freq, prob, width_lo, width_hi):
    t = np.arange(EXPECTED_SAMPLES) / SAMPLE_RATE_HZ
    args = (t, freq, prob, width_lo, width_hi, SAMPLE_RATE_HZ)
    for seed in range(3):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_bits(synthetic._locked_spikes(new, *args),
                         reference_locked_spikes(ref, *args))
        assert new.bit_generator.state == ref.bit_generator.state


def test_sign_draw_matches_choice():
    # `_locked_spikes` draws each sign with `integers(0, 2)` where the loop it
    # replaced called `choice([-1.0, 1.0])`, between the width draws
    for seed in range(20):
        by_choice, by_integers = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert by_choice.uniform(0.004, 0.007) == by_integers.uniform(0.004, 0.007)
            assert by_choice.choice([-1.0, 1.0]) == (-1.0, 1.0)[by_integers.integers(0, 2)]
        assert by_choice.bit_generator.state == by_integers.bit_generator.state


def test_write_corpus_rejects_a_negative_seed(tmp_path):
    root = tmp_path / "corpus"
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        synthetic.write_corpus(root, seed=-1)
    assert not root.exists()
