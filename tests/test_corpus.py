import numpy as np
import pytest

from eegbench import corpus
from eegbench.errors import DataError


@pytest.fixture(scope="module")
def full_corpus(corpus_root):
    return corpus.load_corpus(corpus_root)


class TestLoadSignal:
    def test_reads_file_in_order(self, tmp_path):
        p = tmp_path / "S001.txt"
        values = list(range(-2048, -2048 + corpus.EXPECTED_SAMPLES))
        p.write_text("\n".join(str(v) for v in values))
        samples = corpus.load_signal(p)
        assert samples.dtype == np.int64
        assert np.array_equal(samples, values)

    def test_blank_trailing_line_is_ignored(self, tmp_path):
        body = "\n".join(str(v) for v in range(corpus.EXPECTED_SAMPLES))
        a = tmp_path / "Z001.txt"
        b = tmp_path / "Z002.txt"
        a.write_text(body)
        b.write_text(body + "\n\n")
        assert np.array_equal(corpus.load_signal(a), corpus.load_signal(b))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            corpus.load_signal(tmp_path / "Z000.txt")

    def test_non_numeric_line_reports_number(self, tmp_path):
        p = tmp_path / "N001.txt"
        p.write_text("1\n2\nxyz\n4\n")
        with pytest.raises(DataError, match=r":3: not an integer"):
            corpus.load_signal(p)

    @pytest.mark.parametrize("body, lineno, text", [
        ("1\n2 3\n4\n", 2, "2 3"),
        ("1 2\n3 4\n", 1, "1 2"),
        ("1\n\n5.0\n", 3, "5.0"),
    ], ids=["two_numbers", "two_columns", "decimal"])
    def test_line_not_one_integer_reports_number(self, tmp_path, body, lineno, text):
        p = tmp_path / "N002.txt"
        p.write_text(body)
        with pytest.raises(DataError, match=rf":{lineno}: not an integer: '{text}'"):
            corpus.load_signal(p)

    def test_wrong_count_strict_vs_lenient(self, tmp_path):
        p = tmp_path / "F001.txt"
        p.write_text("\n".join(["1"] * 100))
        with pytest.raises(DataError, match="expected 4097 samples, found 100"):
            corpus.load_signal(p)


class TestLoadCorpus:
    def test_full_tree(self, full_corpus, corpus_root):
        # one C-contiguous float64 matrix, set by set; each set's entry is a view of it
        samples = full_corpus.samples
        assert samples.shape == (500, corpus.EXPECTED_SAMPLES)
        assert samples.dtype == np.float64 and samples.flags.c_contiguous
        assert list(full_corpus) == list(corpus.SET_TAGS)
        assert sum(len(rows) for rows in full_corpus.values()) == 500
        for i, tag in enumerate(corpus.SET_TAGS):
            rows = full_corpus[tag]
            assert rows.shape == (100, corpus.EXPECTED_SAMPLES)
            assert rows.base is samples and np.shares_memory(rows, samples[100 * i])
            assert all(s.startswith(tag) for s in full_corpus.source_ids[100 * i:100 * (i + 1)])
        assert np.array_equal(samples[437], corpus.load_signal(corpus_root / "S" / "S038.txt"))
        with pytest.raises(KeyError):
            full_corpus["X"]

    def test_deterministic_name_order(self, full_corpus):
        ids = full_corpus.source_ids[:100].tolist()
        assert ids == sorted(ids)
        assert ids[0] == "Z001"

    def test_empty_directory_lists_missing_tags(self, tmp_path):
        with pytest.raises(DataError, match="Z, O, N, F, S"):
            corpus.load_corpus(tmp_path)

    def test_partial_tree_reports_missing(self, tmp_path):
        (tmp_path / "Z").mkdir()
        (tmp_path / "S").mkdir()
        with pytest.raises(DataError) as err:
            corpus.load_corpus(tmp_path)
        assert "O" in str(err.value) and "Z" not in str(err.value)

    def test_wrong_file_count_strict(self, tmp_path):
        for tag in corpus.SET_TAGS:
            (tmp_path / tag).mkdir()
        body = "\n".join(["0"] * corpus.EXPECTED_SAMPLES)
        (tmp_path / "Z" / "Z001.txt").write_text(body)
        with pytest.raises(DataError, match="expected 100"):
            corpus.load_corpus(tmp_path)


class TestBuildDataset:
    def test_imbalanced_counts(self, full_corpus):
        ds = corpus.build_dataset(full_corpus, "imbalanced")
        assert np.array_equal(ds.rows, np.arange(500))
        assert int(ds.labels.sum()) == 100
        assert ds.labels.mean() == 0.2

    def test_balanced_counts_per_tag(self, full_corpus):
        ds = corpus.build_dataset(full_corpus, "balanced", seed=7)
        assert len(ds.rows) == 200
        assert np.all(np.diff(ds.rows) > 0)
        assert int(ds.labels.sum()) == 100
        tags, counts = np.unique([s[0] for s in ds.source_ids], return_counts=True)
        assert dict(zip(tags.tolist(), counts.tolist())) == {"Z": 25, "O": 25, "N": 25,
                                                            "F": 25, "S": 100}
        assert np.array_equal(ds.source_ids, full_corpus.source_ids[ds.rows])

    def test_balanced_rows_are_the_seeded_draws(self, full_corpus):
        rng = np.random.default_rng(7)
        want = [100 * i + pick for i in range(4)
                for pick in sorted(rng.choice(100, size=25, replace=False))]
        ds = corpus.build_dataset(full_corpus, "balanced", seed=7)
        assert ds.rows.tolist() == want + list(range(400, 500))

    def test_balanced_same_seed_identical(self, full_corpus):
        a = corpus.build_dataset(full_corpus, "balanced", seed=11)
        b = corpus.build_dataset(full_corpus, "balanced", seed=11)
        assert np.array_equal(a.rows, b.rows)

    def test_balanced_different_seed_differs(self, full_corpus):
        a = corpus.build_dataset(full_corpus, "balanced", seed=1)
        b = corpus.build_dataset(full_corpus, "balanced", seed=2)
        assert not np.array_equal(a.rows, b.rows)

    def test_label_mapping_total(self, full_corpus):
        ds = corpus.build_dataset(full_corpus, "imbalanced")
        for source_id, label in zip(ds.source_ids, ds.labels):
            assert label == (1 if source_id.startswith("S") else 0)

    def test_unknown_scheme(self, full_corpus):
        with pytest.raises(ValueError, match="scheme"):
            corpus.build_dataset(full_corpus, "stratified")


def test_manifest_round_trip(tmp_path, full_corpus):
    ds = corpus.build_dataset(full_corpus, "balanced", seed=3)
    path = tmp_path / "manifest.csv"
    corpus.write_manifest(ds, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "source_id,set_tag,label,scheme,seed"
    assert len(lines) == 201
    assert lines[-1].split(",") == ["S100", "S", "1", "balanced", "3"]


def test_synthetic_seizure_amplitude_dominates(full_corpus):
    # surrogate corpus preserves the key contrast: ictal energy >> healthy energy
    s_rms = np.median(np.std(full_corpus["S"], axis=1))
    z_rms = np.median(np.std(full_corpus["Z"], axis=1))
    assert s_rms > 3 * z_rms
