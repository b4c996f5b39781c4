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
        sig = corpus.load_signal(p, "S")
        assert sig.samples.size == corpus.EXPECTED_SAMPLES
        assert sig.set_tag == "S"
        assert sig.source_id == "S001"
        assert np.array_equal(sig.samples, values)

    def test_blank_trailing_line_is_ignored(self, tmp_path):
        body = "\n".join(str(v) for v in range(corpus.EXPECTED_SAMPLES))
        a = tmp_path / "Z001.txt"
        b = tmp_path / "Z002.txt"
        a.write_text(body)
        b.write_text(body + "\n\n")
        assert np.array_equal(corpus.load_signal(a, "Z").samples,
                              corpus.load_signal(b, "Z").samples)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            corpus.load_signal(tmp_path / "Z000.txt", "Z")

    def test_non_numeric_line_reports_number(self, tmp_path):
        p = tmp_path / "N001.txt"
        p.write_text("1\n2\nxyz\n4\n")
        with pytest.raises(DataError, match=r":3: not an integer"):
            corpus.load_signal(p, "N")

    @pytest.mark.parametrize("body, lineno, text", [
        ("1\n2 3\n4\n", 2, "2 3"),
        ("1 2\n3 4\n", 1, "1 2"),
        ("1\n\n5.0\n", 3, "5.0"),
    ], ids=["two_numbers", "two_columns", "decimal"])
    def test_line_not_one_integer_reports_number(self, tmp_path, body, lineno, text):
        p = tmp_path / "N002.txt"
        p.write_text(body)
        with pytest.raises(DataError, match=rf":{lineno}: not an integer: '{text}'"):
            corpus.load_signal(p, "N")

    def test_wrong_count_strict_vs_lenient(self, tmp_path):
        p = tmp_path / "F001.txt"
        p.write_text("\n".join(["1"] * 100))
        with pytest.raises(DataError, match="expected 4097 samples, found 100"):
            corpus.load_signal(p, "F")


class TestLoadCorpus:
    def test_full_tree(self, full_corpus):
        assert set(full_corpus) == set(corpus.SET_TAGS)
        for tag in corpus.SET_TAGS:
            assert len(full_corpus[tag]) == 100
            assert all(s.set_tag == tag for s in full_corpus[tag])

    def test_deterministic_name_order(self, full_corpus):
        ids = [s.source_id for s in full_corpus["Z"]]
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
        assert len(ds.instances) == 500
        assert int(ds.labels.sum()) == 100
        assert ds.labels.mean() == 0.2

    def test_balanced_counts_per_tag(self, full_corpus):
        ds = corpus.build_dataset(full_corpus, "balanced", seed=7)
        assert len(ds.instances) == 200
        assert int(ds.labels.sum()) == 100
        by_tag = {}
        for sig in ds.instances:
            by_tag[sig.set_tag] = by_tag.get(sig.set_tag, 0) + 1
        assert by_tag == {"Z": 25, "O": 25, "N": 25, "F": 25, "S": 100}

    def test_balanced_same_seed_identical(self, full_corpus):
        a = corpus.build_dataset(full_corpus, "balanced", seed=11)
        b = corpus.build_dataset(full_corpus, "balanced", seed=11)
        assert [s.source_id for s in a.instances] == [s.source_id for s in b.instances]

    def test_balanced_different_seed_differs(self, full_corpus):
        a = corpus.build_dataset(full_corpus, "balanced", seed=1)
        b = corpus.build_dataset(full_corpus, "balanced", seed=2)
        assert [s.source_id for s in a.instances] != [s.source_id for s in b.instances]

    def test_label_mapping_total(self, full_corpus):
        ds = corpus.build_dataset(full_corpus, "imbalanced")
        for sig, label in zip(ds.instances, ds.labels):
            assert label == (1 if sig.set_tag == "S" else 0)

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
    s_rms = np.median([np.std(sig.samples) for sig in full_corpus["S"]])
    z_rms = np.median([np.std(sig.samples) for sig in full_corpus["Z"]])
    assert s_rms > 3 * z_rms
