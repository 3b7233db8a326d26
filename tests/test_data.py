"""Label encoding, CSV loading, standardization, and fold construction."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from probitgp import (
    Dataset,
    encode_labels,
    feature_stats,
    fold_datasets,
    load_csv,
    make_folds,
    read_feature_rows,
    standardize,
)
from probitgp.data import FOLDS, apply_standardization, standardize_rows


class TestEncodeLabels:
    def test_zero_one(self):
        assert_allclose(encode_labels([0, 1, 1, 0]), [-1, 1, 1, -1])

    def test_plus_minus_one_identity(self):
        y = [-1, 1, -1]
        assert_allclose(encode_labels(y), y)
        # idempotent: encoding an encoded vector changes nothing
        assert_allclose(encode_labels(encode_labels(y)), encode_labels(y))

    def test_strings_lexicographic(self):
        out = encode_labels(["R", "M", "M", "R"])
        assert_allclose(out, [1, -1, -1, 1])  # "M" < "R"

    def test_other_numeric_pair_lexicographic(self):
        # {1, 2} is not a recognized numeric convention; falls back to string order
        assert_allclose(encode_labels(["1", "2"]), [-1, 1])

    def test_whitespace_trimmed(self):
        assert_allclose(encode_labels([" b", "g ", "b"]), [-1, 1, -1])

    def test_degenerate_label_sets_rejected(self):
        with pytest.raises(ValueError):
            encode_labels([1, 1, 1])
        with pytest.raises(ValueError):
            encode_labels([0, 1, 2])


class TestLoadCsv:
    def test_headerless_numeric(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,1\n3.0,4.0,0\n")
        ds = load_csv(p)
        assert_allclose(ds.X, [[1, 2], [3, 4]])
        assert_allclose(ds.y, [1, -1])
        assert ds.name == "d"

    def test_named_label_column(self, tmp_path):
        p = tmp_path / "named.csv"
        p.write_text("a,cls,b\n0.5,1,2.5\n1.5,0,3.5\n")
        ds = load_csv(p, label_column="cls")
        assert_allclose(ds.X, [[0.5, 2.5], [1.5, 3.5]])
        assert_allclose(ds.y, [1, -1])

    def test_positional_header_autodetect(self, tmp_path):
        # header present, labels by position: non-numeric first row is skipped
        p = tmp_path / "h.csv"
        p.write_text("x1,x2,label\n1,2,0\n3,4,1\n")
        ds = load_csv(p, label_column="last")
        assert ds.n == 2
        assert_allclose(ds.y, [-1, 1])

    def test_string_labels_no_header(self, tmp_path):
        # sonar-style: numeric features, trailing letter class, no header row
        p = tmp_path / "s.csv"
        p.write_text("0.1,0.2,R\n0.3,0.4,M\n0.5,0.6,R\n")
        ds = load_csv(p)
        assert ds.n == 3
        assert_allclose(ds.y, [1, -1, 1])

    def test_negative_label_position(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("1,5.0,2\n0,6.0,3\n")
        ds = load_csv(p, label_column=0)
        assert_allclose(ds.X, [[5, 2], [6, 3]])
        ds2 = load_csv(p, label_column=-3)
        assert_allclose(ds2.X, ds.X)

    def test_error_cases(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("\n")
        with pytest.raises(ValueError):
            load_csv(empty)
        ragged = tmp_path / "r.csv"
        ragged.write_text("1,2,0\n1,2,3,0\n")
        with pytest.raises(ValueError):
            load_csv(ragged)
        badfeat = tmp_path / "b.csv"
        badfeat.write_text("1,2,0\n1,oops,1\n")
        with pytest.raises(ValueError):
            load_csv(badfeat)
        missing = tmp_path / "m.csv"
        missing.write_text("a,b\n1,0\n2,1\n")
        with pytest.raises(ValueError):
            load_csv(missing, label_column="nope")
        with pytest.raises(ValueError):
            load_csv(badfeat, label_column=7)

    def test_feature_rows_reader(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x1,x2\n1,2\n3,4\n")
        assert_allclose(read_feature_rows(p), [[1, 2], [3, 4]])
        labeled = tmp_path / "fl.csv"
        labeled.write_text("1,2,9\n3,4,9\n")
        assert_allclose(read_feature_rows(labeled, label_column="last"), [[1, 2], [3, 4]])


class TestDataset:
    def test_validation_and_freeze(self):
        with pytest.raises(ValueError):
            Dataset("x", np.zeros((2, 2)), np.array([1.0, 2.0]))  # bad labels
        with pytest.raises(ValueError):
            Dataset("x", np.zeros(4), np.array([1.0, -1.0]))
        ds = Dataset("x", np.zeros((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0


class TestStandardize:
    def test_worked_example(self):
        """Column (1, 3) has mean 2 and population sd 1, so maps to (-1, +1)."""
        train = Dataset("t", np.array([[1.0], [3.0]]), np.array([1.0, -1.0]))
        out, mean, scale = standardize(train)
        assert_allclose(out.X, [[-1.0], [1.0]])
        assert_allclose(mean, [2.0])
        assert_allclose(scale, [1.0])

    def test_test_rows_use_train_stats(self):
        train = Dataset("t", np.array([[1.0], [3.0]]), np.array([1.0, -1.0]))
        test = Dataset("s", np.array([[3.0]]), np.array([1.0]))
        _, mean, scale = standardize(train)
        assert_allclose(apply_standardization(test, mean, scale).X, [[1.0]])

    def test_constant_column_passes_through_centered(self):
        train = Dataset("t", np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([1.0, -1.0]))
        out = standardize(train)[0]
        assert_allclose(out.X[:, 0], [0.0, 0.0])  # scale 1, centered
        assert_allclose(out.X[:, 1], [-1.0, 1.0])

    def test_apply_standardization_is_standardize_bitwise(self):
        train = Dataset("t", np.array([[0.1, 7.0], [0.4, -3.0], [2.9, 1.0]]), np.array([1, -1, 1.0]))
        out, mean, scale = standardize(train)
        assert np.array_equal(out.X, apply_standardization(train, *feature_stats(train)).X)
        assert out.name == "t"
        for mine, stats in zip((mean, scale), feature_stats(train)):
            assert np.array_equal(mine, stats)

    def test_first_non_finite_row_is_named(self):
        X = np.array([[0.0, 1.0], [1e308, 1.0], [0.0, 1e308]])
        with pytest.raises(ValueError, match="src.csv: non-finite standardized feature in row 1"):
            standardize_rows(X, np.zeros(2), np.array([1e-10, 1e-10]), "src.csv")

    @pytest.mark.parametrize("column", ([1.0, 1e200, -1e200], [1e308, 1e308, 0.0]))
    def test_column_whose_stats_overflow_is_named(self, column):
        """|x| past ~1.3e154 overflows the sd's squares, and two 1e308 cells
        the mean's sum; feature_stats names the column, with no warning."""
        train = Dataset("src", np.column_stack([[0.0, 1.0, 2.0], column]), np.array([1, -1, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="src: feature column 1 is too large to standardize"):
                feature_stats(train)

    def test_stats_shapes(self):
        train = Dataset("t", np.arange(12.0).reshape(4, 3), np.array([1, -1, 1, -1.0]))
        mean, scale = feature_stats(train)
        assert mean.shape == (3,) and scale.shape == (3,)
        assert np.all(scale > 0)


class TestFolds:
    def test_partition_and_balance(self):
        folds = make_folds(23, seed=3)
        counts = np.bincount(folds, minlength=FOLDS)
        assert counts.size == FOLDS and counts.sum() == 23
        assert counts.max() - counts.min() <= 1

    def test_deterministic_in_seed(self):
        a = make_folds(40, seed=11)
        b = make_folds(40, seed=11)
        c = make_folds(40, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not a.flags.writeable

    def test_fold_datasets_split(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((11, 2))
        y = np.where(rng.uniform(size=11) < 0.5, -1.0, 1.0)
        y[0], y[1] = 1.0, -1.0
        ds = Dataset("d", X, y)
        folds = make_folds(11, seed=0)
        seen = []
        for fold in range(FOLDS):
            train, test = fold_datasets(ds, folds, fold)
            assert train.n + test.n == 11
            rows = {tuple(r) for r in train.X} | {tuple(r) for r in test.X}
            assert len(rows) == 11
            seen.append(test.n)
        assert sum(seen) == 11

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="5 folds need n >= 5 rows, got n=4"):
            make_folds(4, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make_folds(5, seed=-1)
        ds = Dataset("d", np.zeros((5, 1)), np.array([1.0, -1, 1, -1, 1]))
        folds = make_folds(5, seed=0)
        for fold in (-1, FOLDS):
            with pytest.raises(ValueError, match="fold index out of range"):
                fold_datasets(ds, folds, fold)
