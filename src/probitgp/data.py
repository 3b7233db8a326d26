"""Binary-labeled tabular data: CSV ingestion, standardization, fold splits.

load_csv and read_feature_rows share one reader that walks the file once:
feature cells are parsed as each row is read and stored in one flat float
buffer, and only load_csv keeps the label column's strings.  However many
rows the file has, memory holds no Python object per cell, and for
read_feature_rows none per row.

Dataset.distances, the distances between a dataset's rows that every Gram
matrix of it is built from, is kernel.euclidean of its rows, computed once.
"""

import csv
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .kernel import euclidean
from .likelihood import check_labels

FOLDS = 5  # folds of the held-out protocol: cv runs all of them, grid holds out the first


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix X (n x d) with labels y in {-1, +1}."""

    name: str
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-d")
        if y.shape != (X.shape[0],):
            raise ValueError("y must align with the rows of X")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        check_labels(y)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @cached_property
    def distances(self):
        """euclidean(X), the distances between X's rows, computed once and
        read-only: every Gram matrix of X is built from it."""
        dist = euclidean(self.X)
        dist.setflags(write=False)
        return dist


def _parse_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def encode_labels(values):
    """Map raw label values onto {-1, +1}.

    Numeric {0, 1} maps 0 -> -1; numeric {-1, +1} is kept; any other pair of
    two distinct trimmed strings maps the lexicographically smaller one to -1.
    Already-encoded labels therefore re-encode to themselves.
    """
    raw = [str(v).strip() for v in values]
    distinct = sorted(set(raw))
    if len(distinct) != 2:
        raise ValueError(f"expected exactly two label values, got {len(distinct)}")
    as_float = [_parse_float(s) for s in distinct]
    if None not in as_float:
        fset = set(as_float)
        if fset == {0.0, 1.0}:
            mapping = {distinct[as_float.index(0.0)]: -1.0, distinct[as_float.index(1.0)]: 1.0}
        elif fset == {-1.0, 1.0}:
            mapping = {distinct[as_float.index(-1.0)]: -1.0, distinct[as_float.index(1.0)]: 1.0}
        else:
            mapping = {distinct[0]: -1.0, distinct[1]: 1.0}
    else:
        mapping = {distinct[0]: -1.0, distinct[1]: 1.0}
    return np.array([mapping[s] for s in raw])


def _label_index(path, first, label_column, labelled):
    """(label index, whether first is a header) for a file whose first
    non-blank row is first.  A named label column requires a header; for
    positional labels, or none (labelled false), the first row is a header
    iff any non-label cell fails to parse as a number."""
    width = len(first)
    if not labelled:
        return None, any(_parse_float(c) is None for c in first)
    if width < 2:
        raise ValueError(f"{path}: need at least one feature and one label column")
    positional = None
    if isinstance(label_column, int):
        positional = label_column
    elif isinstance(label_column, str):
        stripped = label_column.strip()
        if stripped == "last":
            positional = width - 1
        else:
            try:
                positional = int(stripped)
            except ValueError:
                positional = None
    if positional is not None:
        idx = positional if positional >= 0 else width + positional
        if not 0 <= idx < width:
            raise ValueError(f"label column {label_column} out of range for width {width}")
        first_features = [c for j, c in enumerate(first) if j != idx]
        return idx, any(_parse_float(c) is None for c in first_features)
    header = [c.strip() for c in first]
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in header")
    return header.index(label_column), True


def _csv_rows(path):
    """csv.reader's rows of path; a file that is not UTF-8 text or that csv
    cannot split is a ValueError naming path."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            yield from csv.reader(handle)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:  # say, a field over csv's size limit
            raise ValueError(f"{path}: {exc}") from exc


def _read_table(path, label_column, labelled, keep_labels=True):
    """(X, labels): the CSV's finite float features as an (n, d) array and
    its label column's raw strings (empty unless labelled and keep_labels).

    One pass over csv.reader: each row's cells are parsed and dropped as it
    is read, so no per-cell Python object outlives its row; features go to
    one flat float buffer.  Blank rows are skipped.  Errors keep the
    precedence of reading the whole file first: a ragged row beats a label
    error, which beats no data rows, then the first non-numeric cell, then
    the first non-finite row.
    """
    feats = array("d")
    labels = []
    width = idx = None
    error = None  # the first error found, raised once no row is ragged
    rownum = 0
    for row in _csv_rows(path):
        if not any(map(str.strip, row)):
            continue
        if width is None:
            width = len(row)
            try:
                idx, has_header = _label_index(path, row, label_column, labelled)
            except ValueError as exc:
                error = exc
                continue
            if has_header:
                continue
        elif len(row) != width:
            raise ValueError(f"{path}: ragged rows")
        if error is not None:
            continue
        if idx is not None:
            label = row.pop(idx)
            if keep_labels:
                labels.append(label)
        try:
            feats.extend(map(float, row))
        except ValueError:
            bad = next(c for c in row if _parse_float(c) is None)
            error = ValueError(f"{path}: non-numeric feature {bad!r} in row {rownum}")
        rownum += 1
    if width is None:
        raise ValueError(f"{path}: empty file")
    if error is not None:  # a label error leaves rownum 0; a cell error does not
        raise error
    if rownum == 0:
        raise ValueError(f"{path}: no data rows")
    X = np.frombuffer(feats).reshape(rownum, width - (idx is not None))
    nonfinite = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if nonfinite.size:
        raise ValueError(f"{path}: non-finite feature in row {nonfinite[0]}")
    return X, labels


def load_csv(path, label_column="last"):
    """Load a two-class CSV into a Dataset named by the file's stem.

    label_column is a column name, an integer position, or "last".  Features
    must parse as finite floats; labels are encoded via encode_labels.
    """
    X, labels = _read_table(path, label_column, labelled=True)
    return Dataset(name=Path(path).stem, X=X, y=encode_labels(labels))


def read_feature_rows(path, label_column=None):
    """Read a CSV of numeric rows, optionally dropping a label column.

    For unlabeled prediction inputs; labels (if present) are ignored, not
    validated.  Returns an (n, d) array of finite floats, n >= 1.
    """
    return _read_table(path, label_column, labelled=label_column is not None, keep_labels=False)[0]


def feature_stats(train):
    """Per-column mean and scale of a training set; constant columns scale 1.
    A column whose mean or sd overflows float64 is a ValueError naming train
    and the first such column."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        mean = train.X.mean(axis=0)
        sd = train.X.std(axis=0)  # population sd: a two-point column maps to +/-1
    overflow = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
    if overflow.size:
        raise ValueError(f"{train.name}: feature column {overflow[0]} is too large to "
                         "standardize (its mean or sd overflows float64)")
    scale = np.where(sd == 0.0, 1.0, sd)
    return mean, scale


def standardize_rows(X, mean, scale, source):
    """(X - mean) / scale; a row that comes out non-finite is a ValueError
    naming source and the first such row."""
    with np.errstate(over="ignore"):  # overflow is reported below, by row
        Z = (X - mean) / scale
    nonfinite = np.flatnonzero(~np.isfinite(Z).all(axis=1))
    if nonfinite.size:
        raise ValueError(f"{source}: non-finite standardized feature in row {nonfinite[0]}")
    return Z


def apply_standardization(ds, mean, scale):
    if np.any(scale <= 0) or not (np.isfinite(mean).all() and np.isfinite(scale).all()):
        raise ValueError("invalid standardization stats")
    if mean.shape != (ds.d,) or scale.shape != (ds.d,):
        raise ValueError("standardization stats must match the column count")
    return Dataset(name=ds.name, X=standardize_rows(ds.X, mean, scale, ds.name), y=ds.y)


def standardize(dataset):
    """(standardized, mean, scale): dataset z-scored by its own column
    statistics, and those statistics (feature_stats), which
    apply_standardization carries to other rows."""
    mean, scale = feature_stats(dataset)
    return apply_standardization(dataset, mean, scale), mean, scale


def make_folds(n, seed):
    """Shuffled round-robin assignment of n rows to the FOLDS folds (sizes
    differ <= 1): a read-only array whose entry i is the fold of row i."""
    if n < FOLDS:
        raise ValueError(f"{FOLDS} folds need n >= {FOLDS} rows, got n={n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % FOLDS
    assignment.setflags(write=False)
    return assignment


def fold_datasets(ds, folds, fold):
    """(train, test) Datasets for one held-out fold of make_folds' folds."""
    if not 0 <= fold < FOLDS:
        raise ValueError("fold index out of range")
    mask = folds == fold
    train = Dataset(name=f"{ds.name}-fold{fold}-train", X=ds.X[~mask], y=ds.y[~mask])
    test = Dataset(name=f"{ds.name}-fold{fold}-test", X=ds.X[mask], y=ds.y[mask])
    return train, test
