"""Binary-labeled tabular data: CSV ingestion, standardization, fold splits."""

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist


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
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must lie in {-1, +1}")
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
        """cdist(X, X), computed once: every Gram matrix of X is built from it."""
        return cdist(self.X, self.X)


@dataclass(frozen=True)
class FoldSplit:
    """Deterministic fold assignment: assignment[i] is the fold of row i."""

    k: int
    seed: int
    assignment: np.ndarray


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


def _read_rows(path):
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path}: ragged rows")
    return rows


def _resolve_label_column(path, rows, label_column):
    """Returns (data_rows, label_index). Header row is auto-detected: a named
    label column requires one; for positional labels the first row is a header
    iff any non-label cell fails to parse as a number."""
    width = len(rows[0])
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
        first_features = [c for j, c in enumerate(rows[0]) if j != idx]
        has_header = any(_parse_float(c) is None for c in first_features)
        return (rows[1:] if has_header else rows), idx
    header = [c.strip() for c in rows[0]]
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in header")
    return rows[1:], header.index(label_column)


def _parse_features(path, data_rows, skip):
    """Finite float matrix of data_rows without column skip (None keeps all)."""
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    feats = []
    for rownum, row in enumerate(data_rows):
        cells = [cell for j, cell in enumerate(row) if j != skip]
        vals = [_parse_float(cell) for cell in cells]
        if None in vals:
            bad = cells[vals.index(None)]
            raise ValueError(f"{path}: non-numeric feature {bad!r} in row {rownum}")
        feats.append(vals)
    X = np.array(feats, dtype=float)
    nonfinite = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if nonfinite.size:
        raise ValueError(f"{path}: non-finite feature in row {nonfinite[0]}")
    return X


def load_csv(path, label_column="last", name=None):
    """Load a two-class CSV into a Dataset.

    label_column is a column name, an integer position, or "last".  Features
    must parse as finite floats; labels are encoded via encode_labels.
    """
    rows = _read_rows(path)
    data_rows, idx = _resolve_label_column(path, rows, label_column)
    X = _parse_features(path, data_rows, idx)
    y = encode_labels([row[idx] for row in data_rows])
    return Dataset(name=name or Path(path).stem, X=X, y=y)


def read_feature_rows(path, label_column=None):
    """Read a CSV of numeric rows, optionally dropping a label column.

    For unlabeled prediction inputs; labels (if present) are ignored, not
    validated.  Returns an (n, d) array of finite floats, n >= 1.
    """
    rows = _read_rows(path)
    if label_column is None:
        first = rows[0]
        has_header = any(_parse_float(c) is None for c in first)
        data_rows, idx = (rows[1:] if has_header else rows), None
    else:
        data_rows, idx = _resolve_label_column(path, rows, label_column)
    return _parse_features(path, data_rows, idx)


def feature_stats(train):
    """Per-column mean and scale of a training set; constant columns scale 1."""
    mean = train.X.mean(axis=0)
    sd = train.X.std(axis=0)  # population sd: a two-point column maps to +/-1
    scale = np.where(sd == 0.0, 1.0, sd)
    return mean, scale


def apply_standardization(ds, mean, scale, name=None):
    if np.any(scale <= 0) or not (np.isfinite(mean).all() and np.isfinite(scale).all()):
        raise ValueError("invalid standardization stats")
    if mean.shape != (ds.d,) or scale.shape != (ds.d,):
        raise ValueError("standardization stats must match the column count")
    return Dataset(name=name or ds.name, X=(ds.X - mean) / scale, y=ds.y)


def standardize(train, others=()):
    """Z-score all datasets using the training set's column statistics."""
    mean, scale = feature_stats(train)
    out_train = apply_standardization(train, mean, scale)
    out_others = [apply_standardization(o, mean, scale) for o in others]
    return out_train, out_others


def make_folds(n, k, seed):
    """Shuffled round-robin assignment of n rows to k folds (sizes differ <= 1)."""
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % k
    assignment.setflags(write=False)
    return FoldSplit(k=k, seed=seed, assignment=assignment)


def fold_datasets(ds, folds, fold):
    """(train, test) Datasets for one held-out fold."""
    if not 0 <= fold < folds.k:
        raise ValueError("fold index out of range")
    mask = folds.assignment == fold
    train = Dataset(name=f"{ds.name}-fold{fold}-train", X=ds.X[~mask], y=ds.y[~mask])
    test = Dataset(name=f"{ds.name}-fold{fold}-test", X=ds.X[mask], y=ds.y[mask])
    return train, test
