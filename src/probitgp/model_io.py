"""Versioned flat-text model artifacts.

key=value lines followed by named numeric blocks; everything a prediction
needs travels with the model: hyperparameters, site parameters, the
standardized training inputs, and the standardization statistics.  Numbers
are written by number_text, so save/load round-trips float64 exactly and
the files diff cleanly.  load_model skips keys it does not know, such as
the seed= line that older files carry, and rejects a repeated key or block,
naming the file.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import Hyperparams
from .posterior import Sites
from .trainer import OBJECTIVES

FORMAT_NAME = "probitgp-model"
FORMAT_VERSION = 1

_KEYS = ("name", "objective", "log_lengthscale", "log_magnitude", "n", "d")
_BLOCKS = ("feature_mean", "feature_scale", "lambda1", "lambda2", "features")


@dataclass(frozen=True)
class ModelArtifact:
    name: str
    objective: str
    theta: Hyperparams
    sites: Sites
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    features: np.ndarray  # standardized training inputs, (n, d)

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        mean = np.array(self.feature_mean, dtype=float)
        scale = np.array(self.feature_scale, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != self.sites.n:
            raise ValueError("features must be (n_sites, d)")
        if mean.shape != (feats.shape[1],) or scale.shape != mean.shape:
            raise ValueError("standardization stats must match feature columns")
        for label, arr in (("features", feats), ("feature_mean", mean), ("feature_scale", scale)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{label} must be finite")
        if np.any(scale <= 0):
            raise ValueError("feature_scale must be > 0")
        for arr in (feats, mean, scale):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_mean", mean)
        object.__setattr__(self, "feature_scale", scale)


def number_text(x):
    """The text of a value in every file probitgp writes: a float to 17
    significant digits, which round-trip float64 exactly; anything else by str."""
    return "%.17g" % x if isinstance(x, (float, np.floating)) else str(x)


def _write_block(handle, label, values):
    handle.write(f"{label}:\n")
    flat = np.asarray(values, dtype=float).ravel()
    for start in range(0, flat.size, 6):
        handle.write(" ".join(number_text(v) for v in flat[start:start + 6]) + "\n")


def save_model(path, artifact):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"format={FORMAT_NAME}\n")
        handle.write(f"version={FORMAT_VERSION}\n")
        handle.write(f"name={artifact.name}\n")
        handle.write(f"objective={artifact.objective}\n")
        handle.write(f"log_lengthscale={number_text(artifact.theta.log_lengthscale)}\n")
        handle.write(f"log_magnitude={number_text(artifact.theta.log_magnitude)}\n")
        handle.write(f"n={artifact.features.shape[0]}\n")
        handle.write(f"d={artifact.features.shape[1]}\n")
        _write_block(handle, "feature_mean", artifact.feature_mean)
        _write_block(handle, "feature_scale", artifact.feature_scale)
        _write_block(handle, "lambda1", artifact.sites.lam1)
        _write_block(handle, "lambda2", artifact.sites.lam2)
        _write_block(handle, "features", artifact.features)


def _value(path, key, text, parse, expected, valid=lambda v: True):
    """parse(text) for the model key; a value that does not parse or is not
    valid is a ValueError naming the file and the key."""
    try:
        value = parse(text)
    except ValueError:
        pass
    else:
        if valid(value):
            return value
    raise ValueError(f"{path}: key {key!r} has invalid value {text!r} (expected {expected})")


def load_model(path):
    keys = {}
    blocks = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    pos = 0
    while pos < len(lines) and "=" in lines[pos]:
        key, _, value = (part.strip() for part in lines[pos].partition("="))
        if key in keys:
            raise ValueError(f"{path}: key {key!r} is repeated")
        keys[key] = value
        pos += 1
    if keys.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if _value(path, "version", keys.get("version", "-1"), int, "an integer") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {keys.get('version')}")
    missing = [k for k in _KEYS if k not in keys]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    objective = _value(path, "objective", keys["objective"], str, f"one of {OBJECTIVES}",
                       lambda v: v in OBJECTIVES)
    n, d = (_value(path, k, keys[k], int, "an integer >= 1", lambda v: v >= 1) for k in ("n", "d"))
    # older files carry jitter=none; gram cannot rebuild any fixed jitter's K
    _value(path, "jitter", keys.get("jitter", "none"), str, "none", lambda v: v == "none")
    theta = Hyperparams(*(
        _value(path, k, keys[k], float, "a finite number", np.isfinite)
        for k in ("log_lengthscale", "log_magnitude")
    ))
    sizes = {
        "feature_mean": d, "feature_scale": d,
        "lambda1": n, "lambda2": n, "features": n * d,
    }
    while pos < len(lines):
        line = lines[pos].strip()
        pos += 1
        if not line:
            continue
        if not line.endswith(":"):
            raise ValueError(f"{path}: expected a block label, got {line!r}")
        label = line[:-1]
        if label not in sizes:
            raise ValueError(f"{path}: unknown block {label!r}")
        if label in blocks:
            raise ValueError(f"{path}: block {label!r} is repeated")
        want = sizes[label]
        values = []
        while len(values) < want:
            if pos >= len(lines) or lines[pos].strip().endswith(":"):
                raise ValueError(f"{path}: block {label!r} is short: "
                                 f"{len(values)} of {want} values")
            try:
                values.extend(float(tok) for tok in lines[pos].split())
            except ValueError:
                raise ValueError(f"{path}: block {label!r} has a non-numeric value") from None
            pos += 1
        if len(values) != want:
            raise ValueError(f"{path}: block {label!r} has extra values")
        blocks[label] = np.array(values)
    missing = [b for b in _BLOCKS if b not in blocks]
    if missing:
        raise ValueError(f"{path}: missing blocks {missing}")
    try:  # sites and blocks that do not make a valid model
        return ModelArtifact(
            name=keys["name"],
            objective=objective,
            theta=theta,
            sites=Sites(blocks["lambda1"], blocks["lambda2"]),
            feature_mean=blocks["feature_mean"],
            feature_scale=blocks["feature_scale"],
            features=blocks["features"].reshape(n, d),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
