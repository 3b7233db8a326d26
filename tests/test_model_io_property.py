"""save_model and load_model, property-tested.

Random artifacts (n, d >= 1; jitter None or a float; lam2 <= 0) load back
with every array bitwise equal, and every proper prefix of a saved file that
ends at a line boundary is rejected with ValueError, never a KeyError or a
half-read model.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probitgp import Hyperparams, ModelArtifact, Sites, load_model, save_model

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NON_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
NAME = st.text("abcXYZ019-_.", min_size=1, max_size=12)


@st.composite
def artifacts(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return ModelArtifact(
        name=draw(NAME),
        objective=draw(st.sampled_from(("elbo", "ep_like"))),
        jitter=draw(st.none() | FLOATS),
        theta=Hyperparams(draw(FLOATS), draw(FLOATS)),
        sites=Sites(draw(arrays(float, n, elements=FLOATS)),
                    draw(arrays(float, n, elements=NON_POSITIVE))),
        feature_mean=draw(arrays(float, d, elements=FLOATS)),
        feature_scale=draw(arrays(float, d, elements=POSITIVE)),
        features=draw(arrays(float, (n, d), elements=FLOATS)),
    )


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@FUZZ
@given(artifacts())
def test_round_trip_is_bitwise(art):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        save_model(path, art)
        back = load_model(path)
    assert (back.name, back.objective) == (art.name, art.objective)
    if art.jitter is None:
        assert back.jitter is None
    else:
        assert same_bits(back.jitter, art.jitter)
    assert same_bits(back.theta.as_array(), art.theta.as_array())
    for name in ("feature_mean", "feature_scale", "features"):
        assert same_bits(getattr(back, name), getattr(art, name)), name
    assert same_bits(back.sites.lam1, art.sites.lam1)
    assert same_bits(back.sites.lam2, art.sites.lam2)


@FUZZ
@given(artifacts())
def test_every_line_prefix_is_rejected(art):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        save_model(path, art)
        text = path.read_text()
        cuts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"][:-1]
        assert text.endswith("\n") and len(cuts) == text.count("\n")
        for cut in cuts:
            path.write_text(text[:cut])
            with pytest.raises(ValueError):
                load_model(path)
