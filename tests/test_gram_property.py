"""gram over the whole hyperparameter box: a usable matrix or a named failure.

For log lengthscale in [-8, 8], log magnitude in [-6, 6], up to 30 rows of
1 to 4 features whose columns span scales from 1e-3 to 1e3, some rows
duplicated, and the default jitter or an explicit zero (which duplicated
rows force up the ladder), gram either returns a finite K whose jitter is
at most JITTER_CAP * magnitude^2 or raises FactorizationError.  No other
exception and no RuntimeWarning (an overflow or invalid value) is allowed.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probitgp import FactorizationError, Hyperparams, gram
from probitgp.kernel import JITTER_CAP, JITTER_DEFAULT

FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    X = draw(arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
    X *= 10.0 ** draw(arrays(float, d, elements=st.floats(-3.0, 3.0)))  # per-column scale
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=n)):
        X[dst] = X[src]  # duplicate rows
    theta = Hyperparams(draw(st.floats(-8.0, 8.0)), draw(st.floats(-6.0, 6.0)))
    return X, theta, draw(st.sampled_from([None, 0.0]))


@FUZZ
@given(problems())
def test_gram_is_finite_within_the_jitter_cap_or_raises_factorization_error(problem):
    X, theta, jitter = problem
    sig2 = theta.magnitude ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            K = gram(X, theta, jitter)
        except FactorizationError:
            return
    assert K.K.shape == (X.shape[0],) * 2
    assert np.isfinite(K.K).all()
    assert K.jitter <= JITTER_CAP * sig2 * (1.0 + 1e-12)
    if jitter is None:
        assert K.jitter >= JITTER_DEFAULT * sig2
