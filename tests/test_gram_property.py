"""gram over the whole hyperparameter box: a usable matrix or a named failure.

For log lengthscale and log magnitude drawn half the time from [-8, 8] and
half the time from [-800, 800], which reaches past both ends of the float
range (a magnitude^2 that overflows or underflows to 0, a lengthscale that
does either), up to 30 rows of 1 to 4 features whose columns span scales
from 1e-3 to 1e3 and some rows duplicated, gram either returns a finite K
whose jitter is between JITTER_DEFAULT and JITTER_CAP times magnitude^2
or raises FactorizationError.  No other exception, no RuntimeWarning (an
overflow or invalid value) and no endless jitter ladder is allowed.
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
    log_theta = st.one_of(st.floats(-8.0, 8.0), st.floats(-800.0, 800.0))
    theta = Hyperparams(draw(log_theta), draw(log_theta))
    return X, theta


@FUZZ
@given(problems())
def test_gram_is_finite_within_the_jitter_cap_or_raises_factorization_error(problem):
    X, theta = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            K = gram(X, theta)
        except FactorizationError:
            return
    sig2 = theta.magnitude ** 2  # finite: gram rejects any other
    assert K.K.shape == (X.shape[0],) * 2
    assert np.isfinite(K.K).all()
    assert JITTER_DEFAULT * sig2 <= K.jitter <= JITTER_CAP * sig2 * (1.0 + 1e-12)
