"""kernel.euclidean, the one distance routine, against scipy's cdist.

cdist sums squared coordinate differences; euclidean expands
|x - z|^2 = |x|^2 + |z|^2 - 2 x.z about Z's column means with BLAS.  The
expansion's rounding error in a squared distance is bounded by a multiple of
eps (|x - c|^2 + |z - c|^2), c the centre, whatever the distance itself: a
dot product of d terms rounds by at most d eps |x||z|, and the sums and the
difference add a few eps more.  So the tolerance here is

    |D^2 - cdist^2| <= (d + 8) eps (|x - c|^2 + |z - c|^2)

per entry, which also covers cdist's own rounding.  Without the centring,
rows offset by 1e6 would miss it by ~1e12.  On the self distances of one row
set the result must be exactly symmetric, with exact zeros on the diagonal,
and no entry may be negative.

cdist is imported here as an oracle only; the library does not import
scipy.spatial (test_cli's import-footprint test checks that).
"""

import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from probitgp.kernel import euclidean

EPS = np.finfo(float).eps


def rows(rng, n, d, offset=0.0):
    return rng.standard_normal((n, d)) + offset


def case(name):
    """(X, Z) for one named case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "n=1":
        return rows(rng, 1, 3), rows(rng, 1, 3)
    if name == "one row against many":
        return rows(rng, 1, 4), rows(rng, 9, 4)
    if name == "d=1":
        return rows(rng, 40, 1), rows(rng, 30, 1)
    if name == "d=8":
        return rows(rng, 50, 8), rows(rng, 60, 8)
    if name == "d=60":
        return rows(rng, 50, 60), rows(rng, 40, 60)
    if name == "duplicate rows":
        X, Z = rows(rng, 40, 5), rows(rng, 30, 5)
        X[1::2] = X[0]  # duplicates within X
        Z[:3] = X[:3]   # and rows that X and Z share
        return X, Z
    if name == "offset by 1e6":
        return rows(rng, 40, 4, 1e6), rows(rng, 30, 4, 1e6)
    if name == "mixed column scales":
        scale = 10.0 ** np.array([-3.0, 0.0, 3.0])
        return rows(rng, 30, 3) * scale, rows(rng, 20, 3) * scale
    raise KeyError(name)


CASES = ("n=1", "one row against many", "d=1", "d=8", "d=60", "duplicate rows",
         "offset by 1e6", "mixed column scales")


def assert_within_tolerance(D, X, Z):
    C = cdist(X, Z)
    centre = Z.mean(axis=0)
    spread = ((X - centre) ** 2).sum(axis=1)[:, None] + ((Z - centre) ** 2).sum(axis=1)[None, :]
    bound = (X.shape[1] + 8) * EPS * spread
    assert np.all(np.abs(D ** 2 - C ** 2) <= bound)


@pytest.mark.parametrize("name", CASES)
def test_cross_distances_match_cdist(name):
    X, Z = case(name)
    for A, B in ((X, Z), (Z, X)):
        D = euclidean(A, B)
        assert D.shape == (len(A), len(B))
        assert np.all(D >= 0.0)
        assert_within_tolerance(D, A, B)


@pytest.mark.parametrize("name", CASES)
def test_self_distances_are_symmetric_with_a_zero_diagonal(name):
    for X in case(name):
        for D in (euclidean(X), euclidean(X, X)):
            assert np.array_equal(D, D.T)
            assert np.all(np.diag(D) == 0.0)
            assert np.all(D >= 0.0)
            assert_within_tolerance(D, X, X)
        assert np.array_equal(euclidean(X), euclidean(X, X))


def test_overflowing_rows_give_non_finite_distances_silently():
    """A squared distance beyond float64 is inf or NaN, with no warning; gram
    and predictive_z reject the kernel it gives."""
    X, Z = case("d=8")
    X = X.copy()
    X[3, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D = euclidean(X, Z)
        S = euclidean(X)
    assert not np.isfinite(D[3]).any() and np.isfinite(np.delete(D, 3, axis=0)).all()
    assert not np.isfinite(np.delete(S[3], 3)).any()
