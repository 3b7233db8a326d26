"""Seeded synthetic stand-ins for the paper's benchmark datasets.

Each shape copies the row count, column count, class counts and label
spelling of a UCI set the paper uses.  Rows come from a standard Gaussian
latent of LATENT_DIM dimensions, embedded in the feature space by a random
orthonormal map plus isotropic noise.  The two classes overlap along a fuzzy
linear boundary: a row's score is SLOPE times its first latent coordinate
plus unit Gaussian noise, and the rows with the highest scores take the
positive label.  Near the boundary either label is likely, so held-out log
predictive densities sit well away from both 0 and log 1/2.

The rows of a shape are one fixed draw (DATA_SEED), the same for every run
seed; the run seed picks the order of the feature columns.  probitgp
standardizes each column on its own and its kernel is isotropic, so a seed
changes the input files and the order of floating-point sums but not the
model's maths.  Results agree across seeds up to rounding: held-out density
can then carry a tight bound, and what spreads between seeds is the machine,
not the data.
"""

import numpy as np

# name: (rows, features, (negative label, positive label), positive rows)
SHAPES = {
    "sonar": (208, 60, ("M", "R"), 97),
    "ionosphere": (351, 34, ("b", "g"), 225),
    "diabetes": (768, 8, ("0", "1"), 268),
}

LATENT_DIM = 5
SLOPE = 4.0
NOISE = 0.1
DATA_SEED = 0


def draw(shape, seed, rows=None):
    """(X, labels) for a named shape; labels are the shape's label strings.

    seed picks the column order.  rows overrides the row count and keeps the
    class proportion.  Draws of different sizes with one seed share the
    embedding and the column order, so one can train a model and the other
    score it.
    """
    n, d, (neg, pos), n_pos = SHAPES[shape]
    if rows is not None:
        n_pos = round(rows * n_pos / n)
        n = rows
    k = min(LATENT_DIM, d)
    embed = np.linalg.qr(np.random.default_rng([DATA_SEED, d]).standard_normal((d, k)))[0].T
    rng = np.random.default_rng([DATA_SEED, d, n])
    z = rng.standard_normal((n, k))
    score = SLOPE * z[:, 0] + rng.standard_normal(n)
    positive = np.zeros(n, dtype=bool)
    positive[np.argsort(-score, kind="stable")[:n_pos]] = True
    X = z @ embed + NOISE * rng.standard_normal((n, d))
    columns = np.random.default_rng(seed).permutation(d)
    return X[:, columns], np.where(positive, pos, neg)


def write_csv(path, X, labels):
    """Header row, then features with 9 significant digits and the label last."""
    with open(path, "w") as handle:
        handle.write(",".join([f"x{j}" for j in range(X.shape[1])] + ["class"]) + "\n")
        for row, label in zip(X, labels):
            handle.write(",".join("%.9g" % v for v in row) + f",{label}\n")
