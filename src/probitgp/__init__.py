"""Gaussian process binary classification toolkit.

Probit-likelihood GP classification with three inference routes sharing one
site parameterization: natural-gradient variational inference, classic
expectation propagation, and an annealed-importance-sampling evidence
estimate for calibration.  Training alternates natural-gradient E-steps with
exact-gradient M-steps on either the evidence lower bound or the
unnormalized-site free-energy objective.  Grid cells, CV folds and predict
all score held-out rows with predictive_z, in blocks of fixed size.
"""

from .ais import AisConfig, AisEstimate, ais_lml, ess_step, temperature
from .cvi import e_step
from .data import (
    Dataset,
    FoldSplit,
    encode_labels,
    feature_stats,
    fold_datasets,
    load_csv,
    make_folds,
    read_feature_rows,
    standardize,
)
from .ep import EpSites, ep_energy, ep_inference
from .errors import FactorizationError, NumericsError
from .harness import (
    CvReport,
    GridSpec,
    SurfaceRecord,
    SweepConfig,
    cross_validate,
    grid_sweep,
    paired_t_test,
)
from .kernel import GramMatrix, Hyperparams, cross_gram, gram
from .likelihood import MarginalMoments, ep_tilted_moments, expectation_stats
from .model_io import ModelArtifact, load_model, save_model
from .posterior import (
    GaussianPosterior,
    Sites,
    assemble,
    elbo,
    ep_like_energy,
    latent_predict,
    predictive_z,
    prior_kl,
)
from .trainer import TrainConfig, TrainResult, fit

__version__ = "0.1.0"

__all__ = [
    "AisConfig", "AisEstimate", "ais_lml", "ess_step", "temperature",
    "e_step",
    "Dataset", "FoldSplit", "encode_labels", "feature_stats", "fold_datasets",
    "load_csv", "make_folds", "read_feature_rows", "standardize",
    "EpSites", "ep_energy", "ep_inference",
    "FactorizationError", "NumericsError",
    "CvReport", "GridSpec", "SurfaceRecord", "SweepConfig",
    "cross_validate", "grid_sweep", "paired_t_test",
    "GramMatrix", "Hyperparams", "cross_gram", "gram",
    "MarginalMoments", "ep_tilted_moments", "expectation_stats",
    "ModelArtifact", "load_model", "save_model",
    "GaussianPosterior", "Sites", "assemble", "elbo", "ep_like_energy",
    "latent_predict", "predictive_z", "prior_kl",
    "TrainConfig", "TrainResult", "fit",
    "__version__",
]
