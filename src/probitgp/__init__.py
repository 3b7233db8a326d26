"""Gaussian process binary classification with a probit likelihood.

Natural-gradient variational inference (cvi), expectation propagation (ep)
and an annealed-importance-sampling evidence estimate (ais) share one site
parameterization (posterior.Sites); trainer.fit learns the hyperparameters
and harness runs the evidence-surface sweeps and cross-validation.
"""

from .ais import AisConfig, AisEstimate, ais_lml, ess_step, temperature
from .cvi import e_step
from .data import (
    Dataset,
    encode_labels,
    feature_stats,
    fold_datasets,
    load_csv,
    make_folds,
    read_feature_rows,
    standardize,
)
from .ep import ep_energy, ep_inference
from .errors import FactorizationError, NumericsError
from .harness import (
    CvReport,
    GridSpec,
    SurfaceRecord,
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
    "Dataset", "encode_labels", "feature_stats", "fold_datasets",
    "load_csv", "make_folds", "read_feature_rows", "standardize",
    "ep_energy", "ep_inference",
    "FactorizationError", "NumericsError",
    "CvReport", "GridSpec", "SurfaceRecord",
    "cross_validate", "grid_sweep", "paired_t_test",
    "GramMatrix", "Hyperparams", "cross_gram", "gram",
    "MarginalMoments", "ep_tilted_moments", "expectation_stats",
    "ModelArtifact", "load_model", "save_model",
    "GaussianPosterior", "Sites", "assemble", "elbo", "ep_like_energy",
    "latent_predict", "predictive_z", "prior_kl",
    "TrainConfig", "TrainResult", "fit",
    "__version__",
]
