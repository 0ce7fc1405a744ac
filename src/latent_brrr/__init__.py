"""Bayesian reduced-rank regression with latent structured noise.

Multiple-output regression Y = (X Psi + Omega) Gamma + E in which the
structured noise Omega shares the latent subspace (and hence the loading
matrix Gamma) with the signal. Includes the collapsed Gibbs sampler with a
fast reparameterized coefficient update, the multiplicative-gamma shrinkage
prior, Monte-Carlo checks of the prior's finiteness/truncation properties,
a synthetic-data generator with an exact variance budget, and
permutation-based association testing.
"""

from latent_brrr.errors import (
    ConfigurationError,
    DimensionError,
    NumericalError,
    StateError,
)
from latent_brrr.model import (
    Dataset,
    Dims,
    ModelConfig,
    ModelState,
    PosteriorSamples,
    Variant,
    latent_snr_to_variance,
    marginal_covariance,
    predict_mean,
    resolve_sigma_omega,
    sample_prior,
)
from latent_brrr.gibbs import ChainsTrace, ChainTrace, RunStats, run_chain, run_chains

__version__ = "0.1.0"

__all__ = [
    "ChainTrace",
    "ChainsTrace",
    "ConfigurationError",
    "Dataset",
    "DimensionError",
    "Dims",
    "ModelConfig",
    "ModelState",
    "NumericalError",
    "PosteriorSamples",
    "RunStats",
    "StateError",
    "Variant",
    "latent_snr_to_variance",
    "marginal_covariance",
    "predict_mean",
    "resolve_sigma_omega",
    "run_chain",
    "run_chains",
    "sample_prior",
    "__version__",
]
