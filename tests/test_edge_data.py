"""Chains on awkward but valid data: each fit is finite or fails with a typed error."""

import numpy as np
import pytest

from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.gibbs import run_chain
from latent_brrr.model import Dataset, ModelConfig, Variant


def edge_case(name):
    """(X, Y, rank) for one named data shape."""
    rng = np.random.default_rng(sum(map(ord, name)))
    N, P, K, rank = 40, 5, 4, 2
    if name == "p_above_n":
        N, P = 12, 20
    if name == "single_target":
        K = 1
    if name == "rank_above_p":
        P, rank = 3, 5
    X = rng.standard_normal((N, P))
    Y = X @ rng.standard_normal((P, K)) + rng.standard_normal((N, K))
    if name == "constant_column":
        X[:, 0] = 3.0
    if name == "duplicate_columns":
        X[:, 1] = X[:, 0]
    if name == "x_times_1e8":
        X = X * 1e8
    if name == "y_times_1e8":
        Y = Y * 1e8
    if name == "y_times_1e-8":
        Y = Y * 1e-8
    return X, Y, rank


CASES = ["p_above_n", "single_target", "constant_column", "duplicate_columns",
         "x_times_1e8", "y_times_1e8", "y_times_1e-8", "rank_above_p"]
# Cases that must fit: the latent-noise Psi step used to solve the K x K
# marginal covariance, which X x 1e8 makes numerically singular.
MUST_FIT = {("x_times_1e8", Variant.LATENT_NOISE)}
VARIANTS = {
    Variant.LATENT_NOISE: dict(latent_snr=0.5),
    Variant.INDEPENDENT_NOISE: dict(noise_rank=2),
    Variant.NO_NOISE: {},
}


@pytest.mark.parametrize("method", ["fast", "naive"])
@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("case", CASES)
def test_edge_data_gives_finite_fit_or_typed_error(case, variant, method):
    X, Y, rank = edge_case(case)
    config = ModelConfig(variant=variant, rank=rank, iterations=60, burn_in=20, thin=4,
                         seed=3, psi_update=method, **VARIANTS[variant])
    try:
        trace = run_chain(Dataset(X=X, Y=Y), config)
    except (NumericalError, ConfigurationError):
        if (case, variant) in MUST_FIT:
            raise
        return
    assert trace.samples.theta_mean.shape == (X.shape[1], Y.shape[1])
    assert np.all(np.isfinite(trace.samples.theta_mean))
