"""Generator tests: variance budget, orthogonality, determinism, oracle MSE."""

import numpy as np
import pytest

from latent_brrr.errors import ConfigurationError
from latent_brrr.model import Dataset
from latent_brrr.simulate import SimConfig, generate, oracle_mse


def small_config(**kw):
    base = dict(alpha=1.0, n_train=400, n_test=600, n_covariates=10,
                n_targets=12, rank=3, seed=0)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(alpha=1.5)
    with pytest.raises(ConfigurationError):
        small_config(var_signal=0.5, var_diag=0.2, var_structured=0.2)
    with pytest.raises(ConfigurationError):
        small_config(rank=11)  # exceeds min(P, K) = 10
    with pytest.raises(ConfigurationError):
        small_config(n_test=0)


@pytest.mark.parametrize("field, value", [
    ("n_train", 20.5), ("rank", "2"), ("n_test", 2**63), ("alpha", np.nan),
    ("var_signal", np.nan), ("var_diag", np.inf), ("seed", -1), ("seed", 2**64),
])
def test_config_rejects_mistyped_fields_naming_them(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        small_config(**{field: value})


def test_realized_fractions_are_exact():
    for alpha in (0.0, 0.4, 1.0):
        _, _, truth = generate(small_config(alpha=alpha, seed=3))
        fractions = np.array(truth.realized_fractions)
        assert np.allclose(fractions, [0.03, 0.77, 0.20], atol=1e-9)
        assert abs(fractions.sum() - 1.0) < 1e-6


def test_default_budget_matches_reference_split():
    config = SimConfig()
    assert (config.var_signal, config.var_diag, config.var_structured) == (0.03, 0.20, 0.77)
    assert (config.n_covariates, config.n_targets, config.rank) == (30, 60, 3)


def test_signal_fraction_of_total_variance_near_three_percent():
    # Fraction measured against Var(Y) itself (cross terms included) stays
    # within half a percentage point on a large sample.
    config = small_config(n_train=1000, n_test=14000, seed=1)
    train, test, truth = generate(config)
    Y = np.vstack([train.Y, test.Y])
    X = np.vstack([train.X, test.X])
    signal = X @ truth.theta

    def trace_var(M):
        c = M - M.mean(axis=0)
        return (c * c).sum() / (M.shape[0] - 1)

    fraction = trace_var(signal) / trace_var(Y)
    assert abs(fraction - 0.03) < 0.005


def test_gamma_and_lambda_rows_orthogonal():
    _, _, truth = generate(small_config(seed=7))
    for M in (truth.Gamma, truth.Lambda):
        gram = M @ M.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10


def test_alpha_zero_excludes_latent_noise():
    _, _, truth = generate(small_config(alpha=0.0, seed=2))
    assert truth.omega_scale == 0.0
    assert truth.h_scale > 0.0
    _, _, truth = generate(small_config(alpha=1.0, seed=2))
    assert truth.h_scale == 0.0


def test_generation_deterministic_given_seed():
    a_train, a_test, a_truth = generate(small_config(seed=11))
    b_train, b_test, b_truth = generate(small_config(seed=11))
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.Y, b_test.Y)
    assert np.array_equal(a_truth.Psi, b_truth.Psi)


def test_oracle_mse_equals_unpredictable_share():
    # With no diagonal noise the oracle misses exactly the structured share.
    config = small_config(var_signal=0.05, var_diag=0.0, var_structured=0.95,
                          n_train=2000, n_test=12000, seed=4)
    _, test, truth = generate(config)
    value = oracle_mse(truth, test)
    assert abs(value - 0.95) < 0.03


def test_oracle_mse_general_budget():
    config = small_config(n_train=2000, n_test=12000, seed=5)
    _, test, truth = generate(config)
    assert abs(oracle_mse(truth, test) - 0.97) < 0.03


def test_oracle_mse_empty_test_set_errors():
    _, test, truth = generate(small_config(seed=6))
    empty = Dataset(X=test.X[:0], Y=test.Y[:0])
    with pytest.raises(ConfigurationError):
        oracle_mse(truth, empty)
