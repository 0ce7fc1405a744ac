"""Evaluation tests: MSE, PTVE, permutation association test."""

import numpy as np
import pytest

from latent_brrr.errors import ConfigurationError
from latent_brrr.evaluate import (
    AssocResult,
    mse,
    permutation_test,
    ptve,
    ptve_from_theta,
)
from latent_brrr.gibbs import run_chain
from latent_brrr.model import Dataset, ModelConfig, Variant
from latent_brrr.simulate import SimConfig, generate


def test_mse_perfect_prediction_is_zero():
    y = np.random.default_rng(0).standard_normal((20, 3))
    total, per_target = mse(y, y)
    assert total == 0.0 and np.all(per_target == 0.0)


def test_mse_hand_case():
    # errors of 1 and 3 per element -> per-target (1, 9), total 5
    y = np.zeros((4, 2))
    pred = np.column_stack([np.ones(4), 3 * np.ones(4)])
    total, per_target = mse(pred, y)
    assert np.array_equal(per_target, [1.0, 9.0])
    assert total == 5.0


# Blocks hold 2**16 values: 13107 rows at K = 5, 32768 at K = 2.
@pytest.mark.parametrize("shape, order", [
    ((15000, 60), "C"), ((7, 3), "C"), ((3, 1000), "C"), ((26215, 5), "C"),
    ((13106, 5), "C"), ((32769, 2), "C"), ((20000, 1), "C"), ((26215, 5), "F"),
])
def test_mse_equals_the_full_expression_bit_for_bit(shape, order):
    # mse sums the squared errors by blocks of rows; the sums must be the
    # ones the whole N x K expression gives, including N not a multiple of
    # the block and layouts numpy reduces column by column.
    rng = np.random.default_rng(shape[0])
    pred = np.asarray(rng.standard_normal(shape) * 1e3, order=order)
    y = np.asarray(rng.standard_normal(shape), order=order)
    full = ((pred - y) ** 2).mean(axis=0)
    total, per_target = mse(pred, y)
    assert np.array_equal(per_target, full)
    assert total == float(full.mean())


def test_mse_of_null_prediction_is_column_variance():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((500, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
    pred = np.tile(y.mean(axis=0), (y.shape[0], 1))
    _, per_target = mse(pred, y)
    assert np.allclose(per_target, y.var(axis=0), rtol=1e-12)


def test_ptve_trivial_cases():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((100, 5))
    theta = rng.standard_normal((5, 3))
    exact = Dataset(X=X, Y=X @ theta)
    assert ptve_from_theta(theta, exact) == pytest.approx(1.0, abs=1e-12)
    assert ptve_from_theta(np.zeros((5, 3)), exact) == 0.0
    with pytest.raises(ConfigurationError):
        ptve_from_theta(theta, Dataset(X=X, Y=np.ones((100, 3))))


def test_ptve_invariant_under_target_relabeling():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((80, 4))
    theta = rng.standard_normal((4, 6))
    Y = X @ theta + rng.standard_normal((80, 6))
    base = ptve_from_theta(theta, Dataset(X=X, Y=Y))
    perm = rng.permutation(6)
    relabeled = ptve_from_theta(theta[:, perm], Dataset(X=X, Y=Y[:, perm]))
    assert relabeled == pytest.approx(base, rel=1e-12)


def test_ptve_of_oracle_on_reference_budget():
    config = SimConfig(alpha=1.0, n_train=4000, n_test=10, seed=9)
    train, _, truth = generate(config)
    value = ptve_from_theta(truth.theta, train)
    assert abs(value - 0.03) < 0.005


def fast_config(**kw):
    base = dict(variant=Variant.LATENT_NOISE, rank=2, latent_snr=0.1,
                iterations=60, burn_in=30, thin=3, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_ptve_consumes_posterior_samples():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 3))
    Y = X @ rng.standard_normal((3, 4)) + rng.standard_normal((60, 4))
    dataset = Dataset(X=X, Y=Y)
    trace = run_chain(dataset, fast_config())
    assert 0.0 <= ptve(trace.samples, dataset) < 2.0


def test_permutation_test_validation_and_shape():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 3))
    Y = rng.standard_normal((40, 4))
    dataset = Dataset(X=X, Y=Y)
    with pytest.raises(ConfigurationError):
        permutation_test(dataset, fast_config(), 0, rng)
    result = permutation_test(dataset, fast_config(), 5, np.random.default_rng(8))
    assert isinstance(result, AssocResult)
    assert result.perm_ptves.shape == (5,)
    assert 0.0 <= result.rank_fraction <= 1.0
    expected = np.mean(result.perm_ptves < result.observed_ptve)
    assert result.rank_fraction == expected


def test_permutation_test_detects_strong_signal():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((150, 4))
    theta = rng.standard_normal((4, 5))
    Y = X @ theta + 0.3 * rng.standard_normal((150, 5))
    dataset = Dataset(X=X, Y=Y)
    result = permutation_test(dataset, fast_config(), 12, np.random.default_rng(10))
    assert result.rank_fraction == 1.0


def test_permutation_test_deterministic_given_rng_seed():
    rng_data = np.random.default_rng(11)
    X = rng_data.standard_normal((50, 3))
    Y = rng_data.standard_normal((50, 3))
    dataset = Dataset(X=X, Y=Y)
    a = permutation_test(dataset, fast_config(), 4, np.random.default_rng(1))
    b = permutation_test(dataset, fast_config(), 4, np.random.default_rng(1))
    assert np.array_equal(a.perm_ptves, b.perm_ptves)
    assert a.observed_ptve == b.observed_ptve
