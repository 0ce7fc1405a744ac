"""Cross-validation tests: folds, grids, tie-breaking, failure markers."""

import numpy as np
import pytest

import latent_brrr.tuning as tuning
from latent_brrr.errors import ConfigurationError
from latent_brrr.gibbs import ChainsTrace
from latent_brrr.model import Dataset, ModelConfig, Variant
from latent_brrr.simulate import SimConfig, generate
from latent_brrr.tuning import CvPlan, cross_validate, fold_assignments


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        CvPlan(beta_grid=(), rank_grid=(2,))
    with pytest.raises(ConfigurationError):
        CvPlan(beta_grid=(0.1,), rank_grid=(2,), n_folds=1)
    with pytest.raises(ConfigurationError):
        CvPlan(beta_grid=(-0.1,), rank_grid=(2,))


def test_fold_assignments_partition_and_determinism():
    folds = fold_assignments(103, 10, seed=5)
    assert folds.shape == (103,)
    counts = np.bincount(folds, minlength=10)
    assert counts.sum() == 103 and counts.min() >= 10
    assert np.array_equal(folds, fold_assignments(103, 10, seed=5))
    assert not np.array_equal(folds, fold_assignments(103, 10, seed=6))
    with pytest.raises(ConfigurationError):
        fold_assignments(5, 6, seed=0)


def cv_dataset(seed=0, n=120):
    config = SimConfig(alpha=1.0, n_train=n, n_test=10, n_covariates=6,
                       n_targets=8, rank=2, seed=seed)
    train, _, _ = generate(config)
    return train


def base_config(**kw):
    base = dict(variant=Variant.LATENT_NOISE, rank=2, latent_snr=0.1,
                iterations=40, burn_in=20, thin=2, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def test_singleton_grid_returns_that_configuration():
    dataset = cv_dataset()
    plan = CvPlan(beta_grid=(1 / 100,), rank_grid=(2,), n_folds=4, seed=1)
    best, table = cross_validate(dataset, base_config(), plan)
    assert best.latent_snr == 1 / 100
    assert best.rank == 2
    assert len(table) == 1
    assert table[0]["status"] == "ok"
    assert np.isfinite(table[0]["mean_mse"])


def test_score_table_covers_grid_and_is_deterministic():
    dataset = cv_dataset(seed=1)
    plan = CvPlan(beta_grid=(0.2, 0.05), rank_grid=(1, 2), n_folds=3, seed=2)
    best_a, table_a = cross_validate(dataset, base_config(), plan)
    best_b, table_b = cross_validate(dataset, base_config(), plan)
    assert len(table_a) == 4
    assert [r["mean_mse"] for r in table_a] == [r["mean_mse"] for r in table_b]
    assert (best_a.latent_snr, best_a.rank) == (best_b.latent_snr, best_b.rank)


def test_tie_breaking_prefers_small_rank_then_large_beta(monkeypatch):
    dataset = cv_dataset(seed=2, n=40)
    plan = CvPlan(beta_grid=(0.05, 0.2), rank_grid=(3, 1), n_folds=2, seed=0)

    def constant_chains(fits, stats=None):
        return ChainsTrace(
            theta_means=tuple(np.zeros((train.n_covariates, train.n_targets))
                              for train, _ in fits),
            errors=(None,) * len(fits))

    monkeypatch.setattr(tuning, "run_chains", constant_chains)
    best, table = cross_validate(dataset, base_config(), plan)
    assert all(r["mean_mse"] == table[0]["mean_mse"] for r in table)
    assert best.rank == 1
    assert best.latent_snr == 0.2


def test_failed_grid_points_are_marked(monkeypatch):
    dataset = cv_dataset(seed=3, n=40)
    plan = CvPlan(beta_grid=(0.05, 0.2), rank_grid=(1,), n_folds=2, seed=0)
    real = tuning.run_chains

    def flaky_chains(fits, stats=None):
        trace = real(fits, stats)
        errors = tuple("synthetic failure" if config.latent_snr == 0.05 else error
                       for (_, config), error in zip(fits, trace.errors))
        return ChainsTrace(theta_means=trace.theta_means, errors=errors)

    monkeypatch.setattr(tuning, "run_chains", flaky_chains)
    best, table = cross_validate(dataset, base_config(), plan)
    by_beta = {r["beta"]: r for r in table}
    assert by_beta[0.05]["status"] == "failed"
    assert np.isnan(by_beta[0.05]["mean_mse"])
    assert by_beta[0.2]["status"] == "ok"
    assert best.latent_snr == 0.2


def test_non_latent_variant_collapses_beta_grid():
    dataset = cv_dataset(seed=4, n=60)
    plan = CvPlan(beta_grid=(0.1, 0.2), rank_grid=(1, 2), n_folds=3, seed=0)
    config = ModelConfig(variant=Variant.NO_NOISE, rank=2, iterations=30,
                         burn_in=10, thin=2, seed=5)
    best, table = cross_validate(dataset, config, plan)
    assert len(table) == 2  # one row per rank
    assert all(r["beta"] is None for r in table)
    assert best.latent_snr is None


def test_fold_too_small_raises():
    # three rows over two folds leaves a one-row training split
    dataset = cv_dataset(seed=5, n=3)
    plan = CvPlan(beta_grid=(0.1,), rank_grid=(1,), n_folds=2, seed=0)
    with pytest.raises(ConfigurationError):
        cross_validate(dataset, base_config(), plan)


@pytest.mark.parametrize("config, betas", [
    (base_config(), (0.2, 0.05)),
    (ModelConfig(variant=Variant.NO_NOISE, rank=2, iterations=30, burn_in=10, thin=2, seed=11),
     (None,)),
])
def test_fits_run_grid_point_then_fold_with_streamed_seeds(monkeypatch, config, betas):
    dataset = cv_dataset(seed=6, n=40)
    plan = CvPlan(beta_grid=(0.2, 0.05), rank_grid=(2, 1), n_folds=3, seed=4)
    calls = []

    def recording_chains(fits, stats=None):
        for train, fit_config in fits:
            calls.append((fit_config.rank, fit_config.latent_snr, fit_config.seed,
                          train.n_samples))
        return ChainsTrace(
            theta_means=tuple(np.zeros((train.n_covariates, train.n_targets))
                              for train, _ in fits),
            errors=(None,) * len(fits))

    monkeypatch.setattr(tuning, "run_chains", recording_chains)
    cross_validate(dataset, config, plan)

    folds = fold_assignments(dataset.n_samples, plan.n_folds, plan.seed)
    grid = [(rank, beta) for rank in plan.rank_grid for beta in betas]
    seeds = np.random.SeedSequence(config.seed).generate_state(
        len(grid) * plan.n_folds, dtype=np.uint64)
    assert calls == [
        (rank, beta, int(seeds[g * plan.n_folds + fold]), int((folds != fold).sum()))
        for g, (rank, beta) in enumerate(grid) for fold in range(plan.n_folds)
    ]
