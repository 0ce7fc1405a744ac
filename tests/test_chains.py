"""The chain-axis engine: batched fits against solo run_chain, failure
isolation, uneven CV folds and the batch byte cap."""

from dataclasses import replace

import numpy as np
import pytest

import latent_brrr.chains as chains
import latent_brrr.gibbs as gibbs
from latent_brrr.chains import ChainData, ChainStreams
from latent_brrr.errors import NumericalError
from latent_brrr.evaluate import permutation_test
from latent_brrr.gibbs import RunStats, run_chain, run_chains
from latent_brrr.model import Dataset, Dims, ModelConfig, Variant
from latent_brrr.tuning import CvPlan, cross_validate, fold_assignments


def problem(seed=0, N=60, P=5, K=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, P))
    Y = X @ rng.standard_normal((P, K)) * 0.5 + rng.standard_normal((N, K))
    return Dataset(X=X, Y=Y)


VARIANTS = [
    (Variant.LATENT_NOISE, "fast", dict(latent_snr=0.2)),
    (Variant.LATENT_NOISE, "naive", dict(latent_snr=0.2)),
    (Variant.INDEPENDENT_NOISE, "fast", dict(noise_rank=2)),
    (Variant.NO_NOISE, "fast", {}),
]


def chain_config(variant, psi_update, extra, seed, **kw):
    base = dict(variant=variant, rank=2, iterations=40, burn_in=10, thin=3, seed=seed,
                psi_update=psi_update, **extra)
    base.update(kw)
    return ModelConfig(**base)


def assert_same_theta(batched, solo):
    assert np.max(np.abs(batched - solo)) <= 1e-10 * np.max(np.abs(solo))


@pytest.mark.parametrize("variant, psi_update, extra", VARIANTS)
def test_batched_chains_equal_solo_runs(variant, psi_update, extra):
    # Four fits of one shape: permuted rows of X, their own seeds and, for
    # latent noise, their own latent SNR (so their own sigma_omega_sq).
    data = problem(1)
    fits = []
    for c in range(4):
        kw = {"latent_snr": 0.1 * (c + 1)} if "latent_snr" in extra else {}
        perm = np.random.default_rng(c).permutation(data.n_samples)
        fits.append((Dataset(X=data.X[perm], Y=data.Y),
                     chain_config(variant, psi_update, extra, seed=20 + c, **kw)))
    stats = RunStats()
    trace = run_chains(fits, stats)
    assert trace.errors == (None,) * 4
    assert stats.sweeps == 40  # one batch
    for (dataset, config), theta in zip(fits, trace.theta_means):
        assert_same_theta(theta, run_chain(dataset, config).samples.theta_mean)


def inject_at(k, targets, corrupt):
    """An update_gamma that, on its k-th call within each run (each
    ChainData), corrupts the chains whose sigma_omega_sq is in ``targets``
    before drawing. ``run_chains`` re-runs a failed batch's halves as new
    runs, so each starts its own count; the runs are kept alive so that no
    ``id`` is reused."""
    real = gibbs.update_gamma
    runs: dict[int, list] = {}

    def update(state, data, config, streams, shared):
        run = runs.setdefault(id(data), [data, 0])
        run[1] += 1
        if run[1] == k:
            corrupt(state, np.isin(data.sigma_omega_sq, targets))
        return real(state, data, config, streams, shared)

    return update


def nan_sigma(state, hit):
    state.sigma_sq = np.where(hit[..., None], np.nan, state.sigma_sq)


def negative_phi(state, hit):
    state.phi_gamma = np.where(hit[..., None, None], -1e12, state.phi_gamma)


@pytest.mark.parametrize("corrupt, message", [
    (nan_sigma, "non-finite precision in gamma update (iteration 5)"),
    (negative_phi, "Cholesky factorization failed in gamma update (iteration 5)"),
])
def test_failure_in_one_chain_stops_only_that_chain(monkeypatch, corrupt, message):
    data = problem(2)
    fits = [(data, chain_config(Variant.LATENT_NOISE, "fast", {}, seed=30 + c,
                                latent_snr=0.1 * (c + 1))) for c in range(3)]
    solo = [run_chain(dataset, config).samples.theta_mean for dataset, config in fits]
    target = [gibbs._resolved(*fits[1]).sigma_omega_sq]

    monkeypatch.setattr(gibbs, "update_gamma", inject_at(5, target, corrupt))
    trace = run_chains(fits)
    assert trace.errors == (None, message, None)
    assert trace.theta_means[1] is None
    for c in (0, 2):
        assert_same_theta(trace.theta_means[c], solo[c])

    # The solo run of the corrupted fit raises the same message.
    monkeypatch.setattr(gibbs, "update_gamma", inject_at(5, target, corrupt))
    with pytest.raises(NumericalError) as err:
        run_chain(*fits[1])
    assert str(err.value) == message


def test_two_failures_in_one_batch_are_isolated_by_halving(monkeypatch):
    # Five fits in one batch; chain 1 fails at sweep 4 and chain 3 at sweep
    # 7. The batch halves into [0, 1] and [2, 3, 4], which fail and halve
    # again until each failing fit runs alone.
    data = problem(7)
    fits = [(data, chain_config(Variant.LATENT_NOISE, "fast", {}, seed=50 + c,
                                latent_snr=0.1 * (c + 1))) for c in range(5)]
    solo = [run_chain(dataset, config).samples.theta_mean for dataset, config in fits]
    first, second = ([gibbs._resolved(*fits[c]).sigma_omega_sq] for c in (1, 3))
    monkeypatch.setattr(gibbs, "update_gamma", inject_at(4, first, nan_sigma))
    monkeypatch.setattr(gibbs, "update_gamma", inject_at(7, second, negative_phi))

    stats = RunStats()
    trace = run_chains(fits, stats)
    messages = ["non-finite precision in gamma update (iteration 4)",
                "Cholesky factorization failed in gamma update (iteration 7)"]
    assert trace.errors == (None, messages[0], None, messages[1], None)
    # The batch and [0, 1] stop at sweep 4, [2, 3, 4] and [3, 4] at sweep 7,
    # and [0], [1], [2], [3], [4] run 40, 4, 40, 7 and 40 sweeps.
    assert stats.sweeps == 4 + 4 + 7 + 7 + 40 + 4 + 40 + 7 + 40
    for c in (0, 2, 4):
        assert_same_theta(trace.theta_means[c], solo[c])
    for c, message in zip((1, 3), messages):
        assert trace.theta_means[c] is None
        with pytest.raises(NumericalError) as err:
            run_chain(*fits[c])
        assert str(err.value) == message


def test_uneven_folds_batch_by_training_rows_and_match_solo_fits():
    # 40 rows over 3 folds train on 26, 27 and 27 rows, so each rank's fits
    # form two batches: one per training-row count.
    data = problem(3, N=40)
    base = chain_config(Variant.LATENT_NOISE, "fast", dict(latent_snr=0.1), seed=9)
    plan = CvPlan(beta_grid=(0.2, 0.05), rank_grid=(1, 2), n_folds=3, seed=4)
    stats = RunStats()
    _, table = cross_validate(data, base, plan, stats)
    assert stats.sweeps == 4 * base.iterations

    folds = fold_assignments(data.n_samples, plan.n_folds, plan.seed)
    assert sorted(np.bincount(folds)) == [13, 13, 14]
    seeds = iter(np.random.SeedSequence(base.seed).generate_state(
        len(table) * plan.n_folds, dtype=np.uint64))
    for row in table:
        for fold in range(plan.n_folds):
            train = folds != fold
            config = replace(base, rank=row["rank"], latent_snr=row["beta"],
                             seed=int(next(seeds)))
            theta = run_chain(Dataset(X=data.X[train], Y=data.Y[train]),
                              config).samples.theta_mean
            resid = data.X[~train] @ theta - data.Y[~train]
            assert row["fold_mse"][fold] == pytest.approx((resid**2).mean(), rel=1e-10)


def test_byte_cap_splits_assoc_into_batches_with_the_same_result(monkeypatch):
    data = problem(4)
    config = chain_config(Variant.LATENT_NOISE, "fast", dict(latent_snr=0.1), seed=5)
    fits = [(data, replace(config, seed=s)) for s in range(5)]
    whole_stats, capped_stats = RunStats(), RunStats()
    whole = permutation_test(data, config, 5, np.random.default_rng(6), whole_stats)
    whole_fits = run_chains(fits, whole_stats)
    assert whole_stats.sweeps == 2 * config.iterations

    per_chain = chains._chain_bytes(Dims(60, 5, 4, 2), config)
    monkeypatch.setattr(chains, "_BATCH_BYTES", 2 * per_chain)
    assert chains.batch_width(data, config) == 2
    capped = permutation_test(data, config, 5, np.random.default_rng(6), capped_stats)
    capped_fits = run_chains(fits, capped_stats)
    assert capped_stats.sweeps == (3 + 3) * config.iterations
    assert capped.observed_ptve == pytest.approx(whole.observed_ptve, rel=1e-10)
    assert np.allclose(capped.perm_ptves, whole.perm_ptves, rtol=1e-10, atol=0.0)
    for capped_theta, whole_theta in zip(capped_fits.theta_means, whole_fits.theta_means):
        assert_same_theta(capped_theta, whole_theta)


def test_streams_draw_what_each_chain_draws_alone():
    # Slice c holds chain c's own Generator.standard_normal(shape) and
    # Generator.gamma(shape, scale) draws, bit for bit, for every shape the
    # updates use: a scale per chain (delta) or an array per chain.
    streams = ChainStreams([np.random.default_rng(3), np.random.default_rng(4)])
    alone = [np.random.default_rng(3), np.random.default_rng(4)]
    scale = np.random.default_rng(5).gamma(2.0, 1.0, (2, 3, 4))
    for _ in range(2):
        normal = streams.standard_normal((2, 3, 4))
        gamma = streams.gamma(2.5, scale)
        per_chain = streams.gamma(2.5, scale[:, 0, 0])
        for c, generator in enumerate(alone):
            assert np.array_equal(normal[c], generator.standard_normal((3, 4)))
            assert np.array_equal(gamma[c], generator.gamma(2.5, scale[c]))
            assert per_chain[c] == generator.gamma(2.5, scale[c, 0, 0])


def test_set_targets_gives_the_statistics_of_new_data():
    data, other = problem(5), problem(6)
    configs = [ModelConfig(variant=Variant.NO_NOISE)]
    chained = ChainData([data], configs)
    chained.set_targets(other.Y[None])
    fresh = ChainData([Dataset(X=data.X, Y=other.Y)], configs)
    for name in ("Y", "xty", "x_rows", "target_rows"):
        assert np.array_equal(getattr(chained, name), getattr(fresh, name)), name
    assert all(np.array_equal(a, b) for a, b in zip(chained.gram_eig, fresh.gram_eig))


def assert_statistics_of(data, X, Y):
    """ChainData's statistics equal each chain's 2-D formulas bit for bit."""
    for c in range(len(X)):
        gram = X[c].T @ X[c]
        assert np.array_equal(data.gram[c], gram)
        assert all(np.array_equal(a[c], b) for a, b in zip(data.gram_eig, np.linalg.eigh(gram)))
        assert np.array_equal(data.xty[c], X[c].T @ Y[c])


@pytest.mark.parametrize("shared_y", [False, True])
def test_chain_data_forms_each_chains_statistics(shared_y):
    # Distinct stacked X (permutations of one X when Y is shared, as in
    # permutation_test), then new targets for every chain, as in geweke_test.
    base = problem(7, N=200, P=15, K=6)
    rng = np.random.default_rng(8)
    if shared_y:
        datasets = [Dataset(X=base.X[rng.permutation(200)], Y=base.Y) for _ in range(4)]
    else:
        datasets = [problem(seed, N=200, P=15, K=6) for seed in range(4)]
    data = ChainData(datasets, [ModelConfig(variant=Variant.NO_NOISE)] * 4)
    X = np.stack([d.X for d in datasets])
    assert (data.Y.strides[0] == 0) == shared_y
    assert_statistics_of(data, X, np.stack([d.Y for d in datasets]))
    Y = rng.standard_normal((4, 200, 6))
    data.set_targets(Y)
    assert_statistics_of(data, X, Y)


def test_chain_data_reports_a_failed_gram_eigendecomposition(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="Gram matrix X'X"):
        ChainData([problem()], [ModelConfig(variant=Variant.NO_NOISE)])
