"""Model-core tests: priors, prediction, marginal covariance, SNR conversion."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latent_brrr.model as model
from latent_brrr.errors import ConfigurationError, DimensionError, StateError
from latent_brrr.gibbs import run_chain
from latent_brrr.model import (
    Dataset,
    Dims,
    ModelConfig,
    ModelState,
    Variant,
    _prior_draws,
    latent_snr_to_variance,
    marginal_covariance,
    predict_mean,
    resolve_sigma_omega,
    sample_prior,
    sum_squares,
    total_variance,
)


def latent_config(**kw):
    base = dict(variant=Variant.LATENT_NOISE, rank=3, sigma_omega_sq=1.0)
    base.update(kw)
    return ModelConfig(**base)


def random_state(rng, P=4, K=5, S1=3, sigma_omega_sq=1.0, N=6):
    config = latent_config(rank=S1, sigma_omega_sq=sigma_omega_sq)
    dims = Dims(n_samples=N, n_covariates=P, n_targets=K, rank=S1)
    return sample_prior(config, dims, rng), config


# ---------------------------------------------------------------------------
# configuration and data validation


@pytest.mark.parametrize("kw", [
    dict(a1=2.0),
    dict(a2=3.0),
    dict(nu=2.0),
    dict(a_sigma=0.0),
    dict(iterations=10, burn_in=10),
    dict(thin=0),
    dict(rank=0),
    dict(psi_update="banana"),
])
def test_config_rejects_invalid_hyperparameters(kw):
    with pytest.raises(ConfigurationError):
        latent_config(**kw)


def test_config_latent_noise_needs_exactly_one_noise_spec():
    with pytest.raises(ConfigurationError):
        ModelConfig(variant=Variant.LATENT_NOISE, rank=2)
    with pytest.raises(ConfigurationError):
        ModelConfig(variant=Variant.LATENT_NOISE, rank=2, latent_snr=0.1, sigma_omega_sq=1.0)
    ModelConfig(variant=Variant.LATENT_NOISE, rank=2, latent_snr=0.1)


def test_config_variant_specific_fields():
    with pytest.raises(ConfigurationError):
        ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=2)
    with pytest.raises(ConfigurationError):
        ModelConfig(variant=Variant.NO_NOISE, rank=2, sigma_omega_sq=1.0)
    ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=2, noise_rank=3)


def test_dims_validation():
    with pytest.raises(ConfigurationError):
        Dims(n_samples=0, n_covariates=1, n_targets=1, rank=1)
    with pytest.raises(ConfigurationError):
        Dims(n_samples=1, n_covariates=1, n_targets=1, rank=0)


def test_dataset_rejects_mismatched_rows_and_nan():
    with pytest.raises(DimensionError):
        Dataset(X=np.zeros((3, 2)), Y=np.zeros((4, 2)))
    X = np.zeros((3, 2))
    X[1, 0] = np.nan
    with pytest.raises(ConfigurationError, match="row 1, column 0"):
        Dataset(X=X, Y=np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# prior sampling


def test_prior_tau_means_grow_geometrically():
    # E[tau_h] = a1 * a2^(h-1); check within 3 empirical standard errors.
    rng = np.random.default_rng(11)
    config = latent_config(rank=4, a1=3.0, a2=4.0)
    dims = Dims(n_samples=2, n_covariates=1, n_targets=1, rank=4)
    n_draws = 100_000
    taus = np.empty((n_draws, 4))
    for i in range(n_draws):
        taus[i] = sample_prior(config, dims, rng).tau
    mean = taus.mean(axis=0)
    se = taus.std(axis=0, ddof=1) / np.sqrt(n_draws)
    expected = 3.0 * 4.0 ** np.arange(4)
    assert np.all(np.abs(mean - expected) < 3 * se)
    # shrinkage ordering: mean tau strictly increasing in h
    assert np.all(np.diff(mean) > 0)


def test_prior_zero_latent_variance_gives_zero_omega():
    rng = np.random.default_rng(0)
    config = latent_config(sigma_omega_sq=0.0)
    dims = Dims(n_samples=5, n_covariates=2, n_targets=3, rank=3)
    state = sample_prior(config, dims, rng)
    assert np.all(state.Omega == 0.0)


def test_prior_marginal_moments():
    # Entry-level variances: Var(psi_jh) = E[1/tau_h], Var(gamma_hj) =
    # nu/(nu-2) * E[1/tau_h], Var(omega_nh) = s2 * E[1/tau_h], with
    # E[1/tau_h] = (1/(a1-1)) * (1/(a2-1))^(h-1).
    rng = np.random.default_rng(7)
    a1, a2, nu, s2 = 3.0, 4.0, 3.0, 2.5
    config = latent_config(rank=2, a1=a1, a2=a2, nu=nu, sigma_omega_sq=s2)
    dims = Dims(n_samples=40, n_covariates=30, n_targets=20, rank=2)
    n_draws = 4000
    psi_sq = np.zeros(2)
    gamma_sq = np.zeros(2)
    omega_sq = np.zeros(2)
    for _ in range(n_draws):
        st = sample_prior(config, dims, rng)
        psi_sq += (st.Psi**2).mean(axis=0)
        gamma_sq += (st.Gamma**2).mean(axis=1)
        omega_sq += (st.Omega**2).mean(axis=0)
    inv_tau_mean = (1 / (a1 - 1)) * (1 / (a2 - 1)) ** np.arange(2)
    assert np.allclose(psi_sq / n_draws, inv_tau_mean, rtol=0.1)
    assert np.allclose(gamma_sq / n_draws, nu / (nu - 2) * inv_tau_mean, rtol=0.1)
    assert np.allclose(omega_sq / n_draws, s2 * inv_tau_mean, rtol=0.1)


def test_prior_determinism_and_rank_consistency():
    config = latent_config()
    dims = Dims(n_samples=4, n_covariates=3, n_targets=2, rank=3)
    a = sample_prior(config, dims, np.random.default_rng(42))
    b = sample_prior(config, dims, np.random.default_rng(42))
    assert np.array_equal(a.Psi, b.Psi) and np.array_equal(a.sigma_sq, b.sigma_sq)
    with pytest.raises(ConfigurationError):
        sample_prior(config, Dims(4, 3, 2, rank=2), np.random.default_rng(0))


def test_prior_independent_noise_variant_has_noise_stack():
    config = ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=2, noise_rank=3)
    dims = Dims(n_samples=5, n_covariates=4, n_targets=6, rank=2)
    state = sample_prior(config, dims, np.random.default_rng(1))
    assert state.H.shape == (5, 3)
    assert state.Lambda.shape == (3, 6)
    assert state.phi_lambda.shape == (3, 6)
    assert state.delta_noise.shape == (3,)
    assert state.Omega is None


def state_digest(state):
    digest = hashlib.sha256()
    for name, value in sorted(vars(state).items()):
        if value is not None:
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("variant, kw, expected", [
    (Variant.LATENT_NOISE, dict(sigma_omega_sq=1.5), "8abf3ce457c17f34"),
    (Variant.INDEPENDENT_NOISE, dict(noise_rank=2), "8409a678d84434e0"),
    (Variant.NO_NOISE, {}, "84a460ba7271876f"),
    (Variant.NULL, {}, "62e838bd2cdab432"),
])
def test_prior_draw_replays_its_pinned_variates(variant, kw, expected):
    # Seeded fits start from sample_prior, so a change to its variates or
    # their order changes every fit's output.
    config = ModelConfig(variant=variant, rank=2, **kw)
    dims = Dims(n_samples=5, n_covariates=4, n_targets=3, rank=2)
    assert state_digest(sample_prior(config, dims, np.random.default_rng(2024))) == expected


@pytest.mark.parametrize("config", [
    latent_config(rank=3, sigma_omega_sq=2.5),
    ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=3, noise_rank=2),
], ids=["latent_noise", "independent_noise"])
def test_stacked_prior_draws_scale_each_chain_by_its_own_shrinkage(config):
    # Each Gaussian entry divided by its own chain's prior scale is N(0, 1);
    # scales taken from another chain would give heavy-tailed ratios.
    count = 20_000
    dims = Dims(n_samples=3, n_covariates=2, n_targets=4, rank=3)
    state = _prior_draws(config, dims, np.random.default_rng(17), count)
    tau = state.tau[:, None, :]
    standardized = {
        "Psi": state.Psi * np.sqrt(tau),
        "Gamma": state.Gamma * np.sqrt(state.phi_gamma * state.tau[..., None]),
    }
    if state.Omega is not None:
        standardized["Omega"] = state.Omega * np.sqrt(tau / config.sigma_omega_sq)
    else:
        tau_noise = state.tau_noise
        standardized["H"] = state.H * np.sqrt(tau_noise[:, None, :])
        standardized["Lambda"] = state.Lambda * np.sqrt(state.phi_lambda * tau_noise[..., None])
    for name, z in standardized.items():
        assert z.shape[0] == count
        square = np.square(z).ravel()
        se = square.std(ddof=1) / np.sqrt(square.size)
        assert abs(square.mean() - 1.0) < 5 * se, name
        assert abs(z.mean()) < 5 / np.sqrt(z.size), name


# ---------------------------------------------------------------------------
# mean prediction


def test_predict_mean_trivial_cases():
    rng = np.random.default_rng(3)
    state, _ = random_state(rng)
    assert np.all(predict_mean(state, np.zeros((7, 4))) == 0.0)
    zero_psi = ModelState(
        Psi=np.zeros_like(state.Psi), Gamma=state.Gamma, phi_gamma=state.phi_gamma,
        delta=state.delta, sigma_sq=state.sigma_sq,
    )
    assert np.all(predict_mean(zero_psi, rng.standard_normal((5, 4))) == 0.0)


def test_predict_mean_is_linear():
    rng = np.random.default_rng(4)
    state, _ = random_state(rng)
    x1 = rng.standard_normal((1, 4))
    x2 = rng.standard_normal((1, 4))
    a, b = 0.37, -2.1
    combined = predict_mean(state, a * x1 + b * x2)
    separate = a * predict_mean(state, x1) + b * predict_mean(state, x2)
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_predict_mean_shape_mismatch():
    rng = np.random.default_rng(5)
    state, _ = random_state(rng)
    with pytest.raises(DimensionError):
        predict_mean(state, np.zeros((3, 9)))


# ---------------------------------------------------------------------------
# marginalized covariance


def test_marginal_covariance_zero_gamma_is_diagonal():
    rng = np.random.default_rng(6)
    state, config = random_state(rng)
    state = ModelState(
        Psi=state.Psi, Gamma=np.zeros_like(state.Gamma), phi_gamma=state.phi_gamma,
        delta=state.delta, sigma_sq=state.sigma_sq, Omega=state.Omega,
    )
    assert np.array_equal(marginal_covariance(state, config), np.diag(state.sigma_sq))


def test_marginal_covariance_rank_one_hand_case():
    # S1=1, Gamma row of ones, tau=1, sigma_omega_sq=c, Sigma=I
    # -> diagonal 1+c, off-diagonal c.
    c = 0.8
    K = 4
    state = ModelState(
        Psi=np.zeros((2, 1)), Gamma=np.ones((1, K)), phi_gamma=np.ones((1, K)),
        delta=np.ones(1), sigma_sq=np.ones(K),
    )
    config = latent_config(rank=1, sigma_omega_sq=c)
    cov = marginal_covariance(state, config)
    expected = c * np.ones((K, K)) + np.eye(K)
    assert np.allclose(cov, expected, atol=1e-15)


def test_marginal_covariance_matches_sampling_oracle():
    # Empirical covariance of Y = Omega Gamma + E (X = 0) over many draws
    # must match the analytic marginal within 5 Monte-Carlo standard errors.
    rng = np.random.default_rng(8)
    state, config = random_state(rng, P=3, K=5, S1=2, sigma_omega_sq=1.7)
    cov = marginal_covariance(state, config)
    n = 100_000
    omega = rng.standard_normal((n, 2)) * np.sqrt(config.sigma_omega_sq / state.tau)
    eps = rng.standard_normal((n, 5)) * np.sqrt(state.sigma_sq)
    Y = omega @ state.Gamma + eps
    emp = np.cov(Y, rowvar=False)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.all(np.abs(emp - cov) < 5 * se)


def test_marginal_covariance_symmetry_and_eigenvalue_floor():
    rng = np.random.default_rng(9)
    for seed in range(5):
        state, config = random_state(np.random.default_rng(seed), P=3, K=6, S1=3,
                                     sigma_omega_sq=2.0)
        cov = marginal_covariance(state, config)
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        assert np.linalg.eigvalsh(cov).min() >= state.sigma_sq.min() - 1e-10


def test_marginal_covariance_rejects_bad_state_and_variant():
    rng = np.random.default_rng(10)
    state, config = random_state(rng)
    bad = ModelState(
        Psi=state.Psi, Gamma=state.Gamma, phi_gamma=state.phi_gamma,
        delta=state.delta, sigma_sq=np.zeros_like(state.sigma_sq), Omega=state.Omega,
    )
    with pytest.raises(StateError):
        marginal_covariance(bad, config)
    with pytest.raises(ConfigurationError):
        marginal_covariance(state, ModelConfig(variant=Variant.NO_NOISE, rank=3))


# ---------------------------------------------------------------------------
# latent SNR conversion


def standardized_matrix(rng, n, p):
    X = rng.standard_normal((n, p))
    X = X - X.mean(axis=0)
    return X / X.std(axis=0, ddof=1)


def test_latent_snr_formula_plug_in():
    # beta=1/5, rank 3, standardized X with P=30 (trace 30) -> 450.
    X = standardized_matrix(np.random.default_rng(12), 200, 30)
    value = latent_snr_to_variance(1 / 5, 3, X)
    assert abs(value - 450.0) < 1e-9


def test_latent_snr_limits_and_errors():
    X = standardized_matrix(np.random.default_rng(13), 50, 4)
    assert latent_snr_to_variance(1e12, 2, X) < 1e-10
    with pytest.raises(ConfigurationError):
        latent_snr_to_variance(0.0, 2, X)
    with pytest.raises(ConfigurationError):
        latent_snr_to_variance(1.0, 2, X[:1])


@pytest.mark.parametrize("value", [0.1, 3.0])
def test_latent_snr_rejects_an_x_whose_every_column_is_constant(value):
    # X = 0.1 leaves rounding noise (1.4e-32) as its variance, X = 3.0 an
    # exact 0; neither may become sigma_omega_sq.
    rng = np.random.default_rng(16)
    dataset = Dataset(X=np.full((50, 3), value), Y=rng.standard_normal((50, 2)))
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=2, latent_snr=0.5,
                         iterations=20, burn_in=10, thin=2)
    with pytest.raises(ConfigurationError, match="every column of X is constant"):
        run_chain(dataset, config)


def test_latent_snr_accepts_an_x_with_one_constant_column():
    X = standardized_matrix(np.random.default_rng(17), 50, 4)
    X[:, 0] = 3.0
    assert latent_snr_to_variance(0.5, 2, X) == pytest.approx(2 * 3 / 0.5, rel=1e-12)


@pytest.mark.parametrize("beta", [1 / 5, 1 / 7.5, 1 / 10, 1 / 12.5, 1 / 15])
def test_latent_snr_grid_values_accepted(beta):
    X = standardized_matrix(np.random.default_rng(14), 100, 30)
    value = latent_snr_to_variance(beta, 3, X)
    assert np.isfinite(value) and value > 0
    assert abs(value - 3 * 30 / beta) < 1e-8


def test_resolve_sigma_omega_materializes_latent_snr():
    X = standardized_matrix(np.random.default_rng(15), 100, 5)
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=2, latent_snr=0.5)
    resolved = resolve_sigma_omega(config, X)
    assert resolved.latent_snr is None
    assert abs(resolved.sigma_omega_sq - 2 * 5 / 0.5) < 1e-8
    # non-latent variants pass through untouched
    nn = ModelConfig(variant=Variant.NO_NOISE, rank=2)
    assert resolve_sigma_omega(nn, X) is nn


# ---------------------------------------------------------------------------
# sums of squares over row blocks


@settings(max_examples=200, deadline=None)
@given(chains=st.sampled_from([(), (1,), (3,)]), K=st.integers(2, 6),
       step=st.integers(1, 5), blocks=st.integers(0, 3), offset=st.integers(-1, 1),
       seed=st.integers(0, 2**32 - 1))
@example(chains=(3,), K=2, step=2, blocks=0, offset=0, seed=0)
@example(chains=(), K=3, step=4, blocks=2, offset=1, seed=1)
def test_sum_squares_equals_one_reduction_bit_for_bit(chains, K, step, blocks, offset, seed):
    # A budget of `step` rows; N = 0 and N at a block boundary +-1.
    row_values = int(np.prod(chains)) * K
    N = max(0, blocks * step + offset)
    T = np.random.default_rng(seed).standard_normal((*chains, N, K)) * 1e3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "ROW_BLOCK_VALUES", step * row_values)
        squares = sum_squares(lambda rows: T[..., rows, :].copy(), T.shape)
        products = sum_squares(lambda rows: T[..., rows, :].copy(), T.shape, outer=True)
    assert np.array_equal(squares, np.square(T).sum(axis=-2))
    # T'T by blocks adds the products in another order: equal to rounding.
    magnitude = np.abs(T).swapaxes(-1, -2) @ np.abs(T)
    assert products.shape == (*chains, K, K)
    assert (np.abs(products - T.swapaxes(-1, -2) @ T) <= 1e-12 * magnitude).all()


def test_total_variance_holds_no_array_of_its_input_shape():
    M = np.random.default_rng(18).standard_normal((20000, 300))
    tracemalloc.start()
    try:
        value = total_variance(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M.nbytes
    assert value == pytest.approx(M.var(axis=0, ddof=1).sum(), rel=1e-12)
