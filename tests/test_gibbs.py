"""Gibbs update tests against brute-force dense oracles, plus chain driver."""

import inspect
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latent_brrr.gibbs as gibbs
import latent_brrr.model as model
import latent_brrr.theory as theory
from latent_brrr.chains import ChainData, ChainStreams, RunStats
from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.gibbs import (
    gamma_conditional_moments,
    omega_conditional_moments,
    psi_conditional_moments,
    run_chain,
    update_delta,
    update_gamma,
    update_omega,
    update_phi_gamma,
    update_psi_fast,
    update_psi_naive,
    update_sigma,
)
from latent_brrr.model import (
    Dataset,
    Dims,
    ModelConfig,
    ModelState,
    Variant,
    marginal_covariance,
    sample_prior,
)


def make_problem(seed, N=50, P=4, K=3, S1=2, sigma_omega_sq=1.3):
    rng = np.random.default_rng(seed)
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=S1,
                         sigma_omega_sq=sigma_omega_sq, iterations=20,
                         burn_in=10, thin=2)
    dims = Dims(N, P, K, S1)
    state = sample_prior(config, dims, rng)
    X = rng.standard_normal((N, P))
    Y = (X @ state.Psi + state.Omega) @ state.Gamma \
        + rng.standard_normal((N, K)) * np.sqrt(state.sigma_sq)
    return state, Dataset(X=X, Y=Y), config, rng


def solo(update, state, dataset, config, streams):
    """Run ``update`` (an ``update_*`` or ``gibbs_sweep``) on ``state`` as one
    stacked chain on ``dataset``, with a Generator (or a scripted stand-in
    for its streams); returns the chain's new state."""
    stacked = ModelState.stack([state])
    if isinstance(streams, np.random.Generator):
        streams = ChainStreams([streams])
    shared = () if update is gibbs.gibbs_sweep else ({},)
    update(stacked, ChainData([dataset], [config]), config, streams, *shared)
    return stacked.chain(0)


def in_data_rows(data, rows=True):
    """``data``, a ChainData, with its block factor dropped where ``rows``:
    a sweep works in the N data rows exactly when ``data.target_rows`` is
    None."""
    if rows:
        data.target_rows = None
    return data


# ---------------------------------------------------------------------------
# Gamma update


def test_gamma_posterior_equals_prior_without_data_information():
    state, dataset, config, _ = make_problem(0)
    flat = ModelState(
        Psi=np.zeros_like(state.Psi), Gamma=state.Gamma, phi_gamma=state.phi_gamma,
        delta=state.delta, sigma_sq=state.sigma_sq, Omega=np.zeros_like(state.Omega),
    )
    means, covs = gamma_conditional_moments(flat, dataset, config)
    assert np.max(np.abs(means)) == 0.0
    prior_var = 1.0 / (flat.phi_gamma * flat.tau[:, None])
    for i in range(dataset.n_targets):
        assert np.allclose(np.diag(covs[i]), prior_var[:, i], rtol=1e-12)
        assert np.allclose(covs[i] - np.diag(np.diag(covs[i])), 0.0, atol=1e-15)


def test_gamma_posterior_reverts_to_prior_as_noise_explodes():
    state, dataset, config, _ = make_problem(1)
    noisy = ModelState(
        Psi=state.Psi, Gamma=state.Gamma, phi_gamma=state.phi_gamma,
        delta=state.delta, sigma_sq=np.full_like(state.sigma_sq, 1e18),
        Omega=state.Omega,
    )
    means, covs = gamma_conditional_moments(noisy, dataset, config)
    prior_var = 1.0 / (noisy.phi_gamma * noisy.tau[:, None])
    assert np.max(np.abs(means)) < 1e-6
    for i in range(dataset.n_targets):
        assert np.allclose(np.diag(covs[i]), prior_var[:, i], rtol=1e-9)


@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                     Variant.NO_NOISE])
def test_gamma_moments_match_dense_oracle(variant):
    # Brute-force Bayesian linear model: S = (P0 + X*'X*/s2)^-1, m = S X*'y/s2,
    # with design X* = X Psi (+ Omega) and target y (- H Lambda).
    if variant is Variant.LATENT_NOISE:
        state, dataset, config, _ = make_problem(2, N=50, S1=2, K=3, P=4)
    else:
        state, dataset, config = sweep_problem(variant, seed=2, N=50, P=4, K=3, S1=2)
    means, covs = gamma_conditional_moments(state, dataset, config)
    X_star = dataset.X @ state.Psi
    target = dataset.Y
    if variant is Variant.LATENT_NOISE:
        X_star = X_star + state.Omega
    if variant is Variant.INDEPENDENT_NOISE:
        target = dataset.Y - state.H @ state.Lambda
    tau = np.cumprod(state.delta)
    for i in range(dataset.n_targets):
        prior_prec = np.diag(state.phi_gamma[:, i] * tau)
        cov = np.linalg.inv(prior_prec + X_star.T @ X_star / state.sigma_sq[i])
        mean = cov @ X_star.T @ target[:, i] / state.sigma_sq[i]
        assert np.allclose(covs[i], cov, atol=1e-10)
        assert np.allclose(means[:, i], mean, atol=1e-10)


def test_gamma_draws_have_oracle_moments():
    state, dataset, config, rng = make_problem(3, N=30, K=2, S1=2)
    means, covs = gamma_conditional_moments(state, dataset, config)
    draws = np.array([
        solo(update_gamma, state, dataset, config, rng).Gamma for _ in range(4000)
    ])
    emp_mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(emp_mean - means) < 4 * se)
    for i in range(2):
        emp_var = draws[:, :, i].var(axis=0, ddof=1)
        assert np.allclose(emp_var, np.diag(covs[i]), rtol=0.15)


# ---------------------------------------------------------------------------
# Psi updates


def zero_gamma_state(state):
    return ModelState(
        Psi=state.Psi, Gamma=np.zeros_like(state.Gamma), phi_gamma=state.phi_gamma,
        delta=state.delta, sigma_sq=state.sigma_sq, Omega=state.Omega,
    )


def test_psi_naive_prior_when_gamma_zero():
    state, dataset, config, _ = make_problem(4)
    mean, var = psi_conditional_moments(zero_gamma_state(state), dataset, config,
                                        method="naive")
    assert np.max(np.abs(mean)) == 0.0
    assert np.allclose(var, 1.0 / np.cumprod(state.delta)[None, :], rtol=1e-10)


def test_psi_fast_prior_when_gram_zero():
    state, dataset, config, _ = make_problem(5, N=3)
    zero_ds = Dataset(X=np.zeros_like(dataset.X), Y=dataset.Y)
    mean, var = psi_conditional_moments(state, zero_ds, config, method="fast")
    assert np.max(np.abs(mean)) < 1e-12
    assert np.allclose(var, 1.0 / np.cumprod(state.delta)[None, :], rtol=1e-10)


def test_psi_naive_matches_hand_expansion():
    # P=2, S1=1, K=2: precision = tau1*I2 + a*X'X with a = G M^-1 G';
    # everything invertible by the 2x2 cofactor formula.
    rng = np.random.default_rng(6)
    N, P, K = 20, 2, 2
    X = rng.standard_normal((N, P))
    Y = rng.standard_normal((N, K))
    gamma  = np.array([[0.7, -1.2]])
    tau1 = 1.9
    sigma_sq = np.array([0.8, 1.4])
    s2_omega = 0.6
    state = ModelState(
        Psi=np.zeros((P, 1)), Gamma=gamma, phi_gamma=np.ones((1, K)),
        delta=np.array([tau1]), sigma_sq=sigma_sq, Omega=np.zeros((N, 1)),
    )
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=1, sigma_omega_sq=s2_omega)
    dataset = Dataset(X=X, Y=Y)

    def inv2(M):
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det

    M = s2_omega / tau1 * gamma.T @ gamma + np.diag(sigma_sq)
    a = (gamma @ inv2(M) @ gamma.T).item()
    prec = tau1 * np.eye(P) + a * (X.T @ X)
    cov = inv2(prec)
    mean = cov @ (X.T @ Y @ inv2(M) @ gamma.T)

    got_mean, got_var = psi_conditional_moments(state, dataset, config, method="naive")
    assert np.allclose(got_mean, mean, atol=1e-12)
    assert np.allclose(got_var[:, 0], np.diag(cov), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_psi_fast_and_naive_agree(seed):
    state, dataset, config, _ = make_problem(seed, N=60, P=6, K=5, S1=3)
    mean_n, var_n = psi_conditional_moments(state, dataset, config, method="naive")
    mean_f, var_f = psi_conditional_moments(state, dataset, config, method="fast")
    assert np.allclose(mean_f, mean_n, rtol=1e-8, atol=1e-12)
    assert np.allclose(var_f, var_n, rtol=1e-8)


def test_psi_draws_match_conditional_moments():
    state, dataset, config, rng = make_problem(7, N=25, P=3, K=3, S1=2)
    mean, var = psi_conditional_moments(state, dataset, config, method="naive")
    fast = np.array([
        solo(update_psi_fast, state, dataset, config, rng).Psi for _ in range(4000)
    ])
    naive = np.array([
        solo(update_psi_naive, state, dataset, config, rng).Psi for _ in range(4000)
    ])
    for draws in (fast, naive):
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
        assert np.allclose(draws.var(axis=0, ddof=1), var, rtol=0.15)


@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.NO_NOISE])
def test_psi_draws_same_with_cached_xty(variant):
    # The Psi steps read X'Y cached on the dataset; with zero noise each
    # draw is the conditional mean, which must match the one formed from the
    # N-sized product X'(Y M^{-1} G').
    state, dataset, config, _ = make_problem(11, N=40, P=5, K=4, S1=3)
    if variant is Variant.NO_NOISE:
        config = replace(config, variant=variant, sigma_omega_sq=None)
        M = np.diag(state.sigma_sq)
    else:
        M = marginal_covariance(state, config)
    minv_gt = np.linalg.solve(M, state.Gamma.T)
    A = state.Gamma @ minv_gt
    X = dataset.X
    prec = np.kron(A, X.T @ X) + np.kron(np.diag(state.tau), np.eye(X.shape[1]))
    lin = (X.T @ (dataset.Y @ minv_gt)).ravel(order="F")
    mean = np.linalg.solve(prec, lin).reshape(state.Psi.shape, order="F")
    for update in (update_psi_fast, update_psi_naive):
        drawn = solo(update, state, dataset, config, ScriptedNormal(np.zeros)).Psi
        assert np.allclose(drawn, mean, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("method", ["fast", "naive"])
def test_independent_noise_sweep_keeps_psi_target_y_minus_h_lambda(method):
    # X'Y is no sufficient statistic here: the target moves with H Lambda.
    # The sweep draws H first (its N rows, on a row sweep), and its Psi step
    # regresses Y - H Lambda on X with that H and the other fields as they were.
    config = ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=2, noise_rank=2,
                         iterations=20, burn_in=10, thin=2, psi_update=method)
    rng = np.random.default_rng(12)
    state = sample_prior(config, Dims(40, 5, 4, 2), rng)
    X = rng.standard_normal((40, 5))
    Y = rng.standard_normal((40, 4))
    stacked = ModelState.stack([state])
    data = in_data_rows(ChainData([Dataset(X=X, Y=Y)], [config]))
    gibbs.gibbs_sweep(stacked, data, config, ChainStreams([np.random.default_rng(5)]))
    swept = stacked.chain(0)
    update = update_psi_fast if method == "fast" else update_psi_naive
    rng = np.random.default_rng(5)
    rng.standard_normal(state.H.size)    # the H step's normals
    expected = solo(update, replace(state, H=swept.H, Lambda=np.zeros_like(state.Lambda)),
                    Dataset(X=X, Y=Y - swept.H @ state.Lambda), config, rng)
    assert np.allclose(swept.Psi, expected.Psi, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# Omega update


def test_omega_prior_when_gamma_zero():
    state, dataset, config, _ = make_problem(8)
    mean, cov = omega_conditional_moments(zero_gamma_state(state), dataset, config)
    tau = np.cumprod(state.delta)
    assert np.max(np.abs(mean)) == 0.0
    assert np.allclose(cov, np.diag(config.sigma_omega_sq / tau), atol=1e-12)


def test_omega_zero_residual_gives_zero_mean():
    state, dataset, config, _ = make_problem(9)
    exact = Dataset(X=dataset.X, Y=dataset.X @ state.Psi @ state.Gamma)
    mean, _ = omega_conditional_moments(state, exact, config)
    assert np.max(np.abs(mean)) < 1e-10


def test_omega_moments_match_dense_oracle():
    # Rows are independent Bayesian linear models with design Gamma'.
    state, dataset, config, _ = make_problem(10, N=7, K=4, S1=2)
    mean, cov = omega_conditional_moments(state, dataset, config)
    tau = np.cumprod(state.delta)
    resid = dataset.Y - dataset.X @ state.Psi @ state.Gamma
    prior_prec = np.diag(tau / config.sigma_omega_sq)
    sigma_inv = np.diag(1.0 / state.sigma_sq)
    C = np.linalg.inv(prior_prec + state.Gamma @ sigma_inv @ state.Gamma.T)
    assert np.allclose(cov, C, atol=1e-12)
    for n in range(dataset.n_samples):
        m = C @ state.Gamma @ sigma_inv @ resid[n]
        assert np.allclose(mean[n], m, atol=1e-10)


def test_omega_draws_match_moments():
    state, dataset, config, rng = make_problem(11, N=5, K=3, S1=2)
    mean, cov = omega_conditional_moments(state, dataset, config)
    draws = np.array([
        solo(update_omega, state, dataset, config, rng).Omega for _ in range(5000)
    ])
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
    emp_cov = np.cov(draws[:, 0, :], rowvar=False)
    assert np.allclose(emp_cov, cov, rtol=0.15, atol=5e-3)


def test_moment_oracles_raise_on_a_non_pd_system():
    # The oracles share the updates' factorizations, which raise
    # NumericalError naming the oracle's system.
    state, dataset, config, _ = make_problem(25)
    negative_phi = replace(state, phi_gamma=np.full_like(state.phi_gamma, -1e12))
    with pytest.raises(NumericalError, match="^Cholesky factorization failed in gamma moments$"):
        gamma_conditional_moments(negative_phi, dataset, config)
    negative_tau = replace(state, delta=np.array([-1e6, 1.0]))
    with pytest.raises(NumericalError, match="^Cholesky factorization failed in omega moments$"):
        omega_conditional_moments(negative_tau, dataset, config)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("variant, psi_update, omega_rows, step", [
    (Variant.LATENT_NOISE, "fast", True, "omega update"),
    (Variant.LATENT_NOISE, "fast", False, "omega update"),
    (Variant.LATENT_NOISE, "naive", False, "psi update (naive)"),
    (Variant.INDEPENDENT_NOISE, "fast", False, "H update")])
def test_sweep_names_the_step_whose_precision_is_not_finite(variant, psi_update, omega_rows,
                                                            step):
    # Increments of 1e308 overflow tau_2 (tau_noise's for independent noise)
    # to inf. numpy's cholesky returns NaN for such a precision without
    # raising, so the first step whose precision holds it must raise: naive
    # Psi's, or Omega's (on the row and the statistics path) after fast Psi
    # has drawn column 2 as 0, or H's.
    state, dataset, config = sweep_problem(variant)
    config = replace(config, psi_update=psi_update)
    noise = "delta_noise" if variant is Variant.INDEPENDENT_NOISE else "delta"
    stacked = ModelState.stack([replace(state, **{noise: np.full(2, 1e308)})])
    data = ChainData([dataset], [config])
    assert data.target_rows is not None
    with pytest.raises(NumericalError, match=f"^non-finite precision in {re.escape(step)}$"):
        gibbs.gibbs_sweep(stacked, in_data_rows(data, omega_rows), config,
                          ChainStreams([np.random.default_rng(0)]))


# ---------------------------------------------------------------------------
# independent-noise H and Lambda updates


class ScriptedNormal:
    """Stands in for the Generator: ``standard_normal(shape)`` returns ``fill(shape)``.

    The H and Lambda updates draw L^{-T} (L^{-1} lin + z). Zero noise gives
    the conditional mean, and unit noise in coordinate j gives column j of
    L^{-T}, so the covariance L^{-T} L^{-1} follows from the update itself
    without sampling.
    """

    def __init__(self, fill):
        self.fill = fill

    def standard_normal(self, shape):
        return self.fill(shape)


def unit_noise(j, axis):
    def fill(shape):
        z = np.zeros(shape)
        z[(slice(None),) * axis + (j,)] = 1.0
        return z
    return fill


def affine_draw_moments(update, state, dataset, config, field, axis):
    """Mean and noise columns (stacked on the last axis) of an update's draw.

    ``axis`` indexes the noise of one chain; the stacked draws carry the
    chain axis first.
    """
    def draw(fill):
        return getattr(solo(update, state, dataset, config, ScriptedNormal(fill)), field)

    mean = draw(np.zeros)
    cols = np.stack([draw(unit_noise(j, axis + 1)) - mean
                     for j in range(state.delta_noise.size)], axis=-1)
    return mean, cols


def independent_noise_problem(seed, N=7, P=3, K=4, S1=2, S2=2):
    config = ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=S1, noise_rank=S2,
                         iterations=20, burn_in=10, thin=2)
    rng = np.random.default_rng(seed)
    state = sample_prior(config, Dims(N, P, K, S1), rng)
    X = rng.standard_normal((N, P))
    Y = X @ state.Psi @ state.Gamma + state.H @ state.Lambda \
        + rng.standard_normal((N, K)) * np.sqrt(state.sigma_sq)
    return state, Dataset(X=X, Y=Y), config


def test_h_update_matches_dense_oracle():
    # Rows are independent Bayesian linear models with design Lambda'.
    state, dataset, config = independent_noise_problem(40)
    mean, cols = affine_draw_moments(gibbs.update_h, state, dataset, config, "H", axis=0)
    resid = dataset.Y - dataset.X @ state.Psi @ state.Gamma
    prior_prec = np.diag(np.cumprod(state.delta_noise))
    sigma_inv = np.diag(1.0 / state.sigma_sq)
    C = np.linalg.inv(prior_prec + state.Lambda @ sigma_inv @ state.Lambda.T)
    for n in range(dataset.n_samples):
        assert np.allclose(cols[n] @ cols[n].T, C, atol=1e-12)
        assert np.allclose(mean[n], C @ state.Lambda @ sigma_inv @ resid[n], atol=1e-10)


def test_lambda_update_matches_dense_oracle():
    # Targets are independent Bayesian linear models with design H.
    state, dataset, config = independent_noise_problem(41)
    mean, cols = affine_draw_moments(gibbs.update_lambda, state, dataset, config,
                                     "Lambda", axis=1)
    resid = dataset.Y - dataset.X @ state.Psi @ state.Gamma
    tau_noise = np.cumprod(state.delta_noise)
    H = state.H
    for k in range(dataset.n_targets):
        prior_prec = np.diag(state.phi_lambda[:, k] * tau_noise)
        cov = np.linalg.inv(prior_prec + H.T @ H / state.sigma_sq[k])
        assert np.allclose(cols[:, k] @ cols[:, k].T, cov, atol=1e-12)
        assert np.allclose(mean[:, k], cov @ H.T @ resid[:, k] / state.sigma_sq[k],
                           atol=1e-10)


# ---------------------------------------------------------------------------
# the shared draw from a factored precision


def assert_draw_helper_matches_solves(prec, lin):
    """Compare _draw_from_precision's mean and L^{-T}, given L^{-1} from
    _factor, against dense and triangular solves.

    Each reference is a backward-stable solve, whose relative forward error
    is at most about n * eps * cond(P), and the helper's is of the same
    order (L^{-1} carries error n * eps * cond(L) with cond(L)^2 = cond(P)).
    Two such results differ by at most twice that bound; the factor 10
    leaves room for the constant in it. Measured ratios stay below 2.
    """
    from scipy.linalg import solve_triangular

    n = prec.shape[0]
    tol = 10 * n * np.finfo(float).eps * np.linalg.cond(prec)
    L = np.linalg.cholesky(prec)
    inv_lower = gibbs._factor(prec.copy(), np.zeros(n), "test")
    mean = gibbs._draw_from_precision(inv_lower, lin, np.zeros(lin.shape))
    inv_upper = gibbs._draw_from_precision(inv_lower, np.zeros((n, n)), np.eye(n))

    def rel_err(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    assert mean.shape == lin.shape
    assert rel_err(mean, np.linalg.solve(prec, lin)) <= tol
    assert rel_err(mean, solve_triangular(L.T, solve_triangular(L, lin, lower=True),
                                          lower=False)) <= tol
    assert rel_err(inv_upper, solve_triangular(L.T, np.eye(n), lower=False)) <= tol
    assert rel_err(inv_upper @ inv_upper.T, np.linalg.solve(prec, np.eye(n))) <= tol


@pytest.mark.parametrize("S", [1, 2, 3])
@pytest.mark.parametrize("loading_scale", [1e-4, 1.0, 1e4])
def test_draw_helper_factor_rows_at_extreme_scales(S, loading_scale):
    # The Omega/H system: diag(tau / sigma_omega_sq) + B Sigma^{-1} B' with N
    # right-hand sides, prior precisions anywhere in 1e-4 .. 1e4.
    rng = np.random.default_rng(S)
    for prior in np.array(np.meshgrid(*[[1e-4, 1.0, 1e4]] * S)).reshape(S, -1).T:
        B = rng.standard_normal((S, 6)) * loading_scale
        prec = np.diag(prior) + (B / rng.gamma(2.0, 1.0, 6)) @ B.T
        lin = rng.standard_normal((S, 40)) * 10.0 ** rng.uniform(-4, 4)
        assert_draw_helper_matches_solves(prec, lin)


@pytest.mark.parametrize("S", [1, 2, 3])
@pytest.mark.parametrize("loading_scale", [1e-4, 1.0, 1e4])
def test_factor_coefficients_at_extreme_scales(S, loading_scale):
    # The Omega/H rows' mean and covariance from their factored system
    # against dense solves of diag(prior) + B Sigma^{-1} B' with linear
    # terms B Sigma^{-1} (Y - X Psi Gamma)', within the helper test's bound
    # 10 n eps cond(P) of the mean's two parts, the Y part and the X Psi part.
    rng = np.random.default_rng(S)
    N, K = 40, 6
    for prior in np.array(np.meshgrid(*[[1e-4, 1.0, 1e4]] * S)).reshape(S, -1).T:
        B = rng.standard_normal((S, K)) * loading_scale
        state = ModelState(Psi=rng.standard_normal((3, 2)), Gamma=rng.standard_normal((2, K)),
                           phi_gamma=np.ones((2, K)), delta=np.ones(2),
                           sigma_sq=rng.gamma(2.0, 1.0, K))
        Y, x_psi = rng.standard_normal((N, K)), rng.standard_normal((N, 2))
        bs = B / state.sigma_sq
        prec = np.diag(prior) + bs @ B.T
        lin = bs @ (Y - x_psi @ state.Gamma).T
        tol = 10 * S * np.finfo(float).eps * np.linalg.cond(prec)
        mean, got_cov = gibbs._precision_moments(
            *gibbs._factor_rows_system(B, prior, state, x_psi, Y, "test"))
        want = np.linalg.solve(prec, lin)
        scale = (np.linalg.norm(np.linalg.solve(prec, bs @ Y.T))
                 + np.linalg.norm(np.linalg.solve(prec, (bs @ state.Gamma.T) @ x_psi.T)))
        assert np.linalg.norm(mean - want) <= tol * scale
        cov = np.linalg.inv(prec)
        assert np.linalg.norm(got_cov - cov) <= tol * np.linalg.norm(cov)


@pytest.mark.parametrize("x_scale", [1e-2, 1.0, 1e2])
def test_draw_helper_dense_psi_system(x_scale):
    # The naive Psi system, (P*S1, P*S1) with tau spanning 1e-4 .. 1e4.
    state, dataset, config, _ = make_problem(13, N=60, P=20, K=5, S1=3)
    state = replace(state, delta=np.array([1e-4, 1e4, 1e4]))
    scaled = Dataset(X=dataset.X * x_scale, Y=dataset.Y)
    inv_lower, lin = gibbs._psi_naive_system(ModelState.stack([state]),
                                             ChainData([scaled], [config]), config, {})
    L = np.linalg.inv(inv_lower[0])
    assert_draw_helper_matches_solves(L @ L.T, lin[0])


# ---------------------------------------------------------------------------
# hyperparameter updates


def test_phi_gamma_zero_coefficient_posterior():
    # gamma_hj = 0 -> Ga((nu+1)/2, nu/2) with mean (nu+1)/nu.
    state, dataset, config, rng = make_problem(12)
    flat = zero_gamma_state(state)
    draws = np.array([
        solo(update_phi_gamma, flat, dataset, config, rng).phi_gamma for _ in range(20000)
    ])
    nu = config.nu
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - (nu + 1) / nu) < 4 * se)


def test_phi_gamma_large_coefficient_shrinks():
    state, dataset, config, rng = make_problem(13, S1=1, K=1, P=2)
    big = 1e6
    loud = ModelState(
        Psi=state.Psi, Gamma=np.full((1, 1), big), phi_gamma=state.phi_gamma,
        delta=np.ones(1), sigma_sq=state.sigma_sq, Omega=state.Omega,
    )
    draws = np.array([
        solo(update_phi_gamma, loud, dataset, config, rng).phi_gamma[0, 0] for _ in range(5000)
    ])
    expected = (config.nu + 1) / big**2  # tau=1
    assert abs(draws.mean() - expected) / expected < 0.1


def test_delta_zero_parameters_posterior_mean():
    # All parameter matrices zero -> Ga(a + count*(S-l)/2 ... , 1).
    state, dataset, config, rng = make_problem(14, N=6, P=3, K=4, S1=2)
    zero = ModelState(
        Psi=np.zeros_like(state.Psi), Gamma=np.zeros_like(state.Gamma),
        phi_gamma=state.phi_gamma, delta=state.delta, sigma_sq=state.sigma_sq,
        Omega=np.zeros_like(state.Omega),
    )
    count = 4 + 3 + 6  # K + P + N
    draws = np.array([solo(update_delta, zero, dataset, config, rng).delta for _ in range(20000)])
    expected = np.array([config.a1 + 0.5 * count * 2, config.a2 + 0.5 * count * 1])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - expected) < 4 * se)


def test_delta_single_component_hand_posterior():
    # S1=1: delta_1 ~ Ga(a1 + (K+P+N)/2, 1 + q/2) with
    # q = sum phi g^2 + sum psi^2 + sum omega^2 / s2.
    rng = np.random.default_rng(15)
    N, P, K = 5, 2, 3
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=1, sigma_omega_sq=0.7)
    state = ModelState(
        Psi=rng.standard_normal((P, 1)), Gamma=rng.standard_normal((1, K)),
        phi_gamma=rng.gamma(2.0, 1.0, (1, K)), delta=np.array([1.0]),
        sigma_sq=np.ones(K), Omega=rng.standard_normal((N, 1)),
    )
    dataset = Dataset(X=np.zeros((N, P)), Y=np.zeros((N, K)))
    q = float((state.phi_gamma * state.Gamma**2).sum()
              + (state.Psi**2).sum()
              + (state.Omega**2).sum() / config.sigma_omega_sq)
    shape = config.a1 + 0.5 * (K + P + N)
    rate = 1.0 + 0.5 * q
    draws = np.array([solo(update_delta, state, dataset, config, rng).delta[0]
                      for _ in range(20000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - shape / rate) < 4 * se
    assert abs(draws.var(ddof=1) - shape / rate**2) / (shape / rate**2) < 0.1


def test_sigma_zero_rows_returns_prior():
    config = ModelConfig(variant=Variant.NO_NOISE, rank=1, a_sigma=2.0, b_sigma=3.0)
    state = ModelState(
        Psi=np.zeros((2, 1)), Gamma=np.zeros((1, 2)), phi_gamma=np.ones((1, 2)),
        delta=np.ones(1), sigma_sq=np.ones(2),
    )
    empty = Dataset(X=np.zeros((0, 2)), Y=np.zeros((0, 2)))
    rng = np.random.default_rng(16)
    draws = np.array([
        solo(update_sigma, state, empty, config, rng).sigma_sq for _ in range(20000)
    ])
    # prior Ga(a, b) on the precision: E[1/sigma_sq] = a/b
    prec = 1.0 / draws
    se = prec.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(prec.mean(axis=0) - 2.0 / 3.0) < 4 * se)


class ScriptedGamma:
    """Stands in for the Generator: ``gamma(shape, scale)`` returns ``scale``.

    update_sigma draws each precision from Ga(shape, 1 / rate), so with this
    stand-in the drawn sigma_sq is the rate itself.
    """

    def gamma(self, shape, scale):
        return np.asarray(scale, dtype=float)


@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                     Variant.NO_NOISE])
def test_sigma_rate_matches_direct_residual_oracle(variant):
    state, dataset, config = sweep_problem(variant, seed=33, N=80, K=5)

    def direct_rate(state):
        D, B = design_and_coefficients(state, dataset, variant)
        return config.b_sigma + 0.5 * ((dataset.Y - D @ B)**2).sum(axis=0)

    alone = solo(update_sigma, state, dataset, config, ScriptedGamma())
    assert np.allclose(alone.sigma_sq, direct_rate(state), rtol=1e-10, atol=0.0)

    # The same rate from the cross-products a sweep's Gamma step leaves behind.
    shared: dict = {}
    stacked, data = ModelState.stack([state]), ChainData([dataset], [config])
    update_gamma(stacked, data, config, ChainStreams([np.random.default_rng(8)]), shared)
    state = stacked.chain(0)
    update_sigma(stacked, data, config, ScriptedGamma(), shared)
    swept = stacked.chain(0)
    assert np.allclose(swept.sigma_sq, direct_rate(state), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                     Variant.NO_NOISE])
def test_sigma_sums_row_blocks_in_the_order_of_one_sum(variant, monkeypatch):
    # Blocks of 3 rows (2 chains, K = 4) carry the running sum into the next
    # block, so the rates equal those of one block over all 80 rows bit for bit.
    state, dataset, config = sweep_problem(variant, seed=34, N=80, K=4)
    other, _, _ = sweep_problem(variant, seed=35, N=80, K=4)

    def rates():
        stacked = ModelState.stack([state, other])
        update_sigma(stacked, ChainData([dataset] * 2, [config] * 2), config,
                     ScriptedGamma(), {})
        return stacked.sigma_sq

    one_block = rates()
    monkeypatch.setattr(model, "ROW_BLOCK_VALUES", 2 * 4 * 3)
    assert np.array_equal(rates(), one_block)


def test_sigma_posterior_mean_matches_residual_scale():
    # ||r||^2 = 2N per column -> E[1/sigma_sq] = (a + N/2)/(b + N) ~ 1/2.
    rng = np.random.default_rng(17)
    N, K = 400, 2
    config = ModelConfig(variant=Variant.NO_NOISE, rank=1)
    state = ModelState(
        Psi=np.zeros((1, 1)), Gamma=np.zeros((1, K)), phi_gamma=np.ones((1, K)),
        delta=np.ones(1), sigma_sq=np.ones(K),
    )
    resid = np.full((N, K), np.sqrt(2.0))
    dataset = Dataset(X=np.zeros((N, 1)), Y=resid)
    draws = np.array([
        solo(update_sigma, state, dataset, config, rng).sigma_sq for _ in range(5000)
    ])
    assert np.allclose(draws.mean(axis=0), 2.0, rtol=0.05)


# ---------------------------------------------------------------------------
# products shared within a sweep


VARIANT_CONFIGS = {
    Variant.LATENT_NOISE: dict(sigma_omega_sq=1.3),
    Variant.INDEPENDENT_NOISE: dict(noise_rank=2),
    Variant.NO_NOISE: {},
}


def sweep_problem(variant, seed=30, N=60, P=5, K=4, S1=2):
    config = ModelConfig(variant=variant, rank=S1, iterations=20, burn_in=10, thin=2,
                         **VARIANT_CONFIGS[variant])
    rng = np.random.default_rng(seed)
    state = sample_prior(config, Dims(N, P, K, S1), rng)
    X = rng.standard_normal((N, P))
    Y = X @ state.Psi @ state.Gamma + rng.standard_normal((N, K))
    return state, Dataset(X=X, Y=Y), config


def test_every_update_takes_the_sweep_signature(corrupted_delta_step):
    updates = [getattr(gibbs, name) for name in dir(gibbs) if name.startswith("update_")]
    assert len(updates) == 11
    for update in updates + [corrupted_delta_step]:
        assert list(inspect.signature(update).parameters) == \
            ["state", "data", "config", "streams", "shared"], update.__name__


@pytest.mark.parametrize("omega_rows", [True, False])
@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                     Variant.NO_NOISE])
def test_sweep_matches_updates_called_one_by_one(variant, omega_rows):
    # Called alone, each row-path update takes a fresh ChainData and shared
    # dict. The statistics path passes the factor step's draw on through the
    # sweep's shared dict, so its updates share one.
    state, dataset, config = sweep_problem(variant)
    stacked, data = ModelState.stack([state]), ChainData([dataset], [config])
    gibbs.gibbs_sweep(stacked, in_data_rows(data, omega_rows), config,
                      ChainStreams([np.random.default_rng(5)]))
    swept = stacked.chain(0)

    updates = {Variant.LATENT_NOISE: [update_psi_fast, update_omega],
               Variant.INDEPENDENT_NOISE: [gibbs.update_h, update_psi_fast],
               Variant.NO_NOISE: [update_psi_fast]}[variant]
    updates += [update_gamma]
    if variant is Variant.INDEPENDENT_NOISE:
        updates += [gibbs.update_lambda, update_phi_gamma, gibbs.update_phi_lambda,
                    update_delta, gibbs.update_delta_noise]
    else:
        updates += [update_phi_gamma, update_delta]
    updates += [update_sigma]
    rng = np.random.default_rng(5)
    if omega_rows:
        s = state
        for update in updates:
            s = solo(update, s, dataset, config, rng)
    else:
        stacked, shared = ModelState.stack([state]), {"compressed": True}
        for update in updates:
            update(stacked, data, config, ChainStreams([rng]), shared)
        s = stacked.chain(0)

    for name in ("Psi", "Omega", "H", "Gamma", "Lambda", "phi_gamma", "delta", "sigma_sq"):
        got, want = getattr(swept, name), getattr(s, name)
        if want is None:
            assert got is None
        else:
            assert np.allclose(got, want, rtol=1e-10, atol=0.0), name


class CountingMatmul(np.ndarray):
    """Counts the matrix products that take this array (or a view) as an operand."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingMatmul.calls += 1
        inputs = tuple(np.asarray(x) if isinstance(x, CountingMatmul) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("variant, omega_rows, first, passes", [
    (Variant.LATENT_NOISE, False, 0, 0), (Variant.LATENT_NOISE, True, 1, 1),
    (Variant.NO_NOISE, False, 0, 0), (Variant.NO_NOISE, True, 1, 1),
    (Variant.INDEPENDENT_NOISE, False, 0, 0), (Variant.INDEPENDENT_NOISE, True, 3, 2)])
def test_sweep_multiplies_by_x_once(variant, omega_rows, first, passes):
    # A statistics sweep reads X only through the ChainData's statistics,
    # which it forms when it is built, before counting starts. A row sweep
    # forms X Psi for the Psi it draws; independent noise also forms X'H in
    # the Psi step, because its target Y - H Lambda changes every sweep, and
    # the H step before it reads X Psi of the last sweep's Psi, which only a
    # batch's first sweep forms.
    state, dataset, config = sweep_problem(variant)
    object.__setattr__(dataset, "X", dataset.X.view(CountingMatmul))
    stacked = ModelState.stack([state])
    data = in_data_rows(ChainData([dataset], [config]), omega_rows)
    streams = ChainStreams([np.random.default_rng(5)])
    field = {Variant.LATENT_NOISE: "Omega", Variant.INDEPENDENT_NOISE: "H"}.get(variant)
    for sweep in range(3):
        CountingMatmul.calls = 0
        gibbs.gibbs_sweep(stacked, data, config, streams)
        assert CountingMatmul.calls == (passes if sweep else first)
        if field:
            assert (getattr(stacked, field) is None) == (not omega_rows)


class CountingGenerator:
    """Wraps a Generator and counts the calls made to it."""

    def __init__(self, generator):
        self.generator, self.calls = generator, 0

    def __getattr__(self, name):
        method = getattr(self.generator, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("omega_rows", [False, True])
def test_geweke_size_sweep_makes_seven_generator_calls_per_chain(omega_rows):
    # psi, Omega, gamma, phi and sigma one each, and delta one per increment.
    # At N - P - K = 13 a statistics draw takes its chi^2 variates from the
    # normals of its one call.
    config = theory.default_geweke_config(rank=2)
    rng = np.random.default_rng(3)
    dims = Dims(20, 3, 4, 2)
    X = rng.standard_normal((20, 3))
    states = [sample_prior(config, dims, rng) for _ in range(4)]
    datasets = [Dataset(X=X, Y=(X @ s.Psi + s.Omega) @ s.Gamma + rng.standard_normal((20, 4)))
                for s in states]
    generators = [CountingGenerator(g) for g in rng.spawn(4)]
    stacked = ModelState.stack(states)
    data = in_data_rows(ChainData(datasets, [config] * 4), omega_rows)
    gibbs.gibbs_sweep(stacked, data, config, ChainStreams(generators))
    assert [g.calls for g in generators] == [7] * 4


def statistics_sweep_problem(seed, N=40, P=4, K=3, S1=2):
    """A latent-noise problem whose ChainData has the block factor."""
    state, dataset, config = sweep_problem(Variant.LATENT_NOISE, seed=seed, N=N, P=P,
                                           K=K, S1=S1)
    assert ChainData([dataset], [config]).target_rows is not None
    return state, dataset, config


FACTOR_FIELDS = {Variant.LATENT_NOISE: "Omega", Variant.INDEPENDENT_NOISE: "H"}


def factor_update(config):
    """The step that draws the variant's factor rows: Omega's or H's."""
    return update_omega if config.variant is Variant.LATENT_NOISE else gibbs.update_h


def draw_factor_statistics(state, data, config, rng):
    """Run the statistics factor step (Omega, or H for independent noise) on
    the stacked ``state``; returns its shared dict and its compressed
    normals Z~ = [G; L_W']."""
    drawn = {}
    real = gibbs._compressed_rows

    def capture(*args):
        Zt = real(*args)
        drawn["Z"] = Zt.swapaxes(-1, -2)
        return Zt

    shared = {"compressed": True}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gibbs, "_compressed_rows", capture)
        factor_update(config)(state, data, config, ChainStreams([rng]), shared)
    assert getattr(state, FACTOR_FIELDS[config.variant]) is None
    return shared, drawn["Z"]


def consistent_rows(dataset, data, Z_compressed, rng):
    """N rows of Z whose statistics are those of a statistics draw of
    Omega or H.

    With A = [X Y] = Q_A R (R the ChainData's block factor, so Q_A has
    orthonormal columns) and Z~ = [G; L_W'], the rows Z = Q_A G + Q_perp L_W',
    with Q_perp orthonormal columns orthogonal to A, give A'Z = R'G and
    Z'Z = G'G + L_W L_W'.
    """
    X, Y = dataset.X, dataset.Y
    m = X.shape[1] + Y.shape[1]
    R = np.concatenate([data.x_rows[0][:m], data.target_rows[0][:m]], axis=1)
    A = np.hstack([X, Y])
    assert np.allclose(R.T @ R, A.T @ A, rtol=1e-12, atol=1e-12 * np.abs(A.T @ A).max())
    q = np.linalg.qr(np.hstack([A, rng.standard_normal((len(A), Z_compressed.shape[-1]))]))[0]
    return np.linalg.solve(R.T, A.T).T @ Z_compressed[0][:m] + q[:, m:] @ Z_compressed[0][m:]


def row_draw(state, data, config, Z):
    """The factor rows' row draw (stacked state, fresh shared dict) with the
    normals Z."""
    shared = {"compressed": False}
    factor_update(config)(state, data, config,
                          ScriptedNormal(lambda shape: Z.T[None].copy()), shared)
    assert getattr(state, FACTOR_FIELDS[config.variant]) is not None
    return shared


def test_statistics_draw_equals_row_draw_on_consistent_rows():
    # In exact arithmetic the statistics path is the row path on any rows Z
    # with its A'Z and Z'Z, so X'Omega, Y'Omega, Omega'Omega, D'D and D'Y agree.
    state, dataset, config = statistics_sweep_problem(50)
    data = ChainData([dataset], [config])
    by_stats = ModelState.stack([state])
    shared, Z = draw_factor_statistics(by_stats, data, config, np.random.default_rng(1))
    by_rows = ModelState.stack([state])
    row_shared = row_draw(by_rows, data, config,
                          consistent_rows(dataset, data, Z, np.random.default_rng(2)))
    omega = by_rows.Omega[0]
    target_rows, compressed = data.target_rows, shared["factor_rows"]
    lam, U = data.gram_eig[0][0], data.gram_eig[1][0]
    P = dataset.n_covariates
    pairs = [(dataset.X.T @ omega, U @ (np.sqrt(lam)[:, None] * compressed[0][:P])),
             (dataset.Y.T @ omega, target_rows[0].T @ compressed[0]),
             (omega.T @ omega, compressed[0].T @ compressed[0])]
    pairs += [(a[0], b[0]) for a, b in zip(gibbs._design(by_rows, data, config, row_shared)[2:],
                                           gibbs._design(by_stats, data, config, shared)[2:])]
    for rows, stats in pairs:
        assert np.allclose(stats, rows, rtol=0.0, atol=1e-11 * np.abs(rows).max())


def _T(a):
    return a.swapaxes(-1, -2)


def factor_statistics(state, data, shared, field):
    """X'F, Y'F and F'F of each chain for the factor rows F (Omega or H),
    from the state's N rows or from a statistics draw's compressed rows."""
    F = getattr(state, field)
    if F is not None:
        return _T(data.X) @ F, _T(data.Y) @ F, _T(F) @ F
    F = shared["factor_rows"]
    return _T(data.x_rows) @ F, _T(data.target_rows) @ F, _T(F) @ F


@pytest.mark.parametrize("chi2_by_normals", [512, 0])
@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE])
def test_statistics_path_matches_row_path_in_distribution(monkeypatch, variant, chi2_by_normals):
    # 20,000 stacked copies of one state draw the factor rows (Omega, or H
    # for independent noise) by each path. Every entry of X'F, Y'F and F'F
    # agrees in mean and variance (two-sample z below 4.5). N - P - K = 5,
    # so the Bartlett draw of W has few degrees of freedom; its chi^2
    # variates come from normals or, with the threshold at 0, from a Gamma
    # draw.
    monkeypatch.setattr(gibbs, "_CHI2_BY_NORMALS", chi2_by_normals)
    state, dataset, config = sweep_problem(variant, seed=51, N=10, P=3, K=2, S1=2)
    update = factor_update(config)
    field = FACTOR_FIELDS[variant]
    C = 20_000
    data = ChainData([dataset] * C, [config] * C)
    assert data.target_rows is not None
    draws = []
    for seed, omega_rows in ((1, True), (2, False)):
        stacked, shared = ModelState.stack([state] * C), {"compressed": not omega_rows}
        update(stacked, data, config, ChainStreams(np.random.default_rng(seed).spawn(C)), shared)
        assert (getattr(stacked, field) is not None) == omega_rows
        draws.append(np.concatenate([s.reshape(C, -1) for s in
                                     factor_statistics(stacked, data, shared, field)], axis=1))
    rows, stats = draws
    for values in (lambda d: d, lambda d: (d - d.mean(axis=0))**2):
        a, b = values(rows), values(stats)
        z = (a.mean(axis=0) - b.mean(axis=0)) / np.sqrt((a.var(axis=0) + b.var(axis=0)) / C)
        assert np.max(np.abs(z)) < 4.5, z


@pytest.mark.parametrize("case", ["p_above_n", "few_rows", "duplicate_columns",
                                  "duplicate_targets", "regular"])
@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                     Variant.NO_NOISE])
def test_chain_data_has_no_factor_where_it_would_fail(variant, case):
    # N - P - K < S (P > N included), collinear columns of X and a singular
    # Schur complement leave target_rows None, so a sweep asked for
    # statistics works in the N data rows. S is the rank of the variant's
    # factor rows: S1 = 2 for latent noise, S2 = 3 for independent noise
    # (its few-rows case has N - P - K = S1) and none for no noise.
    S = {Variant.LATENT_NOISE: 2, Variant.INDEPENDENT_NOISE: 3}.get(variant, 0)
    N, P = {"p_above_n": (12, 20), "few_rows": (4 + 4 + S - 1, 4)}.get(case, (40, 4))
    _, dataset, config = sweep_problem(variant, seed=52, N=N, P=P, K=4)
    if variant is Variant.INDEPENDENT_NOISE:
        config = replace(config, noise_rank=3)
    state = sample_prior(config, Dims(N, P, 4, 2), np.random.default_rng(52))
    X, Y = dataset.X.copy(), dataset.Y.copy()
    if case == "duplicate_columns":
        X[:, 1] = X[:, 0]
    if case == "duplicate_targets":
        Y[:, 1] = Y[:, 0]
    data = ChainData([Dataset(X=X, Y=Y)], [config])
    assert (data.target_rows is None) == (case != "regular")
    stacked, stats = ModelState.stack([state]), RunStats()
    gibbs.gibbs_sweep(stacked, data, config, ChainStreams([np.random.default_rng(0)]),
                      stats=stats)
    assert stats.omega_row_sweeps == (case != "regular")
    if variant in FACTOR_FIELDS:
        rows = getattr(stacked, FACTOR_FIELDS[variant])
        assert (rows is None) if case == "regular" else rows.shape == (1, N, S)


def design_and_coefficients(state, dataset, variant):
    """[X Psi (+ Omega) | H] and [Gamma; Lambda], built from the state's fields."""
    Z = dataset.X @ state.Psi
    if variant is Variant.LATENT_NOISE:
        Z = Z + state.Omega
    if variant is Variant.INDEPENDENT_NOISE:
        return np.hstack([Z, state.H]), np.vstack([state.Gamma, state.Lambda])
    return Z, state.Gamma


def test_sigma_sums_the_residual_of_a_near_exact_fit_directly():
    # Targets 0 and 1 fit to 1e-7, so their expanded y'y - 2 b'D'y + b'D'D b
    # would lose most digits to cancellation; targets 2 and 3 keep unit noise.
    # The design D is X Psi + Omega for latent noise and [X Psi | H] for
    # independent noise.
    # A negligible b_sigma makes the drawn rate half the sum of squares itself.
    for variant in (Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE):
        state, dataset, config = sweep_problem(variant, N=200, K=4)
        config = replace(config, b_sigma=1e-30)
        rng = np.random.default_rng(31)
        D, B = design_and_coefficients(state, dataset, variant)
        noise_sd = np.array([1e-7, 1e-7, 1.0, 1.0])
        Y = D @ B + rng.standard_normal(dataset.Y.shape) * noise_sd
        dataset = Dataset(X=dataset.X, Y=Y)
        state = replace(state, sigma_sq=noise_sd**2)

        shared: dict = {}
        stacked, data = ModelState.stack([state]), ChainData([dataset], [config])
        update_gamma(stacked, data, config, ChainStreams([np.random.default_rng(6)]), shared)
        state = stacked.chain(0)
        D, B = design_and_coefficients(state, dataset, variant)
        yty = (Y**2).sum(axis=0)
        direct = ((Y - D @ B)**2).sum(axis=0)
        expanded = yty - 2.0 * (B * (D.T @ Y)).sum(axis=0) + (B * (D.T @ D @ B)).sum(axis=0)
        rel = np.abs(expanded - direct) / direct
        assert np.all(rel[:2] > 1e-6) and np.all(rel[2:] < 1e-12), variant

        update_sigma(stacked, data, config, ChainStreams([np.random.default_rng(7)]), shared)
        drawn = stacked.chain(0)
        rate = config.b_sigma + 0.5 * direct
        precision = np.random.default_rng(7).gamma(config.a_sigma + 0.5 * dataset.n_samples,
                                                    1.0 / rate)
        assert np.allclose(drawn.sigma_sq, 1.0 / precision, rtol=1e-10, atol=0.0), variant


def test_sigma_sums_a_near_exact_residual_in_the_compressed_rows():
    # The same near-exact fit, with Omega drawn as statistics: the sums come
    # from the compressed residual ||R u_k - G v_k||^2 + v_k' W v_k, checked
    # against the residual over rows Z consistent with the draw.
    state, dataset, config = statistics_sweep_problem(53, N=200, K=4)
    # A negligible b_sigma makes the drawn rate half the sum of squares itself.
    config = replace(config, b_sigma=1e-30)
    rng = np.random.default_rng(31)
    D, B = design_and_coefficients(state, dataset, Variant.LATENT_NOISE)
    noise_sd = np.array([1e-7, 1e-7, 1.0, 1.0])
    dataset = Dataset(X=dataset.X, Y=D @ B + rng.standard_normal(dataset.Y.shape) * noise_sd)
    state = replace(state, sigma_sq=noise_sd**2)
    data = ChainData([dataset], [config])
    assert data.target_rows is not None

    stacked = ModelState.stack([state])
    shared, Z = draw_factor_statistics(stacked, data, config, np.random.default_rng(5))
    update_gamma(stacked, data, config, ChainStreams([np.random.default_rng(6)]), shared)
    rows = ModelState.stack([state])
    row_draw(rows, data, config, consistent_rows(dataset, data, Z, np.random.default_rng(2)))
    D = dataset.X @ state.Psi + rows.Omega[0]
    B, Y = stacked.Gamma[0], dataset.Y
    yty = (Y**2).sum(axis=0)
    direct = ((Y - D @ B)**2).sum(axis=0)
    _, _, dtd, dty = gibbs._design(stacked, data, config, shared)
    expanded = yty - 2.0 * (B * dty[0]).sum(axis=0) + (B * (dtd[0] @ B)).sum(axis=0)
    rel = np.abs(expanded - direct) / direct
    assert np.all(rel[:2] > 1e-6) and np.all(rel[2:] < 1e-10)

    # Both sums carry rounding error of about 1e-16 * |D| |b| / 1e-7 relative
    # per residual entry (measured: below 2e-9 on seeds 53-59), against
    # more than 1e-6 for the expanded sum.
    update_sigma(stacked, data, config, ScriptedGamma(), shared)
    assert np.allclose(stacked.sigma_sq[0], config.b_sigma + 0.5 * direct, rtol=1e-8, atol=0.0)


def test_no_noise_statistics_rows_give_the_data_rows_sums():
    # Without factor rows the compressed rows are R itself, with X Psi =
    # [lam^{1/2} U' Psi; 0], so D'D = Psi'X'X Psi, D'Y = Psi'X'Y and every
    # residual sum of squares equal their N-row values up to rounding.
    # Targets 0 and 1 fit to 1e-7, targets 2 and 3 keep unit noise. A
    # negligible b_sigma makes the drawn rate half the sum of squares itself.
    state, dataset, config = sweep_problem(Variant.NO_NOISE, seed=34, N=200, K=4)
    config = replace(config, b_sigma=1e-30)
    noise_sd = np.array([1e-7, 1e-7, 1.0, 1.0])
    rng = np.random.default_rng(35)
    Y = dataset.X @ state.Psi @ state.Gamma + rng.standard_normal(dataset.Y.shape) * noise_sd
    dataset, state = Dataset(X=dataset.X, Y=Y), replace(state, sigma_sq=noise_sd**2)
    data = ChainData([dataset], [config])
    P, K = dataset.n_covariates, dataset.n_targets
    assert data.target_rows.shape == (1, P + K, K)
    direct = ((Y - dataset.X @ state.Psi @ state.Gamma)**2).sum(axis=0)
    sums = []
    for omega_rows in (True, False):
        stacked, shared = ModelState.stack([state]), {"compressed": not omega_rows}
        D, _, dtd, dty = gibbs._design(stacked, data, config, shared)
        assert D.shape[-2] == (dataset.n_samples if omega_rows else P + K)
        update_sigma(stacked, data, config, ScriptedGamma(), shared)
        sums.append((dtd[0], dty[0], 2.0 * stacked.sigma_sq[0]))
    (dtd_rows, dty_rows, rss_rows), (dtd_stats, dty_stats, rss_stats) = sums
    assert np.allclose(dtd_stats, dtd_rows, rtol=0.0, atol=1e-13 * np.abs(dtd_rows).max())
    assert np.allclose(dty_stats, dty_rows, rtol=0.0, atol=1e-13 * np.abs(dty_rows).max())
    # The near-exact sums carry rounding error of about 1e-16 |y| / 1e-7
    # relative in either rows, the others far less.
    for rss in (rss_rows, rss_stats):
        assert np.allclose(rss[:2], direct[:2], rtol=1e-8, atol=0.0)
        assert np.allclose(rss[2:], direct[2:], rtol=1e-12, atol=0.0)



# Derandomized: on the statistics sweep a 1e3 shift costs the block factor
# digits (up to 7.4e-9 relative over 3,000 random shifted cases, against
# 5e-16 for the N-row sums), so a fixed set of cases keeps the gate from
# flaking.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(variant=st.sampled_from([Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                Variant.NO_NOISE]),
       P=st.integers(1, 4), K=st.integers(1, 4), S=st.integers(1, 3), spare=st.integers(0, 10),
       shift=st.sampled_from([0.0, 1e3]), scale=st.sampled_from([1e-8, 1.0, 1e8]),
       seed=st.integers(0, 2**16))
def test_sigma_rate_is_half_the_residual_sum_in_either_rows(variant, P, K, S, spare, shift,
                                                            scale, seed):
    # One sigma path for every variant, shape (N - P - K >= S, so the batch
    # has the block factor), column shift and scale: with scripted Gamma
    # draws the drawn sigma^2 is the rate b_sigma + ||Y - D B||^2 / 2 over
    # the N data rows on a row sweep, and over N rows consistent with the
    # factor draw on a statistics sweep. The state is a prior draw put in
    # the units of Y (Psi, Lambda, sigma^2 and sigma_omega^2 scaled with
    # it), so every scale is the unit problem; a negligible b_sigma, set
    # after the draw, makes the rate half the sum of squares itself. Over
    # N rows both sums are one direct sum, so they agree far closer than
    # 1e-8; there an expanded y'y - 2 b'D'y + b'D'D b misses by up to 8.5e-9
    # at a 1e3 shift (600 random cases).
    N = P + K + S + spare
    config = ModelConfig(variant=variant, rank=S, iterations=20, burn_in=10, thin=2,
                         **VARIANT_CONFIGS[variant])
    if variant is Variant.INDEPENDENT_NOISE:
        config = replace(config, noise_rank=S)
    rng = np.random.default_rng(seed)
    state = sample_prior(config, Dims(N, P, K, S), rng)
    X = rng.standard_normal((N, P))
    Y = X @ state.Psi @ state.Gamma + rng.standard_normal((N, K))
    dataset = Dataset(X=X + shift, Y=(Y + shift) * scale)
    state = replace(state, Psi=state.Psi * scale, sigma_sq=state.sigma_sq * scale**2,
                    Lambda=None if state.Lambda is None else state.Lambda * scale)
    config = replace(config, b_sigma=1e-30)
    if variant is Variant.LATENT_NOISE:
        config = replace(config, sigma_omega_sq=config.sigma_omega_sq * scale**2)
    data = ChainData([dataset], [config])
    assert data.target_rows is not None
    field = FACTOR_FIELDS.get(variant)
    loadings = [update_gamma] + [gibbs.update_lambda] * (variant is Variant.INDEPENDENT_NOISE)

    for compressed in (False, True):
        stacked = ModelState.stack([state])
        if compressed and field:
            shared, Z = draw_factor_statistics(stacked, data, config, rng)
        else:
            shared = {"compressed": compressed}
            if field:
                factor_update(config)(stacked, data, config, ChainStreams([rng]), shared)
        for update in loadings:
            update(stacked, data, config, ChainStreams([rng]), shared)
        update_sigma(stacked, data, config, ScriptedGamma(), shared)
        drawn = stacked.chain(0)
        if compressed and field:
            rows = ModelState.stack([state])
            row_draw(rows, data, config, consistent_rows(dataset, data, Z, rng))
            drawn = replace(drawn, **{field: getattr(rows, field)[0]})
        D, B = design_and_coefficients(drawn, dataset, variant)
        rate = config.b_sigma + 0.5 * ((dataset.Y - D @ B)**2).sum(axis=0)
        assert np.allclose(drawn.sigma_sq, rate, rtol=1e-8 if compressed else 1e-12,
                           atol=0.0), compressed


# ---------------------------------------------------------------------------
# chain driver


def test_run_chain_schedule_retains_expected_count():
    state, dataset, config, _ = make_problem(18, N=25, P=3, K=3, S1=2)
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=2, sigma_omega_sq=1.0,
                         iterations=1000, burn_in=500, thin=10, seed=4)
    trace = run_chain(dataset, config)
    assert len(trace.samples.states) == 50
    # theta_mean recomputable from the retained states
    recomputed = np.mean([s.Psi @ s.Gamma for s in trace.samples.states], axis=0)
    assert np.allclose(trace.samples.theta_mean, recomputed, atol=1e-12)
    assert all(v >= 0 for v in trace.wall_time_seconds.values())


LATENT_BUCKETS = {"setup", "psi", "omega", "gamma", "phi", "delta", "sigma"}


@pytest.mark.parametrize("variant, psi_update, buckets", [
    (Variant.LATENT_NOISE, "fast", LATENT_BUCKETS),
    (Variant.LATENT_NOISE, "naive", LATENT_BUCKETS),
    (Variant.INDEPENDENT_NOISE, "fast",
     {"setup", "psi", "h", "gamma", "lambda", "phi", "delta", "sigma"}),
    (Variant.NO_NOISE, "fast", {"setup", "psi", "gamma", "phi", "delta", "sigma"}),
    (Variant.NULL, "fast", set()),
])
def test_run_chain_times_each_variant_in_its_buckets(variant, psi_update, buckets):
    # The fit manifest's wall_time_by_update carries these names: acceptance
    # criterion 4 reads "psi", and perfbench matches each bucket to the spans
    # of its updates.
    _, dataset, _, _ = make_problem(24, N=15, P=3, K=3, S1=2)
    config = ModelConfig(variant=variant, rank=2, iterations=4, burn_in=2, thin=1,
                         psi_update=psi_update, **VARIANT_CONFIGS.get(variant, {}))
    assert set(run_chain(dataset, config).wall_time_seconds) == buckets


def test_run_chain_null_variant_gives_zero_theta():
    _, dataset, _, _ = make_problem(19, N=12, P=3, K=3, S1=2)
    config = ModelConfig(variant=Variant.NULL, rank=2, iterations=40, burn_in=20,
                         thin=2, seed=9)
    trace = run_chain(dataset, config)
    assert np.all(trace.samples.theta_mean == 0.0)
    assert len(trace.samples.states) == 10


def test_run_chain_is_deterministic_given_seed():
    _, dataset, _, _ = make_problem(20, N=30, P=4, K=3, S1=2)
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=2, latent_snr=0.2,
                         iterations=60, burn_in=20, thin=4, seed=123)
    a = run_chain(dataset, config)
    b = run_chain(dataset, config)
    assert np.array_equal(a.samples.theta_mean, b.samples.theta_mean)
    assert np.array_equal(a.samples.states[-1].sigma_sq, b.samples.states[-1].sigma_sq)


def test_run_chain_other_variants_smoke():
    _, dataset, _, _ = make_problem(21, N=40, P=4, K=5, S1=2)
    for config in (
        ModelConfig(variant=Variant.NO_NOISE, rank=2, iterations=30, burn_in=10,
                    thin=2, seed=1),
        ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=2, noise_rank=2,
                    iterations=30, burn_in=10, thin=2, seed=1),
    ):
        trace = run_chain(dataset, config)
        assert len(trace.samples.states) == 10
        assert np.all(np.isfinite(trace.samples.theta_mean))


def test_run_chain_attaches_iteration_index_to_failures(monkeypatch):
    _, dataset, _, _ = make_problem(22, N=10, P=3, K=3, S1=2)
    config = ModelConfig(variant=Variant.LATENT_NOISE, rank=2, sigma_omega_sq=1.0,
                         iterations=5, burn_in=1, thin=1, seed=0)

    calls = {"n": 0}

    def explode(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise NumericalError("synthetic failure")
        return update_gamma(*args, **kwargs)

    monkeypatch.setattr(gibbs, "update_gamma", explode)
    with pytest.raises(NumericalError, match=r"iteration 3"):
        run_chain(dataset, config)


def test_run_chain_validation_errors():
    _, dataset, _, _ = make_problem(23, N=10, P=3, K=3, S1=2)
    with pytest.raises(ConfigurationError):
        run_chain(dataset, ModelConfig(variant=Variant.LATENT_NOISE, rank=2,
                                       sigma_omega_sq=0.0, iterations=10,
                                       burn_in=2, thin=1))
    with pytest.raises(ConfigurationError):
        run_chain(dataset, ModelConfig(variant=Variant.NO_NOISE, rank=2,
                                       iterations=10, burn_in=8, thin=5))


# ---------------------------------------------------------------------------
# factor rows drawn after the run


def factor_rows_oracle(state, dataset, config):
    """Exact mean (N, S) and shared covariance (S, S) of the rows of Omega
    (by ``omega_conditional_moments``) or of H (dense: rows are independent
    Bayesian linear models with design Lambda')."""
    if config.variant is Variant.LATENT_NOISE:
        return omega_conditional_moments(state, dataset, config)
    resid = dataset.Y - dataset.X @ state.Psi @ state.Gamma
    sigma_inv = np.diag(1.0 / state.sigma_sq)
    cov = np.linalg.inv(np.diag(np.cumprod(state.delta_noise))
                        + state.Lambda @ sigma_inv @ state.Lambda.T)
    return resid @ sigma_inv @ state.Lambda.T @ cov, cov


@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE])
def test_drawn_factor_rows_have_their_conditional_moments(variant):
    # M retained copies of one state: their rows are M independent draws
    # from the one full conditional, whose moments are known exactly.
    if variant is Variant.LATENT_NOISE:
        state, dataset, config, _ = make_problem(11, N=5, K=3, S1=2)
    else:
        state, dataset, config = independent_noise_problem(40, N=5)
    field = {Variant.LATENT_NOISE: "Omega", Variant.INDEPENDENT_NOISE: "H"}[variant]
    M = 4000
    samples = model.PosteriorSamples(states=(state,) * M, theta_mean=state.theta,
                                     config=config)
    draws = np.stack([getattr(s, field) for s in
                      gibbs.draw_factor_rows(samples, dataset).states])
    mean, cov = factor_rows_oracle(state, dataset, config)
    z_mean = (draws.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / M)
    assert np.max(np.abs(z_mean)) < 4.5, z_mean
    # Centred by the exact mean, the rows' products estimate cov, each entry
    # with variance (C_ii C_jj + C_ij^2) / (M N).
    centred = (draws - mean).reshape(-1, cov.shape[0])
    emp = centred.T @ centred / len(centred)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / len(centred))
    assert np.max(np.abs((emp - cov) / se)) < 4.5, (emp, cov)


def test_drawing_factor_rows_leaves_other_variants_and_the_given_samples_alone():
    _, dataset, _, _ = make_problem(27, N=30, P=4, K=3, S1=2)
    config = ModelConfig(variant=Variant.NO_NOISE, rank=2, iterations=20, burn_in=10,
                         thin=2, seed=5)
    samples = run_chain(dataset, config).samples
    assert gibbs.draw_factor_rows(samples, dataset) is samples
    config = replace(config, variant=Variant.LATENT_NOISE, sigma_omega_sq=1.0)
    samples = run_chain(dataset, config).samples
    filled = gibbs.draw_factor_rows(samples, dataset)
    assert all(s.Omega is None for s in samples.states)
    for given, drawn in zip(samples.states, filled.states):
        assert drawn.Psi is given.Psi and drawn.Omega.shape == (30, 2)
    assert filled.theta_mean is samples.theta_mean


class CountingChainData(ChainData):
    """A ChainData whose X and Y count the matrix products made with them
    once it is built: the passes over the data rows after setup."""

    def __init__(self, datasets, configs):
        super().__init__(datasets, configs)
        self.X, self.Y = self.X.view(CountingMatmul), self.Y.view(CountingMatmul)
        CountingMatmul.calls = 0


@pytest.mark.parametrize("variant", [Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE])
def test_chains_with_the_block_factor_make_no_pass_over_the_data_rows(monkeypatch, variant):
    # Every sweep of a batch with the block factor works in its compressed
    # rows, retained or not, in run_chain as in run_chains.
    _, dataset, config = sweep_problem(variant)
    config = replace(config, iterations=60, burn_in=20, thin=4)
    monkeypatch.setattr(gibbs, "ChainData", CountingChainData)
    trace = run_chain(dataset, config)
    assert CountingMatmul.calls == 0
    assert trace.stats.sweeps == 60 and trace.stats.omega_row_sweeps == 0
    stats = RunStats()
    fits = [(dataset, replace(config, seed=seed)) for seed in range(3)]
    assert gibbs.run_chains(fits, stats).errors == (None,) * 3
    assert CountingMatmul.calls == 0
    assert stats.sweeps == 60 and stats.omega_row_sweeps == 0
