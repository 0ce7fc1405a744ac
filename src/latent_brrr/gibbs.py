"""Full conditional updates and the chain driver.

The latent-noise sweep is partially collapsed: Psi is drawn with the latent
factors Omega integrated out analytically, then Omega is re-imputed, so the
pair (Psi, Omega) is a valid blocked update. The fixed cycle is

    Psi (Omega marginalized) -> Omega -> Gamma -> phi_gamma -> delta -> sigma_sq

Independent noise draws H in Omega's place and Lambda after Gamma, with its
own phi and delta; no noise has neither Omega nor H. ``gibbs_sweep`` writes
each variant's cycle once, as a list of (timing bucket, update, arguments)
steps run in one timed loop. It builds the list on each call from this
module's ``update_*`` names, so fault injection and tracing that replace one
of them reach the sweep.

Two interchangeable Psi samplers are provided. The naive one factorizes the
dense (P*S1, P*S1) joint precision directly, costing O(P^3 S1^3). The fast
one whitens Psi by the prior scales, after which the joint precision becomes
I + A_tilde (x) X'X; eigendecomposing the S1 x S1 matrix A_tilde and the
P x P Gram matrix diagonalizes the system, so a draw costs O(P^3 + S1^3)
plus matrix products.

Every variant's mean is D B (``model.mean_design``, ``mean_coefficients``)
with D = [X Psi (+ Omega) | H] and B = [Gamma; Lambda]; H and Lambda exist
only for independent noise. The data enter through the statistics cached on
the Dataset (X'X, its eigendecomposition, X'Y, y'y) and one pass over X per
sweep, forming X Psi after the Psi draw; independent noise adds X'H for its
Psi linear term (X'Y - (X'H) Lambda) M^{-1} G'. Omega and H form their
linear term as B Sigma^{-1} Y' - (B Sigma^{-1} Gamma') (X Psi)'. The Gamma
step forms D, D'D and D'Y, from which Gamma (Z'Y - (Z'H) Lambda, Z = X Psi
(+ Omega)), Lambda (H'Y - (H'Z) Gamma) and sigma read, with target k's
residual sum of squares

    rss_k = y_k'y_k - 2 b_k' D'y_k + b_k' D'D b_k.

The cross-products carry rounding error of order 1e-16 * sqrt(N) * y_k'y_k,
and the sum cancels it into rss_k, so the relative error grows like
sqrt(N) * y_k'y_k / rss_k: measured against an 80-bit reference, at most
about 2e-16 * sqrt(N) * y_k'y_k / rss_k. Where rss_k falls below
1e-3 * y_k'y_k, that target's sum is recomputed from the residual
y_k - D b_k itself (an N x S product). The bound keeps the relative
error of the expanded sum below 1e-10 for N up to about 2e5 (measured:
4e-12 at N = 5000, 1.5e-11 at N = 5e5); fits with rss_k that small are
rare, and the recomputation is cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.model import (
    Dataset,
    Dims,
    ModelConfig,
    ModelState,
    PosteriorSamples,
    Variant,
    marginal_covariance,
    mean_coefficients,
    mean_design,
    resolve_sigma_omega,
    sample_prior,
)


@dataclass(frozen=True)
class ChainTrace:
    """Retained samples plus per-update cumulative wall time in seconds."""

    samples: PosteriorSamples
    wall_time_seconds: dict[str, float]


# ---------------------------------------------------------------------------
# numerics helpers


def _chol(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed in {what}") from exc


def _eigh(matrix: np.ndarray, what: str):
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed in {what}") from exc


def _inverse_factor(chol_lower: np.ndarray):
    """L^{-1} and L^{-T} for the lower Cholesky factor L of a precision (or a
    stack of factors).

    At the S1 x S1 sizes of the Omega and H steps one small inverse and two
    products cost less than two triangular solves would. For the naive Psi
    step's dense (P*S1, P*S1) factor the inverse costs several times the
    Cholesky factorization, still within that step's O(P^3 S1^3).
    """
    inv_lower = np.linalg.inv(chol_lower)
    return inv_lower, np.swapaxes(inv_lower, -1, -2)


def _draw_from_precision(chol_lower: np.ndarray, lin: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw L^{-T} (L^{-1} lin + z) ~ N(P^{-1} lin, P^{-1}) given the lower
    Cholesky factor L of P.

    ``lin`` may carry multiple right-hand sides as columns; each column gets
    an independent draw.
    """
    inv_lower, inv_upper = _inverse_factor(chol_lower)
    return inv_upper @ (inv_lower @ lin + rng.standard_normal(lin.shape))


def _precision_moments(chol_lower: np.ndarray, lin: np.ndarray):
    """Mean P^{-1} lin and covariance P^{-1} = L^{-T} L^{-1} of N(P^{-1} lin, P^{-1}),
    given the lower Cholesky factor L of P (or a stack of factors)."""
    inv_lower, inv_upper = _inverse_factor(chol_lower)
    return inv_upper @ (inv_lower @ lin), inv_upper @ inv_lower


# ---------------------------------------------------------------------------
# products shared within a sweep


def _x_psi(state: ModelState, dataset: Dataset, shared: dict | None) -> np.ndarray:
    """X Psi, formed once per Psi draw when the sweep passes ``shared``."""
    if shared is not None and shared.get("psi") is state.Psi:
        return shared["x_psi"]
    x_psi = dataset.X @ state.Psi
    if shared is not None:
        shared["psi"], shared["x_psi"] = state.Psi, x_psi
    return x_psi


def _design(state: ModelState, dataset: Dataset, config: ModelConfig,
            shared: dict | None = None):
    """The design D of ``model.mean_design`` and the cross-products D'D, D'Y.

    They are formed once per design (X Psi, Omega, H): the Gamma step forms
    them and leaves them in ``shared``, and the Lambda and sigma steps, which
    change no column of D, read them from there.
    """
    key = (state.Psi, state.Omega, state.H)
    cached = None if shared is None else shared.get("design")
    if cached is None or any(a is not b for a, b in zip(cached[0], key)):
        D = mean_design(state, _x_psi(state, dataset, shared), config)
        cached = key, D, D.T @ D, D.T @ dataset.Y
        if shared is not None:
            shared["design"] = cached
    return cached[1:]


# ---------------------------------------------------------------------------
# Gamma (and Lambda) updates


def _ridge_system(gram, lin_all, prior_prec_cols, sigma_sq, what):
    """Factored Gaussian full conditionals of independent regression columns.

    With design X* and targets y_i, ``gram`` = X*'X* and column i of
    ``lin_all`` = X*'y_i. Column i follows N(S_i X*'y_i / s_i, S_i) with
    S_i^{-1} = diag(prior_prec_cols[:, i]) + X*'X* / s_i. Returns the lower
    Cholesky factors of all S_i^{-1} from one batched call, stacked
    (K, S1, S1), and the linear terms X*'y_i / s_i, stacked (K, S1, 1).
    """
    S1 = prior_prec_cols.shape[0]
    prec = gram[None, :, :] / sigma_sq[:, None, None]
    idx = np.arange(S1)
    prec[:, idx, idx] += prior_prec_cols.T
    if not np.all(np.isfinite(prec)):
        raise NumericalError(f"non-finite precision in {what}")
    return _chol(prec, what), (lin_all / sigma_sq[None, :]).T[:, :, None]


def _draw_ridge_columns(L, lin, rng):
    """Draw every column of a ``_ridge_system`` as L^{-T} (L^{-1} lin + z); (S1, K)."""
    w = np.linalg.solve(L, lin) + rng.standard_normal(lin.shape)
    return np.linalg.solve(np.transpose(L, (0, 2, 1)), w)[:, :, 0].T


def _block_system(state, dataset, config, shared, block, prior_prec_cols, what):
    """Ridge system of one block of B's rows given the other: Gamma (block 0,
    rows :S1) or Lambda (block 1, rows S1:).

    Its design is the block's columns D_b of D, and its linear term
    D_b'Y - (D_b'D_r) B_r over the other block r: Z'Y - (Z'H) Lambda for
    Gamma, with Z = D[:, :S1], and H'Y - (H'Z) Gamma for Lambda.
    """
    _, dtd, dty = _design(state, dataset, config, shared)
    S1 = state.Gamma.shape[0]
    rows, rest = slice(None, S1), slice(S1, None)
    if block:
        rows, rest = rest, rows
    lin = dty[rows] - dtd[rows, rest] @ mean_coefficients(state, config)[rest]
    return _ridge_system(dtd[rows, rows], lin, prior_prec_cols, state.sigma_sq, what)


def update_gamma(state: ModelState, dataset: Dataset, config: ModelConfig,
                 rng: np.random.Generator, shared: dict | None = None) -> ModelState:
    """Draw the loading matrix Gamma column by column (targets independent).

    With ``shared``, X Psi is taken from it and the design's D'D and D'Y are
    left there for update_lambda and update_sigma.
    """
    Gamma = _draw_ridge_columns(*_block_system(
        state, dataset, config, shared, 0, state.phi_gamma * state.tau[:, None],
        "gamma update"), rng)
    return replace(state, Gamma=Gamma)


def gamma_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig):
    """Exact mean (S1, K) and covariance (K, S1, S1) of the Gamma conditional."""
    means, covs = _precision_moments(*_block_system(
        state, dataset, config, None, 0, state.phi_gamma * state.tau[:, None],
        "gamma moments"))
    return means[:, :, 0].T, covs


def update_lambda(state: ModelState, dataset: Dataset, config: ModelConfig,
                  rng: np.random.Generator, shared: dict | None = None) -> ModelState:
    """Draw the independent-noise loadings Lambda given the factors H.

    A state without the noise stack raises StateError (via ``tau_noise``).
    """
    Lam = _draw_ridge_columns(*_block_system(
        state, dataset, config, shared, 1, state.phi_lambda * state.tau_noise[:, None],
        "lambda update"), rng)
    return replace(state, Lambda=Lam)


# ---------------------------------------------------------------------------
# Psi updates (naive dense and fast reparameterized)


def _psi_linear_terms(state, dataset, config):
    """Coupling matrix A = G M^{-1} G' and linear term (X'Y - (X'H) Lambda) M^{-1} G'.

    M is the K x K noise covariance of the Psi regression. For the
    latent-noise variant Omega is integrated out, which inflates it to
    sigma_omega_sq (G*)'(G*) + diag(sigma_sq); otherwise it is diag(sigma_sq).
    The regression target is Y, less H Lambda for independent noise; with
    X'Y cached on the dataset the linear term costs O(P K S1), plus the
    N x S2 product X'H for independent noise.
    """
    if config.variant is Variant.LATENT_NOISE:
        M = marginal_covariance(state, config)
    else:
        M = np.diag(state.sigma_sq)
    try:
        minv_gt = np.linalg.solve(M, state.Gamma.T)       # (K, S1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular marginal covariance in psi update") from exc
    A = state.Gamma @ minv_gt
    A = 0.5 * (A + A.T)
    xty = dataset.xty
    if config.variant is Variant.INDEPENDENT_NOISE:
        xty = xty - (dataset.X.T @ state.H) @ state.Lambda
    return A, xty @ minv_gt                               # (P, S1)


def _psi_naive_system(state, dataset, config):
    """Lower Cholesky factor of the dense (P*S1, P*S1) Psi precision
    diag_h(tau_h I_P) + A (x) X'X, and the linear term vec(X' Y M^{-1} G')."""
    A, lin = _psi_linear_terms(state, dataset, config)
    P = state.Psi.shape[0]
    prec = np.kron(A, dataset.gram) + np.kron(np.diag(state.tau), np.eye(P))
    return _chol(prec, "psi update (naive)"), lin.ravel(order="F")


def update_psi_naive(state: ModelState, dataset: Dataset, config: ModelConfig,
                     rng: np.random.Generator) -> ModelState:
    """Draw vec(Psi) from one dense (P*S1, P*S1) Gaussian system."""
    draw = _draw_from_precision(*_psi_naive_system(state, dataset, config), rng)
    return replace(state, Psi=draw.reshape(state.Psi.shape, order="F"))


def _psi_fast_system(state, dataset, config):
    """The prior-whitened, doubly-diagonalized Psi system.

    After scaling column h of Psi by tau_h^{1/2} the joint precision is
    I + A_tilde (x) X'X; rotating by the eigenvectors U_x of X'X and U_a of
    A_tilde makes it diagonal with entries ``denom`` = 1 + lam_X[p] lam_A[h],
    and the rotated linear term is C. Psi = (U_x W U_a') tau^{-1/2} where W
    has independent entries N(C / denom, 1 / denom). Returns
    (U_x, U_a, tau^{-1/2}, denom, C).
    """
    A, lin = _psi_linear_terms(state, dataset, config)
    t_isqrt = 1.0 / np.sqrt(state.tau)
    A_tilde = A * np.outer(t_isqrt, t_isqrt)
    lam_a, U_a = _eigh(A_tilde, "psi update (coupling matrix)")
    lam_x, U_x = dataset.gram_eig
    # Both matrices are PSD; clip eigenvalue noise so the diagonal stays >= 1.
    denom = 1.0 + np.outer(np.maximum(lam_x, 0.0), np.maximum(lam_a, 0.0))
    C = U_x.T @ (lin * t_isqrt[None, :]) @ U_a
    return U_x, U_a, t_isqrt, denom, C


def update_psi_fast(state: ModelState, dataset: Dataset, config: ModelConfig,
                    rng: np.random.Generator) -> ModelState:
    """Draw Psi through the prior-whitened, doubly-diagonalized system."""
    U_x, U_a, t_isqrt, denom, C = _psi_fast_system(state, dataset, config)
    W = C / denom + rng.standard_normal(denom.shape) / np.sqrt(denom)
    return replace(state, Psi=(U_x @ W @ U_a.T) * t_isqrt[None, :])


def psi_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig,
                            method: str = "fast"):
    """Mean and per-entry variance (both (P, S1)) of the Psi full conditional.

    Both methods target the identical distribution and use the same system
    as the matching update; this is the hook the equivalence tests use.
    """
    shape = state.Psi.shape
    if method == "naive":
        mean, cov = _precision_moments(*_psi_naive_system(state, dataset, config))
        return mean.reshape(shape, order="F"), np.diag(cov).reshape(shape, order="F")
    if method == "fast":
        U_x, U_a, t_isqrt, denom, C = _psi_fast_system(state, dataset, config)
        mean = (U_x @ (C / denom) @ U_a.T) * t_isqrt[None, :]
        var = ((U_x**2) @ (1.0 / denom) @ (U_a**2).T) * (t_isqrt**2)[None, :]
        return mean, var
    raise ConfigurationError(f"unknown psi moment method {method!r}")


# ---------------------------------------------------------------------------
# latent factor updates


def _factor_rows_system(loadings, prior_prec, state, dataset, shared):
    """Shared precision (S, S) and linear terms (S, N) of the factor rows F in
    Y - X Psi Gamma = F B + E, B = ``loadings`` (S, K), F rows ~ N(0, diag(1/prior_prec)).

    The linear term B Sigma^{-1} (Y - X Psi Gamma)' is formed as
    B Sigma^{-1} Y' - (B Sigma^{-1} Gamma') (X Psi)', so no N x K residual is built.
    """
    bs = loadings * (1.0 / state.sigma_sq)[None, :]         # B Sigma^{-1}
    prec = np.diag(prior_prec) + bs @ loadings.T
    lin = bs @ dataset.Y.T - (bs @ state.Gamma.T) @ _x_psi(state, dataset, shared).T
    return prec, lin


def _omega_system(state, dataset, config, shared=None):
    return _factor_rows_system(state.Gamma, state.tau / config.sigma_omega_sq,
                               state, dataset, shared)


def update_omega(state: ModelState, dataset: Dataset, config: ModelConfig,
                 rng: np.random.Generator, shared: dict | None = None) -> ModelState:
    """Draw the latent-noise rows; all rows share one S1 x S1 posterior covariance."""
    if config.variant is not Variant.LATENT_NOISE:
        raise ConfigurationError("omega update applies to the latent-noise variant")
    if not config.sigma_omega_sq or config.sigma_omega_sq <= 0:
        raise ConfigurationError("sampling Omega requires sigma_omega_sq > 0")
    prec, lin = _omega_system(state, dataset, config, shared)
    draws = _draw_from_precision(_chol(prec, "omega update"), lin, rng)
    return replace(state, Omega=draws.T)


def omega_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig):
    """Exact mean (N, S1) and shared covariance (S1, S1) of the Omega rows."""
    prec, lin = _omega_system(state, dataset, config)
    mean, cov = _precision_moments(_chol(prec, "omega moments"), lin)
    return mean.T, cov


def update_h(state: ModelState, dataset: Dataset, config: ModelConfig,
             rng: np.random.Generator, shared: dict | None = None) -> ModelState:
    """Draw the independent-noise factor rows (unit-variance prior scale).

    A state without the noise stack raises StateError (via ``tau_noise``).
    """
    prec, lin = _factor_rows_system(state.Lambda, state.tau_noise, state, dataset, shared)
    draws = _draw_from_precision(_chol(prec, "H update"), lin, rng)
    return replace(state, H=draws.T)


# ---------------------------------------------------------------------------
# shrinkage and noise hyperparameter updates


def update_phi_gamma(state: ModelState, config: ModelConfig,
                     rng: np.random.Generator) -> ModelState:
    """Local shrinkage: phi_hj ~ Ga((nu+1)/2, (nu + tau_h gamma_hj^2)/2)."""
    rate = 0.5 * (config.nu + state.tau[:, None] * state.Gamma**2)
    phi = rng.gamma((config.nu + 1.0) / 2.0, 1.0 / rate)
    return replace(state, phi_gamma=phi)


def update_phi_lambda(state: ModelState, config: ModelConfig,
                      rng: np.random.Generator) -> ModelState:
    rate = 0.5 * (config.nu + state.tau_noise[:, None] * state.Lambda**2)
    phi = rng.gamma((config.nu + 1.0) / 2.0, 1.0 / rate)
    return replace(state, phi_lambda=phi)


def _draw_mgp_delta(delta: np.ndarray, quads: np.ndarray, count: int,
                    a1: float, a2: float, rng: np.random.Generator) -> np.ndarray:
    """One conjugate sweep over the multiplicative-gamma increments.

    ``quads`` holds the per-component quadratic forms q_h and ``count`` the
    number of Gaussian entries shrunk by each tau_h. Increment l multiplies
    tau_h for every h >= l, so it is drawn from
    Ga(a + count * #[h >= l] / 2, 1 + sum_{h>=l} tau_h^(-l) q_h / 2) where
    tau_h^(-l) is the cumulative product with delta_l excluded.
    """
    delta = np.array(delta, dtype=float)
    S = delta.size
    for l in range(S):
        a = a1 if l == 0 else a2
        excl = delta.copy()
        excl[l] = 1.0
        tau_excl = np.cumprod(excl)
        shape = a + 0.5 * count * (S - l)
        rate = 1.0 + 0.5 * float(tau_excl[l:] @ quads[l:])
        if not np.isfinite(rate):
            raise NumericalError("non-finite rate in delta update")
        delta[l] = rng.gamma(shape, 1.0 / rate)
    return delta


def _delta_quads(state: ModelState, config: ModelConfig):
    """Quadratic forms and entry count entering the delta conditional."""
    quads = (state.phi_gamma * state.Gamma**2).sum(axis=1) + (state.Psi**2).sum(axis=0)
    count = state.Gamma.shape[1] + state.Psi.shape[0]
    if config.variant is Variant.LATENT_NOISE:
        quads = quads + (state.Omega**2).sum(axis=0) / config.sigma_omega_sq
        count += state.Omega.shape[0]
    return quads, count


def update_delta(state: ModelState, config: ModelConfig,
                 rng: np.random.Generator) -> ModelState:
    """Global shrinkage increments for the Gamma/Psi(/Omega) stack."""
    quads, count = _delta_quads(state, config)
    delta = _draw_mgp_delta(state.delta, quads, count, config.a1, config.a2, rng)
    return replace(state, delta=delta)


def update_delta_noise(state: ModelState, config: ModelConfig,
                       rng: np.random.Generator) -> ModelState:
    """Global shrinkage increments for the independent-noise H/Lambda stack."""
    quads = (state.phi_lambda * state.Lambda**2).sum(axis=1) + (state.H**2).sum(axis=0)
    count = state.Lambda.shape[1] + state.H.shape[0]
    delta = _draw_mgp_delta(state.delta_noise, quads, count, config.a1, config.a2, rng)
    return replace(state, delta_noise=delta)


# Below this fraction of y'y a target's expanded residual sum of squares is
# recomputed from the residual itself; see the module docstring.
_RSS_FALLBACK_RATIO = 1e-3


def update_sigma(state: ModelState, dataset: Dataset, config: ModelConfig,
                 rng: np.random.Generator, shared: dict | None = None) -> ModelState:
    """Conjugate update of the target-specific noise precisions, with each
    residual sum of squares of Y - D B taken from D'D and D'Y."""
    D, dtd, dty = _design(state, dataset, config, shared)
    B = mean_coefficients(state, config)
    yty = dataset.yty
    rss = yty - 2.0 * (B * dty).sum(axis=0) + (B * (dtd @ B)).sum(axis=0)
    low = np.flatnonzero(rss <= _RSS_FALLBACK_RATIO * yty)
    if low.size:
        rss[low] = ((dataset.Y[:, low] - D @ B[:, low])**2).sum(axis=0)
    rate = config.b_sigma + 0.5 * rss
    precision = rng.gamma(config.a_sigma + 0.5 * dataset.n_samples, 1.0 / rate)
    return replace(state, sigma_sq=1.0 / precision)


# ---------------------------------------------------------------------------
# sweep and chain driver


def _accumulate(timings, name, t0):
    if timings is not None:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0)


def gibbs_sweep(state: ModelState, dataset: Dataset, config: ModelConfig,
                rng: np.random.Generator, *, delta_step=None, timings=None) -> ModelState:
    """One full update cycle in the fixed order used by run_chain.

    The variant's cycle is a list of (timing bucket, update, arguments)
    steps, run in one loop that adds each step's wall time to its bucket;
    the null variant's list is empty. The list is built on each call from
    this module's global names, so a caller that replaces ``update_*`` here
    (fault injection, tracing) changes what the sweep calls. The updates
    share X Psi and the Gamma step's D'D and D'Y through one per-sweep dict.
    ``delta_step`` replaces the delta update when given (used by the
    sampler-validation harness for fault injection).
    """
    shared: dict = {}
    data, prior = (dataset, config, rng), (config, rng)
    fit = (*data, shared)
    draw_psi = update_psi_naive if config.psi_update == "naive" else update_psi_fast
    psi, gamma = ("psi", draw_psi, data), ("gamma", update_gamma, fit)
    phi, delta = ("phi", update_phi_gamma, prior), ("delta", delta_step or update_delta, prior)
    sigma = ("sigma", update_sigma, fit)
    if config.variant is Variant.LATENT_NOISE:
        steps = [psi, ("omega", update_omega, fit), gamma, phi, delta, sigma]
    elif config.variant is Variant.INDEPENDENT_NOISE:
        steps = [psi, ("h", update_h, fit), gamma, ("lambda", update_lambda, fit),
                 phi, ("phi", update_phi_lambda, prior),
                 delta, ("delta", update_delta_noise, prior), sigma]
    elif config.variant is Variant.NO_NOISE:
        steps = [psi, gamma, phi, delta, sigma]
    else:
        steps = []
    for bucket, update, args in steps:
        t0 = time.perf_counter()
        state = update(state, *args)
        _accumulate(timings, bucket, t0)
    return state


def run_chain(dataset: Dataset, config: ModelConfig) -> ChainTrace:
    """Run one Gibbs chain; deterministic given (dataset, config.seed).

    Retains every ``thin``-th post-burn-in state and the posterior mean of
    Theta = Psi Gamma over the retained states. Numerical failures are
    re-raised with the iteration index attached.
    """
    config = resolve_sigma_omega(config, dataset.X)
    if config.variant is Variant.LATENT_NOISE and not config.sigma_omega_sq > 0:
        raise ConfigurationError("fitting the latent-noise variant requires sigma_omega_sq > 0")
    n_retained = (config.iterations - config.burn_in) // config.thin
    if n_retained < 1:
        raise ConfigurationError("schedule retains no samples: (iterations - burn_in) // thin < 1")
    dims = Dims(dataset.n_samples, dataset.n_covariates, dataset.n_targets, config.rank)
    P, K = dataset.n_covariates, dataset.n_targets
    timings: dict[str, float] = {}
    rng = np.random.default_rng(config.seed)
    state = sample_prior(config, dims, rng)

    if config.variant is Variant.NULL:
        samples = PosteriorSamples(
            states=(state,) * n_retained, theta_mean=np.zeros((P, K)), config=config
        )
        return ChainTrace(samples=samples, wall_time_seconds=timings)

    # The data-only statistics are cached on the dataset; reading them here
    # times their one-time cost apart from the per-sweep updates, so the psi
    # bucket reflects pure per-call cost.
    t0 = time.perf_counter()
    for name in ("gram_eig" if config.psi_update == "fast" else "gram", "xty", "yty"):
        getattr(dataset, name)
    _accumulate(timings, "setup", t0)

    retained: list[ModelState] = []
    theta_sum = np.zeros((P, K))
    for it in range(1, config.iterations + 1):
        try:
            state = gibbs_sweep(state, dataset, config, rng, timings=timings)
        except NumericalError as exc:
            raise NumericalError(f"{exc} (iteration {it})") from exc
        if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
            retained.append(state)
            theta_sum += state.Psi @ state.Gamma

    samples = PosteriorSamples(
        states=tuple(retained),
        theta_mean=theta_sum / len(retained),
        config=config,
    )
    return ChainTrace(samples=samples, wall_time_seconds=timings)
