"""Full conditional updates and the chain driver.

The latent-noise sweep is partially collapsed: Psi is drawn with the latent
factors Omega integrated out analytically, then Omega is re-imputed, so the
pair (Psi, Omega) is a valid blocked update. The fixed cycle is

    Psi (Omega marginalized) -> Omega -> Gamma -> phi_gamma -> delta -> sigma_sq

Independent noise draws H in Omega's place and Lambda after Gamma, with its
own phi and delta; no noise has neither Omega nor H. ``gibbs_sweep`` writes
each variant's cycle once, as a list of (timing bucket, update) steps run
in one timed loop. It builds the list on each call from this module's
``update_*`` names, so fault injection and tracing that replace one of them
reach the sweep.

There is one state type, ``ModelState`` stacked along a leading axis of
C >= 1 chains, and one update signature, ``(state, data, config, streams,
shared)``: the state, its ``ChainData`` and ``ChainStreams`` (see
``latent_brrr.chains``), and the products shared within a sweep. Updates
replace the state's arrays and never write into them. A numerical failure
on any chain raises NumericalError where it occurs; ``run_chains``, which
advances fits of one shape together, is the one place that catches it, and
``run_chain`` is its one-chain case.

Two interchangeable Psi samplers are provided. The naive one factorizes the
dense (P*S1, P*S1) joint precision directly, costing O(P^3 S1^3). The fast
one whitens Psi by the prior scales, after which the joint precision becomes
I + A_tilde (x) X'X; eigendecomposing the S1 x S1 matrix A_tilde and the
P x P Gram matrix diagonalizes the system, so a draw costs O(P^3 + S1^3)
plus matrix products.

Every variant's mean is D B (``model.mean_design``, ``mean_coefficients``)
with D = [X Psi (+ Omega) | H] and B = [Gamma; Lambda]; H and Lambda exist
only for independent noise. The data enter through the statistics the
ChainData forms when it is built (X'X, its eigendecomposition, X'Y, y'y,
and for latent noise the block factor R of A'A, A = [X Y]).

The Gaussian steps other than fast Psi (naive Psi, Gamma, Lambda, Omega
and H) and their moment oracles factor each precision through one kernel,
``_factor``, which checks that it is finite and returns the inverse
Cholesky factor; the steps draw through ``_draw_from_precision`` and the
oracles read ``_precision_moments``, so a non-finite precision is reported
by the step where it appears. Omega and H are drawn as
F = Y C_Y + (X Psi) C_Psi + Z C_Z with Z standard normal
(``_factor_rows_system``).

A latent-noise sweep reads Omega only through X'Omega, Y'Omega and
Omega'Omega, so where the batch has R it draws Omega in P + K + S1 rows
whose cross-products have the law those of the N rows have
(``_compressed_rows``), and makes no pass over X or Y. It draws Omega's
N rows, forming X Psi, on the sweeps whose states the schedule retains
(``samples.bin`` stores Omega) and in batches without R (P + K + S1 > N,
collinear X, a singular Schur complement).
Drawing statistics changes which normals a fit draws, not the law it
samples: latent-noise posterior means differ from those of versions that
drew rows on every sweep by Monte-Carlo error, beyond rounding, and
``samples.bin`` is unchanged. The other variants form X Psi every sweep,
and independent noise X'H for its Psi linear term
(X'Y - (X'H) Lambda) M^{-1} G'.
The Gamma step forms D, D'D and D'Y in the sweep's rows, from which Gamma
(Z'Y - (Z'H) Lambda, Z = X Psi (+ Omega)), Lambda (H'Y - (H'Z) Gamma) and
sigma read, with target k's residual sum of squares

    rss_k = y_k'y_k - 2 b_k' D'y_k + b_k' D'D b_k.

The cross-products carry rounding error of order 1e-16 * sqrt(N) * y_k'y_k,
and the sum cancels it into rss_k, so the relative error grows like
sqrt(N) * y_k'y_k / rss_k: measured against an 80-bit reference, at most
about 2e-16 * sqrt(N) * y_k'y_k / rss_k. Where rss_k falls below
1e-3 * y_k'y_k, that target's sum is recomputed from the residual
y_k - D b_k itself (an N x S product; in the P + K + S1 rows of a
statistics sweep, the form given at ``update_sigma``). The bound keeps the
relative error of the expanded sum below 1e-10 for N up to about 2e5 (measured:
4e-12 at N = 5000, 1.5e-11 at N = 5e5); fits with rss_k that small are
rare, and the recomputation is cheap.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from latent_brrr.chains import ChainData, ChainStreams, ChainsTrace, RunStats, batch_width
from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.model import (
    Dataset,
    Dims,
    ModelConfig,
    ModelState,
    PosteriorSamples,
    Variant,
    mean_coefficients,
    mean_design,
    resolve_sigma_omega,
    sample_prior,
)


@dataclass(frozen=True)
class ChainTrace:
    """Retained samples plus the run's ``RunStats``: per-update cumulative
    wall time in seconds, the sweep count and the numerical events."""

    samples: PosteriorSamples
    stats: RunStats

    @property
    def wall_time_seconds(self) -> dict[str, float]:
        return self.stats.wall_time_seconds


# ---------------------------------------------------------------------------
# numerics helpers


def _T(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _checked(fn, message: str, *args):
    """``fn(*args)``, with a LinAlgError raised as NumericalError(message)."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(message) from exc


def _factor(prec: np.ndarray, prior_diag: np.ndarray, what: str) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of ``prec`` + diag(``prior_diag``),
    or of a stack of them; ``prec`` is overwritten with the sum.

    The Gaussian full conditionals here other than fast Psi's, and their
    moment oracles, factor their precisions through this one kernel. A
    non-finite entry raises NumericalError("non-finite precision in
    <what>"): numpy's ``cholesky`` returns NaN for it without raising, so
    the failure would otherwise surface in a later step under that step's
    name. At the S1 x S1 sizes of the Omega and H steps one small inverse
    and two products cost less than two triangular solves would; for the
    stacked (C, K, S1, S1) systems of the Gamma and Lambda steps the two
    differ by about 10 us a step either way (numpy 2.4, one BLAS thread).
    For the naive Psi step's dense (P*S1, P*S1) factor the inverse costs
    several times the factorization, still within that step's O(P^3 S1^3).
    """
    idx = np.arange(prior_diag.shape[-1])
    prec[..., idx, idx] += prior_diag
    if not np.isfinite(prec).all():
        raise NumericalError(f"non-finite precision in {what}")
    return np.linalg.inv(_checked(np.linalg.cholesky,
                                  f"Cholesky factorization failed in {what}", prec))


def _draw_from_precision(inv_lower: np.ndarray, lin: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Draw L^{-T} (L^{-1} lin + z) ~ N(P^{-1} lin, P^{-1}) given L^{-1}
    (``_factor``) for the lower Cholesky factor L of P and standard normals
    z of ``lin``'s shape.

    ``lin`` may carry multiple right-hand sides as columns; each column gets
    an independent draw.
    """
    if z.shape != lin.shape:
        raise ValueError(f"normals of shape {z.shape} for linear terms of shape {lin.shape}")
    w = inv_lower @ lin
    w += z
    return _T(inv_lower) @ w


def _draw(system, streams) -> np.ndarray:
    """``_draw_from_precision`` of a (L^{-1}, lin) ``system`` with fresh normals."""
    inv_lower, lin = system
    return _draw_from_precision(inv_lower, lin, streams.standard_normal(lin.shape))


def _precision_moments(inv_lower: np.ndarray, lin: np.ndarray):
    """Mean P^{-1} lin and covariance P^{-1} = L^{-T} L^{-1} of N(P^{-1} lin, P^{-1}),
    given L^{-1} (``_factor``) for the lower Cholesky factor L of P."""
    inv_upper = _T(inv_lower)
    return inv_upper @ (inv_lower @ lin), inv_upper @ inv_lower


def _one_chain(state: ModelState, dataset: Dataset, config: ModelConfig):
    """``state`` on ``dataset`` as one stacked chain, for the moment oracles."""
    return ModelState.stack([state]), ChainData([dataset], [config]), {}


# ---------------------------------------------------------------------------
# products shared within a sweep


def _x_psi(state, data, shared: dict) -> np.ndarray:
    """X Psi, formed once per Psi draw and kept in ``shared``."""
    if shared.get("psi") is not state.Psi:
        shared["psi"], shared["x_psi"] = state.Psi, data.X @ state.Psi
    return shared["x_psi"]


def _rows(state, data, shared: dict):
    """X Psi, Y and Omega in the rows the sweep works in: the N data rows,
    or, after a statistics Omega step, the P + K + S1 rows it drew in."""
    compressed = shared.get("compressed")
    if state.Omega is None and compressed is not None and compressed[0] is state.Psi:
        return compressed[1:]
    return _x_psi(state, data, shared), data.Y, state.Omega


def _design(state, data, config: ModelConfig, shared: dict):
    """The design D of ``model.mean_design`` and the targets Y in the
    sweep's rows (``_rows``), and the cross-products D'D, D'Y.

    They are formed once per design (X Psi, Omega, H): the Gamma step forms
    them and leaves them in ``shared``, and the Lambda and sigma steps, which
    change no column of D, read them from there.
    """
    key = (state.Psi, state.Omega, state.H)
    cached = shared.get("design")
    if cached is None or any(a is not b for a, b in zip(cached[0], key)):
        x_psi, Y, omega = _rows(state, data, shared)
        D = mean_design(replace(state, Omega=omega), x_psi, config)
        cached = shared["design"] = key, D, Y, _T(D) @ D, _T(D) @ Y
    return cached[1:]


# ---------------------------------------------------------------------------
# Gamma (and Lambda) updates


def _ridge_system(gram, lin_all, prior_prec_cols, sigma_sq, what):
    """Factored Gaussian full conditionals of independent regression columns.

    With design X* and targets y_i, ``gram`` = X*'X* and column i of
    ``lin_all`` = X*'y_i. Column i follows N(S_i X*'y_i / s_i, S_i) with
    S_i^{-1} = diag(prior_prec_cols[:, i]) + X*'X* / s_i. Returns L^{-1}
    (``_factor``) for all S_i^{-1} from one batched call, stacked
    (C, K, S1, S1), and the linear terms X*'y_i / s_i, stacked (C, K, S1, 1).
    """
    prec = gram[..., None, :, :] / sigma_sq[..., :, None, None]
    return (_factor(prec, _T(prior_prec_cols), what),
            _T(lin_all / sigma_sq[..., None, :])[..., None])


def _block_system(state, data, config, shared, block, prior_prec_cols, what):
    """Ridge system of one block of B's rows given the other: Gamma (block 0,
    rows :S1) or Lambda (block 1, rows S1:).

    Its design is the block's columns D_b of D, and its linear term
    D_b'Y - (D_b'D_r) B_r over the other block r: Z'Y - (Z'H) Lambda for
    Gamma, with Z = D[:, :S1], and H'Y - (H'Z) Gamma for Lambda.
    """
    *_, dtd, dty = _design(state, data, config, shared)
    S1 = state.Gamma.shape[-2]
    rows, rest = slice(None, S1), slice(S1, None)
    if block:
        rows, rest = rest, rows
    B = mean_coefficients(state, config)
    lin = dty[..., rows, :] - dtd[..., rows, rest] @ B[..., rest, :]
    return _ridge_system(dtd[..., rows, rows], lin, prior_prec_cols, state.sigma_sq, what)


def update_gamma(state, data, config: ModelConfig, streams, shared: dict):
    """Draw the loading matrix Gamma column by column (targets independent).

    X Psi is taken from ``shared``, and the design's D'D and D'Y are left
    there for update_lambda and update_sigma.
    """
    state.Gamma = _T(_draw(_block_system(
        state, data, config, shared, 0, state.phi_gamma * state.tau[..., :, None],
        "gamma update"), streams)[..., 0])


def gamma_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig):
    """Exact mean (S1, K) and covariance (K, S1, S1) of the Gamma conditional."""
    state, data, shared = _one_chain(state, dataset, config)
    means, covs = _precision_moments(*_block_system(
        state, data, config, shared, 0, state.phi_gamma * state.tau[..., :, None],
        "gamma moments"))
    return means[0, :, :, 0].T, covs[0]


def update_lambda(state, data, config: ModelConfig, streams, shared: dict):
    """Draw the independent-noise loadings Lambda given the factors H.

    A state without the noise stack raises StateError (via ``tau_noise``).
    """
    state.Lambda = _T(_draw(_block_system(
        state, data, config, shared, 1, state.phi_lambda * state.tau_noise[..., :, None],
        "lambda update"), streams)[..., 0])


# ---------------------------------------------------------------------------
# Psi updates (naive dense and fast reparameterized)


def _psi_linear_terms(state, data, config):
    """Coupling matrix A = G M^{-1} G' and linear term (X'Y - (X'H) Lambda) M^{-1} G'.

    M is the K x K noise covariance of the Psi regression, D = diag(sigma_sq).
    For the latent-noise variant Omega is integrated out, which inflates it
    to D + G'SG with S = sigma_omega_sq diag(1/tau); M^{-1} G' is then formed
    by Woodbury as D^{-1} G' (I + S G D^{-1} G')^{-1}, an S1 x S1 solve in
    place of a K x K one. Where sigma_omega_sq / tau dwarfs sigma_sq (as on
    covariates of large units) M itself is numerically singular, while the
    S1 x S1 system keeps its conditioning. The regression target is Y, less
    H Lambda for independent noise; with X'Y cached on the data the linear
    term costs O(P K S1), plus the N x S2 product X'H for independent noise.
    """
    minv_gt = _T(state.Gamma) / state.sigma_sq[..., :, None]     # D^{-1} G', (K, S1)
    if config.variant is Variant.LATENT_NOISE:
        scale = data.sigma_omega_sq[..., None] / state.tau
        inner = np.eye(scale.shape[-1]) + scale[..., :, None] * (state.Gamma @ minv_gt)
        minv_gt = _T(_checked(np.linalg.solve, "singular marginal covariance in psi update",
                              _T(inner), _T(minv_gt)))
    A = state.Gamma @ minv_gt
    A = 0.5 * (A + _T(A))
    xty = data.xty
    if config.variant is Variant.INDEPENDENT_NOISE:
        xty = xty - (_T(data.X) @ state.H) @ state.Lambda
    return A, xty @ minv_gt                                        # (P, S1)


def _psi_naive_system(state, data, config):
    """L^{-1} (``_factor``) for the dense (P*S1, P*S1) Psi precision
    diag_h(tau_h I_P) + A (x) X'X, and the linear term vec(X' Y M^{-1} G')
    as a column."""
    A, lin = _psi_linear_terms(state, data, config)
    P, S1 = state.Psi.shape[-2:]
    lead = A.shape[:-2]
    prec = (A[..., :, None, :, None] * data.gram[..., None, :, None, :]).reshape(
        *lead, S1 * P, S1 * P)
    return (_factor(prec, np.repeat(state.tau, P, axis=-1), "psi update (naive)"),
            _T(lin).reshape(*lead, S1 * P, 1))


def _unvec(column: np.ndarray, P: int) -> np.ndarray:
    """Psi (P, S1) from its column-major vec, stored as a (P*S1, 1) column."""
    return _T(column.reshape(*column.shape[:-2], -1, P))


def update_psi_naive(state, data, config: ModelConfig, streams, shared: dict):
    """Draw vec(Psi) from one dense (P*S1, P*S1) Gaussian system."""
    draw = _draw(_psi_naive_system(state, data, config), streams)
    state.Psi = _unvec(draw, state.Psi.shape[-2])


def _psi_fast_system(state, data, config):
    """The prior-whitened, doubly-diagonalized Psi system.

    After scaling column h of Psi by tau_h^{1/2} the joint precision is
    I + A_tilde (x) X'X; rotating by the eigenvectors U_x of X'X and U_a of
    A_tilde makes it diagonal with entries ``denom`` = 1 + lam_X[p] lam_A[h],
    and the rotated linear term is C. Psi = (U_x W U_a') tau^{-1/2} where W
    has independent entries N(C / denom, 1 / denom). Returns
    (U_x, U_a, tau^{-1/2}, denom, C).
    """
    A, lin = _psi_linear_terms(state, data, config)
    t_isqrt = 1.0 / np.sqrt(state.tau)
    A_tilde = A * (t_isqrt[..., :, None] * t_isqrt[..., None, :])
    lam_a, U_a = _checked(np.linalg.eigh,
                          "eigendecomposition failed in psi update (coupling matrix)", A_tilde)
    lam_x, U_x = data.gram_eig
    # Both matrices are PSD; clip eigenvalue noise so the diagonal stays >= 1.
    denom = 1.0 + np.maximum(lam_x, 0.0)[..., :, None] * np.maximum(lam_a, 0.0)[..., None, :]
    C = _T(U_x) @ (lin * t_isqrt[..., None, :]) @ U_a
    return U_x, U_a, t_isqrt, denom, C


def update_psi_fast(state, data, config: ModelConfig, streams, shared: dict):
    """Draw Psi through the prior-whitened, doubly-diagonalized system."""
    U_x, U_a, t_isqrt, denom, C = _psi_fast_system(state, data, config)
    W = C / denom + streams.standard_normal(denom.shape) / np.sqrt(denom)
    state.Psi = (U_x @ W @ _T(U_a)) * t_isqrt[..., None, :]


def psi_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig,
                            method: str = "fast"):
    """Mean and per-entry variance (both (P, S1)) of the Psi full conditional.

    Both methods target the identical distribution and use the same system
    as the matching update; this is the hook the equivalence tests use.
    """
    state, data, _ = _one_chain(state, dataset, config)
    P = state.Psi.shape[-2]
    if method == "naive":
        mean, cov = _precision_moments(*_psi_naive_system(state, data, config))
        return _unvec(mean[0], P), _unvec(np.diag(cov[0])[:, None], P)
    if method == "fast":
        U_x, U_a, t_isqrt, denom, C = _psi_fast_system(state, data, config)
        mean = (U_x @ (C / denom) @ _T(U_a)) * t_isqrt[..., None, :]
        var = ((U_x**2) @ (1.0 / denom) @ _T(U_a**2)) * (t_isqrt**2)[..., None, :]
        return mean[0], var[0]
    raise ConfigurationError(f"unknown psi moment method {method!r}")


# ---------------------------------------------------------------------------
# latent factor updates


def _factor_rows_system(loadings, prior_prec, state, x_psi, Y, what):
    """L^{-1} (``_factor``) and linear terms, one column per row, of the factor
    rows F in Y - X Psi Gamma = F B + E, B = ``loadings`` (S, K), F rows ~
    N(0, diag(1/prior_prec)).

    Given the rest, F's rows are independent with one precision
    B Sigma^{-1} B' + diag(prior_prec), and F' has linear terms
    B Sigma^{-1} (Y - X Psi Gamma)', formed as (B Sigma^{-1}) Y' minus
    (B Sigma^{-1} Gamma') (X Psi)' without an N x K residual.
    ``_draw_from_precision`` then gives F = Y C_Y + (X Psi) C_Psi + Z L^{-1},
    Z rows iid N(0, I_S), and ``_precision_moments`` its mean and covariance.
    ``x_psi`` and ``Y`` are the N data rows or the compressed rows of a
    statistics sweep (``_compressed_rows``).
    """
    bs = loadings * (1.0 / state.sigma_sq)[..., None, :]    # B Sigma^{-1}
    lin = bs @ _T(Y) - (bs @ _T(state.Gamma)) @ _T(x_psi)
    return _factor(bs @ _T(loadings), prior_prec, what), lin


def _omega_system(state, data, x_psi, Y, what):
    return _factor_rows_system(state.Gamma, state.tau / data.sigma_omega_sq[..., None],
                               state, x_psi, Y, what)


# A statistics sweep draws the S1 chi^2(dof) variates of its Bartlett
# diagonal as sums of squared normals while dof * S1 is at most this: below
# it the extra normals cost less than a second Generator call per chain
# (about 3 us against 4 ns per normal, numpy 2.4).
_CHI2_BY_NORMALS = 512


def _compressed_rows(state, data, streams):
    """X Psi and a draw of Z in the P + K + S1 rows of a statistics sweep.

    With A = [X Y] and R the block factor of A'A (``ChainData``), take the
    rows A~ = [R; 0] and Z~ = [G; L_W'], with G (P + K, S1) standard
    normal and W = L_W L_W' ~ Wishart_S1(N - P - K, I) by Bartlett's
    decomposition: L_W is lower triangular with N(0, 1) entries below the
    diagonal and (L_W)_ii^2 ~ chi^2(N - P - K - i), i = 0, ..., S1 - 1
    (Odell & Feiveson, JASA 1966). Then A~'A~ = A'A, and (A~'Z~, Z~'Z~) =
    (R'G, G'G + W) has the law of (A'Z, Z'Z) for Z (N, S1) iid N(0, 1): G is
    Z's part along A, rotated into R's coordinates, and W the Gram matrix of
    its independent remainder. Every cross-product of columns A c + Z d the
    sweep reads (D'D, D'Y, Omega'Omega, and a residual's sum of squares) so
    has its law over N rows. A~ Psi is [lam^{1/2} U' Psi; 0], and A~'s Y
    columns are ``data.target_rows``.

    Each chain draws its normals in one ``standard_normal`` call: G, an
    S1 x S1 block whose part above the diagonal gives L_W', and one whose
    part above the diagonal adds S1 - 1 - i squares to (L_W)_ii^2. What is
    left, chi^2(N - P - K - S1 + 1) for every i, is one Gamma call of one
    shape (several times faster than a call with S1 shapes) or, where
    ``_CHI2_BY_NORMALS`` allows, the sum of squares of a last block of
    normals in the same call.
    """
    lam, U = data.gram_eig
    lead, (P, S1) = state.Psi.shape[:-2], state.Psi.shape[-2:]
    rows = data.target_rows.shape[-2]
    m = rows - S1
    dof = data.n_samples - m - S1 + 1
    by_normals = dof * S1 <= _CHI2_BY_NORMALS
    z = streams.standard_normal((*lead, m + 2 * S1 + dof * by_normals, S1))
    Z = z[..., :rows, :]
    # Row j of the next S1 x S1 block has S1 - 1 - j entries above the diagonal.
    extra = (np.triu(z[..., rows:rows + S1, :], 1) ** 2).sum(axis=-1)
    if by_normals:
        chi2 = (z[..., rows + S1:, :] ** 2).sum(axis=-2)
    else:
        chi2 = streams.gamma(0.5 * dof, np.full((*lead, S1), 2.0))
    Z[..., m:, :] = np.triu(Z[..., m:, :], 1)
    diag = np.arange(S1)
    Z[..., m + diag, diag] = np.sqrt(chi2 + extra)
    x_psi = np.zeros((*lead, rows, S1))
    x_psi[..., :P, :] = np.sqrt(lam)[..., :, None] * (_T(U) @ state.Psi)
    return x_psi, Z


def update_omega(state, data, config: ModelConfig, streams, shared: dict):
    """Draw the latent noise Omega (``_factor_rows_system``), as N rows or as
    statistics.

    When ``shared["omega_rows"]`` is false (``gibbs_sweep`` sets it) and the
    batch has the block factor (``ChainData.target_rows``), the draw is made
    in the P + K + S1 rows of ``_compressed_rows``, which give everything
    the rest of the sweep reads of Omega (X'Omega, Y'Omega, Omega'Omega) its
    law, without a pass over X or Y. Those rows are left in ``shared``
    (``_rows`` reads them) and ``state.Omega`` becomes None. Otherwise, and
    when called with a ``shared`` lacking the key, Omega's N rows are drawn.
    ``shared["omega_rows"]`` then records which was done.
    """
    if config.variant is not Variant.LATENT_NOISE:
        raise ConfigurationError("omega update applies to the latent-noise variant")
    if not config.sigma_omega_sq or config.sigma_omega_sq <= 0:
        raise ConfigurationError("sampling Omega requires sigma_omega_sq > 0")
    shared["omega_rows"] = shared.get("omega_rows", True) or data.target_rows is None
    if shared["omega_rows"]:
        state.Omega = _T(_draw(_omega_system(
            state, data, _x_psi(state, data, shared), data.Y, "omega update"), streams))
    else:
        # The compressed rows' normals Z~ = [G; L_W'] are drawn with them.
        x_psi, Z = _compressed_rows(state, data, streams)
        omega = _T(_draw_from_precision(*_omega_system(
            state, data, x_psi, data.target_rows, "omega update"), _T(Z)))
        shared["compressed"] = state.Psi, x_psi, data.target_rows, omega
        state.Omega = None


def omega_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig):
    """Exact mean (N, S1) and shared covariance (S1, S1) of the Omega rows."""
    state, data, shared = _one_chain(state, dataset, config)
    mean, cov = _precision_moments(*_omega_system(
        state, data, _x_psi(state, data, shared), data.Y, "omega moments"))
    return _T(mean)[0], cov[0]


def update_h(state, data, config: ModelConfig, streams, shared: dict):
    """Draw the independent-noise factor rows (unit-variance prior scale).

    A state without the noise stack raises StateError (via ``tau_noise``).
    """
    state.H = _T(_draw(_factor_rows_system(
        state.Lambda, state.tau_noise, state, _x_psi(state, data, shared), data.Y, "H update"),
        streams))


# ---------------------------------------------------------------------------
# shrinkage and noise hyperparameter updates


def update_phi_gamma(state, data, config: ModelConfig, streams, shared: dict):
    """Local shrinkage: phi_hj ~ Ga((nu+1)/2, (nu + tau_h gamma_hj^2)/2)."""
    rate = 0.5 * (config.nu + state.tau[..., :, None] * state.Gamma**2)
    state.phi_gamma = streams.gamma((config.nu + 1.0) / 2.0, 1.0 / rate)


def update_phi_lambda(state, data, config: ModelConfig, streams, shared: dict):
    rate = 0.5 * (config.nu + state.tau_noise[..., :, None] * state.Lambda**2)
    state.phi_lambda = streams.gamma((config.nu + 1.0) / 2.0, 1.0 / rate)


def _draw_mgp_delta(delta: np.ndarray, quads: np.ndarray, count: int,
                    a1: float, a2: float, streams) -> np.ndarray:
    """One conjugate sweep over the multiplicative-gamma increments.

    ``quads`` holds the per-component quadratic forms q_h and ``count`` the
    number of Gaussian entries shrunk by each tau_h. Increment l multiplies
    tau_h for every h >= l, so it is drawn from
    Ga(a + count * #[h >= l] / 2, 1 + sum_{h>=l} tau_h^(-l) q_h / 2) where
    tau_h^(-l) is the cumulative product with delta_l excluded.
    """
    delta = np.array(delta, dtype=float)
    S = delta.shape[-1]
    for l in range(S):
        a = a1 if l == 0 else a2
        excl = delta.copy()
        excl[..., l] = 1.0
        tau_excl = np.cumprod(excl, axis=-1)
        shape = a + 0.5 * count * (S - l)
        rate = 1.0 + 0.5 * (tau_excl[..., l:] * quads[..., l:]).sum(axis=-1)
        if not np.isfinite(rate).all():
            raise NumericalError("non-finite rate in delta update")
        delta[..., l] = streams.gamma(shape, 1.0 / rate)
    return delta


def _delta_quads(state, data, config: ModelConfig, shared: dict):
    """Quadratic forms and entry count entering the delta conditional; a
    statistics sweep's diag(Omega'Omega) comes from its rows (``_rows``)."""
    quads = (state.phi_gamma * state.Gamma**2).sum(axis=-1) + (state.Psi**2).sum(axis=-2)
    count = state.Gamma.shape[-1] + state.Psi.shape[-2]
    if config.variant is Variant.LATENT_NOISE:
        omega = state.Omega if state.Omega is not None else _rows(state, data, shared)[2]
        quads = quads + (omega**2).sum(axis=-2) / data.sigma_omega_sq[..., None]
        count += data.n_samples
    return quads, count


def update_delta(state, data, config: ModelConfig, streams, shared: dict):
    """Global shrinkage increments for the Gamma/Psi(/Omega) stack."""
    quads, count = _delta_quads(state, data, config, shared)
    state.delta = _draw_mgp_delta(state.delta, quads, count, config.a1, config.a2, streams)


def update_delta_noise(state, data, config: ModelConfig, streams, shared: dict):
    """Global shrinkage increments for the independent-noise H/Lambda stack."""
    quads = (state.phi_lambda * state.Lambda**2).sum(axis=-1) + (state.H**2).sum(axis=-2)
    count = state.Lambda.shape[-1] + state.H.shape[-2]
    state.delta_noise = _draw_mgp_delta(state.delta_noise, quads, count,
                                         config.a1, config.a2, streams)


# Below this fraction of y'y a target's expanded residual sum of squares is
# recomputed from the residual itself; see the module docstring.
_RSS_FALLBACK_RATIO = 1e-3


def update_sigma(state, data, config: ModelConfig, streams, shared: dict):
    """Conjugate update of the target-specific noise precisions, with each
    residual sum of squares of Y - D B taken from D'D and D'Y.

    A small sum is recomputed from the residual in the sweep's rows
    (``_rows``). In the rows of a statistics sweep, target k's residual
    A u_k - Z v_k becomes R u_k - G v_k stacked over L_W' v_k, so its sum of
    squares is ||R u_k - G v_k||^2 + v_k' W v_k: no Omega rows are needed,
    and no term cancels. ``shared["rss_fallbacks"]`` counts the recomputed
    (chain, target) sums.
    """
    D, Y, dtd, dty = _design(state, data, config, shared)
    B = mean_coefficients(state, config)
    yty = data.yty
    rss = yty - 2.0 * (B * dty).sum(axis=-2) + (B * (dtd @ B)).sum(axis=-2)
    low = rss <= _RSS_FALLBACK_RATIO * yty
    if low.any():
        for c in np.ndindex(low.shape[:-1]):
            k = np.flatnonzero(low[c])
            rss[c][k] = ((Y[c][:, k] - D[c] @ B[c][:, k])**2).sum(axis=0)
        shared["rss_fallbacks"] = int(low.sum())
    rate = config.b_sigma + 0.5 * rss
    precision = streams.gamma(config.a_sigma + 0.5 * data.n_samples, 1.0 / rate)
    state.sigma_sq = 1.0 / precision


# ---------------------------------------------------------------------------
# sweep and chain driver


def _accumulate(timings, name, t0):
    timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0)


def gibbs_sweep(state: ModelState, data: ChainData, config: ModelConfig,
                streams: ChainStreams, *, delta_step=None, stats: RunStats | None = None,
                omega_rows: bool = False) -> None:
    """One full update cycle of every chain in ``state``, in a fixed order.

    ``state`` holds C >= 1 chains along its leading axis, ``data`` their
    data and ``streams`` their Generators. The variant's cycle is a list of
    (timing bucket, update) steps, each called with the sweep's signature
    ``(state, data, config, streams, shared)`` in one loop; the null
    variant's list is empty. The list is built on each call from this
    module's global names, so a caller that replaces ``update_*`` here
    (fault injection, tracing) changes what the sweep calls. The updates
    share X Psi, the Omega step's draw and the Gamma step's D'D and D'Y
    through one per-sweep dict. ``delta_step`` replaces the delta update
    when given (used by the sampler-validation harness for fault injection).
    The latent-noise Omega step draws statistics where it can, leaving
    ``state.Omega`` None, and N rows with ``omega_rows`` (``update_omega``).
    The sweep, each step's wall time (added to its bucket), the Omega rows
    and the residual fallbacks are counted in ``stats``, or in a fresh
    RunStats that is dropped when none is given.

    A numerical failure on any chain raises NumericalError from the step
    where it occurs, and ``state`` is then part-way through the sweep.
    """
    stats = RunStats() if stats is None else stats
    stats.sweeps += 1
    shared: dict = {"omega_rows": omega_rows}
    psi = ("psi", update_psi_naive if config.psi_update == "naive" else update_psi_fast)
    gamma, phi = ("gamma", update_gamma), ("phi", update_phi_gamma)
    delta, sigma = ("delta", delta_step or update_delta), ("sigma", update_sigma)
    if config.variant is Variant.LATENT_NOISE:
        steps = [psi, ("omega", update_omega), gamma, phi, delta, sigma]
    elif config.variant is Variant.INDEPENDENT_NOISE:
        steps = [psi, ("h", update_h), gamma, ("lambda", update_lambda),
                 phi, ("phi", update_phi_lambda), delta, ("delta", update_delta_noise), sigma]
    elif config.variant is Variant.NO_NOISE:
        steps = [psi, gamma, phi, delta, sigma]
    else:
        steps = []
    for bucket, update in steps:
        t0 = time.perf_counter()
        update(state, data, config, streams, shared)
        _accumulate(stats.wall_time_seconds, bucket, t0)
    stats.omega_row_sweeps += bool(config.variant is Variant.LATENT_NOISE
                                   and shared["omega_rows"])
    stats.rss_fallbacks += shared.get("rss_fallbacks", 0)


def _resolved(dataset: Dataset, config: ModelConfig) -> ModelConfig:
    """``config`` with sigma_omega_sq resolved on ``dataset``, checked for a fit."""
    config = resolve_sigma_omega(config, dataset.X)
    if config.variant is Variant.LATENT_NOISE and not config.sigma_omega_sq > 0:
        raise ConfigurationError("fitting the latent-noise variant requires sigma_omega_sq > 0")
    if (config.iterations - config.burn_in) // config.thin < 1:
        raise ConfigurationError("schedule retains no samples: (iterations - burn_in) // thin < 1")
    return config


def _advance(datasets: Sequence[Dataset], configs: Sequence[ModelConfig],
             stats: RunStats, retain: bool = False):
    """Run the chains of ``configs`` (one shape, differing in seed and
    sigma_omega_sq) on ``datasets`` together, along one chain axis.

    Returns each chain's posterior mean of Theta and, with ``retain``, the
    first chain's retained states. A numerical failure on any chain is
    raised again as NumericalError with the iteration attached. Adds the
    wall time per update bucket, the sweep count and the numerical events
    to ``stats``.

    The sweeps whose states the schedule retains draw Omega's rows, whether
    or not ``retain`` keeps them, so a chain draws the same variates in
    ``run_chain`` (whose retained states carry Omega) as in ``run_chains``.
    """
    config = configs[0]
    first = datasets[0]
    P, K = first.n_covariates, first.n_targets
    dims = Dims(first.n_samples, P, K, config.rank)
    n_retained = (config.iterations - config.burn_in) // config.thin
    generators = [np.random.default_rng(c.seed) for c in configs]
    states = [sample_prior(c, dims, g) for c, g in zip(configs, generators)]
    if config.variant is Variant.NULL:
        return [np.zeros((P, K))] * len(configs), (states[0],) * n_retained * retain

    # Building the ChainData forms the data-only statistics; timing it apart
    # keeps their one-time cost out of the per-sweep buckets.
    t0 = time.perf_counter()
    data = ChainData(datasets, configs)
    _accumulate(stats.wall_time_seconds, "setup", t0)

    state = ModelState.stack(states)
    streams = ChainStreams(generators)
    theta_sum = np.zeros((len(configs), P, K))
    retained: list[ModelState] = []
    for it in range(1, config.iterations + 1):
        kept = it > config.burn_in and (it - config.burn_in) % config.thin == 0
        try:
            gibbs_sweep(state, data, config, streams, stats=stats, omega_rows=kept)
        except NumericalError as exc:
            raise NumericalError(f"{exc} (iteration {it})") from exc
        if kept:
            theta_sum += state.theta
            if retain:
                retained.append(state.chain(0))
    return list(theta_sum / n_retained), tuple(retained)


def run_chain(dataset: Dataset, config: ModelConfig) -> ChainTrace:
    """Run one Gibbs chain; deterministic given (dataset, config.seed).

    The one-chain case of ``run_chains``. Retains every ``thin``-th
    post-burn-in state and the posterior mean of Theta = Psi Gamma over the
    retained states. A numerical failure raises NumericalError with the
    iteration index attached.
    """
    config = _resolved(dataset, config)
    stats = RunStats()
    theta_means, retained = _advance([dataset], [config], stats, retain=True)
    samples = PosteriorSamples(states=retained, theta_mean=theta_means[0], config=config)
    return ChainTrace(samples=samples, stats=stats)


def run_chains(fits: Sequence[tuple[Dataset, ModelConfig]],
               stats: RunStats | None = None) -> ChainsTrace:
    """Run every (dataset, config) fit, advancing fits of one shape together.

    Fits whose data have one shape and whose configs differ only in seed
    and (after latent_snr is resolved) sigma_omega_sq form a group, which
    runs in batches of ``batch_width`` chains along one chain axis. Each
    chain draws what its solo ``run_chain`` would, so its posterior mean of
    Theta equals that run's up to rounding.

    This is the one place that decides what a numerical failure means. A
    batch that raises NumericalError runs again as two halves, and so on
    down to the single fit that fails, which is reported with the message
    ``run_chain`` would raise; every other fit's result is its clean run's.
    A batch with one failing chain so costs up to about 3-4 times its clean
    run. No states are retained. With ``stats``, the wall time per update
    bucket and the sweep calls of every batch, re-runs included, are added
    to it.
    """
    stats = RunStats() if stats is None else stats
    configs = [_resolved(dataset, config) for dataset, config in fits]
    groups: dict[tuple, list[int]] = {}
    for i, ((dataset, _), config) in enumerate(zip(fits, configs)):
        shape = config if config.sigma_omega_sq is None else replace(config, sigma_omega_sq=1.0)
        key = (dataset.X.shape, dataset.Y.shape, replace(shape, seed=0))
        groups.setdefault(key, []).append(i)
    theta_means: list[np.ndarray | None] = [None] * len(fits)
    errors: list[str | None] = [None] * len(fits)

    # A work list, not a recursive closure: that is a cycle keeping ``fits`` alive.
    pending: list[list[int]] = []
    for members in groups.values():
        width = batch_width(fits[members[0]][0], configs[members[0]])
        pending += [members[start:start + width] for start in range(0, len(members), width)]
    while pending:
        batch = pending.pop(0)
        try:
            means, _ = _advance([fits[i][0] for i in batch], [configs[i] for i in batch], stats)
        except NumericalError as exc:
            if len(batch) == 1:
                errors[batch[0]] = str(exc)
            else:
                pending[:0] = [batch[:len(batch) // 2], batch[len(batch) // 2:]]
            continue
        for i, mean in zip(batch, means):
            theta_means[i] = mean
    return ChainsTrace(theta_means=tuple(theta_means), errors=tuple(errors))
