"""Full conditional updates and the chain driver.

The latent-noise sweep is partially collapsed: Psi is drawn with the latent
factors Omega integrated out analytically, then Omega is re-imputed, so the
pair (Psi, Omega) is a valid blocked update. The fixed cycle is

    Psi (Omega marginalized) -> Omega -> Gamma -> phi_gamma -> delta -> sigma_sq

Independent noise draws its factor rows H first and Lambda after Gamma,
with its own phi and delta:

    H -> Psi -> Gamma -> Lambda -> phi_gamma -> phi_lambda -> delta
      -> delta_noise -> sigma_sq

a rotation of a systematic scan, so no step reads an H left over from the
previous sweep. (Omega cannot lead its cycle the same way: the Psi step is
partially collapsed over Omega, so Omega must follow it directly; van Dyk &
Park, JASA 2008.) No noise has neither Omega nor H. ``gibbs_sweep`` writes
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
ChainData forms when it is built (X'X, its eigendecomposition, X'Y and the
rows of the block factor R of A'A, A = [X Y]).

The Gaussian steps other than fast Psi (naive Psi, Gamma, Lambda, Omega
and H) and their moment oracles factor each precision through one kernel,
``_factor``, which checks that it is finite and returns the inverse
Cholesky factor; the steps draw through ``_draw_from_precision`` and the
oracles read ``_precision_moments``, so a non-finite precision is reported
by the step where it appears. Omega and H, the factor rows F of their
variant, are drawn by one body (``_update_factor_rows``) as
F = Y C_Y + (X Psi) C_Psi + Z C_Z with Z standard normal
(``_factor_rows_system``).

Every variant reads its data through one pair of row matrices, X and Y in
the rows the sweep works in (``_rows``), and forms X Psi as one product of
them. A sweep reads the data and F only through cross-products (X'F, Y'F,
F'F, D'D, D'Y) and residual sums of squares, so where the batch has R a
statistics sweep works in P + K + S rows, S the rank of F (none for no
noise), whose sums have the law those of the N rows have
(``_compressed_rows``): the pair (``ChainData.x_rows``, ``target_rows``),
and no pass over X or Y. For no noise these rows give D'D = Psi'X'X Psi,
D'Y = Psi'X'Y and every residual sum up to rounding. Only batches without
R (P + K + S > N, collinear X, a singular Schur complement) work in the N
data rows, the pair (X, Y), and they do on every sweep. The factor rows
are a nuisance no summary reads; ``samples.bin`` stores them, and
``draw_factor_rows`` draws them for each retained state after the run,
from their full conditional given that state, on a Generator spawned from
the seed. X Psi is kept from one sweep to the next, so the H step of a row
sweep reads X Psi without a pass over X. The Gamma step forms D, D'D and
D'Y in the sweep's rows, from which Gamma (Z'Y - (Z'H) Lambda, Z = X Psi
(+ Omega)) and Lambda (H'Y - (H'Z) Gamma) read; independent noise's Psi
linear term (X'Y - (X'H) Lambda) M^{-1} G' reads X'H in the same rows.
Sigma sums each target's squared residual y_k - D b_k directly in those
rows: a sum without cancellation, unlike the expanded y'y - 2 b'D'y +
b'D'D b, which loses its digits on data far from centred.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import isub

import numpy as np

from latent_brrr.chains import (
    ChainData,
    ChainStreams,
    ChainsTrace,
    RunStats,
    batch_width,
)
from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.model import (
    FACTOR_ROWS,
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
    sum_squares,
)


@dataclass(frozen=True)
class ChainTrace:
    """Retained samples plus the run's ``RunStats``: per-update cumulative
    wall time in seconds and the sweep counts."""

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


def _draw(system, streams, z: np.ndarray | None = None) -> np.ndarray:
    """``_draw_from_precision`` of a (L^{-1}, lin) ``system`` with the normals
    ``z``, or fresh ones."""
    inv_lower, lin = system
    return _draw_from_precision(inv_lower, lin, streams.standard_normal(lin.shape)
                                if z is None else z)


def _precision_moments(inv_lower: np.ndarray, lin: np.ndarray):
    """Mean P^{-1} lin and covariance P^{-1} = L^{-T} L^{-1} of N(P^{-1} lin, P^{-1}),
    given L^{-1} (``_factor``) for the lower Cholesky factor L of P."""
    inv_upper = _T(inv_lower)
    return inv_upper @ (inv_lower @ lin), inv_upper @ inv_lower


def _one_chain(state: ModelState, dataset: Dataset, config: ModelConfig):
    """``state`` on ``dataset`` as one stacked chain, for the moment oracles."""
    return ModelState.stack([state]), ChainData([dataset], [config]), {}


# ---------------------------------------------------------------------------
# the rows a sweep works in


def _rows(state, data, config: ModelConfig, shared: dict):
    """X, Y, X Psi and the variant's factor rows F (Omega's or H's,
    ``model.FACTOR_ROWS``; None for no noise) in the rows the sweep works
    in: the N data rows, with the state's F, or, where
    ``shared["compressed"]`` (``gibbs_sweep`` sets it), the P + K + S rows
    A~ = [R; 0] of a statistics sweep (``_compressed_rows``), whose X and Y
    are ``data.x_rows`` and ``data.target_rows`` and whose F is what the
    sweep's factor step drew (``shared["factor_rows"]``).

    X Psi is kept in ``data.x_psi`` with the Psi and the rows it was formed
    for, and formed again when either differs.
    """
    compressed = shared.get("compressed", False)
    X, Y = (data.x_rows, data.target_rows) if compressed else (data.X, data.Y)
    kept = data.x_psi
    if kept is None or kept[0] is not state.Psi or kept[1] != compressed:
        kept = data.x_psi = state.Psi, compressed, X @ state.Psi
    F = shared.get("factor_rows") if compressed else \
        vars(state).get(FACTOR_ROWS.get(config.variant))
    return X, Y, kept[2], F


def _design(state, data, config: ModelConfig, shared: dict):
    """The design D of ``model.mean_design`` and the targets Y in the
    sweep's rows (``_rows``), and the cross-products D'D, D'Y.

    They are formed once per design (X Psi and the factor rows): the Gamma
    step forms them and leaves them in ``shared``, and the Lambda step
    (D'D, D'Y) and the sigma step (D, Y), which change no column of D, read
    them from there.
    """
    _, Y, x_psi, F = _rows(state, data, config, shared)
    cached = shared.get("design")
    if cached is None or cached[0] is not x_psi or cached[1] is not F:
        D = mean_design(x_psi, F, config)
        cached = shared["design"] = x_psi, F, D, Y, _T(D) @ D, _T(D) @ Y
    return cached[2:]


# ---------------------------------------------------------------------------
# Gamma (and Lambda) updates


def _block_system(state, data, config, shared, block, prior_prec_cols, what):
    """Factored Gaussian full conditionals of one block of B's rows given
    the other, one independent regression per target: Gamma (block 0, rows
    :S1) or Lambda (block 1, rows S1:).

    Its design is the block's columns D_b of D, and its linear term
    D_b'y_i - (D_b'D_r) b_ri over the other block r: Z'Y - (Z'H) Lambda for
    Gamma, with Z = D[:, :S1], and H'Y - (H'Z) Gamma for Lambda. Column i
    follows N(S_i lin_i / s_i, S_i) with S_i^{-1} = diag(prior_prec_cols[:, i])
    + D_b'D_b / s_i. Returns L^{-1} (``_factor``) for all S_i^{-1} from one
    batched call, stacked (C, K, S, S), and the linear terms lin_i / s_i,
    stacked (C, K, S, 1).
    """
    *_, dtd, dty = _design(state, data, config, shared)
    S1 = state.Gamma.shape[-2]
    rows, rest = slice(None, S1), slice(S1, None)
    if block:
        rows, rest = rest, rows
    B = mean_coefficients(state, config)
    lin = dty[..., rows, :] - dtd[..., rows, rest] @ B[..., rest, :]
    prec = dtd[..., rows, rows][..., None, :, :] / state.sigma_sq[..., :, None, None]
    return (_factor(prec, _T(prior_prec_cols), what),
            _T(lin / state.sigma_sq[..., None, :])[..., None])


def update_gamma(state, data, config: ModelConfig, streams, shared: dict):
    """Draw the loading matrix Gamma column by column (targets independent).

    X Psi is taken from ``_rows``, and the design D with D'D and D'Y is
    left in ``shared`` for update_lambda and update_sigma.
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


def _psi_linear_terms(state, data, config, shared):
    """Coupling matrix A = G M^{-1} G' and linear term (X'Y - (X'H) Lambda) M^{-1} G'.

    M is the K x K noise covariance of the Psi regression, D = diag(sigma_sq).
    For the latent-noise variant Omega is integrated out, which inflates it
    to D + G'SG with S = sigma_omega_sq diag(1/tau); M^{-1} G' is then formed
    by Woodbury as D^{-1} G' (I + S G D^{-1} G')^{-1}, an S1 x S1 solve in
    place of a K x K one. Where sigma_omega_sq / tau dwarfs sigma_sq (as on
    covariates of large units) M itself is numerically singular, while the
    S1 x S1 system keeps its conditioning. The regression target is Y, less
    H Lambda for independent noise; with X'Y cached on the data the linear
    term costs O(P K S1), plus X'H in the sweep's rows (``_rows``) for
    independent noise.
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
        X, _, _, H = _rows(state, data, config, shared)
        xty = xty - (_T(X) @ H) @ state.Lambda
    return A, xty @ minv_gt                                        # (P, S1)


def _psi_naive_system(state, data, config, shared):
    """L^{-1} (``_factor``) for the dense (P*S1, P*S1) Psi precision
    diag_h(tau_h I_P) + A (x) X'X, and the linear term vec(X' Y M^{-1} G')
    as a column."""
    A, lin = _psi_linear_terms(state, data, config, shared)
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
    draw = _draw(_psi_naive_system(state, data, config, shared), streams)
    state.Psi = _unvec(draw, state.Psi.shape[-2])


def _psi_fast_system(state, data, config, shared):
    """The prior-whitened, doubly-diagonalized Psi system.

    After scaling column h of Psi by tau_h^{1/2} the joint precision is
    I + A_tilde (x) X'X; rotating by the eigenvectors U_x of X'X and U_a of
    A_tilde makes it diagonal with entries ``denom`` = 1 + lam_X[p] lam_A[h],
    and the rotated linear term is C. Psi = (U_x W U_a') tau^{-1/2} where W
    has independent entries N(C / denom, 1 / denom). Returns
    (U_x, U_a, tau^{-1/2}, denom, C).
    """
    A, lin = _psi_linear_terms(state, data, config, shared)
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
    U_x, U_a, t_isqrt, denom, C = _psi_fast_system(state, data, config, shared)
    W = C / denom + streams.standard_normal(denom.shape) / np.sqrt(denom)
    state.Psi = (U_x @ W @ _T(U_a)) * t_isqrt[..., None, :]


def psi_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig,
                            method: str = "fast"):
    """Mean and per-entry variance (both (P, S1)) of the Psi full conditional.

    Both methods target the identical distribution and use the same system
    as the matching update; this is the hook the equivalence tests use.
    """
    state, data, shared = _one_chain(state, dataset, config)
    P = state.Psi.shape[-2]
    if method == "naive":
        mean, cov = _precision_moments(*_psi_naive_system(state, data, config, shared))
        return _unvec(mean[0], P), _unvec(np.diag(cov[0])[:, None], P)
    if method == "fast":
        U_x, U_a, t_isqrt, denom, C = _psi_fast_system(state, data, config, shared)
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
    ``x_psi`` and ``Y`` are in the sweep's rows (``_rows``).
    """
    bs = loadings * (1.0 / state.sigma_sq)[..., None, :]    # B Sigma^{-1}
    lin = bs @ _T(Y) - (bs @ _T(state.Gamma)) @ _T(x_psi)
    return _factor(bs @ _T(loadings), prior_prec, what), lin


# A statistics sweep draws the S chi^2(dof) variates of its Bartlett
# diagonal as sums of squared normals while dof * S is at most this: below
# it the extra normals cost less than a second Generator call per chain
# (about 3 us against 4 ns per normal, numpy 2.4).
_CHI2_BY_NORMALS = 512


def _compressed_rows(data, streams, S: int) -> np.ndarray:
    """A draw of the normals Z~ in the P + K + S rows of a statistics sweep,
    returned as Z~' (S, P + K + S) for ``_draw_from_precision``.

    With A = [X Y] and R the block factor of A'A (``ChainData``), take the
    rows A~ = [R; 0] and Z~ = [G; L_W'], with G (P + K, S) standard
    normal and W = L_W L_W' ~ Wishart_S(N - P - K, I) by Bartlett's
    decomposition: L_W is lower triangular with N(0, 1) entries below the
    diagonal and (L_W)_ii^2 ~ chi^2(N - P - K - i), i = 0, ..., S - 1
    (Odell & Feiveson, JASA 1966). Then A~'A~ = A'A, and (A~'Z~, Z~'Z~) =
    (R'G, G'G + W) has the law of (A'Z, Z'Z) for Z (N, S) iid N(0, 1): G is
    Z's part along A, rotated into R's coordinates, and W the Gram matrix of
    its independent remainder. Every cross-product of columns A c + Z d the
    sweep reads (D'D, D'Y, F'F, X'F and a residual's sum of squares) so has
    its law over N rows. A~'s X and Y columns are ``data.x_rows`` and
    ``data.target_rows`` (``_rows``).

    Each chain draws its normals in one ``standard_normal`` call: G, an
    S x S block whose part above the diagonal gives L_W', and one whose
    part above the diagonal adds S - 1 - i squares to (L_W)_ii^2. What is
    left, chi^2(N - P - K - S + 1) for every i, is one Gamma call of one
    shape (several times faster than a call with S shapes) or, where
    ``_CHI2_BY_NORMALS`` allows, the sum of squares of a last block of
    normals in the same call.
    """
    lead, rows = data.target_rows.shape[:-2], data.target_rows.shape[-2]
    m = rows - S
    dof = data.n_samples - m - S + 1
    by_normals = dof * S <= _CHI2_BY_NORMALS
    z = streams.standard_normal((*lead, m + 2 * S + dof * by_normals, S))
    # Row i of each S x S block has S - 1 - i entries above the diagonal.
    upper = np.arange(S) > np.arange(S)[:, None]
    extra = ((z[..., rows:rows + S, :] * upper) ** 2).sum(axis=-1)
    if by_normals:
        chi2 = (z[..., rows + S:, :] ** 2).sum(axis=-2)
    else:
        chi2 = streams.gamma(0.5 * dof, np.full((*lead, S), 2.0))
    Z = z[..., :rows, :]
    Z[..., m:, :] = Z[..., m:, :] * upper + np.sqrt(chi2 + extra)[..., None, :] * np.eye(S)
    return _T(Z)


def _update_factor_rows(state, data, config: ModelConfig, streams, shared: dict,
                        loadings, prior_prec, what: str) -> None:
    """Draw the variant's factor rows F (``_factor_rows_system``) in the
    sweep's rows: Omega's for latent noise, H's for independent noise.

    In the N data rows F is the state's new field. In the compressed rows
    of a statistics sweep the normals are ``_compressed_rows``' Z~, so F's
    cross-products with X, Y and itself have their law over N rows without
    a pass over X or Y; F is left in ``shared["factor_rows"]`` for the rest
    of the sweep and the state's field becomes None.
    """
    _, Y, x_psi, _ = _rows(state, data, config, shared)
    # The compressed rows' normals are drawn before the system is factored.
    z = _compressed_rows(data, streams, loadings.shape[-2]) if shared.get("compressed") else None
    F = _T(_draw(_factor_rows_system(loadings, prior_prec, state, x_psi, Y, what), streams, z))
    setattr(state, FACTOR_ROWS[config.variant], F if z is None else None)
    shared["factor_rows"] = F


def update_omega(state, data, config: ModelConfig, streams, shared: dict):
    """Draw the latent noise Omega (``_update_factor_rows``), as N rows or,
    on a statistics sweep, in the compressed rows."""
    if not config.sigma_omega_sq or config.sigma_omega_sq <= 0:
        raise ConfigurationError("sampling Omega requires sigma_omega_sq > 0")
    _update_factor_rows(state, data, config, streams, shared, state.Gamma,
                        state.tau / data.sigma_omega_sq[..., None], "omega update")


def omega_conditional_moments(state: ModelState, dataset: Dataset, config: ModelConfig):
    """Exact mean (N, S1) and shared covariance (S1, S1) of the Omega rows."""
    state, data, shared = _one_chain(state, dataset, config)
    _, Y, x_psi, _ = _rows(state, data, config, shared)
    mean, cov = _precision_moments(*_factor_rows_system(
        state.Gamma, state.tau / data.sigma_omega_sq[..., None], state, x_psi, Y,
        "omega moments"))
    return _T(mean)[0], cov[0]


def update_h(state, data, config: ModelConfig, streams, shared: dict):
    """Draw the independent-noise factor rows H (``_update_factor_rows``),
    as N rows or, on a statistics sweep, in the compressed rows.

    A state without the noise stack raises StateError (via ``tau_noise``).
    """
    _update_factor_rows(state, data, config, streams, shared, state.Lambda, state.tau_noise,
                        "H update")


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
    """Quadratic forms and entry count entering the delta conditional, with
    diag(Omega'Omega) from the sweep's rows (``_rows``)."""
    quads = (state.phi_gamma * state.Gamma**2).sum(axis=-1) + (state.Psi**2).sum(axis=-2)
    count = state.Gamma.shape[-1] + state.Psi.shape[-2]
    if config.variant is Variant.LATENT_NOISE:
        omega = _rows(state, data, config, shared)[3]
        quads = quads + (omega**2).sum(axis=-2) / data.sigma_omega_sq[..., None]
        count += data.n_samples
    return quads, count


def update_delta(state, data, config: ModelConfig, streams, shared: dict):
    """Global shrinkage increments for the Gamma/Psi(/Omega) stack."""
    quads, count = _delta_quads(state, data, config, shared)
    state.delta = _draw_mgp_delta(state.delta, quads, count, config.a1, config.a2, streams)


def update_delta_noise(state, data, config: ModelConfig, streams, shared: dict):
    """Global shrinkage increments for the independent-noise H/Lambda stack,
    with diag(H'H) from the sweep's rows (``_rows``)."""
    H = _rows(state, data, config, shared)[3]
    quads = (state.phi_lambda * state.Lambda**2).sum(axis=-1) + (H**2).sum(axis=-2)
    count = state.Lambda.shape[-1] + data.n_samples
    state.delta_noise = _draw_mgp_delta(state.delta_noise, quads, count,
                                         config.a1, config.a2, streams)


def update_sigma(state, data, config: ModelConfig, streams, shared: dict):
    """Conjugate update of the target-specific noise precisions, with each
    residual sum of squares of Y - D B summed in the sweep's rows (``_rows``),
    by ``model.sum_squares`` in row blocks of ``model.ROW_BLOCK_VALUES`` values.

    In the rows of a statistics sweep, target k's residual A u_k - Z v_k
    becomes R u_k - G v_k stacked over L_W' v_k, so its sum of squares is
    ||R u_k - G v_k||^2 + v_k' W v_k, that of the N rows.
    """
    D, Y, _, _ = _design(state, data, config, shared)
    B = mean_coefficients(state, config)
    rss = sum_squares(lambda rows: isub(D[:, rows] @ B, Y[:, rows]), Y.shape)
    rate = config.b_sigma + 0.5 * rss
    precision = streams.gamma(config.a_sigma + 0.5 * data.n_samples, 1.0 / rate)
    state.sigma_sq = 1.0 / precision


# ---------------------------------------------------------------------------
# sweep and chain driver


def _accumulate(timings, name, t0):
    timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0)


def gibbs_sweep(state: ModelState, data: ChainData, config: ModelConfig,
                streams: ChainStreams, *, stats: RunStats | None = None) -> None:
    """One full update cycle of every chain in ``state``, in a fixed order.

    ``state`` holds C >= 1 chains along its leading axis, ``data`` their
    data and ``streams`` their Generators. The variant's cycle is a list of
    (timing bucket, update) steps, each called with the sweep's signature
    ``(state, data, config, streams, shared)`` in one loop; the null
    variant's list is empty. The list is built on each call from this
    module's ``update_*`` names, so replacing one of them is how a caller
    injects a fault or traces a step. The updates share the factor rows a
    statistics sweep draws and the Gamma step's D'D and D'Y through one
    per-sweep dict. The sweep works in the N data rows exactly when
    ``data.target_rows`` is None, and otherwise in the compressed rows of a
    statistics sweep, leaving the state's factor rows (Omega or H) None
    (``_rows``). The sweep, each step's wall time (added to its bucket) and
    a sweep in the N data rows (``omega_row_sweeps``) are counted in
    ``stats``, or in a fresh RunStats that is dropped when none is given.

    A numerical failure on any chain raises NumericalError from the step
    where it occurs, and ``state`` is then part-way through the sweep.
    """
    stats = RunStats() if stats is None else stats
    stats.sweeps += 1
    shared: dict = {"compressed": data.target_rows is not None}
    psi = ("psi", update_psi_naive if config.psi_update == "naive" else update_psi_fast)
    gamma, phi = ("gamma", update_gamma), ("phi", update_phi_gamma)
    delta, sigma = ("delta", update_delta), ("sigma", update_sigma)
    steps = {Variant.LATENT_NOISE: [psi, ("omega", update_omega), gamma, phi, delta, sigma],
             Variant.INDEPENDENT_NOISE: [("h", update_h), psi, gamma, ("lambda", update_lambda),
                                         phi, ("phi", update_phi_lambda), delta,
                                         ("delta", update_delta_noise), sigma],
             Variant.NO_NOISE: [psi, gamma, phi, delta, sigma]}.get(config.variant, [])
    for bucket, update in steps:
        t0 = time.perf_counter()
        update(state, data, config, streams, shared)
        _accumulate(stats.wall_time_seconds, bucket, t0)
    stats.omega_row_sweeps += not shared["compressed"]


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
    wall time per update bucket and the sweep counts to ``stats``.

    Every sweep works in the compressed rows where the batch has them, and
    ``retain`` changes no draw, so a chain draws the same variates in
    ``run_chain`` as in ``run_chains``. A retained state of such a batch
    carries no Omega or H (None); ``draw_factor_rows`` draws them for
    ``samples.bin``.
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
        try:
            gibbs_sweep(state, data, config, streams, stats=stats)
        except NumericalError as exc:
            raise NumericalError(f"{exc} (iteration {it})") from exc
        if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
            theta_sum += state.theta
            if retain:
                retained.append(state.chain(0))
    return list(theta_sum / n_retained), tuple(retained)


def run_chain(dataset: Dataset, config: ModelConfig) -> ChainTrace:
    """Run one Gibbs chain; deterministic given (dataset, config.seed).

    The one-chain case of ``run_chains``. Retains every ``thin``-th
    post-burn-in state and the posterior mean of Theta = Psi Gamma over the
    retained states. A numerical failure raises NumericalError with the
    iteration index attached. Where the sweeps work in compressed rows the
    retained states carry no factor rows (Omega or H is None);
    ``draw_factor_rows`` draws them.
    """
    config = _resolved(dataset, config)
    stats = RunStats()
    theta_means, retained = _advance([dataset], [config], stats, retain=True)
    samples = PosteriorSamples(states=retained, theta_mean=theta_means[0], config=config)
    return ChainTrace(samples=samples, stats=stats)


def draw_factor_rows(samples: PosteriorSamples, dataset: Dataset) -> PosteriorSamples:
    """``samples`` (of ``run_chain`` on ``dataset``) with each retained
    state's factor rows, Omega for latent noise and H for independent noise
    (``model.FACTOR_ROWS``), drawn in the N data rows from their full
    conditional given the rest of that state. Samples of the other variants
    are returned as they are.

    The sweeps integrate the factor rows out or draw them in compressed
    rows, and no summary reads them. Drawing them after the run, given each
    retained state, through the Omega and H steps' system
    (``_factor_rows_system``), gives each pair the joint posterior law: the
    collapsed-Gibbs move of recovering an integrated-out block from its
    full conditional (Liu, JASA 1994). Rows a row sweep drew are replaced.
    The normals come from a Generator spawned from ``config.seed``, one
    draw per state in the order of the states, so the chain's own stream,
    and with it every other output, does not depend on whether the rows
    are drawn.
    """
    config = samples.config
    field = FACTOR_ROWS.get(config.variant)
    if field is None:
        return samples
    rng = np.random.default_rng(config.seed).spawn(1)[0]
    states = []
    for state in samples.states:
        if config.variant is Variant.LATENT_NOISE:
            loadings, prior_prec = state.Gamma, state.tau / config.sigma_omega_sq
        else:
            loadings, prior_prec = state.Lambda, state.tau_noise
        system = _factor_rows_system(loadings, prior_prec, state, dataset.X @ state.Psi,
                                     dataset.Y, f"{field} rows")
        F = _draw(system, None, rng.standard_normal(system[1].shape))
        states.append(replace(state, **{field: _T(F)}))
    return replace(samples, states=tuple(states))


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
