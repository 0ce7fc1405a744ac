"""Monte-Carlo checks of the shrinkage prior and sampler validation.

Two closed-form properties of the infinite shrinkage prior are verified by
simulation:

* the prior variance of a single-target prediction is finite whenever
  a1 > 2, a2 > 3, nu > 2, and equals
  nu/(nu-2) * sum_j Var(x_j) * r(a1) / (1 - r(a2)) with
  r(a) = Gamma(a-2)/Gamma(a) = 1/((a-1)(a-2));
* the relative variance deficit of a rank-S truncation is r(a2)^S, i.e.
  truncation error decays exponentially in the rank.

Both checks average iid per-draw values of finite variance, so their
standard errors are real. Raw moments of the prior are not usable: the
factors delta^-2 and 1/phi of the shrinkage stack have infinite variance at
the usual a1 = 3, a2 = 4, nu = 3. So the Gaussian layers and phi are
integrated out exactly, and each delta factor is importance-sampled from a
Gamma proposal whose weighted draws have finite second moments whenever
a > 2 (``_delta_factors``); the weights never use the ratio under test.

The Geweke harness validates the Gibbs updates jointly: a
marginal-conditional simulator (fresh prior draw plus data each iteration)
and a successive-conditional simulator (Gibbs sweep plus data regeneration)
must produce the same distribution over a fixed set of monitored statistics;
disagreement shows up as large two-sample z-scores.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

import latent_brrr.gibbs as gibbs
from latent_brrr.chains import ChainData, ChainStreams
from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.model import (
    FACTOR_ROWS,
    Dataset,
    Dims,
    ModelConfig,
    ModelState,
    Variant,
    _prior_draws,
    check_number,
    mean_coefficients,
    mean_design,
    sample_prior,
)


@dataclass(frozen=True)
class PropositionReport:
    """Outcome of one Monte-Carlo check against a closed-form value.

    ``passed`` is true when |analytic - empirical| does not exceed
    max(3 * mc_standard_error, tolerance).
    """

    analytic_value: float
    empirical_value: float
    mc_standard_error: float
    n_draws: int
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _make_report(analytic, empirical, se, n_draws, tolerance):
    gap = abs(analytic - empirical)
    return PropositionReport(
        analytic_value=float(analytic),
        empirical_value=float(empirical),
        mc_standard_error=float(se),
        n_draws=int(n_draws),
        tolerance=float(tolerance),
        passed=bool(gap <= max(3.0 * se, tolerance)),
    )


# ---------------------------------------------------------------------------
# closed forms


def gamma_ratio_two_down(a: float) -> float:
    """Gamma(a-2)/Gamma(a) via the overflow-free identity 1/((a-1)(a-2))."""
    if a <= 2:
        raise ConfigurationError("gamma ratio requires a > 2")
    return 1.0 / ((a - 1.0) * (a - 2.0))


def gamma_ratio_two_down_direct(a: float) -> float:
    """Gamma(a-2)/Gamma(a) through log-gamma, kept as a cross-check."""
    if a <= 2:
        raise ConfigurationError("gamma ratio requires a > 2")
    return math.exp(math.lgamma(a - 2.0) - math.lgamma(a))


def prediction_variance_limit(a1: float, a2: float, nu: float, var_x: float,
                              n_covariates: int) -> float:
    """Prior variance of one predicted target under the infinite model, for
    ``n_covariates`` covariates of variance ``var_x`` each."""
    for name, value in (("a1", a1), ("a2", a2), ("nu", nu), ("var_x", var_x)):
        check_number(name, value)
    if not a1 > 2 or not a2 > 3 or not nu > 2:
        raise ConfigurationError(
            "prediction variance diverges unless a1 > 2, a2 > 3 and nu > 2"
        )
    if var_x < 0:
        raise ConfigurationError("var_x must be finite and non-negative")
    check_number("n_covariates", n_covariates, integer=True)
    if n_covariates < 0:
        raise ConfigurationError("n_covariates must be >= 0")
    r1 = gamma_ratio_two_down(a1)
    r2 = gamma_ratio_two_down(a2)
    return float(nu / (nu - 2.0) * (n_covariates * float(var_x)) * r1 / (1.0 - r2))


def truncation_deficit(a2: float, rank: int) -> float:
    """Relative prediction-variance loss of a rank truncation: r(a2)^rank."""
    check_number("a2", a2)
    if not a2 > 3:
        raise ConfigurationError("truncation deficit is defined for a2 > 3")
    if rank < 0:
        raise ConfigurationError("rank must be non-negative")
    return gamma_ratio_two_down(a2) ** rank


# ---------------------------------------------------------------------------
# Monte-Carlo proposition checks


def _delta_factors(a: float, size, rng: np.random.Generator) -> np.ndarray:
    """Importance-sampled draws whose mean is E[delta^-2] = r(a), delta ~ Ga(a, 1).

    delta is drawn from Ga(a - k, 1) with k = 3 - a/2 and weighted by the
    density ratio Gamma(a - k)/Gamma(a) * delta^k, so each draw is
    f = Gamma(a - k)/Gamma(a) * delta^(k - 2). Then E[f] = r(a) and
    E[f^2] = Gamma(a - k) Gamma(a + k - 4) / Gamma(a)^2, finite exactly when
    a - k = 3a/2 - 3 > 0 and a + k - 4 = a/2 - 1 > 0, i.e. when a > 2, the
    condition under which r(a) exists. At a = 4 this is Ga(3, 1) with
    f = 1/(3 delta), the proposal of ``check_prop2``.
    """
    k = 3.0 - a / 2.0
    scale = math.exp(math.lgamma(a - k) - math.lgamma(a))
    return scale * rng.gamma(a - k, 1.0, size=size) ** (k - 2.0)


def _chunked_se(values: np.ndarray, statistic, n_chunks: int = 50):
    """Standard error of ``statistic`` over equal chunks of the draws."""
    n_chunks = min(n_chunks, max(2, values.shape[0] // 100))
    chunks = np.array_split(values, n_chunks)
    stats = np.array([statistic(c) for c in chunks])
    return stats.std(ddof=1) / np.sqrt(len(stats))


# Values in each (draws, truncation) array of one ``check_prop1`` batch: 1.6 MB
# of float64, so memory stays flat in the truncation.
_PROP1_BATCH_VALUES = 200_000


def check_prop1(a1: float, a2: float, nu: float, n_covariates: int,
                var_x: float = 1.0, truncation: int = 50,
                n_draws: int = 1_000_000, rng: np.random.Generator | None = None,
                tolerance: float = 0.0, batch_size: int = 4000) -> PropositionReport:
    """Monte-Carlo estimate of the prior prediction variance versus its closed form.

    The prediction is y = sum_h (x' psi_h) gamma_h with x ~ N(0, var_x I_P),
    psi_h ~ N(0, I_P / tau_h), gamma_h ~ N(0, 1/(phi_h tau_h)) and
    tau_h = delta_1 ... delta_h, truncated at ``truncation`` components.
    The sample variance of y is unusable as an estimator: it needs E[y^4],
    hence E[phi^-2] and E[delta_1^-4], which diverge at the usual nu = 3,
    a1 = 3, so no standard error of it exists. Each draw is instead the
    exact conditional expectation of y^2 given three cheap ingredients, and
    the estimate is the plain mean of iid per-draw values with standard
    error sd/sqrt(n). Each ingredient has a finite second moment:

    * projection: given x, the x' psi_h are independent N(0, |x|^2/tau_h),
      so the draw is |x|^2 = var_x chi2_P and z_h ~ N(0, 1), never the
      P x truncation matrix Psi; |x|^4 and z_h^4 have finite means;
    * gamma and phi integrate out exactly: E[gamma_h^2 | tau] averages
      1/(phi_h tau_h) over phi_h ~ Ga(nu/2, nu/2), giving nu/(nu-2) / tau_h,
      so the per-draw value is nu/(nu-2) |x|^2 sum_h z_h^2 / tau_h^2;
    * each factor delta_l^-2 of 1/tau_h^2 is importance-sampled by
      ``_delta_factors`` (a1 for l = 1, a2 after), whose draws have finite
      variance whenever a > 2; the weights use Gamma(a - k)/Gamma(a), never
      the ratio Gamma(a - 2)/Gamma(a) under test.

    The factors are independent, so every term of the sum has a finite
    second moment and the standard error is calibrated. Memory and time per
    draw are O(truncation), independent of the number of covariates.
    ``batch_size`` is an upper bound on the draws per batch: a batch holds at
    most ``_PROP1_BATCH_VALUES`` values per (draws, truncation) array.
    """
    analytic = prediction_variance_limit(a1, a2, nu, var_x, n_covariates)
    if n_covariates == 0:
        return _make_report(analytic, 0.0, 0.0, 0, tolerance)
    if truncation < 1 or n_draws < 200 or batch_size < 1:
        raise ConfigurationError("need truncation >= 1, n_draws >= 200 and batch_size >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    # Running mean and sum of squared deviations, merged batch by batch.
    mean, m2 = 0.0, 0.0
    batch_size = min(batch_size, max(1, _PROP1_BATCH_VALUES // truncation))
    for start in range(0, n_draws, batch_size):
        b = min(batch_size, n_draws - start)
        norm_sq = var_x * rng.chisquare(n_covariates, size=b)
        z_sq = np.square(rng.standard_normal((b, truncation)))
        inv_tau_sq = np.empty((b, truncation))
        inv_tau_sq[:, 0] = _delta_factors(a1, b, rng)
        inv_tau_sq[:, 1:] = _delta_factors(a2, (b, truncation - 1), rng)
        np.cumprod(inv_tau_sq, axis=1, out=inv_tau_sq)
        values = nu / (nu - 2.0) * norm_sq * np.einsum("bh,bh->b", z_sq, inv_tau_sq)
        batch_mean = values.mean()
        shift = batch_mean - mean
        total = start + b
        mean += shift * b / total
        m2 += np.square(values - batch_mean).sum() + shift**2 * start * b / total
    se = math.sqrt(m2 / (n_draws - 1) / n_draws)
    return _make_report(analytic, mean, se, n_draws, tolerance)


# The reference truncation of ``check_prop2``: every checked rank stays below it.
PROP2_REFERENCE_TRUNCATION = 50


def check_prop2(a2: float, rank: int | Sequence[int], *,
                reference_truncation: int = PROP2_REFERENCE_TRUNCATION,
                n_draws: int = 1_000_000, rng: np.random.Generator | None = None,
                tolerance: float = 0.0,
                batch_size: int = 4000) -> PropositionReport | list[PropositionReport]:
    """Monte-Carlo estimate of the truncation deficit versus its closed form.

    Compares the prediction variance of the rank truncation against a long
    reference truncation, as 1 - Var(y_rank)/Var(y_ref). Conditional on the
    shrinkage draws, the prediction variance is exactly proportional to
    sum_h 1/(phi_h tau_h^2) (the Gaussian layers x, Psi, gamma integrate
    analytically, and the covariate-scale factor cancels in the ratio), so
    the deficit is 1 - E[sum_{h<=rank} .] / E[sum_{h<=ref} .] over prior
    draws of (delta, phi).

    Averaging 1/(phi_h tau_h^2) directly is unusable: its factors delta^-2
    have infinite variance (E[delta^-4] diverges for delta ~ Ga(a, 1) with
    a <= 4, e.g. the usual a1 = 3, a2 = 4), so the chunked standard error
    understates the error and the 3-SE verdict means nothing. The estimator
    therefore reduces the ratio to what it depends on:

    * delta_1 multiplies every term and is independent of the rest, so it
      cancels exactly from numerator and denominator;
    * every phi_h has the same mean of 1/phi, nu/(nu-2), and is independent
      of delta, so phi cancels exactly too;
    * each remaining delta_l (l >= 2) is drawn from Ga(a2-1, 1) instead of
      Ga(a2, 1) and weighted by the ratio of the Ga(a2, 1) to the
      Ga(a2-1, 1) density, delta/(a2-1); the factor delta^-2 then becomes
      1/((a2-1) delta), whose second moment is finite exactly when a2 > 3,
      the condition under which the deficit is defined. The weight uses
      only Gamma(a2-1)/Gamma(a2), not the ratio Gamma(a2-2)/Gamma(a2) under
      test.

    Term h is then the product of the first h-1 such factors. As ``a1`` and
    ``nu`` cancel exactly, the check takes neither.

    ``rank`` may be a sequence of ranks, each checked (0 <= rank <
    ``reference_truncation``) before any draw; one list of reports, in
    that order, then comes from one set of draws, whose reference sum every
    rank shares. Each rank's report equals, bit for bit, that of a
    single-rank call on a Generator in the same state, so the ranks' errors
    are correlated.
    """
    single = np.ndim(rank) == 0
    ranks = [rank] if single else list(rank)
    analytic = [truncation_deficit(a2, r) for r in ranks]
    if max(ranks, default=0) >= reference_truncation:
        raise ConfigurationError("rank must stay below the reference truncation")
    if n_draws < 200 or batch_size < 1:
        raise ConfigurationError("need n_draws >= 200 and batch_size >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    # Row i holds rank i's partial sums and the last row the full sums, so
    # the draws are made once and no per-batch list is concatenated.
    sums = np.empty((len(ranks) + 1, n_draws))
    for start in range(0, n_draws, batch_size):
        b = min(batch_size, n_draws - start)
        delta = rng.gamma(a2 - 1.0, 1.0, size=(b, reference_truncation - 1))
        terms = np.ones((b, reference_truncation))
        np.cumprod(1.0 / ((a2 - 1.0) * delta), axis=1, out=terms[:, 1:])
        for row, r in enumerate(ranks):
            terms[:, :r].sum(axis=1, out=sums[row, start:start + b])
        terms.sum(axis=1, out=sums[-1, start:start + b])

    reports = []
    for row, expected in enumerate(analytic):
        def deficit(block, row=row):
            return 1.0 - block[:, row].mean() / block[:, -1].mean()

        se = _chunked_se(sums.T, deficit)
        reports.append(_make_report(expected, deficit(sums.T), se, n_draws, tolerance))
    return reports[0] if single else reports


# ---------------------------------------------------------------------------
# Geweke joint-distribution test


@dataclass(frozen=True)
class GewekeReport:
    """z-scores per monitored statistic and test function, from ``n_chains``
    chains of ``iterations_per_chain`` sweeps for ``n_iter`` asked draws."""

    z_scores: dict[str, float]
    n_iter: int
    n_chains: int
    iterations_per_chain: int

    def fraction_within(self, threshold: float = 4.0) -> float:
        values = np.array(list(self.z_scores.values()))
        return float(np.mean(np.abs(values) < threshold))

    def max_abs_z(self) -> float:
        return float(np.max(np.abs(np.array(list(self.z_scores.values())))))

    def as_dict(self) -> dict:
        return {**asdict(self), "fraction_within_4": self.fraction_within(4.0),
                "max_abs_z": self.max_abs_z(), "z_scores": dict(sorted(self.z_scores.items()))}


# Chains on the successive-conditional side of ``geweke_test``; the spread of
# their means gives its standard error, with GEWEKE_CHAINS - 1 degrees of freedom.
GEWEKE_CHAINS = 32
# Fewest sweeps per chain, unless n_iter is smaller: a faulty update moves a
# chain off the joint distribution a little on each sweep it applies.
GEWEKE_MIN_SWEEPS = 25

# Test functions g(theta, m, s), with m the median and s the median |theta|
# of a statistic on the marginal side; all but the raw mean are bounded.
_TEST_FUNCTIONS = (
    ("mean", lambda v, m, s: v),
    ("arctan", lambda v, m, s: np.arctan(v / s)),
    ("above_median", lambda v, m, s: (v > m).astype(float)),
    ("outside_2s", lambda v, m, s: (np.abs(v) > 2.0 * s).astype(float)),
)


def default_geweke_config(rank: int = 2) -> ModelConfig:
    """Small latent-noise configuration whose monitored statistics all have
    finite fourth moments (nu > 4, a_sigma > 4), keeping the z-scores stable."""
    return ModelConfig(
        variant=Variant.LATENT_NOISE, rank=rank, a1=3.0, a2=4.0, nu=6.0,
        a_sigma=5.0, b_sigma=1.0, sigma_omega_sq=1.0,
        iterations=2, burn_in=0, thin=1,
    )


def _draw_response(state: ModelState, X: np.ndarray, config: ModelConfig,
                   standard_normal) -> np.ndarray:
    """Y (C, N, K) given each stacked draw, noise from ``standard_normal``.

    A draw without its factor rows (a statistics sweep leaves Omega or H
    None) takes fresh rows from their prior given the rest of the state,
    N(0, sigma_omega_sq / tau_h) for Omega and N(0, 1 / tau_noise_h) for H,
    in the same call as the noise. That draws Y given the rest of the
    state, which is all the next sweep reads: its Psi step integrates Omega
    out, and H is the first step of its cycle.
    """
    (C, _, K), N = state.Gamma.shape, X.shape[0]
    field = FACTOR_ROWS.get(config.variant)
    rows = getattr(state, field) if field else None
    if field and rows is None:
        variance = config.sigma_omega_sq / state.tau if field == "Omega" else 1.0 / state.tau_noise
        z = standard_normal((C, N, variance.shape[-1] + K))
        rows, noise = z[..., :-K] * np.sqrt(variance)[:, None, :], z[..., -K:]
    else:
        noise = standard_normal((C, N, K))
    mean = mean_design(X @ state.Psi, rows, config) @ mean_coefficients(state, config)
    return mean + noise * np.sqrt(state.sigma_sq)[:, None, :]


def _statistic_blocks(state: ModelState, Y: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The monitored statistics of each draw of the stacked ``state`` and its
    targets Y, as (label, values) pairs with the chain axis first; an entry
    is named by its label and its index within the values."""
    blocks = [("gamma", state.Gamma), ("psi", state.Psi), ("tau", state.tau),
              ("sigma_sq", state.sigma_sq), ("y", Y[:, :1, :1])]
    if state.Lambda is not None:
        blocks += [("lambda", state.Lambda), ("tau_noise", state.tau_noise)]
    return blocks


def _statistics(state: ModelState, Y: np.ndarray) -> np.ndarray:
    """The monitored statistics (C, S) of each draw, flattened block by block."""
    return np.concatenate([values.reshape(len(Y), -1)
                           for _, values in _statistic_blocks(state, Y)], axis=1)


def _chain_mean_z(ind: np.ndarray, dep: np.ndarray) -> np.ndarray:
    """z-scores of mean(ind) - mean(dep) per trailing index, for iid draws
    ``ind`` (n, ...) and C independent stationary chains ``dep`` (L, C, ...).
    The chain means are iid, so var(chain means, ddof=1) / C is the variance
    of their average however autocorrelated each chain is. With both
    standard errors zero, z is 0 for equal means, else infinite."""
    chain_means = dep.mean(axis=0)
    diff = ind.mean(axis=0) - chain_means.mean(axis=0)
    se_sq = ind.var(axis=0, ddof=1) / len(ind) + \
        chain_means.var(axis=0, ddof=1) / len(chain_means)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se_sq > 0, diff / np.sqrt(se_sq), np.where(diff == 0, 0.0, np.inf))


def geweke_test(config: ModelConfig, dims: Dims, n_iter: int,
                rng: np.random.Generator) -> GewekeReport:
    """Run both simulators and return a z-score per statistic and test function.

    Statistics: every Gamma and Psi entry, each tau_h, each sigma_sq_j, and
    one response entry, plus every Lambda entry and each tau_noise_h for the
    independent-noise variant. Each statistic theta has a z-score per test
    function g (``_TEST_FUNCTIONS``), whose standard errors are sample
    variances of g, consistent where E[g^2] is finite: always for a bounded
    g, and for theta itself when a1 > 2 and nu > 2. A second moment's would
    need E[theta^8], infinite at a1 = 3.

    The successive-conditional side runs C = min(GEWEKE_CHAINS, n_iter)
    chains, at least two, of ceil(n_iter / C) sweeps, but no fewer than
    min(n_iter, GEWEKE_MIN_SWEEPS), on one chain axis, each on a Generator
    spawned from ``rng`` and started from an exact prior draw; each
    iteration redraws every chain's Y given its draw (X stays fixed; a
    draw without its factor rows takes fresh ones from their prior,
    ``_draw_response``), then sweeps: in the compressed rows of a
    statistics sweep where the ChainData has the block factor, and in the N
    data rows where its ``target_rows`` is None. A correct sweep leaves the
    joint distribution invariant, so each chain is stationary from its first
    step and the C chain means of any g are iid: their spread is the
    standard error (``_chain_mean_z``). The marginal side draws as many iid
    (prior, Y) pairs from ``rng``: each iteration draws C prior states in
    one call (``model._prior_draws``, each field for all C at once) and
    their Y. Replacing a ``gibbs.update_*`` for the run is how a fault is
    injected: the sweep calls the module's update names as they are at
    call time. A numerical failure on any chain raises NumericalError from
    the sweep where it occurs.
    """
    if n_iter < 1:
        raise ConfigurationError("geweke_test needs n_iter >= 1")
    n_chains = max(2, min(GEWEKE_CHAINS, n_iter))
    length = max(-(-n_iter // n_chains), min(n_iter, GEWEKE_MIN_SWEEPS))
    X = rng.standard_normal((dims.n_samples, dims.n_covariates))

    generators = rng.spawn(n_chains)
    state = ModelState.stack([sample_prior(config, dims, g) for g in generators])
    dataset = Dataset(X=X, Y=np.zeros((dims.n_samples, dims.n_targets)))
    data = ChainData([dataset] * n_chains, [config] * n_chains)
    names = [f"{label}[{','.join(map(str, index))}]"
             for label, values in _statistic_blocks(state, data.Y)
             for index in np.ndindex(values.shape[1:])]
    streams = ChainStreams(generators)
    marginal = np.empty((length, n_chains, len(names)))
    successive = np.empty_like(marginal)
    for t in range(length):
        prior = _prior_draws(config, dims, rng, n_chains)
        marginal[t] = _statistics(prior, _draw_response(prior, X, config, rng.standard_normal))
        Y = _draw_response(state, X, config, streams.standard_normal)
        data.set_targets(Y)
        gibbs.gibbs_sweep(state, data, config, streams)
        successive[t] = _statistics(state, Y)

    marginal = marginal.reshape(-1, len(names))
    finite = np.isfinite(marginal).all(axis=0) & np.isfinite(successive).all(axis=(0, 1))
    if not finite.all():
        raise NumericalError(f"non-finite statistic {names[np.argmin(finite)]}")
    median = np.median(marginal, axis=0)
    scale = np.median(np.abs(marginal), axis=0)
    scale[scale == 0] = 1.0
    z_scores: dict[str, float] = {}
    for suffix, g in _TEST_FUNCTIONS:
        z = _chain_mean_z(g(marginal, median, scale), g(successive, median, scale))
        z_scores.update((f"{name}:{suffix}", float(v)) for name, v in zip(names, z))
    return GewekeReport(z_scores=z_scores, n_iter=n_iter, n_chains=n_chains,
                        iterations_per_chain=length)
