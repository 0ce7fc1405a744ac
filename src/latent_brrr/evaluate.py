"""Scoring utilities: test MSE, PTVE, permutation test."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from latent_brrr.errors import ConfigurationError, NumericalError
# run_chain stays bound here for callers and tracers that patch it by module.
from latent_brrr.gibbs import RunStats, batch_width, run_chain, run_chains  # noqa: F401
from latent_brrr.model import Dataset, ModelConfig, PosteriorSamples, sum_squares, total_variance


@dataclass(frozen=True)
class AssocResult:
    """Observed PTVE, its permutation distribution, and the empirical rank.

    ``retried_fits`` lists each fit whose first chain failed and was rerun
    with a fresh seed, as {"fit": index, "error": message}; index 0 is the
    fit to the observed data and index i the i-th permutation. It is run
    metadata and stays out of ``as_dict``.
    """

    observed_ptve: float
    perm_ptves: np.ndarray
    rank_fraction: float
    retried_fits: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {
            "observed_ptve": self.observed_ptve,
            "perm_ptves": self.perm_ptves.tolist(),
            "rank_fraction": self.rank_fraction,
        }


def mse(predictions: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Column-wise mean squared error and its average over targets, summed by
    ``model.sum_squares`` in row blocks of ``model.ROW_BLOCK_VALUES`` values."""
    predictions = np.asarray(predictions, dtype=float)
    y = np.asarray(y, dtype=float)
    if predictions.shape != y.shape:
        raise ConfigurationError(
            f"prediction shape {predictions.shape} does not match targets {y.shape}"
        )
    if y.shape[0] == 0:
        raise ConfigurationError("mse needs at least one row")
    N, K = y.shape
    if K == 1 or not (predictions.flags.c_contiguous and y.flags.c_contiguous):
        # numpy sums a contiguous column pairwise, not row by row: one target,
        # or squared errors it lays out column-major for column-major operands.
        per_target = ((predictions - y) ** 2).mean(axis=0)
        return float(per_target.mean()), per_target
    per_target = sum_squares(lambda rows: predictions[rows] - y[rows], y.shape) / N
    return float(per_target.mean()), per_target


def ptve(samples: PosteriorSamples, dataset: Dataset) -> float:
    """Proportion of total variance explained by the posterior-mean fit."""
    return ptve_from_theta(samples.theta_mean, dataset)


def ptve_from_theta(theta: np.ndarray, dataset: Dataset) -> float:
    total = total_variance(dataset.Y)
    if total <= 0:
        raise ConfigurationError("targets have zero total variance")
    return total_variance(dataset.X @ theta) / total


def permutation_test(dataset: Dataset, config: ModelConfig, n_perm: int,
                     rng: np.random.Generator, stats: RunStats | None = None) -> AssocResult:
    """Refit under row permutations of X and rank the observed PTVE.

    Permuting X breaks the covariate-target link while preserving the
    correlation structure of Y that the noise model must explain. Each fit
    gets its own seed pair, drawn up front from ``rng`` together with the
    permutations. The fit to the observed data and the permutation fits
    advance together in ``run_chains``, ``batch_width`` chains at a time,
    and a batch's permuted copies of X exist only while it runs. A failed
    chain is retried once with the pair's second seed and recorded in
    ``retried_fits``; a second failure aborts. With ``stats``, the update
    timings and sweep count are added to it.
    """
    if n_perm < 1:
        raise ConfigurationError("permutation test needs n_perm >= 1")
    n = dataset.n_samples
    permutations = [rng.permutation(n) for _ in range(n_perm)]
    seeds = rng.integers(0, 2**63, size=(n_perm + 1, 2))
    retried: list[dict] = []
    ptves = np.empty(n_perm + 1)
    width = batch_width(dataset, config)
    for start in range(0, n_perm + 1, width):
        batch = range(start, min(start + width, n_perm + 1))
        # One stacked copy of X holds the batch's row orders; each fit's
        # Dataset is a view of its slice, which run_chains stacks uncopied.
        rows = [np.arange(n) if fit == 0 else permutations[fit - 1] for fit in batch]
        X = dataset.X[np.array(rows)]
        data = {fit: Dataset(X=X[i], Y=dataset.Y) for i, fit in enumerate(batch)}
        trace = run_chains([(data[fit], replace(config, seed=int(seeds[fit, 0])))
                            for fit in batch], stats)
        thetas = dict(zip(batch, trace.theta_means))
        failed = [(fit, error) for fit, error in zip(batch, trace.errors) if error is not None]
        retried += [{"fit": fit, "error": error} for fit, error in failed]
        retry = run_chains([(data[fit], replace(config, seed=int(seeds[fit, 1])))
                            for fit, _ in failed], stats)
        for (fit, _), theta, error in zip(failed, retry.theta_means, retry.errors):
            if error is not None:
                raise NumericalError(error)
            thetas[fit] = theta
        for fit in batch:
            ptves[fit] = ptve_from_theta(thetas[fit], data[fit])
    observed, perm_ptves = float(ptves[0]), ptves[1:]
    return AssocResult(
        observed_ptve=observed,
        perm_ptves=perm_ptves,
        rank_fraction=float(np.mean(perm_ptves < observed)),
        retried_fits=tuple(retried),
    )
