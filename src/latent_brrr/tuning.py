"""Cross-validation over the latent-SNR grid and the rank truncation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.evaluate import mse
# run_chain stays bound here for callers and tracers that patch it by module.
from latent_brrr.gibbs import RunStats, run_chain, run_chains  # noqa: F401
from latent_brrr.model import Dataset, ModelConfig, Variant, check_number


@dataclass(frozen=True)
class CvPlan:
    """Grid and fold layout for one cross-validation run."""

    beta_grid: tuple[float, ...]
    rank_grid: tuple[int, ...]
    n_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, integer in (("beta_grid", False), ("rank_grid", True)):
            grid = getattr(self, name)
            if not isinstance(grid, tuple) or len(grid) == 0:
                raise ConfigurationError(f"{name} must be a non-empty list, got {grid!r}")
            for value in grid:
                check_number(f"{name} entry", value, integer)
        check_number("n_folds", self.n_folds, integer=True)
        # Any non-negative integer seeds the fold shuffle, so it has no 64-bit bound.
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if any(b <= 0 for b in self.beta_grid):
            raise ConfigurationError("beta grid values must be positive")
        if any(r < 1 for r in self.rank_grid):
            raise ConfigurationError("rank grid values must be >= 1")
        if self.n_folds < 2:
            raise ConfigurationError("n_folds must be >= 2")


def fold_assignments(n_samples: int, n_folds: int, seed: int) -> np.ndarray:
    """Fold index per row: contiguous blocks of a seeded shuffle.

    Depends only on (n_samples, n_folds, seed); every sample lands in
    exactly one validation fold.
    """
    if n_folds < 2 or n_folds > n_samples:
        raise ConfigurationError("need 2 <= n_folds <= n_samples")
    order = np.random.default_rng(seed).permutation(n_samples)
    assignment = np.empty(n_samples, dtype=int)
    for fold, block in enumerate(np.array_split(order, n_folds)):
        assignment[block] = fold
    return assignment


def cross_validate(dataset: Dataset, base_config: ModelConfig, plan: CvPlan,
                   stats: RunStats | None = None) -> tuple[ModelConfig, list[dict]]:
    """Score every grid point by k-fold CV MSE and return the winner.

    Ties break toward smaller rank, then larger beta (stronger
    regularization). For variants without latent noise the beta grid is
    irrelevant and collapses to a single row per rank. The score table has
    one row per grid point; a numerical failure in any fold marks the row
    failed instead of aborting the search, and the row's ``fold_errors``
    keeps each fold's error message (None for folds that fitted).

    The fits are listed grid point by grid point (rank-major) and fold by
    fold within each, and each gets its own seed, taken in that order from
    a stream drawn up front from ``base_config.seed``. ``run_chains``
    advances the fits of one rank and training-row count together; with
    ``stats``, their update timings and sweep count are added to it.
    """
    uses_beta = base_config.variant is Variant.LATENT_NOISE
    folds = fold_assignments(dataset.n_samples, plan.n_folds, plan.seed)
    for fold in range(plan.n_folds):
        if (folds != fold).sum() < 2:
            raise ConfigurationError(f"fold {fold} leaves fewer than two training rows")

    def grid_config(beta, rank, **fields) -> ModelConfig:
        if uses_beta:
            fields.update(latent_snr=beta, sigma_omega_sq=None)
        return replace(base_config, rank=rank, **fields)

    grid = [(beta, rank) for rank in plan.rank_grid
            for beta in (plan.beta_grid if uses_beta else (None,))]
    seeds = iter(np.random.SeedSequence(base_config.seed).generate_state(
        len(grid) * plan.n_folds, dtype=np.uint64))
    # One training Dataset per fold; each fit's batch forms its own X'X from it.
    train = [Dataset(X=dataset.X[folds != fold], Y=dataset.Y[folds != fold])
             for fold in range(plan.n_folds)]
    fits = [(train[fold], grid_config(beta, rank, seed=int(next(seeds))))
            for beta, rank in grid for fold in range(plan.n_folds)]
    trace = run_chains(fits, stats)
    outcomes = iter(zip(trace.theta_means, trace.errors))

    table: list[dict] = []
    for beta, rank in grid:
        fold_scores, fold_errors = [], []
        for fold in range(plan.n_folds):
            theta, error = next(outcomes)
            held_out = folds == fold
            score = float("nan") if error is not None else \
                mse(dataset.X[held_out] @ theta, dataset.Y[held_out])[0]
            fold_scores.append(score)
            fold_errors.append(error)
        scores = np.array(fold_scores)
        ok = np.isfinite(scores).all()
        table.append({
            "beta": beta,
            "rank": rank,
            "fold_mse": scores.tolist(),
            "mean_mse": float(scores.mean()) if ok else float("nan"),
            "status": "ok" if ok else "failed",
            "fold_errors": fold_errors,
        })

    candidates = [row for row in table if row["status"] == "ok"]
    if not candidates:
        raise NumericalError("every grid point failed during cross-validation")
    best = min(candidates,
               key=lambda r: (r["mean_mse"], r["rank"], -(r["beta"] or 0.0)))
    return grid_config(best["beta"], best["rank"]), table
