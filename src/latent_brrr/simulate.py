"""Synthetic data from the mixture of latent and independent structured noise.

Data follow

    Y = (X Psi + alpha Omega) Gamma + (1 - alpha) H Lambda + E,

where alpha in [0, 1] interpolates between purely independent structured
noise (alpha = 0) and purely latent structured noise (alpha = 1). The rows
of Gamma and of Lambda are Gram-Schmidt orthogonalized, and the three
additive components (signal, structured noise, diagonal noise) are rescaled
on the realized sample so their aggregate variance fractions hit the
requested budget exactly; defaults put 3% of the variance in the signal,
77% in structured noise, and 20% in diagonal noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.model import Dataset, check_number, check_seed, total_variance

_COUNT_FIELDS = ("n_train", "n_test", "n_covariates", "n_targets", "rank")
_REAL_FIELDS = ("alpha", "var_signal", "var_diag", "var_structured")


@dataclass(frozen=True)
class SimConfig:
    """Generator settings: mixture weight, sizes, rank, variance budget."""

    alpha: float = 1.0
    n_train: int = 2000
    n_test: int = 15000
    n_covariates: int = 30
    n_targets: int = 60
    rank: int = 3
    var_signal: float = 0.03
    var_diag: float = 0.20
    var_structured: float = 0.77
    seed: int = 0

    def __post_init__(self):
        for name in _COUNT_FIELDS + _REAL_FIELDS:
            check_number(name, getattr(self, name), integer=name in _COUNT_FIELDS)
        check_seed(self.seed)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name in _COUNT_FIELDS:
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        fractions = (self.var_signal, self.var_diag, self.var_structured)
        if any(f < 0 for f in fractions):
            raise ConfigurationError("variance fractions must be non-negative")
        if abs(sum(fractions) - 1.0) > 1e-12:
            raise ConfigurationError("variance fractions must sum to 1")
        if self.rank > min(self.n_covariates, self.n_targets):
            raise ConfigurationError(
                "rank must not exceed min(n_covariates, n_targets) for orthogonalization"
            )


@dataclass(frozen=True)
class SimTruth:
    """Generating parameters after calibration, for oracle scoring.

    ``Psi`` absorbs the signal scale, so the true mean map is X Psi Gamma.
    ``omega_scale`` and ``h_scale`` are the multipliers applied to the raw
    standard-normal latent factors (alpha and the structured-noise scale
    folded in); ``noise_sd`` is the diagonal-noise standard deviation.
    """

    Psi: np.ndarray
    Gamma: np.ndarray
    Lambda: np.ndarray
    omega_scale: float
    h_scale: float
    noise_sd: float
    alpha: float
    realized_fractions: tuple[float, float, float]  # (signal, structured, diag)

    @property
    def theta(self) -> np.ndarray:
        return self.Psi @ self.Gamma


def _gram_schmidt_rows(M: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Orthogonalize rows in order; raises on numerically dependent rows."""
    out = M.astype(float).copy()
    for _ in range(2):  # second pass scrubs rounding residue
        for i in range(out.shape[0]):
            for j in range(i):
                out[i] -= (out[i] @ out[j]) / (out[j] @ out[j]) * out[j]
            if np.linalg.norm(out[i]) < rel_tol * np.linalg.norm(M[i]):
                raise NumericalError("Gram-Schmidt degeneracy: rows numerically dependent")
    return out


def generate(config: SimConfig,
             rng: np.random.Generator | None = None) -> tuple[Dataset, Dataset, SimTruth]:
    """Draw one replicate: train split, test split, and the scaled truth.

    Deterministic given ``config.seed`` when no generator is supplied.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    n_total = config.n_train + config.n_test
    P, K, S = config.n_covariates, config.n_targets, config.rank

    for attempt in range(10):
        try:
            X = rng.standard_normal((n_total, P))
            Psi = rng.standard_normal((P, S))
            Gamma = _gram_schmidt_rows(rng.standard_normal((S, K)))
            Omega = rng.standard_normal((n_total, S))
            Lam = _gram_schmidt_rows(rng.standard_normal((S, K)))
            H = rng.standard_normal((n_total, S))
            E = rng.standard_normal((n_total, K))
            break
        except NumericalError:
            if attempt == 9:
                raise
    signal = X @ Psi @ Gamma
    structured = config.alpha * (Omega @ Gamma) + (1.0 - config.alpha) * (H @ Lam)
    components = {
        "signal": (signal, config.var_signal),
        "structured": (structured, config.var_structured),
        "diag": (E, config.var_diag),
    }
    # Solve the scale of each component from its realized aggregate variance
    # so the fractions are exact on this sample; total trace is set to K
    # (average per-target variance one).
    scales = {}
    for name, (component, fraction) in components.items():
        realized = total_variance(component)
        if fraction > 0 and realized <= 0:
            raise NumericalError(f"degenerate {name} component in simulation")
        scales[name] = np.sqrt(fraction * K / realized) if fraction > 0 else 0.0

    Y = (scales["signal"] * signal
         + scales["structured"] * structured
         + scales["diag"] * E)

    truth = SimTruth(
        Psi=scales["signal"] * Psi,
        Gamma=Gamma,
        Lambda=Lam,
        omega_scale=scales["structured"] * config.alpha,
        h_scale=scales["structured"] * (1.0 - config.alpha),
        noise_sd=scales["diag"],
        alpha=config.alpha,
        realized_fractions=(
            total_variance(scales["signal"] * signal) / K,
            total_variance(scales["structured"] * structured) / K,
            total_variance(scales["diag"] * E) / K,
        ),
    )
    train = Dataset(X=X[:config.n_train], Y=Y[:config.n_train])
    test = Dataset(X=X[config.n_train:], Y=Y[config.n_train:])
    return train, test, truth


def oracle_mse(truth: SimTruth, test: Dataset) -> float:
    """Test MSE of the true-parameter mean prediction X Psi Gamma.

    The latent noise realizations are unobservable at test time, so this is
    the generating model's attainable score and (in expectation) a lower
    bound for fitted models.
    """
    if test.n_samples == 0:
        raise ConfigurationError("oracle_mse needs a non-empty test set")
    resid = test.Y - test.X @ truth.theta
    return float(np.mean(resid**2))
